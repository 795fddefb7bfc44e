#pragma once

// The JSON members of the two statistics records the tools and the
// serving daemon report: agingrun's sweep points and fault campaigns,
// agingd's query stats, campaign responses and progress frames. Each
// writes key/value pairs into an object the caller has opened.

#include "src/core/vl_multiplier.hpp"
#include "src/fault/campaign.hpp"
#include "src/report/json.hpp"

namespace agingsim {

void write_run_stats(JsonWriter& json, const RunStats& s);
void write_campaign_stats(JsonWriter& json, const FaultCampaignStats& s);

}  // namespace agingsim
