#pragma once

#include <vector>

#include "src/lint/diagnostic.hpp"

namespace agingsim::lint {

/// Runs the structural rows over `netlist` and returns every diagnostic.
/// `Netlist::validate()` delegates to it, so construction-time validation
/// and the `aginglint` CLI agree on what "structurally sound" means. Unlike
/// lint::run it records no `lint.rule` span: every multiplier build calls
/// it. Never throws and never reads out of bounds, whatever the corruption.
std::vector<Diagnostic> structural_diagnostics(const Netlist& netlist);

}  // namespace agingsim::lint
