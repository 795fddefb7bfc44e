#include <algorithm>
#include <stdexcept>

#include "src/multiplier/multiplier.hpp"
#include "src/obs/trace.hpp"

namespace agingsim {

const char* arch_name(MultiplierArch arch) noexcept {
  switch (arch) {
    case MultiplierArch::kArray: return "AM";
    case MultiplierArch::kColumnBypass: return "CB";
    case MultiplierArch::kRowBypass: return "RB";
    case MultiplierArch::kWallaceTree: return "WT";
  }
  return "?";
}

std::optional<MultiplierArch> parse_arch(std::string_view name) {
  if (name == "am" || name == "array") return MultiplierArch::kArray;
  if (name == "cb" || name == "column") return MultiplierArch::kColumnBypass;
  if (name == "rb" || name == "row") return MultiplierArch::kRowBypass;
  if (name == "wt" || name == "wallace") return MultiplierArch::kWallaceTree;
  return std::nullopt;
}

bool judges_on_multiplicand(MultiplierArch arch) noexcept {
  return arch != MultiplierArch::kRowBypass;
}

MultiplierNetlist build_multiplier(MultiplierArch arch, int width) {
  obs::TraceSpan span("netlist.generate", static_cast<std::uint64_t>(width));
  switch (arch) {
    case MultiplierArch::kArray: return build_array_multiplier(width);
    case MultiplierArch::kColumnBypass:
      return build_column_bypass_multiplier(width);
    case MultiplierArch::kRowBypass: return build_row_bypass_multiplier(width);
    case MultiplierArch::kWallaceTree:
      return build_wallace_tree_multiplier(width);
  }
  throw std::invalid_argument("build_multiplier: bad arch");
}

std::uint64_t reference_multiply(std::uint64_t a, std::uint64_t b, int width) {
  if (width < 1 || width > 32) {
    throw std::invalid_argument("reference_multiply: width must be in [1,32]");
  }
  const std::uint64_t mask =
      width == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  return (a & mask) * (b & mask);
}

void load_word(std::span<std::uint64_t> words, const MultiplierNetlist& mult,
               std::span<const OperandPattern> patterns) {
  std::fill(words.begin(), words.end(), 0);
  for (std::size_t l = 0; l < patterns.size(); ++l) {
    load_bus_lane(words, patterns[l].a, mult.width, mult.a_first_input,
                  static_cast<int>(l));
    load_bus_lane(words, patterns[l].b, mult.width, mult.b_first_input,
                  static_cast<int>(l));
  }
}

MultiplierSim::MultiplierSim(const MultiplierNetlist& mult,
                             const TechLibrary& tech,
                             std::span<const double> gate_delay_scale)
    : mult_(&mult),
      sim_(mult.netlist, tech, gate_delay_scale),
      pattern_(mult.netlist.num_inputs(), Logic::kZero) {}

StepResult MultiplierSim::apply(std::uint64_t a, std::uint64_t b) {
  load_bus(pattern_, a, mult_->width, mult_->a_first_input);
  load_bus(pattern_, b, mult_->width, mult_->b_first_input);
  return sim_.step(pattern_);
}

}  // namespace agingsim
