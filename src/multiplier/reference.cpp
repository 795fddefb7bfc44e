#include <stdexcept>

#include "src/multiplier/multiplier.hpp"

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

MultiplierSim::MultiplierSim(const MultiplierNetlist& mult,
                             const TechLibrary& tech,
                             std::span<const double> gate_delay_scale)
    : mult_(&mult),
      sim_(mult.netlist, tech, gate_delay_scale),
      pattern_(mult.netlist.num_inputs(), Logic::kZero) {}

StepResult MultiplierSim::apply(std::uint64_t a, std::uint64_t b) {
  sim_.load_bus(pattern_, a, mult_->width, mult_->a_first_input);
  sim_.load_bus(pattern_, b, mult_->width, mult_->b_first_input);
  return sim_.step(pattern_);
}

}  // namespace agingsim
