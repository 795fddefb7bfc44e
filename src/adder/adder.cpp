#include "src/adder/adder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/netlist/builder.hpp"

namespace agingsim {
namespace {

void check_adder_width(int width) {
  if (width < 2 || width > 63) {
    throw std::invalid_argument("adder width must be in [2, 63]");
  }
}

}  // namespace

AdderNetlist build_ripple_carry_adder(int width) {
  check_adder_width(width);
  NetlistBuilder nb;
  const auto a = nb.input_bus("a", width);
  const auto b = nb.input_bus("b", width);
  std::vector<NetId> sum;
  sum.reserve(static_cast<std::size_t>(width));
  NetId carry = nb.zero();
  for (int i = 0; i < width; ++i) {
    const AdderBits fa =
        nb.full_adder(a[static_cast<std::size_t>(i)],
                      b[static_cast<std::size_t>(i)], carry);
    sum.push_back(fa.sum);
    carry = fa.carry;
  }
  nb.output_bus("s", sum);
  nb.netlist().mark_output(carry, "cout");
  nb.netlist().validate();
  return AdderNetlist{std::move(nb.netlist()), width, 0, width, false};
}

namespace {

/// Per-bit generate/propagate terms over input buses.
void make_gp(NetlistBuilder& nb, const std::vector<NetId>& a,
             const std::vector<NetId>& b, std::vector<NetId>& g,
             std::vector<NetId>& p) {
  g.resize(a.size());
  p.resize(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    g[i] = nb.and2(a[i], b[i]);
    p[i] = nb.xor2(a[i], b[i]);
  }
}

}  // namespace

AdderNetlist build_carry_lookahead_adder(int width) {
  check_adder_width(width);
  NetlistBuilder nb;
  const auto a = nb.input_bus("a", width);
  const auto b = nb.input_bus("b", width);
  std::vector<NetId> g, p;
  make_gp(nb, a, b, g, p);

  // 4-bit groups. The prefix generate/propagate terms (G_k, P_k) over the
  // group's low k bits are carry-in independent, so every carry in the
  // group — including the group's carry-out — is just G | (P & cin): two
  // gate levels past the incoming carry. The critical path therefore
  // advances a whole group per two gates instead of one bit per two gates.
  std::vector<NetId> c(static_cast<std::size_t>(width) + 1);
  c[0] = nb.zero();
  for (int base = 0; base < width; base += 4) {
    const int len = std::min(4, width - base);
    const NetId cin = c[static_cast<std::size_t>(base)];
    NetId big_g = kInvalidNet, big_p = kInvalidNet;
    for (int k = 1; k <= len; ++k) {
      const std::size_t i = static_cast<std::size_t>(base + k - 1);
      if (k == 1) {
        big_g = g[i];
        big_p = p[i];
      } else {
        big_g = nb.or2(g[i], nb.and2(p[i], big_g));
        big_p = nb.and2(p[i], big_p);
      }
      c[static_cast<std::size_t>(base + k)] =
          nb.or2(big_g, nb.and2(big_p, cin));
    }
  }

  std::vector<NetId> sum;
  sum.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    sum.push_back(nb.xor2(p[static_cast<std::size_t>(i)],
                          c[static_cast<std::size_t>(i)]));
  }
  nb.output_bus("s", sum);
  nb.netlist().mark_output(c[static_cast<std::size_t>(width)], "cout");
  nb.netlist().validate();
  return AdderNetlist{std::move(nb.netlist()), width, 0, width, false};
}

std::vector<NetId> kogge_stone_carries(NetlistBuilder& nb,
                                       std::span<const NetId> g,
                                       std::span<const NetId> p, NetId cin) {
  const std::size_t n = g.size();
  if (p.size() != n) {
    throw std::invalid_argument("kogge_stone_carries: g/p size mismatch");
  }
  // Prefix pairs (G, P): after the network, G[i] = "carry out of bits
  // 0..i assuming zero carry-in".
  std::vector<NetId> big_g(g.begin(), g.end());
  std::vector<NetId> big_p(p.begin(), p.end());
  for (std::size_t dist = 1; dist < n; dist *= 2) {
    std::vector<NetId> ng = big_g, np = big_p;
    for (std::size_t i = dist; i < n; ++i) {
      ng[i] = nb.or2(big_g[i], nb.and2(big_p[i], big_g[i - dist]));
      np[i] = nb.and2(big_p[i], big_p[i - dist]);
    }
    big_g = std::move(ng);
    big_p = std::move(np);
  }
  std::vector<NetId> c(n + 1);
  c[0] = cin;
  for (std::size_t i = 0; i < n; ++i) {
    // c[i+1] = G[0..i] | P[0..i] & cin
    c[i + 1] = nb.or2(big_g[i], nb.and2(big_p[i], cin));
  }
  return c;
}

AdderNetlist build_variable_latency_rca(int width, int first_probe,
                                        int probe_bits) {
  check_adder_width(width);
  if (first_probe < 0 || probe_bits < 1 ||
      first_probe + probe_bits > width) {
    throw std::invalid_argument(
        "build_variable_latency_rca: probe window out of range");
  }
  AdderNetlist adder = build_ripple_carry_adder(width);
  // Re-derive the hold logic on top of the existing primary inputs. The
  // netlist exposes a[..] then b[..]; XOR the probed pairs and AND-reduce.
  Netlist& nl = adder.netlist;
  NetId hold = kInvalidNet;
  for (int k = 0; k < probe_bits; ++k) {
    const NetId ai =
        nl.input_nets()[static_cast<std::size_t>(first_probe + k)];
    const NetId bi = nl.input_nets()[static_cast<std::size_t>(
        width + first_probe + k)];
    const NetId x = nl.add_gate(CellKind::kXor2, {ai, bi});
    hold = (hold == kInvalidNet) ? x
                                 : nl.add_gate(CellKind::kAnd2, {hold, x});
  }
  nl.mark_output(hold, "hold");
  nl.validate();
  adder.has_hold = true;
  return adder;
}

std::uint64_t reference_add(std::uint64_t a, std::uint64_t b, int width) {
  check_adder_width(width);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  return (a & mask) + (b & mask);  // bit `width` is the carry-out
}

bool hold_predicate(std::uint64_t a, std::uint64_t b, int first_probe,
                    int probe_bits) {
  for (int k = 0; k < probe_bits; ++k) {
    const int bit = first_probe + k;
    if ((((a >> bit) ^ (b >> bit)) & 1) == 0) return false;
  }
  return true;
}

}  // namespace agingsim
