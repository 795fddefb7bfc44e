#pragma once

// Value-plane evaluation of one gate over the 64 lanes of a word — the
// single word-parallel statement of the cell semantics in cell.cpp
// (eval_cell). Two sweeps call it: the batch timing kernel
// (batch_sweep.inl) and the values-only stress extraction
// (aging/stress.cpp).
//
// Bit-plane encoding: lane l of plane0/plane1 carries the two bits of the
// Logic code (kZero=00, kOne=01, kX=10, kZ=11; plane0 = low bit). So:
//   known(v) = ~plane1,  one(v) = plane0 & ~plane1,  zero(v) = ~plane0 & ~plane1.
//
// The evaluator lives in an unnamed namespace so every translation unit
// gets its own copy: batch_sweep.inl is compiled both with and without
// -mavx2, and a shared out-of-line definition could hand AVX2 code to the
// generic backend.

#include <cstdint>

#include "src/netlist/cell.hpp"
#include "src/netlist/logic.hpp"

namespace agingsim::detail {
namespace {

/// Output planes of one gate over a word.
struct WordPlanes {
  std::uint64_t p0 = 0;
  std::uint64_t p1 = 0;
};

/// The Logic value lane `lane` of a plane pair carries.
inline Logic lane_logic(std::uint64_t p0, std::uint64_t p1, int lane) {
  return static_cast<Logic>(((p0 >> lane) & 1u) | (((p1 >> lane) & 1u) << 1));
}

/// Lane masks of a value's edges within a word.
struct LaneEdges {
  std::uint64_t changed = 0;  ///< lanes whose value differs from the lane before
  std::uint64_t toggled = 0;  ///< the changed lanes that went known -> known
};

/// Edges of the plane pair `p0`/`p1` over lanes [0, lanes) (`lane_mask`);
/// lane 0 compares against `carried`, the value before the word.
inline LaneEdges lane_edges(std::uint64_t p0, std::uint64_t p1, Logic carried,
                            std::uint64_t lane_mask) {
  const auto c = static_cast<std::uint64_t>(carried);
  const std::uint64_t prev0 = (p0 << 1) | (c & 1u);
  const std::uint64_t prev1 = (p1 << 1) | ((c >> 1) & 1u);
  const std::uint64_t changed = ((p0 ^ prev0) | (p1 ^ prev1)) & lane_mask;
  return {changed, changed & ~p1 & ~prev1};
}

/// eval_cell over every lane of a word. `ip0`/`ip1` hold one plane word per
/// gate input. `kept` is the gate's output value after the previous word's
/// last lane: the bus-keeper state a disabled Tbuf holds, chained lane by
/// lane through lanes [0, lanes). A Tbuf inverts the lanes in `tbuf_flip`
/// (logic_not, a transient strike) inside that chain, so a later disabled
/// lane keeps the inverted value; other kinds ignore it. Lanes at or above
/// `lanes` are unspecified — callers mask them with `lane_mask`.
inline WordPlanes eval_word(CellKind kind, const std::uint64_t* ip0,
                            const std::uint64_t* ip1, Logic kept, int lanes,
                            std::uint64_t lane_mask,
                            std::uint64_t tbuf_flip = 0) {
  std::uint64_t o0 = 0, o1 = 0;
  switch (kind) {
    case CellKind::kBuf:  // known passes; X/Z -> X
      o0 = ip0[0] & ~ip1[0];
      o1 = ip1[0];
      break;
    case CellKind::kInv:
      o0 = ~ip0[0] & ~ip1[0];
      o1 = ip1[0];
      break;
    case CellKind::kAnd2: {
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) | (~ip0[1] & ~ip1[1]);
      const std::uint64_t one = (ip0[0] & ~ip1[0]) & (ip0[1] & ~ip1[1]);
      o0 = one;
      o1 = ~(z | one);
      break;
    }
    case CellKind::kNand2: {
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) | (~ip0[1] & ~ip1[1]);
      const std::uint64_t one = (ip0[0] & ~ip1[0]) & (ip0[1] & ~ip1[1]);
      o0 = z;
      o1 = ~(z | one);
      break;
    }
    case CellKind::kOr2: {
      const std::uint64_t one = (ip0[0] & ~ip1[0]) | (ip0[1] & ~ip1[1]);
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) & (~ip0[1] & ~ip1[1]);
      o0 = one;
      o1 = ~(one | z);
      break;
    }
    case CellKind::kNor2: {
      const std::uint64_t one = (ip0[0] & ~ip1[0]) | (ip0[1] & ~ip1[1]);
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) & (~ip0[1] & ~ip1[1]);
      o0 = z;
      o1 = ~(one | z);
      break;
    }
    case CellKind::kXor2: {
      const std::uint64_t kk = ~ip1[0] & ~ip1[1];
      o0 = kk & (ip0[0] ^ ip0[1]);
      o1 = ~kk;
      break;
    }
    case CellKind::kXnor2: {
      const std::uint64_t kk = ~ip1[0] & ~ip1[1];
      o0 = kk & ~(ip0[0] ^ ip0[1]);
      o1 = ~kk;
      break;
    }
    case CellKind::kAnd3: {
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) | (~ip0[1] & ~ip1[1]) |
                              (~ip0[2] & ~ip1[2]);
      const std::uint64_t one =
          (ip0[0] & ~ip1[0]) & (ip0[1] & ~ip1[1]) & (ip0[2] & ~ip1[2]);
      o0 = one;
      o1 = ~(z | one);
      break;
    }
    case CellKind::kOr3: {
      const std::uint64_t one =
          (ip0[0] & ~ip1[0]) | (ip0[1] & ~ip1[1]) | (ip0[2] & ~ip1[2]);
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) & (~ip0[1] & ~ip1[1]) &
                              (~ip0[2] & ~ip1[2]);
      o0 = one;
      o1 = ~(one | z);
      break;
    }
    case CellKind::kMux2: {
      const std::uint64_t sz = ~ip0[2] & ~ip1[2];
      const std::uint64_t so = ip0[2] & ~ip1[2];
      const std::uint64_t su = ~(sz | so);
      const std::uint64_t b00 = ip0[0] & ~ip1[0];  // buf(d0)
      const std::uint64_t b10 = ip0[1] & ~ip1[1];  // buf(d1)
      // Unknown select resolves only when d0 is known and equals d1.
      const std::uint64_t agree =
          ~ip1[0] & ~((ip0[0] ^ ip0[1]) | (ip1[0] ^ ip1[1]));
      o0 = (sz & b00) | (so & b10) | (su & agree & ip0[0]);
      o1 = (sz & ip1[0]) | (so & ip1[1]) | (su & ~agree);
      break;
    }
    case CellKind::kTbuf: {
      // Keeper chain is inherently serial across lanes; tri-state counts
      // are small, so a 64-step scalar loop is fine.
      Logic cur = kept;
      for (int l = 0; l < lanes; ++l) {
        const Logic dcode = lane_logic(ip0[0], ip1[0], l);
        const Logic en = lane_logic(ip0[1], ip1[1], l);
        Logic v;
        if (en == Logic::kOne) {
          v = is_known(dcode) ? dcode : Logic::kX;
        } else if (en == Logic::kZero) {
          v = cur;  // bus keeper (Z stays Z until driven)
        } else {
          v = Logic::kX;
        }
        if (((tbuf_flip >> l) & 1u) != 0) v = logic_not(v);
        o0 |= (static_cast<std::uint64_t>(v) & 1u) << l;
        o1 |= ((static_cast<std::uint64_t>(v) >> 1) & 1u) << l;
        cur = v;
      }
      break;
    }
    case CellKind::kTie0:
      break;  // constant 00
    case CellKind::kTie1:
      o0 = lane_mask;
      break;
    case CellKind::kCount:
      break;
  }
  return {o0, o1};
}

}  // namespace
}  // namespace agingsim::detail
