// AVX2 instantiation of the batch word-sweep core. CMake compiles this
// translation unit with -mavx2 on x86-64 toolchains that support it, so the
// per-lane density/arrival loops in batch_sweep.inl vectorize 8 floats / 4
// doubles wide; batch_sim.cpp picks this sweep at runtime only when the CPU
// reports AVX2. On any other configuration the same file compiles to a plain
// forwarder, so a scalar fallback always exists and the binary never
// executes an instruction the host lacks. FP semantics are identical in
// both builds (-ffp-contract=off, no reassociation), so the choice of
// backend is invisible in every result bit.

#include <algorithm>
#include <cstring>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "src/sim/batch_sweep.hpp"
#include "src/sim/density_model.hpp"
#include "src/sim/word_eval.hpp"

namespace agingsim {
namespace detail {

#if defined(__AVX2__)

#define AGINGSIM_SWEEP_FN run_sweep_avx2
#include "src/sim/batch_sweep.inl"
#undef AGINGSIM_SWEEP_FN

bool avx2_sweep_available() noexcept { return true; }

#else

void run_sweep_avx2(SweepContext& ctx) { run_sweep_generic(ctx); }
bool avx2_sweep_available() noexcept { return false; }

#endif

}  // namespace detail
}  // namespace agingsim
