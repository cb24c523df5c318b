// Runtime-dispatched kernel primitives.
//
// Two primitives carry the hot loops of the pipeline:
//
//   * tile_multiply — the blocked mainloop (gemm/microkernel.h) funnels
//     every GEMM FLOP through
//
//       acc[mc][kPanelN] += panel_a[mc][kPanelK] * panel_b[kc][kPanelN]
//
//     with both panels pre-packed, zero-padded FP32;
//   * exp_row — dst[j] = exp(src[j] - sub) * mul, returning the sum of the
//     exps: every softmax of the attention kernels (the fused-long epilogue
//     and mainloop fusions, the short kernel, flash, the padded baselines)
//     runs through it.
//
// Each primitive has three interchangeable implementations:
//
//   * kScalar — the plain triple loop (the original seed kernel; baseline)
//   * kVec    — 8-wide GCC generic-vector kernel, portable to any ISA the
//               compiler can lower 256-bit vectors to
//   * kAvx2   — explicit 6x16 register-blocked AVX2+FMA kernel (six rows of
//               two ymm accumulators held in registers across the k loop)
//
// The active kernel is selected once at startup: BT_GEMM_KERNEL=scalar|vec|
// avx2 overrides, otherwise cpuid-style detection picks the best supported
// variant, for both primitives at once. All three tile_multiply variants
// accumulate each output element over p in ascending order, so — provided
// FMA contraction is uniform across the build (see BT_NATIVE_ARCH in
// CMakeLists.txt) — they are bitwise interchangeable and A/B benchmarking
// never changes results. The exp_row variants are bitwise interchangeable
// in every build: they use explicit FMAs only (see gemm/kernels/exp_lane.h).
#pragma once

#include <string_view>

namespace bt::gemm::kernels {

// Panel geometry shared with gemm::TileShape (static_asserted there).
inline constexpr int kPanelM = 64;   // max rows per A panel / acc tile
inline constexpr int kPanelN = 64;   // acc / B panel row width
inline constexpr int kPanelK = 128;  // A panel row stride / max k per block

enum class Kind : int { kScalar = 0, kVec = 1, kAvx2 = 2 };
inline constexpr int kNumKinds = 3;

using TileMultiplyFn = void (*)(const float* panel_a, int mc,
                                const float* panel_b, int kc, float* acc);

// dst[j] = exp(src[j] - sub) * mul for j < n; returns sum_j exp(src[j] - sub)
// (before the multiply), accumulated in 8 lane partials (element j into
// lane j % 8) that are combined in one fixed order. dst may alias src.
// exp is within 1 ulp of the correctly rounded result; arguments below
// ln(FLT_MIN) (and -inf) give exactly +0, above ln(FLT_MAX) +inf, NaN NaN.
using ExpRowFn = float (*)(const float* src, float sub, float mul, float* dst,
                           int n);

// The three implementations. tile_multiply_avx2 falls back to the vec
// kernel when the toolchain could not build AVX2 code (it is then never
// selected by dispatch — supported(kAvx2) reports false).
void tile_multiply_scalar(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc);
void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc);
void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc);

float exp_row_scalar(const float* src, float sub, float mul, float* dst, int n);
float exp_row_vec(const float* src, float sub, float mul, float* dst, int n);
float exp_row_avx2(const float* src, float sub, float mul, float* dst, int n);

const char* name(Kind kind) noexcept;

// Parses "scalar" / "vec" / "avx2"; returns false on anything else.
bool parse(std::string_view text, Kind* out) noexcept;

// Compile-time *and* runtime availability (kAvx2 needs both the kernel
// compiled and the host CPU advertising AVX2+FMA).
bool supported(Kind kind) noexcept;

// The kernel in use: BT_GEMM_KERNEL if set (unsupported or unparsable
// values warn on stderr and fall back to detection), else the best
// supported variant.
Kind active() noexcept;

// Forces a kernel for tests / A-B benchmarks. Returns false (and keeps the
// current kernel) when `kind` is unsupported on this build/host.
bool force(Kind kind) noexcept;

// Implementation functions for a kind (for direct calls in tests).
TileMultiplyFn fn(Kind kind) noexcept;
ExpRowFn exp_row_fn(Kind kind) noexcept;

// Dispatch to the active kernel.
void tile_multiply(const float* panel_a, int mc, const float* panel_b, int kc,
                   float* acc);
float exp_row(const float* src, float sub, float mul, float* dst, int n);

namespace detail {
// Whether avx2.cc was actually built with AVX2+FMA (CMake probes the flags;
// portable builds compile it as a vec alias).
bool avx2_kernel_compiled() noexcept;
}  // namespace detail

}  // namespace bt::gemm::kernels
