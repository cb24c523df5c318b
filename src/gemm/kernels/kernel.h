// Runtime-dispatched kernel primitives.
//
// Four primitives carry the hot loops of the pipeline:
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
//     runs through it;
//   * max_row — the row maximum taken ahead of each of those exp_row calls;
//   * bias_gelu_row — dst[j] = gelu_tanh(src[j] + bias[j]): the GEMM2
//     bias+GELU row epilogue (gemm/epilogues.h) and the standalone unfused
//     kernel (kernels/activation.cc) both run it.
//
// tile_multiply has four interchangeable implementations:
//
//   * kScalar — the plain triple loop (the original seed kernel; baseline)
//   * kVec    — 8-wide GCC generic-vector kernel, portable to any ISA the
//               compiler can lower 256-bit vectors to
//   * kAvx2   — explicit 6x16 register-blocked AVX2+FMA kernel (six rows of
//               two ymm accumulators held in registers across the k loop)
//   * kAvx512 — explicit 6x64 register-blocked AVX-512 kernel (six rows of
//               four zmm accumulators: a whole panel row per register row)
//
// The row primitives (exp_row, max_row, bias_gelu_row) have the scalar, vec
// and avx2 implementations; the avx512 kind runs the avx2 ones.
//
// The active kernel is selected once at startup: BT_GEMM_KERNEL=scalar|vec|
// avx2|avx512 overrides, otherwise cpuid-style detection picks the best
// supported variant (avx512, then avx2, then vec), for all primitives at
// once. All four tile_multiply variants accumulate each output element over
// p in ascending order, so — provided FMA contraction is uniform across the
// build (see BT_NATIVE_ARCH in CMakeLists.txt) — they are bitwise
// interchangeable and A/B benchmarking never changes results; avx2 and
// avx512 use explicit FMAs and agree bitwise in every build. The exp_row,
// max_row and bias_gelu_row variants are bitwise interchangeable in every
// build: they use explicit FMAs only (see gemm/kernels/exp_lane.h and
// gemm/kernels/row_lane.h).
#pragma once

#include <string_view>

namespace bt {
class fp16_t;
}  // namespace bt

namespace bt::gemm::kernels {

// Panel geometry shared with gemm::TileShape (static_asserted there).
inline constexpr int kPanelM = 64;   // max rows per A panel / acc tile
inline constexpr int kPanelN = 64;   // acc / B panel row width
inline constexpr int kPanelK = 128;  // A panel row stride / max k per block

enum class Kind : int { kScalar = 0, kVec = 1, kAvx2 = 2, kAvx512 = 3 };
inline constexpr int kNumKinds = 4;

using TileMultiplyFn = void (*)(const float* panel_a, int mc,
                                const float* panel_b, int kc, float* acc);

// dst[j] = exp(src[j] - sub) * mul for j < n; returns sum_j exp(src[j] - sub)
// (before the multiply), accumulated in 8 lane partials (element j into
// lane j % 8) that are combined in one fixed order. dst may alias src.
// exp is within 1 ulp of the correctly rounded result; arguments below
// ln(FLT_MIN) (and -inf) give exactly +0, above ln(FLT_MAX) +inf, NaN NaN.
using ExpRowFn = float (*)(const float* src, float sub, float mul, float* dst,
                           int n);

// Maximum of src[0, n), folded in 8 lane maxima (element j into lane j % 8)
// that are combined in one fixed order. On a row without NaNs the result
// compares equal to the std::max fold (a zero maximum may differ from it in
// sign). NaN elements are skipped: the result is the maximum of the non-NaN
// elements, -inf when there are none (or n == 0) — as for an all -inf row,
// a fully masked causal tile.
using MaxRowFn = float (*)(const float* src, int n);

// dst[j] = gelu_tanh(src[j] + bias[j]) for j < n, bitwise the scalar
// common/numeric.h gelu_tanh of each element. dst may alias src.
using BiasGeluRowFn = void (*)(const float* src, const float* bias,
                               float* dst, int n);

// The implementations. The *_avx2 functions fall back to the vec kernels
// when the toolchain could not build AVX2 code (kAvx2 is then never selected
// by dispatch — supported(kAvx2) reports false); tile_multiply_avx512 falls
// back to the avx2 kernel likewise.
void tile_multiply_scalar(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc);
void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc);
void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc);
void tile_multiply_avx512(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc);

float exp_row_scalar(const float* src, float sub, float mul, float* dst, int n);
float exp_row_vec(const float* src, float sub, float mul, float* dst, int n);
float exp_row_avx2(const float* src, float sub, float mul, float* dst, int n);

float max_row_scalar(const float* src, int n);
float max_row_vec(const float* src, int n);
float max_row_avx2(const float* src, int n);

void bias_gelu_row_scalar(const float* src, const float* bias, float* dst,
                          int n);
void bias_gelu_row_vec(const float* src, const float* bias, float* dst, int n);
void bias_gelu_row_avx2(const float* src, const float* bias, float* dst,
                        int n);

const char* name(Kind kind) noexcept;

// Parses "scalar" / "vec" / "avx2" / "avx512"; returns false on anything
// else.
bool parse(std::string_view text, Kind* out) noexcept;

// Compile-time *and* runtime availability (kAvx2 needs both the kernel
// compiled and the host CPU advertising AVX2+FMA; kAvx512 needs its kernel
// compiled, AVX-512F on the host, and kAvx2 for its row primitives).
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
MaxRowFn max_row_fn(Kind kind) noexcept;
BiasGeluRowFn bias_gelu_row_fn(Kind kind) noexcept;

// Dispatch to the active kernel.
void tile_multiply(const float* panel_a, int mc, const float* panel_b, int kc,
                   float* acc);
float exp_row(const float* src, float sub, float mul, float* dst, int n);
float max_row(const float* src, int n);
void bias_gelu_row(const float* src, const float* bias, float* dst, int n);
// FP16 bias: each kPanelN-wide chunk is widened once into a stack buffer,
// then run through the FP32-bias kernel (widening is exact, so the result
// is the FP32 kernel's on the widened bias).
void bias_gelu_row(const float* src, const fp16_t* bias, float* dst, int n);

namespace detail {
// Whether avx2.cc was actually built with AVX2+FMA (CMake probes the flags;
// portable builds compile it as a vec alias).
bool avx2_kernel_compiled() noexcept;
// Likewise for avx512.cc and -mavx512f -mfma -mf16c.
bool avx512_kernel_compiled() noexcept;
// The kernel active() starts with for a BT_GEMM_KERNEL value (nullptr when
// unset): the requested kind when it parses and is supported, else the best
// supported kind (bad values warn on stderr).
Kind kind_for_env(const char* env) noexcept;
}  // namespace detail

}  // namespace bt::gemm::kernels
