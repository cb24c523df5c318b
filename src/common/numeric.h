// Scalar math used by the memory-bound transformer kernels.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bt {

inline constexpr std::size_t kCacheLine = 64;

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) noexcept {
  return (a + b - 1) / b;
}

constexpr std::int64_t round_up(std::int64_t a, std::int64_t b) noexcept {
  return ceil_div(a, b) * b;
}

// Constants of fast_tanh / gelu_tanh, shared with the vectorized GELU lanes
// of the dispatched bias_gelu_row kernel (gemm/kernels/row_lane.h).
// tanh(x) ~ x (P0 + P1 x^2 + P2 x^4 + x^6) / (Q0 + Q1 x^2 + Q2 x^4 + Q3 x^6).
inline constexpr float kTanhClamp = 4.97f;
inline constexpr float kTanhP0 = 135135.0f;
inline constexpr float kTanhP1 = 17325.0f;
inline constexpr float kTanhP2 = 378.0f;
inline constexpr float kTanhQ0 = 135135.0f;
inline constexpr float kTanhQ1 = 62370.0f;
inline constexpr float kTanhQ2 = 3150.0f;
inline constexpr float kTanhQ3 = 28.0f;
inline constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
inline constexpr float kGeluCoef = 0.044715f;

// Branch-free Pade [7/6] tanh: ~1e-6 absolute error for |x| <= 4.97, then
// clamped (|tanh| > 0.99986 there). No libm call. Every multiply feeding an
// add is an explicit FMA, so the result does not depend on the compiler's
// FMA contraction: the scalar, vec and AVX2 bias_gelu_row kernels, which
// repeat this operation sequence lane by lane, match it bit for bit.
inline float fast_tanh(float x) noexcept {
  x = x < -kTanhClamp ? -kTanhClamp : x;
  x = x > kTanhClamp ? kTanhClamp : x;
  const float x2 = x * x;
  float p = __builtin_fmaf(x, x, kTanhP2);
  p = __builtin_fmaf(p, x2, kTanhP1);
  p = __builtin_fmaf(p, x2, kTanhP0);
  float q = __builtin_fmaf(x2, kTanhQ3, kTanhQ2);
  q = __builtin_fmaf(q, x2, kTanhQ1);
  q = __builtin_fmaf(q, x2, kTanhQ0);
  return (x * p) / q;
}

// GELU with the tanh approximation used by BERT and by the paper's fused
// epilogue (Hendrycks & Gimpel 2016):
//   0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
// This is the one definition of the GELU bits: the scalar lane of the
// dispatched kernels::bias_gelu_row, which both the fused GEMM epilogue and
// the standalone kernel run.
inline float gelu_tanh(float x) noexcept {
  const float x3 = (x * x) * x;
  const float th =
      fast_tanh(kGeluSqrt2OverPi * __builtin_fmaf(kGeluCoef, x3, x));
  const float half_x = 0.5f * x;
  return __builtin_fmaf(half_x, th, half_x);
}

// Exact GELU via erf, used by the FP64 references in tests.
inline double gelu_erf(double x) noexcept {
  return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

inline float relu(float x) noexcept { return x > 0.0f ? x : 0.0f; }

// Numerically-stable softmax building blocks (shared by every softmax
// implementation so the variants differ only in traversal/fusion).
inline float softmax_scale(int head_size) noexcept {
  return 1.0f / std::sqrt(static_cast<float>(head_size));
}

}  // namespace bt
