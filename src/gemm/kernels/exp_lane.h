// The exp of the exp_row primitive, one lane at a time — shared by the
// scalar, vec and AVX2 variants (the vector variants run their tails
// through it), so every variant computes the same operation sequence.
//
//   n = round(x * log2(e))                 (added to 1.5 * 2^23: the low
//                                           mantissa bits then hold n)
//   r = x - n * ln2                        (two-step Cody-Waite split)
//   p = 1 + r + c2 r^2 + ... + c6 r^6      (one Horner chain of FMAs)
//   exp(x) = p * 2^n                       (n added to p's exponent bits)
//
// Every multiply that feeds an add is an explicit FMA and the 2^n scaling
// is integer arithmetic, so no result depends on the compiler's FMA
// contraction: the three variants agree bitwise in native and portable
// builds alike. c2..c6 are a Chebyshev fit of (e^r - 1 - r) / r^2 on
// |r| <= ln2 / 2, rounded to float; with c0 = c1 = 1 exact, the result is
// within 1 ulp of the correctly rounded exp over the whole normal range.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace bt::gemm::kernels::detail {

inline constexpr float kExpLog2e = 1.44269504088896341f;
inline constexpr float kExpRound = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kExpLn2Hi = 0.693147182464599609375f;  // float(ln2)
inline constexpr float kExpLn2Lo = -1.904654212125934e-09f;  // ln2 - kExpLn2Hi
inline constexpr float kExpC6 = 0.0013926250394433737f;
inline constexpr float kExpC5 = 0.00836323294788599f;
inline constexpr float kExpC4 = 0.04166655242443085f;
inline constexpr float kExpC3 = 0.16666576266288757f;
inline constexpr float kExpC2 = 0.5f;
// Outside [kExpLo, kExpHi] the result is flushed: +0 below (the true exp
// is subnormal there), +inf above. Both bounds are the floats just inside
// ln(FLT_MIN) and ln(FLT_MAX), which keeps p * 2^n a normal float.
inline constexpr float kExpLo = -87.33654022216797f;
inline constexpr float kExpHi = 88.72283172607422f;

inline float exp_lane(float x) noexcept {
  const float t = __builtin_fmaf(x, kExpLog2e, kExpRound);
  const float n = t - kExpRound;
  float r = __builtin_fmaf(n, -kExpLn2Hi, x);
  r = __builtin_fmaf(n, -kExpLn2Lo, r);
  float p = kExpC6;
  p = __builtin_fmaf(p, r, kExpC5);
  p = __builtin_fmaf(p, r, kExpC4);
  p = __builtin_fmaf(p, r, kExpC3);
  p = __builtin_fmaf(p, r, kExpC2);
  p = __builtin_fmaf(p, r, 1.0f);
  p = __builtin_fmaf(p, r, 1.0f);
  const std::uint32_t k =
      std::bit_cast<std::uint32_t>(t) - std::bit_cast<std::uint32_t>(kExpRound);
  float e = std::bit_cast<float>(std::bit_cast<std::uint32_t>(p) + (k << 23));
  e = x < kExpLo ? 0.0f : e;
  e = x > kExpHi ? std::numeric_limits<float>::infinity() : e;
  e = x != x ? x : e;  // NaN
  return e;
}

// The fixed combination order of the 8 lane partial sums.
inline float sum_lanes(const float lanes[8]) noexcept {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

// Elements [j, n) of exp_row, element j into lane j % 8: the scalar
// variant's whole loop and the vector variants' tails.
inline void exp_row_tail(const float* src, float sub, float mul, float* dst,
                         int j, int n, float lanes[8]) noexcept {
  for (; j < n; ++j) {
    const float e = exp_lane(src[j] - sub);
    lanes[j & 7] += e;
    dst[j] = e * mul;
  }
}

}  // namespace bt::gemm::kernels::detail
