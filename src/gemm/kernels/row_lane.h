// The lanes of the bias_gelu_row and max_row primitives — shared by the
// scalar, vec and AVX2 variants (the vector variants run their tails
// through them), so every variant computes the same operation sequence.
//
//   * bias_gelu_row: dst[j] = gelu_tanh(src[j] + bias[j]), the GELU of
//     common/numeric.h. Its multiplies that feed adds are explicit FMAs and
//     its one division is correctly rounded, so the vector variants, which
//     spell the same sequence eight lanes wide, agree with the scalar lane
//     bit for bit in native and portable builds alike.
//   * max_row: element j folds into lane j % 8 with max_lane, and the 8
//     lane maxima combine in one fixed order. Lanes start at -inf and a NaN
//     element never wins a comparison, so NaNs are skipped.
#pragma once

#include <limits>

#include "common/numeric.h"

namespace bt::gemm::kernels::detail {

// m after folding in x: x when x > m, else m (a NaN x leaves m). The same
// selection as _mm256_max_ps(x, m), so the AVX2 variant matches bitwise,
// including which of +0 / -0 survives.
inline float max_lane(float m, float x) noexcept { return x > m ? x : m; }

inline constexpr float kMaxInit = -std::numeric_limits<float>::infinity();

// The fixed combination order of the 8 lane maxima.
inline float max_lanes(const float lanes[8]) noexcept {
  return max_lane(max_lane(max_lane(lanes[0], lanes[1]),
                           max_lane(lanes[2], lanes[3])),
                  max_lane(max_lane(lanes[4], lanes[5]),
                           max_lane(lanes[6], lanes[7])));
}

// Elements [j, n) of max_row, element j into lane j % 8: the scalar
// variant's whole loop and the vector variants' tails.
inline void max_row_tail(const float* src, int j, int n,
                         float lanes[8]) noexcept {
  for (; j < n; ++j) lanes[j & 7] = max_lane(lanes[j & 7], src[j]);
}

// Elements [j, n) of bias_gelu_row.
inline void bias_gelu_row_tail(const float* src, const float* bias, float* dst,
                               int j, int n) noexcept {
  for (; j < n; ++j) dst[j] = gelu_tanh(src[j] + bias[j]);
}

}  // namespace bt::gemm::kernels::detail
