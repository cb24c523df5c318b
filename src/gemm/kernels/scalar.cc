// Baseline scalar microkernel — the seed repo's original tile_multiply,
// kept verbatim as the dispatch floor and the A/B reference for the SIMD
// variants. The j loop runs at the full padded width so the compiler can
// still auto-vectorize with whatever ISA the build enables. The scalar
// exp_row, max_row and bias_gelu_row are the shared lane loops of
// gemm/kernels/exp_lane.h and gemm/kernels/row_lane.h, run over the whole
// row.
#include "gemm/kernels/kernel.h"
#include "gemm/kernels/exp_lane.h"
#include "gemm/kernels/row_lane.h"

#include <cstdint>

namespace bt::gemm::kernels {

void tile_multiply_scalar(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc) {
  for (int i = 0; i < mc; ++i) {
    const float* a_row = panel_a + static_cast<std::int64_t>(i) * kPanelK;
    float* acc_row = acc + static_cast<std::int64_t>(i) * kPanelN;
    for (int p = 0; p < kc; ++p) {
      const float av = a_row[p];
      const float* b_row = panel_b + static_cast<std::int64_t>(p) * kPanelN;
      for (int j = 0; j < kPanelN; ++j) {
        acc_row[j] += av * b_row[j];
      }
    }
  }
}

float exp_row_scalar(const float* src, float sub, float mul, float* dst,
                     int n) {
  float lanes[8] = {};
  detail::exp_row_tail(src, sub, mul, dst, 0, n, lanes);
  return detail::sum_lanes(lanes);
}

float max_row_scalar(const float* src, int n) {
  float lanes[8];
  for (float& m : lanes) m = detail::kMaxInit;
  detail::max_row_tail(src, 0, n, lanes);
  return detail::max_lanes(lanes);
}

void bias_gelu_row_scalar(const float* src, const float* bias, float* dst,
                          int n) {
  detail::bias_gelu_row_tail(src, bias, dst, 0, n);
}

}  // namespace bt::gemm::kernels
