// Baseline scalar microkernel — the seed repo's original tile_multiply,
// kept verbatim as the dispatch floor and the A/B reference for the SIMD
// variants. The j loop runs at the full padded width so the compiler can
// still auto-vectorize with whatever ISA the build enables. The scalar
// exp_row is the shared lane loop of gemm/kernels/exp_lane.h, run over the
// whole row.
#include "gemm/kernels/kernel.h"
#include "gemm/kernels/exp_lane.h"

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

}  // namespace bt::gemm::kernels
