// Fused epilogues / mainloop transforms.
//
// These functors are the CPU analogues of the paper's CUTLASS
// customizations:
//   * BiasEpilogue / BiasGeluEpilogue      — Sec. III-C2 (Fig. 10): row
//     epilogues (gemm/microkernel.h's on_row hook) rewriting each FP32
//     accumulator row before it is narrowed
//   * SoftmaxPartialReduceEpilogue          — Fig. 8 (epilogue reduction of
//     per-tile max and sum-of-exp for the first grouped GEMM of fused MHA)
//   * SoftmaxNormalizeATransform            — Algorithm III.2 (mainloop
//     fusion: A-operand elements become exp(a - max)/sum on load in the
//     second grouped GEMM)
//
// The row work runs through the dispatched primitives of
// gemm/kernels/kernel.h, selected with the GEMM microkernel
// (BT_GEMM_KERNEL): bias+GELU is one kernels::bias_gelu_row call per
// accumulator row, and every softmax row (accumulator row, panel row or
// partial-statistics row) is one kernels::max_row and/or kernels::exp_row
// call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/half.h"
#include "common/numeric.h"
#include "gemm/kernels/kernel.h"
#include "gemm/microkernel.h"

namespace bt::gemm {

// out = acc + bias[col]
template <typename TBias>
struct BiasEpilogue {
  const TBias* bias = nullptr;
  void on_row(int /*problem*/, std::int64_t /*row*/, std::int64_t col0,
              float* values, int n) const noexcept {
    float wide[TileShape::kN];
    convert_row_f32(bias + col0, wide, n);
    for (int j = 0; j < n; ++j) values[j] += wide[j];
  }
};

// out = gelu(acc + bias[col]) — the paper's fused GEMM + add-bias + GELU.
template <typename TBias>
struct BiasGeluEpilogue {
  const TBias* bias = nullptr;
  void on_row(int /*problem*/, std::int64_t /*row*/, std::int64_t col0,
              float* values, int n) const noexcept {
    kernels::bias_gelu_row(values, bias + col0, values, n);
  }
};

// Per-problem partial softmax statistics produced by the first fused-MHA
// grouped GEMM. Layout: partial_max/partial_sum are [rows x col_tiles]
// row-major; one entry per (row, kN-wide column tile).
struct SoftmaxPartials {
  float* partial_max = nullptr;  // [rows * col_tiles]
  float* partial_sum = nullptr;  // sum of exp(x - partial_max) per tile
  std::int64_t col_tiles = 0;
  std::int64_t rows = 0;
};

// Epilogue hook computing the per-tile reduction while the scaled scores are
// still in the accumulator. It has no row hook, so values are stored
// unchanged (the normalization happens later, fused into the second GEMM's
// mainloop).
struct SoftmaxPartialReduceEpilogue {
  std::span<SoftmaxPartials> partials;

  void on_tile(int problem, std::int64_t row0, std::int64_t col0, int rows,
               int cols, const float* acc, int ld) const noexcept {
    const SoftmaxPartials& p = partials[static_cast<std::size_t>(problem)];
    const std::int64_t col_tile = col0 / TileShape::kN;
    float exps[TileShape::kN];  // only the sum is kept
    for (int i = 0; i < rows; ++i) {
      const float* acc_row = acc + static_cast<std::int64_t>(i) * ld;
      const float mx = kernels::max_row(acc_row, cols);
      const float sum = kernels::exp_row(acc_row, mx, 1.0f, exps, cols);
      const std::int64_t idx = (row0 + i) * p.col_tiles + col_tile;
      p.partial_max[idx] = mx;
      p.partial_sum[idx] = sum;
    }
  }
};

// Fully-reduced per-row statistics for one problem (output of the separate
// lightweight full-reduction kernel, paper Fig. 6 step 2).
struct SoftmaxRowStats {
  const float* row_max = nullptr;      // [rows]
  const float* row_inv_sum = nullptr;  // [rows], 1 / sum of exp(x - row_max)
};

// Mainloop fusion: A(row, k) -> exp(a - max[row]) * inv_sum[row], applied
// when the second grouped GEMM packs its A operand (the score matrix): one
// exp_row pass over each widened panel row.
struct SoftmaxNormalizeATransform {
  std::span<const SoftmaxRowStats> stats;

  void operator()(int problem, std::int64_t row, float* values,
                  int kc) const noexcept {
    const SoftmaxRowStats& s = stats[static_cast<std::size_t>(problem)];
    kernels::exp_row(values, s.row_max[row], s.row_inv_sum[row], values, kc);
  }
};

// Full reduction across column tiles: combines the per-tile (max, sum) pairs
// into per-row (max, inv_sum). Negligible work compared to the GEMMs, as in
// the paper (~2% of fused-MHA time).
inline void softmax_full_reduce(const SoftmaxPartials& p,
                                std::int64_t valid_cols_tiles, float* row_max,
                                float* row_inv_sum) {
  const int tiles = static_cast<int>(valid_cols_tiles);
  // rescale[t] = exp(pm[t] - gmax): the factor moving tile t's partial sum
  // onto the row maximum, computed kChunk tiles (4096 columns) at a time.
  constexpr int kChunk = 64;
  float rescale[kChunk];
  for (std::int64_t r = 0; r < p.rows; ++r) {
    const float* pm = p.partial_max + r * p.col_tiles;
    const float* ps = p.partial_sum + r * p.col_tiles;
    const float gmax = kernels::max_row(pm, tiles);
    float gsum = 0.0f;
    for (int t0 = 0; t0 < tiles; t0 += kChunk) {
      const int n = std::min(kChunk, tiles - t0);
      kernels::exp_row(pm + t0, gmax, 1.0f, rescale, n);
      for (int t = 0; t < n; ++t) gsum += ps[t0 + t] * rescale[t];
    }
    row_max[r] = gmax;
    row_inv_sum[r] = gsum > 0.0f ? 1.0f / gsum : 0.0f;
  }
}

}  // namespace bt::gemm
