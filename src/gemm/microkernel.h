// Blocked GEMM mainloop with fusion hooks.
//
// Layout mirrors the CUTLASS kernels the paper builds on:
//   * operands are packed into per-CTA scratch panels ("shared memory"),
//     widening FP16 -> FP32 at pack time (tensor-core semantics),
//   * the A-panel pack point is the *mainloop fusion* hook — ByteTransformer
//     fuses the softmax normalization exp(x-max)/sum into the second grouped
//     GEMM's operand load (paper Algorithm III.2); here the hook sees each
//     widened FP32 panel row whole, so it can run one vectorized pass,
//   * the accumulator is the *epilogue fusion* hook, at two grains: a tile
//     hook sees the whole FP32 tile (the softmax partial reduction, paper
//     Fig. 8) and a row hook rewrites each accumulator row in place before
//     it is narrowed (bias and bias+GELU, Sec. III-C2) — one dispatched
//     vectorized pass per row, as the mainloop hook is per panel row.
//
// The inner product itself lives in gemm/kernels/ (runtime-dispatched
// scalar / generic-vector / AVX2 / AVX-512 microkernels); this header owns
// packing, the k loop, and the epilogue. compute_tile_bsrc abstracts *where*
// the B panel comes from — packed on the fly into scratch, served from a
// persistent prepacked weight panel (gemm/packed.h), or from a per-CTA
// column stripe reused across the tile_m loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/half.h"
#include "common/numeric.h"
#include "gemm/kernels/kernel.h"

namespace bt::gemm {

enum class Trans : std::uint8_t { N, T };

// CTA tile shape. 64x64 output tile with K blocked by 128 keeps all three
// panels (A, B, accumulator) inside the default 164 KiB scratch arena.
// Geometry is shared with the dispatched microkernels.
struct TileShape {
  static constexpr int kM = kernels::kPanelM;
  static constexpr int kN = kernels::kPanelN;
  static constexpr int kK = kernels::kPanelK;
};

// Default hooks: identity mainloop transform / identity epilogue.
//
// A mainloop transform is called once per packed A-panel row, after the row
// segment values[0, kc) of op(A) row `row` has been widened to FP32, and
// rewrites it in place.
struct IdentityATransform {
  void operator()(int /*problem*/, std::int64_t /*row*/, float* /*values*/,
                  int /*kc*/) const noexcept {}
};

// The store path is one row loop: an optional row hook rewrites the
// alpha-scaled FP32 accumulator row in place, beta * C is added over the
// whole row when beta != 0, and convert_row_from_f32 narrows the row
// (F16C-vectorized for FP16). An epilogue without a row hook —
// IdentityEpilogue, the softmax partial reduction — stores the accumulator
// unchanged.
struct IdentityEpilogue {};

// Row hook: rewrites values[0, n), the accumulator row of output row `row`
// at output columns [col0, col0 + n), n <= TileShape::kN. Used by the fused
// bias and bias+GELU epilogues (gemm/epilogues.h).
template <typename E>
concept HasRowHook = requires(const E e, int p, std::int64_t row,
                              std::int64_t col0, float* values, int n) {
  e.on_row(p, row, col0, values, n);
};

// Epilogues may instead (or also) expose a whole-tile hook, called on the
// scaled FP32 accumulator before the rows are stored. Used by the fused
// softmax partial reduction.
template <typename E>
concept HasTileHook = requires(E e, int p, std::int64_t r0, std::int64_t c0,
                               int rows, int cols, const float* acc, int ld) {
  e.on_tile(p, r0, c0, rows, cols, acc, ld);
};

// Packs an mc x kc block of op(A) into a zero-padded kM x kK FP32 panel,
// applying the mainloop transform to each widened row. No-transpose rows
// widen whole-row (F16C-vectorized for FP16).
template <typename TA, typename ATransform>
inline void pack_a_panel(Trans ta, const TA* a, std::int64_t lda,
                         std::int64_t row0, std::int64_t k0, int mc, int kc,
                         float* panel, int problem, const ATransform& at) {
  for (int i = 0; i < mc; ++i) {
    float* dst = panel + static_cast<std::int64_t>(i) * TileShape::kK;
    const std::int64_t row = row0 + i;
    if (ta == Trans::N) {
      convert_row_f32(a + row * lda + k0, dst, kc);
    } else {
      const TA* src = a + k0 * lda + row;
      for (int p = 0; p < kc; ++p) {
        dst[p] = load_f32(src[static_cast<std::int64_t>(p) * lda]);
      }
    }
    at(problem, row, dst, kc);
    if (kc < TileShape::kK) {
      std::memset(dst + kc, 0, sizeof(float) * static_cast<std::size_t>(TileShape::kK - kc));
    }
  }
}

// Packs a kc x nc block of op(B) into a zero-padded kK x kN FP32 panel.
// Zero padding lets the inner product loop run at the full constant width.
// Source rows widen whole-row (F16C-vectorized for FP16): no-transpose rows
// straight into panel rows; transposed ones (each the kc-long source row
// of one panel column, e.g. K rows for Q K^T) into a buffer that is then
// scattered down the column.
template <typename TB>
inline void pack_b_panel(Trans tb, const TB* b, std::int64_t ldb,
                         std::int64_t k0, std::int64_t col0, int kc, int nc,
                         float* panel) {
  if (tb == Trans::N) {
    for (int p = 0; p < kc; ++p) {
      convert_row_f32(b + (k0 + p) * ldb + col0,
                      panel + static_cast<std::int64_t>(p) * TileShape::kN, nc);
    }
  } else {
    float column[TileShape::kK];
    for (int j = 0; j < nc; ++j) {
      convert_row_f32(b + (col0 + j) * ldb + k0, column, kc);
      for (int p = 0; p < kc; ++p) {
        panel[static_cast<std::int64_t>(p) * TileShape::kN + j] = column[p];
      }
    }
  }
  if (nc < TileShape::kN) {
    for (int p = 0; p < kc; ++p) {
      std::memset(panel + static_cast<std::int64_t>(p) * TileShape::kN + nc, 0,
                  sizeof(float) * static_cast<std::size_t>(TileShape::kN - nc));
    }
  }
}

// Computes one kM x kN output tile of
//   C = epilogue(alpha * op(A) @ op(B)) + beta * C
// for a single problem, with B panels served by `bsrc(k0, kc)` — a callable
// returning the packed kK x kN FP32 panel for K block [k0, k0 + kc).
// `panel_a` and `acc` point into CTA scratch.
template <typename TA, typename TC, typename BSrc, typename ATransform,
          typename Epilogue>
inline void compute_tile_bsrc(int problem, Trans ta, std::int64_t m,
                              std::int64_t n, std::int64_t k, float alpha,
                              const TA* a, std::int64_t lda, BSrc&& bsrc,
                              float beta, TC* c, std::int64_t ldc,
                              std::int64_t tile_m, std::int64_t tile_n,
                              float* panel_a, float* acc, const ATransform& at,
                              const Epilogue& ep) {
  const std::int64_t row0 = tile_m * TileShape::kM;
  const std::int64_t col0 = tile_n * TileShape::kN;
  const int mc = static_cast<int>(std::min<std::int64_t>(TileShape::kM, m - row0));
  const int nc = static_cast<int>(std::min<std::int64_t>(TileShape::kN, n - col0));

  std::memset(acc, 0, sizeof(float) * static_cast<std::size_t>(mc) * TileShape::kN);
  for (std::int64_t k0 = 0; k0 < k; k0 += TileShape::kK) {
    const int kc = static_cast<int>(std::min<std::int64_t>(TileShape::kK, k - k0));
    pack_a_panel(ta, a, lda, row0, k0, mc, kc, panel_a, problem, at);
    const float* panel_b = bsrc(k0, kc);
    kernels::tile_multiply(panel_a, mc, panel_b, kc, acc);
  }

  if (alpha != 1.0f) {
    for (int i = 0; i < mc; ++i) {
      float* acc_row = acc + static_cast<std::int64_t>(i) * TileShape::kN;
      for (int j = 0; j < nc; ++j) acc_row[j] *= alpha;
    }
  }

  if constexpr (HasTileHook<Epilogue>) {
    ep.on_tile(problem, row0, col0, mc, nc, acc, TileShape::kN);
  }

  for (int i = 0; i < mc; ++i) {
    float* acc_row = acc + static_cast<std::int64_t>(i) * TileShape::kN;
    TC* c_row = c + (row0 + i) * ldc + col0;
    if constexpr (HasRowHook<Epilogue>) {
      ep.on_row(problem, row0 + i, col0, acc_row, nc);
    }
    if (beta != 0.0f) {
      float prior[TileShape::kN];
      convert_row_f32(c_row, prior, nc);
      for (int j = 0; j < nc; ++j) acc_row[j] += beta * prior[j];
    }
    convert_row_from_f32(acc_row, c_row, nc);
  }
}

// Pack-on-the-fly form: B is packed into `panel_b` scratch per K block.
template <typename TA, typename TB, typename TC, typename ATransform,
          typename Epilogue>
inline void compute_tile(int problem, Trans ta, Trans tb, std::int64_t m,
                         std::int64_t n, std::int64_t k, float alpha,
                         const TA* a, std::int64_t lda, const TB* b,
                         std::int64_t ldb, float beta, TC* c, std::int64_t ldc,
                         std::int64_t tile_m, std::int64_t tile_n,
                         float* panel_a, float* panel_b, float* acc,
                         const ATransform& at, const Epilogue& ep) {
  const std::int64_t col0 = tile_n * TileShape::kN;
  const int nc = static_cast<int>(std::min<std::int64_t>(TileShape::kN, n - col0));
  compute_tile_bsrc(
      problem, ta, m, n, k, alpha, a, lda,
      [&](std::int64_t k0, int kc) -> const float* {
        pack_b_panel(tb, b, ldb, k0, col0, kc, nc, panel_b);
        return panel_b;
      },
      beta, c, ldc, tile_m, tile_n, panel_a, acc, at, ep);
}

}  // namespace bt::gemm
