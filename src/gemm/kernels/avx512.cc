// Register-blocked AVX-512 microkernel for tile_multiply.
//
// Output is processed in 6x64 register tiles: six rows of four zmm
// accumulators (24 of the 32 zmm registers) cover a whole kPanelN-wide
// accumulator row and stay resident across the k loop. Each k step loads
// the 64-wide B panel row once (four zmm) and broadcasts one A element per
// row, so a step is 24 FMAs against 10 loads — twice the avx2 kernel's
// FLOPs per instruction. Row remainders (mc % 6) drop to narrower register
// blocks of the same shape.
//
// Per output element the accumulation is a p-ascending FMA chain seeded
// from the incoming acc value — the avx2 kernel's chain, lane for lane — so
// the two are bitwise equal in every build, and equal to scalar/vec under
// FMA contraction (see tests/test_gemm_kernels.cc).
//
// Only tile_multiply is widened: dispatch maps the avx512 kind's exp_row,
// max_row and bias_gelu_row to the avx2 implementations, keeping their
// 8-lane bitwise contracts.
//
// CMake compiles this file with -mavx512f -mfma -mf16c when the compiler
// supports them (independent of BT_NATIVE_ARCH); otherwise the fallback at
// the bottom aliases the avx2 kernel and dispatch never selects kAvx512.
#include "gemm/kernels/kernel.h"

#include <cstdint>

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

namespace bt::gemm::kernels {

namespace {

static_assert(kPanelN == 64, "the register block spans four zmm per row");

// R rows x 64 columns: a/acc point at the block's first row. Strides are
// the fixed panel widths.
template <int R>
inline void block_rx64(const float* a, const float* b, float* acc, int kc) {
  __m512 c[R][4];
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < 4; ++q) {
      c[r][q] =
          _mm512_loadu_ps(acc + static_cast<std::int64_t>(r) * kPanelN + 16 * q);
    }
  }
  for (int p = 0; p < kc; ++p) {
    const float* b_row = b + static_cast<std::int64_t>(p) * kPanelN;
    const __m512 b0 = _mm512_loadu_ps(b_row);
    const __m512 b1 = _mm512_loadu_ps(b_row + 16);
    const __m512 b2 = _mm512_loadu_ps(b_row + 32);
    const __m512 b3 = _mm512_loadu_ps(b_row + 48);
    for (int r = 0; r < R; ++r) {
      const __m512 av =
          _mm512_set1_ps(a[static_cast<std::int64_t>(r) * kPanelK + p]);
      c[r][0] = _mm512_fmadd_ps(av, b0, c[r][0]);
      c[r][1] = _mm512_fmadd_ps(av, b1, c[r][1]);
      c[r][2] = _mm512_fmadd_ps(av, b2, c[r][2]);
      c[r][3] = _mm512_fmadd_ps(av, b3, c[r][3]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < 4; ++q) {
      _mm512_storeu_ps(acc + static_cast<std::int64_t>(r) * kPanelN + 16 * q,
                       c[r][q]);
    }
  }
}

}  // namespace

void tile_multiply_avx512(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc) {
  int i = 0;
  for (; i + 6 <= mc; i += 6) {
    block_rx64<6>(panel_a + static_cast<std::int64_t>(i) * kPanelK, panel_b,
                  acc + static_cast<std::int64_t>(i) * kPanelN, kc);
  }
  const float* a_tail = panel_a + static_cast<std::int64_t>(i) * kPanelK;
  float* acc_tail = acc + static_cast<std::int64_t>(i) * kPanelN;
  switch (mc - i) {
    case 5: block_rx64<5>(a_tail, panel_b, acc_tail, kc); break;
    case 4: block_rx64<4>(a_tail, panel_b, acc_tail, kc); break;
    case 3: block_rx64<3>(a_tail, panel_b, acc_tail, kc); break;
    case 2: block_rx64<2>(a_tail, panel_b, acc_tail, kc); break;
    case 1: block_rx64<1>(a_tail, panel_b, acc_tail, kc); break;
    default: break;
  }
}

namespace detail {
bool avx512_kernel_compiled() noexcept { return true; }
}  // namespace detail

}  // namespace bt::gemm::kernels

#else  // toolchain could not build AVX-512: alias avx2, report unavailable

namespace bt::gemm::kernels {

void tile_multiply_avx512(const float* panel_a, int mc, const float* panel_b,
                          int kc, float* acc) {
  tile_multiply_avx2(panel_a, mc, panel_b, kc, acc);
}

namespace detail {
bool avx512_kernel_compiled() noexcept { return false; }
}  // namespace detail

}  // namespace bt::gemm::kernels

#endif
