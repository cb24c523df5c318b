// Register-blocked AVX2+FMA microkernel.
//
// Output is processed in 6x16 register tiles: six rows of two ymm
// accumulators (12 of the 16 ymm registers) stay resident across the whole
// k loop, with one broadcast register for the A element and two for the B
// row — no accumulator round-trips through memory inside the loop. Row
// remainders (mc % 6) drop to narrower register blocks of the same shape.
//
// Per output element the accumulation is a p-ascending FMA chain seeded
// from the incoming acc value — exactly the scalar kernel's `acc += a * b`
// under FMA contraction — so forcing kernels for A/B runs never changes
// results (see the bitwise cross-check in tests/test_gemm_kernels.cc).
//
// exp_row_avx2 evaluates gemm/kernels/exp_lane.h eight lanes per ymm with
// the same explicit FMA chain and integer exponent scaling, so it matches
// the scalar and vec variants bit for bit; the n % 8 tail runs the shared
// scalar lane. max_row_avx2 and bias_gelu_row_avx2 likewise spell the
// lanes of gemm/kernels/row_lane.h eight wide.
//
// CMake compiles this file with -mavx2 -mfma -mf16c when the compiler
// supports them (independent of BT_NATIVE_ARCH, so portable builds still
// carry the fast path behind runtime dispatch); otherwise the fallback at
// the bottom aliases the vec kernel and dispatch never selects kAvx2.
#include "gemm/kernels/kernel.h"

#include <cstdint>
#include <limits>

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "gemm/kernels/exp_lane.h"
#include "gemm/kernels/row_lane.h"

namespace bt::gemm::kernels {

namespace {

// R rows x 16 columns: a/acc point at the block's first row, b at the
// panel's column offset. Strides are the fixed panel widths.
template <int R>
inline void block_rx16(const float* a, const float* b, float* acc, int kc) {
  __m256 c[R][2];
  for (int r = 0; r < R; ++r) {
    c[r][0] = _mm256_loadu_ps(acc + static_cast<std::int64_t>(r) * kPanelN);
    c[r][1] = _mm256_loadu_ps(acc + static_cast<std::int64_t>(r) * kPanelN + 8);
  }
  for (int p = 0; p < kc; ++p) {
    const float* b_row = b + static_cast<std::int64_t>(p) * kPanelN;
    const __m256 b0 = _mm256_loadu_ps(b_row);
    const __m256 b1 = _mm256_loadu_ps(b_row + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av =
          _mm256_broadcast_ss(a + static_cast<std::int64_t>(r) * kPanelK + p);
      c[r][0] = _mm256_fmadd_ps(av, b0, c[r][0]);
      c[r][1] = _mm256_fmadd_ps(av, b1, c[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_ps(acc + static_cast<std::int64_t>(r) * kPanelN, c[r][0]);
    _mm256_storeu_ps(acc + static_cast<std::int64_t>(r) * kPanelN + 8, c[r][1]);
  }
}

}  // namespace

void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc) {
  static_assert(kPanelN % 16 == 0, "column blocking assumes 16-wide tiles");
  for (int jb = 0; jb < kPanelN; jb += 16) {
    const float* b = panel_b + jb;
    int i = 0;
    for (; i + 6 <= mc; i += 6) {
      block_rx16<6>(panel_a + static_cast<std::int64_t>(i) * kPanelK, b,
                    acc + static_cast<std::int64_t>(i) * kPanelN + jb, kc);
    }
    const float* a_tail = panel_a + static_cast<std::int64_t>(i) * kPanelK;
    float* acc_tail = acc + static_cast<std::int64_t>(i) * kPanelN + jb;
    switch (mc - i) {
      case 5: block_rx16<5>(a_tail, b, acc_tail, kc); break;
      case 4: block_rx16<4>(a_tail, b, acc_tail, kc); break;
      case 3: block_rx16<3>(a_tail, b, acc_tail, kc); break;
      case 2: block_rx16<2>(a_tail, b, acc_tail, kc); break;
      case 1: block_rx16<1>(a_tail, b, acc_tail, kc); break;
      default: break;
    }
  }
}

float exp_row_avx2(const float* src, float sub, float mul, float* dst,
                   int n) {
  using namespace detail;
  const __m256 vsub = _mm256_set1_ps(sub);
  const __m256 vmul = _mm256_set1_ps(mul);
  const __m256 log2e = _mm256_set1_ps(kExpLog2e);
  const __m256 round = _mm256_set1_ps(kExpRound);
  const __m256 neg_ln2_hi = _mm256_set1_ps(-kExpLn2Hi);
  const __m256 neg_ln2_lo = _mm256_set1_ps(-kExpLn2Lo);
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 hi = _mm256_set1_ps(kExpHi);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 x = _mm256_sub_ps(_mm256_loadu_ps(src + j), vsub);
    const __m256 t = _mm256_fmadd_ps(x, log2e, round);
    const __m256 nf = _mm256_sub_ps(t, round);
    __m256 r = _mm256_fmadd_ps(nf, neg_ln2_hi, x);
    r = _mm256_fmadd_ps(nf, neg_ln2_lo, r);
    __m256 p = _mm256_set1_ps(kExpC6);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC5));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC4));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC2));
    p = _mm256_fmadd_ps(p, r, one);
    p = _mm256_fmadd_ps(p, r, one);
    const __m256i k = _mm256_sub_epi32(_mm256_castps_si256(t),
                                       _mm256_castps_si256(round));
    __m256 e = _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(p), _mm256_slli_epi32(k, 23)));
    e = _mm256_blendv_ps(e, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x, lo, _CMP_LT_OQ));
    e = _mm256_blendv_ps(e, inf, _mm256_cmp_ps(x, hi, _CMP_GT_OQ));
    e = _mm256_blendv_ps(e, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
    acc = _mm256_add_ps(acc, e);
    _mm256_storeu_ps(dst + j, _mm256_mul_ps(e, vmul));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  exp_row_tail(src, sub, mul, dst, j, n, lanes);
  return sum_lanes(lanes);
}

float max_row_avx2(const float* src, int n) {
  __m256 m = _mm256_set1_ps(detail::kMaxInit);
  int j = 0;
  // max_ps(x, m) is x > m ? x : m: detail::max_lane, NaN x skipped.
  for (; j + 8 <= n; j += 8) m = _mm256_max_ps(_mm256_loadu_ps(src + j), m);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  detail::max_row_tail(src, j, n, lanes);
  return detail::max_lanes(lanes);
}

void bias_gelu_row_avx2(const float* src, const float* bias, float* dst,
                        int n) {
  // common/numeric.h's gelu_tanh and fast_tanh, eight lanes wide. The clamp
  // selections match the scalar ternaries: max_ps(-c, x) is -c > x ? -c : x
  // and min_ps(c, x) is c < x ? c : x, so a NaN x passes through.
  const __m256 neg_clamp = _mm256_set1_ps(-kTanhClamp);
  const __m256 clamp = _mm256_set1_ps(kTanhClamp);
  const __m256 p2 = _mm256_set1_ps(kTanhP2);
  const __m256 p1 = _mm256_set1_ps(kTanhP1);
  const __m256 p0 = _mm256_set1_ps(kTanhP0);
  const __m256 q3 = _mm256_set1_ps(kTanhQ3);
  const __m256 q2 = _mm256_set1_ps(kTanhQ2);
  const __m256 q1 = _mm256_set1_ps(kTanhQ1);
  const __m256 q0 = _mm256_set1_ps(kTanhQ0);
  const __m256 coef = _mm256_set1_ps(kGeluCoef);
  const __m256 sqrt2_over_pi = _mm256_set1_ps(kGeluSqrt2OverPi);
  const __m256 half = _mm256_set1_ps(0.5f);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 x =
        _mm256_add_ps(_mm256_loadu_ps(src + j), _mm256_loadu_ps(bias + j));
    const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
    __m256 u = _mm256_mul_ps(sqrt2_over_pi, _mm256_fmadd_ps(coef, x3, x));
    u = _mm256_max_ps(neg_clamp, u);
    u = _mm256_min_ps(clamp, u);
    const __m256 u2 = _mm256_mul_ps(u, u);
    __m256 p = _mm256_fmadd_ps(u, u, p2);
    p = _mm256_fmadd_ps(p, u2, p1);
    p = _mm256_fmadd_ps(p, u2, p0);
    __m256 q = _mm256_fmadd_ps(u2, q3, q2);
    q = _mm256_fmadd_ps(q, u2, q1);
    q = _mm256_fmadd_ps(q, u2, q0);
    const __m256 th = _mm256_div_ps(_mm256_mul_ps(u, p), q);
    const __m256 half_x = _mm256_mul_ps(half, x);
    _mm256_storeu_ps(dst + j, _mm256_fmadd_ps(half_x, th, half_x));
  }
  detail::bias_gelu_row_tail(src, bias, dst, j, n);
}

namespace detail {
bool avx2_kernel_compiled() noexcept { return true; }
}  // namespace detail

}  // namespace bt::gemm::kernels

#else  // toolchain could not build AVX2: alias vec, report unavailable

namespace bt::gemm::kernels {

void tile_multiply_avx2(const float* panel_a, int mc, const float* panel_b,
                        int kc, float* acc) {
  tile_multiply_vec(panel_a, mc, panel_b, kc, acc);
}

float exp_row_avx2(const float* src, float sub, float mul, float* dst,
                   int n) {
  return exp_row_vec(src, sub, mul, dst, n);
}

float max_row_avx2(const float* src, int n) { return max_row_vec(src, n); }

void bias_gelu_row_avx2(const float* src, const float* bias, float* dst,
                        int n) {
  bias_gelu_row_vec(src, bias, dst, n);
}

namespace detail {
bool avx2_kernel_compiled() noexcept { return false; }
}  // namespace detail

}  // namespace bt::gemm::kernels

#endif
