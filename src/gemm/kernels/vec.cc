// Generic-vector microkernel: 8-wide GCC/Clang vector extensions, no
// ISA-specific intrinsics. One accumulator row (kPanelN = 64 floats = eight
// 8-lanes) is held in registers across the whole k loop; the compiler
// lowers the arithmetic to whatever vector ISA the build enables (SSE pairs,
// AVX ymm, SVE, ...). Each output element still accumulates over p in
// ascending order — lanes are independent — so results match the scalar
// kernel bit-for-bit under uniform FMA contraction.
//
// exp_row_vec evaluates gemm/kernels/exp_lane.h eight lanes at a time. Its
// FMAs are spelled per lane (__builtin_fmaf) — generic vectors have no fma
// operator — which the compiler turns into vector FMAs when the build
// enables them and into fmaf calls otherwise; either way the result is the
// scalar lane's, bit for bit. max_row_vec and bias_gelu_row_vec do the same
// for the lanes of gemm/kernels/row_lane.h.
#include "gemm/kernels/kernel.h"
#include "gemm/kernels/exp_lane.h"
#include "gemm/kernels/row_lane.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

namespace bt::gemm::kernels {

#if defined(__GNUC__) || defined(__clang__)

namespace {

typedef float vf8 __attribute__((vector_size(32)));
typedef std::uint32_t vu8 __attribute__((vector_size(32)));

inline vf8 load8(const float* p) noexcept {
  vf8 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store8(float* p, vf8 v) noexcept { std::memcpy(p, &v, sizeof(v)); }

inline vf8 fma8(vf8 a, vf8 b, vf8 c) noexcept {
  vf8 r;
  for (int l = 0; l < 8; ++l) r[l] = __builtin_fmaf(a[l], b[l], c[l]);
  return r;
}

// mask ? a : b, lane-wise, for a comparison mask (all-ones or zero lanes).
inline vf8 select8(vu8 mask, vf8 a, vf8 b) noexcept {
  return (vf8)((mask & (vu8)a) | (~mask & (vu8)b));
}

inline vf8 exp8(vf8 x) noexcept {
  using namespace detail;
  const vf8 t = fma8(x, vf8{} + kExpLog2e, vf8{} + kExpRound);
  const vf8 n = t - kExpRound;
  vf8 r = fma8(n, vf8{} - kExpLn2Hi, x);
  r = fma8(n, vf8{} - kExpLn2Lo, r);
  vf8 p = vf8{} + kExpC6;
  p = fma8(p, r, vf8{} + kExpC5);
  p = fma8(p, r, vf8{} + kExpC4);
  p = fma8(p, r, vf8{} + kExpC3);
  p = fma8(p, r, vf8{} + kExpC2);
  p = fma8(p, r, vf8{} + 1.0f);
  p = fma8(p, r, vf8{} + 1.0f);
  const vu8 k = (vu8)t - std::bit_cast<std::uint32_t>(kExpRound);
  vf8 e = (vf8)((vu8)p + (k << 23));
  e = select8((vu8)(x < kExpLo), vf8{}, e);
  e = select8((vu8)(x > kExpHi),
              vf8{} + std::numeric_limits<float>::infinity(), e);
  e = select8((vu8)(x != x), x, e);
  return e;
}

// common/numeric.h's fast_tanh, eight lanes wide.
inline vf8 tanh8(vf8 x) noexcept {
  x = select8((vu8)(x < -kTanhClamp), vf8{} - kTanhClamp, x);
  x = select8((vu8)(x > kTanhClamp), vf8{} + kTanhClamp, x);
  const vf8 x2 = x * x;
  vf8 p = fma8(x, x, vf8{} + kTanhP2);
  p = fma8(p, x2, vf8{} + kTanhP1);
  p = fma8(p, x2, vf8{} + kTanhP0);
  vf8 q = fma8(x2, vf8{} + kTanhQ3, vf8{} + kTanhQ2);
  q = fma8(q, x2, vf8{} + kTanhQ1);
  q = fma8(q, x2, vf8{} + kTanhQ0);
  return (x * p) / q;
}

// common/numeric.h's gelu_tanh, eight lanes wide.
inline vf8 gelu8(vf8 x) noexcept {
  const vf8 x3 = (x * x) * x;
  const vf8 th = tanh8(kGeluSqrt2OverPi * fma8(vf8{} + kGeluCoef, x3, x));
  const vf8 half_x = 0.5f * x;
  return fma8(half_x, th, half_x);
}

}  // namespace

void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc) {
  static_assert(kPanelN == 64, "row blocking below assumes kPanelN == 64");
  for (int i = 0; i < mc; ++i) {
    const float* a_row = panel_a + static_cast<std::int64_t>(i) * kPanelK;
    float* acc_row = acc + static_cast<std::int64_t>(i) * kPanelN;
    vf8 c0 = load8(acc_row + 0);
    vf8 c1 = load8(acc_row + 8);
    vf8 c2 = load8(acc_row + 16);
    vf8 c3 = load8(acc_row + 24);
    vf8 c4 = load8(acc_row + 32);
    vf8 c5 = load8(acc_row + 40);
    vf8 c6 = load8(acc_row + 48);
    vf8 c7 = load8(acc_row + 56);
    for (int p = 0; p < kc; ++p) {
      const float av = a_row[p];
      const float* b_row = panel_b + static_cast<std::int64_t>(p) * kPanelN;
      c0 += av * load8(b_row + 0);
      c1 += av * load8(b_row + 8);
      c2 += av * load8(b_row + 16);
      c3 += av * load8(b_row + 24);
      c4 += av * load8(b_row + 32);
      c5 += av * load8(b_row + 40);
      c6 += av * load8(b_row + 48);
      c7 += av * load8(b_row + 56);
    }
    store8(acc_row + 0, c0);
    store8(acc_row + 8, c1);
    store8(acc_row + 16, c2);
    store8(acc_row + 24, c3);
    store8(acc_row + 32, c4);
    store8(acc_row + 40, c5);
    store8(acc_row + 48, c6);
    store8(acc_row + 56, c7);
  }
}

float exp_row_vec(const float* src, float sub, float mul, float* dst, int n) {
  vf8 acc{};
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const vf8 e = exp8(load8(src + j) - sub);
    acc += e;
    store8(dst + j, e * mul);
  }
  float lanes[8];
  store8(lanes, acc);
  detail::exp_row_tail(src, sub, mul, dst, j, n, lanes);
  return detail::sum_lanes(lanes);
}

float max_row_vec(const float* src, int n) {
  vf8 m = vf8{} + detail::kMaxInit;
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const vf8 x = load8(src + j);
    m = select8((vu8)(x > m), x, m);
  }
  float lanes[8];
  store8(lanes, m);
  detail::max_row_tail(src, j, n, lanes);
  return detail::max_lanes(lanes);
}

void bias_gelu_row_vec(const float* src, const float* bias, float* dst,
                       int n) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    store8(dst + j, gelu8(load8(src + j) + load8(bias + j)));
  }
  detail::bias_gelu_row_tail(src, bias, dst, j, n);
}

#else  // no vector extensions: alias the scalar kernel

void tile_multiply_vec(const float* panel_a, int mc, const float* panel_b,
                       int kc, float* acc) {
  tile_multiply_scalar(panel_a, mc, panel_b, kc, acc);
}

float exp_row_vec(const float* src, float sub, float mul, float* dst, int n) {
  return exp_row_scalar(src, sub, mul, dst, n);
}

float max_row_vec(const float* src, int n) { return max_row_scalar(src, n); }

void bias_gelu_row_vec(const float* src, const float* bias, float* dst,
                       int n) {
  bias_gelu_row_scalar(src, bias, dst, n);
}

#endif

}  // namespace bt::gemm::kernels
