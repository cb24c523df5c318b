// The runtime-dispatched SIMD GEMM backend:
//   * every kernel variant x transpose combo x odd shapes x alpha/beta x
//     storage type x prepacked-vs-on-the-fly B against the FP64 reference,
//   * bitwise cross-checks between forced kernel variants (the variants
//     accumulate each output element over p ascending, so under uniform FMA
//     contraction they are interchangeable to the last bit), and avx512
//     against avx2 tile by tile in every build,
//   * PackedB panel layout vs pack_b_panel,
//   * the exp_row primitive: forced variants bitwise identical (any build),
//     within 1 ulp of the correctly rounded exp, exact special values,
//   * the max_row and bias_gelu_row primitives: forced variants bitwise
//     identical (any build), max_row equal to the std::max fold with its NaN
//     contract, bias_gelu_row bitwise the scalar gelu_tanh and close to the
//     FP64 erf GELU,
//   * dispatch / BT_GEMM_KERNEL parsing and force() fallback behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/numeric.h"
#include "common/rng.h"
#include "gemm/batched.h"
#include "gemm/gemm.h"
#include "gemm/grouped.h"
#include "gemm/kernels/kernel.h"
#include "gemm/packed.h"
#include "parallel/device.h"
#include "tensor/tensor.h"

namespace bt::gemm {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

// Restores the dispatched kernel after a test that forces variants.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active()) {}
  ~KernelGuard() { kernels::force(saved_); }

 private:
  kernels::Kind saved_;
};

std::vector<kernels::Kind> supported_kinds() {
  std::vector<kernels::Kind> kinds;
  for (auto k : {kernels::Kind::kScalar, kernels::Kind::kVec,
                 kernels::Kind::kAvx2, kernels::Kind::kAvx512}) {
    if (kernels::supported(k)) kinds.push_back(k);
  }
  return kinds;
}

// What detection picks absent a BT_GEMM_KERNEL override.
kernels::Kind best_supported_kind() {
  for (auto k : {kernels::Kind::kAvx512, kernels::Kind::kAvx2}) {
    if (kernels::supported(k)) return k;
  }
  return kernels::Kind::kVec;
}

// (kernel, ta, tb, m, n, k, alpha, beta, prepacked)
using Case = std::tuple<kernels::Kind, Trans, Trans, int, int, int, float,
                        float, bool>;

std::vector<Case> all_cases() {
  const std::tuple<int, int, int> shapes[] = {
      {1, 1, 1},     {5, 3, 2},      {64, 64, 128}, {65, 63, 127},
      {33, 190, 77}, {130, 70, 200}, {17, 300, 5},
  };
  const std::pair<float, float> scales[] = {{1.0f, 0.0f}, {0.5f, 0.0f},
                                            {1.0f, 1.0f}, {2.0f, -0.5f}};
  std::vector<Case> cases;
  for (auto kind : supported_kinds()) {
    for (auto ta : {Trans::N, Trans::T}) {
      for (auto tb : {Trans::N, Trans::T}) {
        for (auto [m, n, k] : shapes) {
          for (auto [alpha, beta] : scales) {
            cases.emplace_back(kind, ta, tb, m, n, k, alpha, beta, false);
            // Prepacked covers op(B) baked into panels; exercised per tb.
            if (alpha == 1.0f && beta == 0.0f) {
              cases.emplace_back(kind, ta, tb, m, n, k, alpha, beta, true);
            }
          }
        }
      }
    }
  }
  return cases;
}

class KernelEquivalence : public ::testing::TestWithParam<Case> {};

template <typename T>
void run_case(const Case& c) {
  const auto [kind, ta, tb, m, n, k, alpha, beta, prepacked] = c;
  KernelGuard guard;
  ASSERT_TRUE(kernels::force(kind));

  Rng rng(static_cast<std::uint64_t>(m * 131071 + n * 8191 + k * 127 +
                                     static_cast<int>(kind) * 7 +
                                     (prepacked ? 3 : 0)));
  const std::int64_t a_rows = ta == Trans::N ? m : k;
  const std::int64_t a_cols = ta == Trans::N ? k : m;
  const std::int64_t b_rows = tb == Trans::N ? k : n;
  const std::int64_t b_cols = tb == Trans::N ? n : k;
  auto a = Tensor<T>::random_normal({a_rows, a_cols}, rng);
  auto b = Tensor<T>::random_normal({b_rows, b_cols}, rng);
  auto c_init = Tensor<T>::random_normal({m, n}, rng);
  auto c_out = c_init.clone();

  if (prepacked) {
    const PackedB pb = PackedB::pack(tb, b.data(), b_cols, k, n);
    gemm_prepacked(dev(), ta, m, n, k, alpha, a.data(), a_cols, pb, beta,
                   c_out.data(), n);
  } else {
    gemm<T, T, T>(dev(), ta, tb, m, n, k, alpha, a.data(), a_cols, b.data(),
                  b_cols, beta, c_out.data(), n);
  }

  std::vector<double> want(static_cast<std::size_t>(m) * n);
  gemm_reference(ta, tb, m, n, k, static_cast<double>(alpha), a.data(),
                 a_cols, b.data(), b_cols, want.data(), n);
  // FP32 accumulate (and for T = fp16_t, FP16 storage rounding) over k
  // unit-variance terms.
  const double tol = (std::is_same_v<T, fp16_t> ? 3e-2 : 1e-3) *
                     std::sqrt(static_cast<double>(k) + 1.0);
  double worst = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const double got = load_f32(c_out(i, j));
      const double ref = want[static_cast<std::size_t>(i) * n + j] +
                         static_cast<double>(beta) * load_f32(c_init(i, j));
      worst = std::max(worst, std::abs(got - ref));
    }
  }
  EXPECT_LT(worst, tol) << "kernel=" << kernels::name(kind)
                        << " prepacked=" << prepacked;
}

TEST_P(KernelEquivalence, F32MatchesReference) { run_case<float>(GetParam()); }

TEST_P(KernelEquivalence, F16MatchesReference) { run_case<fp16_t>(GetParam()); }

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [kind, ta, tb, m, n, k, alpha, beta, prepacked] = info.param;
  std::string s = kernels::name(kind);
  s += ta == Trans::N ? "_N" : "_T";
  s += tb == Trans::N ? "N" : "T";
  s += "_" + std::to_string(m) + "x" + std::to_string(n) + "x" +
       std::to_string(k);
  s += "_i" + std::to_string(info.index);
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelEquivalence,
                         ::testing::ValuesIn(all_cases()), case_name);

// Under uniform FMA contraction (BT_NATIVE_ARCH builds: -mfma +
// -ffp-contract=fast) every kernel performs the identical p-ascending FMA
// chain per output element, so forced variants must agree bit for bit.
#if defined(__FMA__)
TEST(KernelBitwise, ForcedVariantsAgreeBitwise) {
  KernelGuard guard;
  const int m = 130;
  const int n = 190;
  const int k = 260;
  Rng rng(7);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);

  ASSERT_TRUE(kernels::force(kernels::Kind::kScalar));
  auto c_scalar = Tensor<fp16_t>::zeros({m, n});
  gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(), n,
           0.0f, c_scalar.data(), n);

  for (auto kind : supported_kinds()) {
    if (kind == kernels::Kind::kScalar) continue;
    ASSERT_TRUE(kernels::force(kind));
    auto c_kind = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(),
             n, 0.0f, c_kind.data(), n);
    for (std::int64_t i = 0; i < c_scalar.size(); ++i) {
      ASSERT_EQ(c_scalar.data()[i].bits(), c_kind.data()[i].bits())
          << "scalar vs " << kernels::name(kind) << " at " << i;
    }
  }
}
#endif  // __FMA__

// avx2 and avx512 both spell every FMA explicitly, so the tile kernels agree
// bitwise in every build: no __FMA__ gate. Every mc in 1..64 covers each
// 6-row remainder block; the incoming acc is nonzero, as it is for every
// k block after the first.
TEST(TileMultiply, Avx512MatchesAvx2Bitwise) {
  if (!kernels::supported(kernels::Kind::kAvx512)) {
    GTEST_SKIP() << "avx512 kernel not supported on this build/host";
  }
  const kernels::TileMultiplyFn avx2 = kernels::fn(kernels::Kind::kAvx2);
  const kernels::TileMultiplyFn avx512 = kernels::fn(kernels::Kind::kAvx512);
  Rng rng(41);
  std::vector<float> a(static_cast<std::size_t>(kernels::kPanelM) *
                       kernels::kPanelK);
  std::vector<float> b(static_cast<std::size_t>(kernels::kPanelK) *
                       kernels::kPanelN);
  std::vector<float> acc0(static_cast<std::size_t>(kernels::kPanelM) *
                          kernels::kPanelN);
  for (float& x : a) x = rng.normal();
  for (float& x : b) x = rng.normal();
  for (float& x : acc0) x = 4.0f * rng.normal();
  for (int kc : {1, 7, 63, 64, 127, 128}) {
    for (int mc = 1; mc <= kernels::kPanelM; ++mc) {
      std::vector<float> want = acc0;
      std::vector<float> got = acc0;
      avx2(a.data(), mc, b.data(), kc, want.data());
      avx512(a.data(), mc, b.data(), kc, got.data());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
                0)
          << "mc=" << mc << " kc=" << kc;
    }
  }
}

// exp_row uses explicit FMAs and integer exponent scaling only, so unlike
// tile_multiply its variants agree bitwise in portable builds too: no
// __FMA__ gate. Lengths 1..200 cover every tail (n % 8) behind 0..24 full
// vectors; the rows mix softmax-range scores with the -inf mask value.
TEST(ExpRow, ForcedVariantsAgreeBitwise) {
  KernelGuard guard;
  Rng rng(29);
  std::vector<float> src(200);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = i % 17 == 5 ? -std::numeric_limits<float>::infinity()
                         : 12.0f * rng.normal();
  }
  const std::pair<float, float> sub_mul[] = {
      {0.0f, 1.0f}, {3.25f, 1.0f}, {-1.5f, 0.125f}, {7.0f, 1.0f / 3.0f}};
  for (auto [sub, mul] : sub_mul) {
    for (int n = 1; n <= 200; ++n) {
      ASSERT_TRUE(kernels::force(kernels::Kind::kScalar));
      std::vector<float> want(static_cast<std::size_t>(n));
      const float want_sum = kernels::exp_row(src.data(), sub, mul, want.data(), n);
      for (auto kind : supported_kinds()) {
        ASSERT_TRUE(kernels::force(kind));
        std::vector<float> got(static_cast<std::size_t>(n));
        const float got_sum = kernels::exp_row(src.data(), sub, mul, got.data(), n);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got_sum),
                  std::bit_cast<std::uint32_t>(want_sum))
            << kernels::name(kind) << " n=" << n << " sub=" << sub;
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << kernels::name(kind) << " n=" << n << " sub=" << sub;
        // In place (dst == src) is the fused-kernel calling convention.
        std::vector<float> in_place(src.begin(), src.begin() + n);
        kernels::exp_row(in_place.data(), sub, mul, in_place.data(), n);
        ASSERT_EQ(std::memcmp(in_place.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << kernels::name(kind) << " in place, n=" << n;
      }
    }
  }
}

TEST(ExpRow, WithinOneUlpOfCorrectlyRoundedExp) {
  KernelGuard guard;
  Rng rng(31);
  const int n = 1 << 20;
  std::vector<float> src(static_cast<std::size_t>(n));
  for (float& x : src) x = rng.uniform(-87.0f, 0.0f);
  src[0] = -87.0f;
  src[1] = 0.0f;
  std::vector<float> got(src.size());
  for (auto kind : supported_kinds()) {
    ASSERT_TRUE(kernels::force(kind));
    kernels::exp_row(src.data(), 0.0f, 1.0f, got.data(), n);
    std::int64_t worst = 0;
    float worst_x = 0.0f;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float want = static_cast<float>(std::exp(static_cast<double>(src[i])));
      const std::int64_t ulps =
          std::abs(static_cast<std::int64_t>(std::bit_cast<std::uint32_t>(got[i])) -
                   static_cast<std::int64_t>(std::bit_cast<std::uint32_t>(want)));
      if (ulps > worst) {
        worst = ulps;
        worst_x = src[i];
      }
    }
    EXPECT_LE(worst, 1) << kernels::name(kind) << " worst at x=" << worst_x;
  }
}

TEST(ExpRow, SpecialValuesAreExact) {
  KernelGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // {input, expected exp}; every expected value is exact. Repeated so each
  // lands in both a full vector and the scalar tail.
  const std::pair<float, float> cases[] = {
      {0.0f, 1.0f},
      {-0.0f, 1.0f},
      {-inf, 0.0f},
      {-87.5f, 0.0f},  // below ln(FLT_MIN): the true exp is subnormal
      {-1000.0f, 0.0f},
      {-std::numeric_limits<float>::max(), 0.0f},
      {89.0f, inf},
      {inf, inf},
  };
  std::vector<float> src;
  std::vector<float> want;
  for (int rep = 0; rep < 3; ++rep) {
    for (auto [x, e] : cases) {
      src.push_back(x);
      want.push_back(e);
    }
  }
  for (auto kind : supported_kinds()) {
    ASSERT_TRUE(kernels::force(kind));
    std::vector<float> got(src.size());
    const float sum = kernels::exp_row(src.data(), 0.0f, 1.0f, got.data(),
                                       static_cast<int>(src.size()));
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << kernels::name(kind) << " exp(" << src[i] << ") = " << got[i];
    }
    EXPECT_EQ(sum, inf) << kernels::name(kind);

    // The flash-attention mask: -inf scores minus a finite running max
    // contribute exactly +0 to the row and its sum.
    const float masked[] = {-inf, 2.0f, -inf, -inf, 2.0f, -inf, -inf, -inf,
                            -inf, 2.0f};
    float p[10];
    EXPECT_EQ(kernels::exp_row(masked, 2.0f, 0.5f, p, 10), 3.0f);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(p[i]),
                std::bit_cast<std::uint32_t>(masked[i] == 2.0f ? 0.5f : 0.0f))
          << kernels::name(kind) << " at " << i;
    }

    for (int n : {1, 9}) {
      std::vector<float> nan_row(static_cast<std::size_t>(n), nan);
      std::vector<float> out(nan_row.size());
      EXPECT_TRUE(std::isnan(kernels::exp_row(nan_row.data(), 0.0f, 1.0f,
                                              out.data(), n)));
      for (float v : out) EXPECT_TRUE(std::isnan(v)) << kernels::name(kind);
    }
  }
}

// Like exp_row, max_row and bias_gelu_row use explicit FMAs only, so their
// variants agree bitwise in every build. Lengths 1..200 cover every tail
// behind 0..24 full vectors; bias_gelu_row also runs in place (the epilogue
// calling convention) and with an FP16 bias.
TEST(BiasGeluRow, ForcedVariantsAgreeBitwise) {
  KernelGuard guard;
  Rng rng(37);
  std::vector<float> src(200);
  std::vector<float> bias(200);
  std::vector<fp16_t> bias16(200);
  for (std::size_t i = 0; i < src.size(); ++i) {
    // Mostly the active range, with saturated and signed-zero lanes.
    src[i] = i % 13 == 4 ? 40.0f * rng.normal()
             : i % 29 == 7 ? -0.0f
                           : 3.0f * rng.normal();
    bias[i] = 0.5f * rng.normal();
    bias16[i] = fp16_t(rng.normal());
  }
  for (int n = 1; n <= 200; ++n) {
    const auto count = static_cast<std::size_t>(n);
    std::vector<float> want(count);
    std::vector<float> want16(count);
    ASSERT_TRUE(kernels::force(kernels::Kind::kScalar));
    kernels::bias_gelu_row(src.data(), bias.data(), want.data(), n);
    kernels::bias_gelu_row(src.data(), bias16.data(), want16.data(), n);
    for (std::size_t j = 0; j < count; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want[j]),
                std::bit_cast<std::uint32_t>(gelu_tanh(src[j] + bias[j])))
          << "scalar kernel vs gelu_tanh at " << j;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(want16[j]),
                std::bit_cast<std::uint32_t>(
                    gelu_tanh(src[j] + static_cast<float>(bias16[j]))))
          << "FP16 bias vs gelu_tanh at " << j;
    }
    for (auto kind : supported_kinds()) {
      ASSERT_TRUE(kernels::force(kind));
      std::vector<float> got(count);
      kernels::bias_gelu_row(src.data(), bias.data(), got.data(), n);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), count * sizeof(float)), 0)
          << kernels::name(kind) << " n=" << n;
      std::vector<float> in_place(src.begin(), src.begin() + n);
      kernels::bias_gelu_row(in_place.data(), bias.data(), in_place.data(), n);
      ASSERT_EQ(
          std::memcmp(in_place.data(), want.data(), count * sizeof(float)), 0)
          << kernels::name(kind) << " in place, n=" << n;
      std::vector<float> in_place16(src.begin(), src.begin() + n);
      kernels::bias_gelu_row(in_place16.data(), bias16.data(),
                             in_place16.data(), n);
      ASSERT_EQ(std::memcmp(in_place16.data(), want16.data(),
                            count * sizeof(float)),
                0)
          << kernels::name(kind) << " FP16 bias in place, n=" << n;
    }
  }
}

// The tolerance of Numeric.GeluTanhMatchesErfClosely against the FP64 erf
// GELU, over [-10, 10]: the active range and both saturated tails.
TEST(BiasGeluRow, WithinGeluTanhToleranceOfErfGelu) {
  KernelGuard guard;
  std::vector<float> src;
  for (int i = -10000; i <= 10000; ++i) src.push_back(0.001f * i);
  const int n = static_cast<int>(src.size());
  // Split each x into src + bias so the add is exercised too.
  std::vector<float> part(src.size());
  std::vector<float> bias(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    bias[i] = i % 2 == 0 ? 0.0f : 0.25f;
    part[i] = src[i] - bias[i];
  }
  for (auto kind : supported_kinds()) {
    ASSERT_TRUE(kernels::force(kind));
    std::vector<float> got(src.size());
    kernels::bias_gelu_row(part.data(), bias.data(), got.data(), n);
    for (std::size_t i = 0; i < src.size(); ++i) {
      const double x = static_cast<double>(part[i]) + bias[i];
      ASSERT_NEAR(got[i], gelu_erf(x), 3e-3)
          << kernels::name(kind) << " x=" << x;
    }
  }
}

TEST(MaxRow, ForcedVariantsAgreeBitwise) {
  KernelGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(41);
  std::vector<float> src(200);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = i % 17 == 5 ? -inf : i % 23 == 3 ? -0.0f : 12.0f * rng.normal();
  }
  // Zero rows of mixed sign: which zero survives is fixed by the lane order.
  std::vector<float> zeros(200);
  for (std::size_t i = 0; i < zeros.size(); ++i) {
    zeros[i] = i % 3 == 1 ? -0.0f : 0.0f;
  }
  for (const std::vector<float>* row : {&src, &zeros}) {
    for (int n = 1; n <= 200; ++n) {
      ASSERT_TRUE(kernels::force(kernels::Kind::kScalar));
      const float want = kernels::max_row(row->data(), n);
      for (auto kind : supported_kinds()) {
        ASSERT_TRUE(kernels::force(kind));
        ASSERT_EQ(std::bit_cast<std::uint32_t>(kernels::max_row(row->data(), n)),
                  std::bit_cast<std::uint32_t>(want))
            << kernels::name(kind) << " n=" << n;
      }
    }
  }
}

TEST(MaxRow, EqualsStdMaxFoldAndSkipsNaN) {
  KernelGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(43);
  auto fold = [](const std::vector<float>& row) {
    float mx = row[0];
    for (std::size_t j = 1; j < row.size(); ++j) mx = std::max(mx, row[j]);
    return mx;
  };
  std::vector<std::vector<float>> rows;
  for (int n : {1, 7, 8, 9, 64, 65, 130}) {
    std::vector<float> row(static_cast<std::size_t>(n));
    for (float& v : row) v = 5.0f * rng.normal();
    rows.push_back(row);
    // The maximum in the scalar tail, then in a full vector.
    row.back() = 100.0f;
    rows.push_back(row);
    row.front() = 200.0f;
    rows.push_back(row);
    // Negative rows with signed zeros, +inf, and the causal flash mask.
    std::vector<float> neg(row.size());
    for (std::size_t j = 0; j < neg.size(); ++j) {
      neg[j] = j % 4 == 1 ? -0.0f : j % 4 == 3 ? 0.0f : -std::abs(row[j]);
    }
    rows.push_back(neg);
    neg[neg.size() / 2] = inf;
    rows.push_back(neg);
    rows.push_back(std::vector<float>(row.size(), -inf));
    rows.push_back(std::vector<float>(row.size(), -0.0f));
  }
  for (auto kind : supported_kinds()) {
    ASSERT_TRUE(kernels::force(kind));
    for (const auto& row : rows) {
      const float got =
          kernels::max_row(row.data(), static_cast<int>(row.size()));
      EXPECT_EQ(got, fold(row))
          << kernels::name(kind) << " n=" << row.size();
    }
    const std::vector<float> all_masked(9, -inf);
    EXPECT_EQ(kernels::max_row(all_masked.data(), 9), -inf);

    // NaN contract: NaN elements are skipped, wherever they sit.
    for (int n : {1, 5, 8, 9, 17}) {
      std::vector<float> row(static_cast<std::size_t>(n), nan);
      EXPECT_EQ(kernels::max_row(row.data(), n), -inf) << kernels::name(kind);
      row[static_cast<std::size_t>(n) / 2] = 3.0f;
      row.back() = n > 1 ? -1.0f : 3.0f;
      EXPECT_EQ(kernels::max_row(row.data(), n), 3.0f) << kernels::name(kind);
    }
    EXPECT_EQ(kernels::max_row(nullptr, 0), -inf) << kernels::name(kind);
  }
}

TEST(KernelDispatch, ParseAcceptsExactlyTheKernelNames) {
  kernels::Kind k;
  EXPECT_TRUE(kernels::parse("scalar", &k));
  EXPECT_EQ(k, kernels::Kind::kScalar);
  EXPECT_TRUE(kernels::parse("vec", &k));
  EXPECT_EQ(k, kernels::Kind::kVec);
  EXPECT_TRUE(kernels::parse("avx2", &k));
  EXPECT_EQ(k, kernels::Kind::kAvx2);
  EXPECT_TRUE(kernels::parse("avx512", &k));
  EXPECT_EQ(k, kernels::Kind::kAvx512);
  EXPECT_FALSE(kernels::parse("", &k));
  EXPECT_FALSE(kernels::parse("AVX2", &k));
  EXPECT_FALSE(kernels::parse("avx512f", &k));
  EXPECT_FALSE(kernels::parse("sse", &k));
}

TEST(KernelDispatch, ScalarAndVecAlwaysSupported) {
  EXPECT_TRUE(kernels::supported(kernels::Kind::kScalar));
  EXPECT_TRUE(kernels::supported(kernels::Kind::kVec));
}

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
// CMake compiles avx2.cc with its own -mavx2 -mfma -mf16c in every build,
// BT_NATIVE_ARCH=OFF included, so on x86 the AVX2 kernels always exist and
// are supported on AVX2+FMA hosts; detection (absent a BT_GEMM_KERNEL
// override) selects the best supported kind, avx512 where it runs.
TEST(KernelDispatch, Avx2KernelsCompiledWithoutNativeArch) {
  EXPECT_TRUE(kernels::detail::avx2_kernel_compiled());
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    EXPECT_TRUE(kernels::supported(kernels::Kind::kAvx2));
    if (std::getenv("BT_GEMM_KERNEL") == nullptr) {
      EXPECT_EQ(kernels::active(), best_supported_kind());
    }
  }
}

// Likewise avx512.cc gets its own -mavx512f -mfma -mf16c, and detection
// prefers it on AVX-512F hosts.
TEST(KernelDispatch, Avx512KernelCompiledWithoutNativeArch) {
  EXPECT_TRUE(kernels::detail::avx512_kernel_compiled());
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    EXPECT_TRUE(kernels::supported(kernels::Kind::kAvx512));
    if (std::getenv("BT_GEMM_KERNEL") == nullptr) {
      EXPECT_EQ(kernels::active(), kernels::Kind::kAvx512);
    }
  }
}
#endif

// A forced-kernel run (BT_GEMM_KERNEL=<kind> ./test_...) must run that
// kernel, not silently the detected one: in such a run active() is the
// requested kind. Every run also checks the selection itself for each
// supported kind, and the fallback for unset, unparsable and unsupported
// values.
TEST(KernelDispatch, EnvOverrideIsHonouredWhenSupported) {
  const char* env = std::getenv("BT_GEMM_KERNEL");
  kernels::Kind requested;
  if (env != nullptr && kernels::parse(env, &requested) &&
      kernels::supported(requested)) {
    EXPECT_EQ(kernels::active(), requested) << env;
  }
  for (auto kind : supported_kinds()) {
    EXPECT_EQ(kernels::detail::kind_for_env(kernels::name(kind)), kind)
        << kernels::name(kind);
  }
  const kernels::Kind best = best_supported_kind();
  EXPECT_EQ(kernels::detail::kind_for_env(nullptr), best);
  EXPECT_EQ(kernels::detail::kind_for_env(""), best);
  EXPECT_EQ(kernels::detail::kind_for_env("sse"), best);
  for (auto kind : {kernels::Kind::kAvx2, kernels::Kind::kAvx512}) {
    if (!kernels::supported(kind)) {
      EXPECT_EQ(kernels::detail::kind_for_env(kernels::name(kind)), best);
    }
  }
}

TEST(KernelDispatch, ForceRoundTripsAndRejectsUnsupported) {
  KernelGuard guard;
  for (auto kind : supported_kinds()) {
    EXPECT_TRUE(kernels::force(kind));
    EXPECT_EQ(kernels::active(), kind);
  }
  for (auto kind : {kernels::Kind::kAvx2, kernels::Kind::kAvx512}) {
    if (kernels::supported(kind)) continue;
    const auto before = kernels::active();
    EXPECT_FALSE(kernels::force(kind));
    EXPECT_EQ(kernels::active(), before);
  }
}

TEST(PackedB, PanelsMatchPackBPanel) {
  const int k = 200;  // 2 K blocks, ragged
  const int n = 100;  // 2 column tiles, ragged
  Rng rng(11);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  EXPECT_EQ(pb.k_blocks(), 2);
  EXPECT_EQ(pb.tiles_n(), 2);

  std::vector<float> want(static_cast<std::size_t>(PackedB::kPanelElems));
  for (std::int64_t tn = 0; tn < pb.tiles_n(); ++tn) {
    for (std::int64_t k0 = 0; k0 < k; k0 += TileShape::kK) {
      const int kc = static_cast<int>(
          std::min<std::int64_t>(TileShape::kK, k - k0));
      const int nc = static_cast<int>(
          std::min<std::int64_t>(TileShape::kN, n - tn * TileShape::kN));
      std::fill(want.begin(), want.end(), 0.0f);
      pack_b_panel(Trans::N, b.data(), n, k0, tn * TileShape::kN, kc, nc,
                   want.data());
      EXPECT_EQ(std::memcmp(pb.panel(tn, k0), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "tile_n=" << tn << " k0=" << k0;
    }
  }
}

TEST(PackedB, PrepackedGemmBitwiseEqualsOnTheFly) {
  // The panels are byte-identical to pack_b_panel output, so the whole GEMM
  // must match bit for bit — for every supported kernel.
  KernelGuard guard;
  const int m = 97;
  const int n = 129;
  const int k = 150;
  Rng rng(13);
  auto a = Tensor<fp16_t>::random_normal({m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  for (auto kind : supported_kinds()) {
    ASSERT_TRUE(kernels::force(kind));
    auto c_fly = Tensor<fp16_t>::zeros({m, n});
    auto c_pre = Tensor<fp16_t>::zeros({m, n});
    gemm_f16(dev(), Trans::N, Trans::N, m, n, k, 1.0f, a.data(), k, b.data(),
             n, 0.0f, c_fly.data(), n);
    gemm_prepacked(dev(), Trans::N, m, n, k, 1.0f, a.data(), k, pb, 0.0f,
                   c_pre.data(), n);
    for (std::int64_t i = 0; i < c_fly.size(); ++i) {
      ASSERT_EQ(c_fly.data()[i].bits(), c_pre.data()[i].bits())
          << "kernel=" << kernels::name(kind) << " at " << i;
    }
  }
}

TEST(PackedB, BatchedPrepackedBitwiseEqualsOnTheFly) {
  const int batch = 3;
  const int m = 70;
  const int n = 65;
  const int k = 140;
  Rng rng(17);
  auto a = Tensor<fp16_t>::random_normal({batch * m, k}, rng);
  auto b = Tensor<fp16_t>::random_normal({k, n}, rng);  // shared across batch
  const PackedB pb = PackedB::pack(Trans::N, b.data(), n, k, n);
  auto c_fly = Tensor<fp16_t>::zeros({batch * m, n});
  auto c_pre = Tensor<fp16_t>::zeros({batch * m, n});
  batched_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N, batch, m, n, k, 1.0f, a.data(), k,
      static_cast<std::int64_t>(m) * k, b.data(), n, /*stride_b=*/0, 0.0f,
      c_fly.data(), n, static_cast<std::int64_t>(m) * n);
  batched_gemm_prepacked(dev(), Trans::N, batch, m, n, k, 1.0f, a.data(), k,
                         static_cast<std::int64_t>(m) * k, pb, 0.0f,
                         c_pre.data(), n, static_cast<std::int64_t>(m) * n);
  for (std::int64_t i = 0; i < c_fly.size(); ++i) {
    ASSERT_EQ(c_fly.data()[i].bits(), c_pre.data()[i].bits()) << i;
  }
}

TEST(PackedB, GroupedPackedBProblemsBitwiseEqualOnTheFly) {
  // Mixed grouped batch: some problems carry persistent panels, some pack
  // on the fly; both routes must agree bitwise with the all-dynamic run.
  Rng rng(19);
  const std::tuple<int, int, int> shapes[] = {
      {70, 64, 64}, {40, 130, 200}, {128, 64, 512}};
  std::vector<Tensor<fp16_t>> as, bs;
  std::vector<Tensor<fp16_t>> c_fly, c_mix;
  std::vector<PackedB> packed;
  std::vector<GroupedProblem<fp16_t, fp16_t, fp16_t>> fly, mix;
  for (auto [m, n, k] : shapes) {
    as.push_back(Tensor<fp16_t>::random_normal({m, k}, rng));
    bs.push_back(Tensor<fp16_t>::random_normal({k, n}, rng));
    c_fly.push_back(Tensor<fp16_t>::zeros({m, n}));
    c_mix.push_back(Tensor<fp16_t>::zeros({m, n}));
    packed.push_back(PackedB::pack(Trans::N, bs.back().data(), n, k, n));
  }
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const auto [m, n, k] = shapes[i];
    GroupedProblem<fp16_t, fp16_t, fp16_t> p;
    p.m = m;
    p.n = n;
    p.k = k;
    p.a = as[i].data();
    p.lda = k;
    p.b = bs[i].data();
    p.ldb = n;
    p.ldc = n;
    p.c = c_fly[i].data();
    fly.push_back(p);
    p.c = c_mix[i].data();
    if (i % 2 == 0) p.packed_b = &packed[i];
    mix.push_back(p);
  }
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(fly), 1.0f,
      0.0f);
  grouped_gemm<fp16_t, fp16_t, fp16_t>(
      dev(), Trans::N, Trans::N,
      std::span<const GroupedProblem<fp16_t, fp16_t, fp16_t>>(mix), 1.0f,
      0.0f);
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    for (std::int64_t j = 0; j < c_fly[i].size(); ++j) {
      ASSERT_EQ(c_fly[i].data()[j].bits(), c_mix[i].data()[j].bits())
          << "problem " << i << " elem " << j;
    }
  }
}

TEST(PackedB, TransposedPackMatchesReference) {
  // op(B) = B^T baked into the panels at pack time.
  const int m = 33;
  const int n = 150;
  const int k = 70;
  Rng rng(23);
  auto a = Tensor<float>::random_normal({m, k}, rng);
  auto b = Tensor<float>::random_normal({n, k}, rng);  // stored n x k
  const PackedB pb = PackedB::pack(Trans::T, b.data(), k, k, n);
  auto c = Tensor<float>::zeros({m, n});
  gemm_prepacked(dev(), Trans::N, m, n, k, 1.0f, a.data(), k, pb, 0.0f,
                 c.data(), n);
  std::vector<double> want(static_cast<std::size_t>(m) * n);
  gemm_reference(Trans::N, Trans::T, m, n, k, 1.0, a.data(), k, b.data(), k,
                 want.data(), n);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], want[static_cast<std::size_t>(i)], 2e-3);
  }
}

TEST(CtaScratchDeath, OverflowAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  par::CtaScratch scratch(1024);
  EXPECT_DEATH(scratch.alloc_or_abort<float>(1024, "oversized panel"),
               "oversized panel");
}

}  // namespace
}  // namespace bt::gemm
