// Fused MHA specifics: tile boundaries, the short/long dispatch cutoff,
// scheduler prefetch invariance, scratch-capacity behaviour, and the long
// and causal (flash) kernels against the FP64 reference at the offline
// long-sequence benchmark's shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "attention/attention.h"
#include "common/rng.h"
#include "kernels/transpose.h"
#include "parallel/device.h"
#include "tensor/tensor.h"
#include "test_utils.h"

namespace bt::attn {
namespace {

par::Device& dev() {
  static par::Device d(2);
  return d;
}

struct MhaSetup {
  core::SeqOffsets off;
  Tensor<fp16_t> qkv;
  Tensor<fp16_t> bias;
  int heads;
  int head_size;
  int hidden;

  MhaSetup(std::vector<int> lens, int max_seq, int heads_, int hd,
        std::uint64_t seed = 7) {
    Rng rng(seed);
    heads = heads_;
    head_size = hd;
    hidden = heads * hd;
    off = core::build_seq_offsets(dev(), lens, max_seq);
    qkv = Tensor<fp16_t>::random_normal({off.valid_count, 3 * hidden}, rng);
    bias = Tensor<fp16_t>::random_normal({3 * hidden}, rng, 0.1f);
  }

  PackedMhaArgs args(Tensor<fp16_t>& ctx) {
    return {qkv.data(), bias.data(), ctx.data(), &off, heads, head_size};
  }

  // Max abs diff of a packed context [valid, hidden] against the FP64
  // reference over the same (bias-applied, FP16-rounded) Q/K/V; infinite
  // when any output is not finite.
  double diff_vs_reference(const Tensor<fp16_t>& ctx, bool causal) {
    const std::int64_t per_head = static_cast<std::int64_t>(off.batch) *
                                  heads * off.max_seq * head_size;
    auto q = Tensor<fp16_t>::zeros({per_head});
    auto k = Tensor<fp16_t>::zeros({per_head});
    auto v = Tensor<fp16_t>::zeros({per_head});
    kernels::split_qkv_add_bias_rebuild_padding(dev(), qkv.data(), bias.data(),
                                                q.data(), k.data(), v.data(),
                                                off, heads, head_size);
    std::vector<double> ref(static_cast<std::size_t>(per_head));
    const auto qd = test::to_f64(q);
    const auto kd = test::to_f64(k);
    const auto vd = test::to_f64(v);
    mha_reference(qd.data(), kd.data(), vd.data(), ref.data(), off.batch,
                  heads, off.max_seq, head_size, off.seq_lens, causal);
    double worst = 0;
    for (std::int64_t t = 0; t < off.valid_count; ++t) {
      const std::int64_t padded = off.packed_to_padded[static_cast<std::size_t>(t)];
      const std::int64_t b = padded / off.max_seq;
      const std::int64_t s = padded % off.max_seq;
      for (int h = 0; h < heads; ++h) {
        for (int d = 0; d < head_size; ++d) {
          const std::int64_t ref_idx =
              ((b * heads + h) * off.max_seq + s) * head_size + d;
          const double got = load_f32(ctx(t, h * head_size + d));
          if (!std::isfinite(got)) return INFINITY;  // std::max drops NaN
          worst = std::max(worst,
                           std::abs(got - ref[static_cast<std::size_t>(ref_idx)]));
        }
      }
    }
    return worst;
  }
};

// The FP64-reference tolerance of test_attention.cc: FP16 storage plus FP32
// accumulation headroom.
constexpr double kRefTol = 4e-2;

// The offline long-sequence benchmark's shape: 8 sequences of alpha = 0.6
// lengths (uniform over [205, 1024], here stratified) at max_seq 1024, 4
// heads of 64.
const std::vector<int> kOfflineLongLens{1024, 205, 819, 410, 922, 512, 307, 717};

TEST(FusedShort, SplitSeqLenBoundaries) {
  // Lengths around the kSplitSeqLen = 48 tile boundary must all agree with
  // the long kernel (independent implementation).
  for (int len : {47, 48, 49, 95, 96, 97}) {
    MhaSetup s({len}, len, 2, 32);
    core::Workspace ws;
    auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
    auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
    auto args_a = s.args(a);
    auto args_b = s.args(b);
    mha_fused_short(dev(), args_a, ws);
    mha_fused_long(dev(), args_b, ws);
    EXPECT_LT(max_abs_diff(a, b), 3e-2) << "len=" << len;
  }
}

TEST(FusedShort, SingleTokenSequences) {
  MhaSetup s({1, 1, 1}, 4, 2, 16);
  core::Workspace ws;
  auto ctx = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args = s.args(ctx);
  mha_fused_short(dev(), args, ws);
  // softmax over a single position is 1, so ctx == V (+bias).
  for (std::int64_t t = 0; t < 3; ++t) {
    for (int j = 0; j < s.hidden; ++j) {
      const float want = load_f32(s.qkv(t, 2 * s.hidden + j)) +
                         load_f32(s.bias.data()[2 * s.hidden + j]);
      EXPECT_NEAR(load_f32(ctx(t, j)), want, 1e-2);
    }
  }
}

TEST(FusedLong, PrefetchWidthsProduceSameResult) {
  MhaSetup s({130, 70, 200}, 200, 2, 32);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused_long(dev(), args_a, ws, /*scheduler_prefetch=*/1);
  mha_fused_long(dev(), args_b, ws, /*scheduler_prefetch=*/32);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i].bits(), b.data()[i].bits());
  }
}

TEST(FusedLong, CrossTileSoftmaxCorrectness) {
  // Length > 64 forces multiple column tiles in the partial reduction; the
  // two-pass softmax (partial + full reduce + mainloop normalize) must match
  // the single-pass short kernel.
  MhaSetup s({150}, 150, 1, 32);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused_long(dev(), args_a, ws);
  mha_fused_short(dev(), args_b, ws);
  EXPECT_LT(max_abs_diff(a, b), 3e-2);
}

TEST(FusedLong, MatchesFp64ReferenceAtOfflineLongShape) {
  MhaSetup s(kOfflineLongLens, 1024, 4, 64);
  core::Workspace ws;
  auto ctx = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args = s.args(ctx);
  mha_fused_long(dev(), args, ws);
  EXPECT_LT(s.diff_vs_reference(ctx, /*causal=*/false), kRefTol);
}

TEST(FlashLike, CausalMatchesFp64ReferenceAtOfflineLongShape) {
  // Causal fused-long delegates to flash, whose -inf key mask must come out
  // of the vectorized exp as exact zeros.
  MhaSetup s(kOfflineLongLens, 1024, 4, 64);
  core::Workspace ws;
  auto ctx = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args = s.args(ctx);
  args.causal = true;
  mha_fused_long(dev(), args, ws);
  EXPECT_LT(s.diff_vs_reference(ctx, /*causal=*/true), kRefTol);
}

TEST(FusedDispatch, UsesShortKernelUpToCutoff) {
  EXPECT_EQ(kShortSeqCutoff, 384);
  // At the cutoff the dispatcher must run (and agree with) the short path.
  MhaSetup s({kShortSeqCutoff}, kShortSeqCutoff, 1, 16);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused(dev(), args_a, ws);
  mha_fused_short(dev(), args_b, ws);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i].bits(), b.data()[i].bits());
  }
}

TEST(FusedDispatch, UsesLongKernelPastCutoff) {
  // Per-sequence dispatch: the sequence past the cutoff runs the long
  // kernel while its 100-token batch-mate still runs the short one.
  MhaSetup s({kShortSeqCutoff + 16, 100}, kShortSeqCutoff + 16, 1, 16);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto c = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  auto args_c = s.args(c);
  mha_fused(dev(), args_a, ws);
  mha_fused_long(dev(), args_b, ws);
  mha_fused_short(dev(), args_c, ws);
  const std::int64_t split = s.off.batch_offset[1] * s.hidden;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const fp16_t want = i < split ? b.data()[i] : c.data()[i];
    EXPECT_EQ(a.data()[i].bits(), want.bits()) << "element " << i;
  }
}

// A sequence's bits must not depend on what it is packed with: a 100-token
// sequence alone and next to a 500-token one (which runs the long or flash
// kernel) gives the same context, causal or not.
TEST(FusedDispatch, SequenceBitsIgnoreBatchMates) {
  for (const bool causal : {false, true}) {
    MhaSetup mixed({100, 500}, 500, 2, 32, /*seed=*/31);
    MhaSetup alone({100}, 100, 2, 32);
    std::memcpy(alone.qkv.data(), mixed.qkv.data(),
                static_cast<std::size_t>(alone.qkv.size()) * sizeof(fp16_t));
    alone.bias = mixed.bias.clone();
    core::Workspace ws;
    auto ctx_mixed = Tensor<fp16_t>::zeros({mixed.off.valid_count, mixed.hidden});
    auto ctx_alone = Tensor<fp16_t>::zeros({alone.off.valid_count, alone.hidden});
    auto args_mixed = mixed.args(ctx_mixed);
    auto args_alone = alone.args(ctx_alone);
    args_mixed.causal = args_alone.causal = causal;
    mha_fused(dev(), args_mixed, ws);
    mha_fused(dev(), args_alone, ws);
    EXPECT_EQ(std::memcmp(ctx_mixed.data(), ctx_alone.data(),
                          static_cast<std::size_t>(ctx_alone.size()) *
                              sizeof(fp16_t)),
              0)
        << "causal=" << causal;
  }
}

// Per-sequence q_start: cached prefix rows are read from their own buffers,
// only the rows at or past each sequence's q_start are computed and stored,
// at packed computed-row positions, and each is bitwise the row of a
// q_start = 0 run. Prefixes straddle the short kernel's 48-row tiles (47,
// 48, 49) and a 64-row flash block (430), next to a full sequence.
TEST(FusedDispatch, PerSequenceQStartStoresComputedRowsBitwise) {
  const std::vector<int> lens{60, 470, 97, 130, 70};
  const std::vector<int> q_start{0, 430, 48, 47, 49};
  MhaSetup s(lens, 470, 2, 16, /*seed=*/33);
  const std::int64_t width = 3 * s.hidden;
  std::vector<std::int64_t> computed_offset(lens.size() + 1, 0);
  std::vector<const fp16_t*> prefix_qkv(lens.size());
  for (std::size_t b = 0; b < lens.size(); ++b) {
    computed_offset[b + 1] = computed_offset[b] + lens[b] - q_start[b];
    prefix_qkv[b] = s.qkv.data() + s.off.batch_offset[b] * width;
  }
  // The computed rows' QKV, packed on their own.
  auto computed_qkv = Tensor<fp16_t>::zeros({computed_offset.back(), width});
  for (std::size_t b = 0; b < lens.size(); ++b) {
    std::memcpy(computed_qkv.data() + computed_offset[b] * width,
                prefix_qkv[b] + q_start[b] * width,
                static_cast<std::size_t>((lens[b] - q_start[b]) * width) *
                    sizeof(fp16_t));
  }
  using Kernel = void (*)(par::Device&, const PackedMhaArgs&, core::Workspace&);
  const std::vector<std::pair<const char*, Kernel>> kernels{
      {"dispatch", &mha_fused},
      {"short", &mha_fused_short},
      {"flash", &mha_flash_like}};
  for (const auto& [name, kernel] : kernels) {
    core::Workspace ws;
    auto full = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
    auto computed = Tensor<fp16_t>::zeros({computed_offset.back(), s.hidden});
    auto args_full = s.args(full);
    auto args = s.args(computed);
    args_full.causal = args.causal = true;
    args.qkv = computed_qkv.data();
    args.q_start = q_start;
    args.computed_offset = computed_offset;
    args.prefix_qkv = prefix_qkv;
    kernel(dev(), args_full, ws);
    kernel(dev(), args, ws);
    for (std::size_t b = 0; b < lens.size(); ++b) {
      const std::int64_t rows = lens[b] - q_start[b];
      EXPECT_EQ(std::memcmp(computed.data() + computed_offset[b] * s.hidden,
                            full.data() + (s.off.batch_offset[b] + q_start[b]) *
                                              s.hidden,
                            static_cast<std::size_t>(rows * s.hidden) *
                                sizeof(fp16_t)),
                0)
          << name << " sequence " << b;
    }
  }
}

TEST(FusedShort, ScratchFitsAtCutoffWithBertHeadSize) {
  // The capacity argument behind the 384 cutoff: at head_size 64 the short
  // kernel's arena demand at len=384 fits in 164 KiB, at 448 it does not.
  auto demand = [](int len, int hd) {
    const std::size_t s_kv = static_cast<std::size_t>(len) * hd * sizeof(fp16_t);
    const std::size_t q = static_cast<std::size_t>(kSplitSeqLen) * hd * sizeof(float);
    const std::size_t logits =
        static_cast<std::size_t>(kSplitSeqLen) * len * sizeof(float);
    const std::size_t ctx = static_cast<std::size_t>(kSplitSeqLen) * hd * sizeof(float);
    const std::size_t row_buf = static_cast<std::size_t>(hd) * sizeof(float);
    return s_kv + q + logits + ctx + row_buf;
  };
  EXPECT_LE(demand(384, 64), par::CtaScratch::kDefaultBytes);
  EXPECT_GT(demand(448, 64), par::CtaScratch::kDefaultBytes);
}

TEST(FusedLong, ManyHeadsManyBatches) {
  MhaSetup s({40, 90, 10, 65}, 90, 4, 16);
  core::Workspace ws;
  auto a = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto b = Tensor<fp16_t>::zeros({s.off.valid_count, s.hidden});
  auto args_a = s.args(a);
  auto args_b = s.args(b);
  mha_fused_long(dev(), args_a, ws);
  mha_flash_like(dev(), args_b, ws);
  EXPECT_LT(max_abs_diff(a, b), 3e-2);
}

TEST(FusedMha, WorkspaceReuseAcrossCallsIsSafe) {
  // Two different problem sizes through the same workspace: the second
  // (smaller) must not read stale state from the first.
  core::Workspace ws;
  MhaSetup big({120, 100}, 120, 2, 32, /*seed=*/21);
  auto ctx_big = Tensor<fp16_t>::zeros({big.off.valid_count, big.hidden});
  auto args_big = big.args(ctx_big);
  mha_fused_long(dev(), args_big, ws);

  MhaSetup small({30}, 30, 2, 32, /*seed=*/22);
  auto ctx1 = Tensor<fp16_t>::zeros({small.off.valid_count, small.hidden});
  auto ctx2 = Tensor<fp16_t>::zeros({small.off.valid_count, small.hidden});
  core::Workspace fresh;
  auto args1 = small.args(ctx1);
  auto args2 = small.args(ctx2);
  mha_fused_long(dev(), args1, ws);     // reused workspace
  mha_fused_long(dev(), args2, fresh);  // fresh workspace
  for (std::int64_t i = 0; i < ctx1.size(); ++i) {
    EXPECT_EQ(ctx1.data()[i].bits(), ctx2.data()[i].bits());
  }
}

}  // namespace
}  // namespace bt::attn
