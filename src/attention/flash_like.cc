// FlashAttention-style baseline for the Fig. 13 comparison.
//
// The defining property (per the paper's characterization): *one CTA owns a
// whole attention unit* — a (batch, head) pair — and streams K/V tiles
// through scratch with an online softmax, so the quadratic intermediate
// never materializes and any sequence length fits. The cost is parallelism:
// only batch*heads CTAs exist, which underutilizes a wide machine when the
// batch is small (the effect Fig. 13 measures; see also
// costmodel/makespan.h for the A100-width projection). The online
// softmax's tile maxima and exps run through the same vectorized max_row /
// exp_row primitives as the fused kernels, so Fig. 13 compares scheduling,
// not softmax implementations.
#include <cassert>
#include <cmath>

#include "attention/attention.h"
#include "common/numeric.h"
#include "gemm/kernels/kernel.h"

namespace bt::attn {

namespace {
constexpr int kQBlock = 64;  // query rows processed per outer step
constexpr int kKBlock = 64;  // K/V rows streamed per inner step
}  // namespace

void mha_flash_like(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws) {
  (void)ws;
  const int heads = args.heads;
  const int d = args.head_size;
  const std::int64_t hidden = static_cast<std::int64_t>(heads) * d;
  const float scale = softmax_scale(d);

  par::Dim3 grid;
  grid.x = heads;
  grid.y = args.num_seqs();
  dev.launch(grid, [&](par::CtaContext& ctx) {
    const int h = ctx.block_x;
    const int b = args.seq(ctx.block_y);
    const int len = args.seq_len(b);
    const int q_start = args.q_start_of(b);

    auto q_tile = ctx.scratch->alloc_or_abort<float>(
        kQBlock * static_cast<std::size_t>(d), "flash MHA Q tile");
    auto s_tile = ctx.scratch->alloc_or_abort<float>(
        kQBlock * static_cast<std::size_t>(kKBlock), "flash MHA score tile");
    auto o_acc = ctx.scratch->alloc_or_abort<float>(
        kQBlock * static_cast<std::size_t>(d), "flash MHA output tile");
    auto kv_row = ctx.scratch->alloc_or_abort<float>(
        static_cast<std::size_t>(d), "flash MHA KV row");
    auto m_run = ctx.scratch->alloc_or_abort<float>(kQBlock, "flash MHA max");
    auto l_run = ctx.scratch->alloc_or_abort<float>(kQBlock, "flash MHA sum");

    const fp16_t* q_bias = args.qkv_bias + 0 * hidden + h * d;
    const fp16_t* k_bias = args.qkv_bias + 1 * hidden + h * d;
    const fp16_t* v_bias = args.qkv_bias + 2 * hidden + h * d;

    for (int q0 = 0; q0 < len; q0 += kQBlock) {
      const int qr = std::min(kQBlock, len - q0);
      // Prefix-resume skip: query blocks entirely below q_start are served
      // from cached context. Each block's online-softmax state is
      // independent (m/l reset per block), so skipping whole blocks leaves
      // the remaining blocks bitwise identical to a q_start=0 run; a
      // straddling block recomputes its cached rows.
      if (q0 + qr <= q_start) continue;
      // Load the query block with bias fused.
      for (int i = 0; i < qr; ++i) {
        const fp16_t* src = args.qkv_row(b, q0 + i) + 0 * hidden + h * d;
        float* dst = q_tile.data() + static_cast<std::int64_t>(i) * d;
        convert_row_f32(src, dst, d);
        for (int e = 0; e < d; ++e) dst[e] += load_f32(q_bias[e]);
      }
      for (int i = 0; i < qr; ++i) {
        m_run[static_cast<std::size_t>(i)] = -INFINITY;
        l_run[static_cast<std::size_t>(i)] = 0.0f;
      }
      for (std::size_t i = 0; i < static_cast<std::size_t>(qr) * d; ++i) {
        o_acc[i] = 0.0f;
      }

      // Stream K/V tiles with the online softmax update. Causal queries in
      // this block need no keys past q0 + qr - 1.
      const int k_end = args.causal ? std::min(len, q0 + qr) : len;
      for (int k0 = 0; k0 < k_end; k0 += kKBlock) {
        const int kr = std::min(kKBlock, k_end - k0);
        // S_tile = scale * Q K^T for this block pair.
        for (int j = 0; j < kr; ++j) {
          const fp16_t* src = args.qkv_row(b, k0 + j) + 1 * hidden + h * d;
          convert_row_f32(src, kv_row.data(), d);
          for (int e = 0; e < d; ++e) kv_row[static_cast<std::size_t>(e)] += load_f32(k_bias[e]);
          for (int i = 0; i < qr; ++i) {
            s_tile[static_cast<std::size_t>(i) * kKBlock + static_cast<std::size_t>(j)] =
                scale * dot_f32(q_tile.data() + static_cast<std::int64_t>(i) * d,
                                kv_row.data(), d);
          }
        }
        // Rescale running stats and accumulator.
        for (int i = 0; i < qr; ++i) {
          float* srow = s_tile.data() + static_cast<std::int64_t>(i) * kKBlock;
          if (args.causal) {
            // Mask keys past this query's position; exp(-inf) -> 0 below.
            for (int j = 0; j < kr; ++j) {
              if (k0 + j > q0 + i) srow[j] = -INFINITY;
            }
          }
          const float tile_max = gemm::kernels::max_row(srow, kr);
          const float m_new = std::max(m_run[static_cast<std::size_t>(i)], tile_max);
          // exp_row maps -inf to exactly +0: the first tile's correction
          // (m_run = -inf) and the masked scores vanish without a branch.
          float correction = 0.0f;
          gemm::kernels::exp_row(&m_run[static_cast<std::size_t>(i)], m_new,
                                 1.0f, &correction, 1);
          const float tile_sum =
              gemm::kernels::exp_row(srow, m_new, 1.0f, srow, kr);
          l_run[static_cast<std::size_t>(i)] =
              l_run[static_cast<std::size_t>(i)] * correction + tile_sum;
          m_run[static_cast<std::size_t>(i)] = m_new;
          float* orow = o_acc.data() + static_cast<std::int64_t>(i) * d;
          for (int e = 0; e < d; ++e) orow[e] *= correction;
        }
        // o_acc += P_tile @ V_tile, V rows widened once apiece.
        for (int j = 0; j < kr; ++j) {
          const fp16_t* src = args.qkv_row(b, k0 + j) + 2 * hidden + h * d;
          convert_row_f32(src, kv_row.data(), d);
          for (int e = 0; e < d; ++e) kv_row[static_cast<std::size_t>(e)] += load_f32(v_bias[e]);
          for (int i = 0; i < qr; ++i) {
            const float p =
                s_tile[static_cast<std::size_t>(i) * kKBlock + static_cast<std::size_t>(j)];
            float* orow = o_acc.data() + static_cast<std::int64_t>(i) * d;
            for (int e = 0; e < d; ++e) orow[e] += p * kv_row[static_cast<std::size_t>(e)];
          }
        }
      }

      // Normalize and store the block's computed rows.
      for (int i = std::max(0, q_start - q0); i < qr; ++i) {
        const float inv = 1.0f / l_run[static_cast<std::size_t>(i)];
        float* orow = o_acc.data() + static_cast<std::int64_t>(i) * d;
        for (int e = 0; e < d; ++e) orow[e] *= inv;
        convert_row_from_f32(orow, args.ctx_row(b, q0 + i) + h * d, d);
      }
    }
  });
}

}  // namespace bt::attn
