#include "core/encoder_layer.h"

#include <cassert>

#include "attention/attention.h"
#include "core/weight_gemm.h"
#include "gemm/epilogues.h"
#include "gemm/gemm.h"
#include "kernels/activation.h"
#include "kernels/layernorm.h"
#include "kernels/transpose.h"

namespace bt::core {

namespace {

// Attention block for pipelines that need padded per-head tensors (every
// non-fused-MHA configuration). Handles both entry layouts:
//   * padded rows  -> split+bias ("add bias (Q,K,V)" + transpose, Fig. 2a)
//   * packed rows  -> fused rebuild-padding + bias + transpose (Fig. 2c)
// and the mirrored merge on the way out.
void padded_attention_block(par::Device& dev, const BertConfig& cfg,
                            const LayerWeights& w, const OptFlags& flags,
                            const fp16_t* qkv, fp16_t* ctx_rows,
                            const SeqOffsets& off, Workspace& ws) {
  const int heads = cfg.heads;
  const int hd = cfg.head_size;
  const std::int64_t per_head_elems =
      static_cast<std::int64_t>(off.batch) * heads * off.max_seq * hd;
  auto q = ws.get<fp16_t>("layer.q", per_head_elems);
  auto k = ws.get<fp16_t>("layer.k", per_head_elems);
  auto v = ws.get<fp16_t>("layer.v", per_head_elems);
  auto ctx_heads = ws.get<fp16_t>("layer.ctx_heads", per_head_elems);

  if (flags.zero_padding) {
    kernels::split_qkv_add_bias_rebuild_padding(dev, qkv, w.b_qkv.data(),
                                                q.data(), k.data(), v.data(),
                                                off, heads, hd);
  } else {
    kernels::split_qkv_add_bias_padded(dev, qkv, w.b_qkv.data(), q.data(),
                                       k.data(), v.data(), off.batch,
                                       off.max_seq, heads, hd);
  }

  attn::PaddedMhaArgs args;
  args.q = q.data();
  args.k = k.data();
  args.v = v.data();
  args.ctx = ctx_heads.data();
  args.batch = off.batch;
  args.heads = heads;
  args.max_seq = off.max_seq;
  args.head_size = hd;
  args.seq_lens = off.seq_lens;
  switch (flags.padded_mha) {
    case PaddedMhaKind::kPyTorchLike:
      attn::mha_pytorch_like(dev, args, ws);
      break;
    case PaddedMhaKind::kBatched:
      attn::mha_batched(dev, args, ws);
      break;
    case PaddedMhaKind::kBatchedZeroPad:
      attn::mha_batched_zeropad(dev, args, ws);
      break;
  }

  if (flags.zero_padding) {
    kernels::merge_heads_remove_padding(dev, ctx_heads.data(), ctx_rows, off,
                                        heads, hd);
  } else {
    kernels::merge_heads_padded(dev, ctx_heads.data(), ctx_rows, off.batch,
                                off.max_seq, heads, hd);
  }
}

// Everything after attention — projection GEMM, layernorm #0, FFN, layernorm
// #1 — over `rows` token rows. All of these operate row-independently, which
// is why a resumed layer runs them over just the computed rows and stays
// bitwise identical to the full-layer run. `ctx_rows` is the attention
// output, `input` the layer input (residual source).
void encoder_layer_tail(par::Device& dev, const BertConfig& cfg,
                        const LayerWeights& w, const OptFlags& flags,
                        const fp16_t* ctx_rows, const fp16_t* input,
                        fp16_t* output, std::int64_t rows, Workspace& ws,
                        StageTimes* times) {
  const std::int64_t h = cfg.hidden();
  const std::int64_t inner = cfg.ffn_inner();
  const bool prepacked = flags.prepacked_weights && w.packed.ready;

  auto attn_out = ws.get<fp16_t>("layer.attn_out", rows * h);
  auto ln1_out = ws.get<fp16_t>("layer.ln1_out", rows * h);
  auto ffn_mid = ws.get<fp16_t>("layer.ffn_mid", rows * inner);
  // GEMM #3 reuses attn_out's buffer: layernorm #0 is its last reader.
  const std::span<fp16_t> ffn_out = attn_out;

  // GEMM #1: attention output projection.
  {
    StageScope scope(times, "gemm1");
    weight_gemm(dev, prepacked, rows, h, h, ctx_rows, w.packed.proj,
                w.w_proj, attn_out.data());
  }

  // Add-bias + residual + layernorm #0.
  {
    StageScope scope(times, "layernorm0");
    if (flags.fuse_layernorm) {
      kernels::add_bias_residual_layernorm(
          dev, ln1_out.data(), attn_out.data(), input, w.b_proj.data(),
          w.ln1_gamma.data(), w.ln1_beta.data(), rows, h);
    } else {
      kernels::add_bias_residual(dev, attn_out.data(), input,
                                 w.b_proj.data(), rows, h);
      kernels::layernorm(dev, ln1_out.data(), attn_out.data(),
                         w.ln1_gamma.data(), w.ln1_beta.data(), rows, h);
    }
  }

  // GEMM #2: FFN expansion, optionally with bias+GELU fused in the epilogue.
  {
    StageScope scope(times, "gemm2");
    if (flags.fuse_bias_gelu) {
      const gemm::BiasGeluEpilogue<fp16_t> ep{w.b_ffn1.data()};
      weight_gemm(dev, prepacked, rows, inner, h, ln1_out.data(),
                  w.packed.ffn1, w.w_ffn1, ffn_mid.data(), ep);
    } else {
      weight_gemm(dev, prepacked, rows, inner, h, ln1_out.data(),
                  w.packed.ffn1, w.w_ffn1, ffn_mid.data());
    }
  }
  if (!flags.fuse_bias_gelu) {
    StageScope scope(times, "add_bias_gelu");
    kernels::add_bias_gelu(dev, ffn_mid.data(), w.b_ffn1.data(), rows, inner);
  }

  // GEMM #3: FFN contraction.
  {
    StageScope scope(times, "gemm3");
    weight_gemm(dev, prepacked, rows, h, inner, ffn_mid.data(), w.packed.ffn2,
                w.w_ffn2, ffn_out.data());
  }

  // Add-bias + residual + layernorm #1.
  {
    StageScope scope(times, "layernorm1");
    if (flags.fuse_layernorm) {
      kernels::add_bias_residual_layernorm(
          dev, output, ffn_out.data(), ln1_out.data(), w.b_ffn2.data(),
          w.ln2_gamma.data(), w.ln2_beta.data(), rows, h);
    } else {
      kernels::add_bias_residual(dev, ffn_out.data(), ln1_out.data(),
                                 w.b_ffn2.data(), rows, h);
      kernels::layernorm(dev, output, ffn_out.data(), w.ln2_gamma.data(),
                         w.ln2_beta.data(), rows, h);
    }
  }
}

// The fused-MHA switch: the computed query rows of `resume` (all rows
// without it) land in ctx_rows; cached prefix rows are read in place.
void fused_attention(par::Device& dev, const BertConfig& cfg,
                     const LayerWeights& w, const OptFlags& flags,
                     const fp16_t* qkv, fp16_t* ctx_rows,
                     const SeqOffsets& off, const LayerResume* resume,
                     Workspace& ws) {
  attn::PackedMhaArgs args;
  args.qkv = qkv;
  args.qkv_bias = w.b_qkv.data();
  args.ctx = ctx_rows;
  args.offsets = &off;
  args.heads = cfg.heads;
  args.head_size = cfg.head_size;
  args.causal = flags.causal;
  if (resume != nullptr) {
    args.q_start = resume->q_start;
    args.computed_offset = resume->computed_offset;
    args.prefix_qkv = resume->prefix_qkv;
  }
  switch (flags.fused_kind) {
    case FusedMhaKind::kDispatch:
      attn::mha_fused(dev, args, ws);
      break;
    case FusedMhaKind::kShort:
      attn::mha_fused_short(dev, args, ws);
      break;
    case FusedMhaKind::kLong:
      attn::mha_fused_long(dev, args, ws);
      break;
    case FusedMhaKind::kFlashLike:
      attn::mha_flash_like(dev, args, ws);
      break;
  }
}

}  // namespace

void encoder_layer_forward(par::Device& dev, const BertConfig& cfg,
                           const LayerWeights& w, const OptFlags& flags,
                           const fp16_t* input, fp16_t* output,
                           const SeqOffsets& off, Workspace& ws,
                           StageTimes* times, const LayerResume* resume) {
  assert(resume == nullptr ||
         (flags.causal && flags.fused_mha && flags.zero_padding));
  const std::int64_t h = cfg.hidden();
  const std::int64_t rows =
      resume != nullptr    ? resume->computed_offset.back()
      : flags.zero_padding ? off.valid_count
                           : static_cast<std::int64_t>(off.batch) * off.max_seq;

  auto qkv = ws.get<fp16_t>("layer.qkv", rows * 3 * h);
  auto ctx_rows = ws.get<fp16_t>("layer.ctx_rows", rows * h);

  // Weight GEMMs are served from the persistent pre-packed panels when
  // available — bitwise identical to packing on the fly, minus the packing.
  const bool prepacked = flags.prepacked_weights && w.packed.ready;

  // GEMM #0: packed (Q,K,V) positioning encoding in one GEMM. Each output
  // row depends only on its own input row (fixed k-accumulation order), so
  // computed rows are bitwise identical to the same rows of a full encode.
  {
    StageScope scope(times, "gemm0");
    weight_gemm(dev, prepacked, rows, 3 * h, h, input, w.packed.qkv, w.w_qkv,
                qkv.data());
  }

  // Multi-head attention (incl. bias-add and layout transforms).
  {
    StageScope scope(times, "attention");
    if (flags.zero_padding && flags.fused_mha) {
      fused_attention(dev, cfg, w, flags, qkv.data(), ctx_rows.data(), off,
                      resume, ws);
    } else {
      assert(!flags.fused_mha || flags.zero_padding);
      assert(!flags.causal && "causal requires the fused packed kernels");
      padded_attention_block(dev, cfg, w, flags, qkv.data(), ctx_rows.data(),
                             off, ws);
    }
  }

  encoder_layer_tail(dev, cfg, w, flags, ctx_rows.data(), input, output, rows,
                     ws, times);
}

}  // namespace bt::core
