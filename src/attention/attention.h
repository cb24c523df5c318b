// The attention zoo.
//
// Every variant computes, per batch b and head h, over the *valid* length
// len_b of each sequence:
//     ctx = softmax(Q K^T / sqrt(head_size)) V
// They differ exactly along the two axes the paper evaluates (Figs. 11-13):
// how padding is handled, and how much of the chain is fused.
//
//   variant               input layout      padding work      fusion
//   -------------------------------------------------------------------------
//   mha_pytorch_like      padded per-head   full S^2          none (separate
//                                                             kernels + copies)
//   mha_batched           padded per-head   full S^2          batched GEMMs
//                                                             (cuBLAS-like)
//   mha_batched_zeropad   padded per-head   GEMMs full S^2,   batched GEMMs +
//                                           softmax valid-only zero-pad softmax
//   mha_fused_short       packed QKV        none              single kernel,
//                                                             logits in scratch
//   mha_fused_long        packed QKV        none              grouped GEMM +
//                                                             softmax epilogue/
//                                                             mainloop fusion
//   mha_flash_like        packed QKV        none              one CTA per
//                                                             attention unit,
//                                                             online softmax
//   mha_et_like           padded per-head   full S^2, FP32    none
//   mha_fused             packed QKV        none              dispatches short/
//                                                             long at 384, per
//                                                             sequence
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/half.h"
#include "core/padding.h"
#include "core/workspace.h"
#include "parallel/device.h"

namespace bt::attn {

// Sequence-length regime switch for mha_fused: at 384 the short kernel's
// scratch demand (fp16 K/V panel + fp32 logits tile) crosses the 164 KiB
// CTA arena, mirroring the shared-memory limit that forces the same cutoff
// on the A100 (paper Sec. III-E2).
inline constexpr int kShortSeqCutoff = 384;

// Query-tile rows per CTA in the short-sequence fused kernel (paper's
// split_seq_len, "typically 32 or 48").
inline constexpr int kSplitSeqLen = 48;

// Padded per-head operands: [batch, heads, max_seq, head_size] each, biases
// already applied by the split/transpose kernel.
struct PaddedMhaArgs {
  const fp16_t* q = nullptr;
  const fp16_t* k = nullptr;
  const fp16_t* v = nullptr;
  fp16_t* ctx = nullptr;  // [batch, heads, max_seq, head_size]
  int batch = 0;
  int heads = 0;
  int max_seq = 0;
  int head_size = 0;
  std::span<const int> seq_lens;
};

// Packed operands: the fused QKV projection output [valid, 3*hidden] with
// its bias unapplied — bias addition is fused into the kernels' loads, as in
// Algorithm III.1. Output is packed token rows [valid, hidden]. When
// resuming from cached prefixes (q_start below), both hold only the
// computed rows.
struct PackedMhaArgs {
  const fp16_t* qkv = nullptr;       // [valid or computed rows, 3*hidden]
  const fp16_t* qkv_bias = nullptr;  // [3*hidden]
  fp16_t* ctx = nullptr;             // [valid or computed rows, hidden]
  const core::SeqOffsets* offsets = nullptr;
  int heads = 0;
  int head_size = 0;
  // Causal (decoder-style) masking: token i attends to keys j <= i only.
  // Supported by the short and flash kernels; the dispatcher routes causal
  // long sequences to the flash kernel (the grouped-GEMM two-pass softmax
  // would need per-tile masking — the decoder extension the paper lists as
  // future work).
  bool causal = false;
  // Prefix resume (cache/prefix_cache.h), per sequence: the first
  // q_start[b] rows of sequence b are cached. Their raw QKV rows are read
  // in place from prefix_qkv[b] ([q_start[b], 3*hidden]) and their context
  // is not stored; rows i >= q_start[b] are the computed rows, at packed
  // row computed_offset[b] + i - q_start[b] of both qkv and ctx. The
  // kernels skip exactly the query tiles/blocks that end at or before
  // q_start[b] — tile geometry is unchanged (tiling still starts from row 0
  // of each sequence), so every computed row is bitwise identical to the
  // same row in a q_start = 0 run. Keys are NOT restricted: computed rows
  // attend over the full (causally masked) key range, prefix keys
  // included. Only meaningful with causal masking — a bidirectional row's
  // context could never be skipped consistently. Empty (the default)
  // computes every row, and row i of sequence b is packed row
  // batch_offset[b] + i.
  std::span<const int> q_start = {};                   // [batch] or empty
  std::span<const std::int64_t> computed_offset = {};  // [batch] with q_start
  std::span<const fp16_t* const> prefix_qkv = {};      // [batch] with q_start
  // Sequences this call computes, as indices into `offsets`; empty = all.
  // mha_fused uses it to send each sequence to its own kernel.
  std::span<const int> seqs = {};

  int num_seqs() const {
    return seqs.empty() ? offsets->batch : static_cast<int>(seqs.size());
  }
  int seq(int i) const {
    return seqs.empty() ? i : seqs[static_cast<std::size_t>(i)];
  }
  int seq_len(int b) const {
    return offsets->seq_lens[static_cast<std::size_t>(b)];
  }
  // Longest sequence this call computes.
  int max_len() const {
    int m = 0;
    for (int i = 0; i < num_seqs(); ++i) m = std::max(m, seq_len(seq(i)));
    return m;
  }
  int q_start_of(int b) const {
    return q_start.empty() ? 0 : q_start[static_cast<std::size_t>(b)];
  }
  // Packed qkv/ctx row of row i >= q_start_of(b) of sequence b.
  std::int64_t row(int b, int i) const {
    const std::size_t sb = static_cast<std::size_t>(b);
    return q_start.empty() ? offsets->batch_offset[sb] + i
                           : computed_offset[sb] + (i - q_start[sb]);
  }
  // Raw QKV row i of sequence b, cached or computed.
  const fp16_t* qkv_row(int b, int i) const {
    const std::int64_t width = 3 * static_cast<std::int64_t>(heads) * head_size;
    return i < q_start_of(b)
               ? prefix_qkv[static_cast<std::size_t>(b)] + i * width
               : qkv + row(b, i) * width;
  }
  // Context row of row i >= q_start_of(b) of sequence b.
  fp16_t* ctx_row(int b, int i) const {
    return ctx + row(b, i) * heads * head_size;
  }
};

// --- padded-variant baselines -------------------------------------------
void mha_pytorch_like(par::Device& dev, const PaddedMhaArgs& args,
                      core::Workspace& ws);
void mha_batched(par::Device& dev, const PaddedMhaArgs& args,
                 core::Workspace& ws);
void mha_batched_zeropad(par::Device& dev, const PaddedMhaArgs& args,
                         core::Workspace& ws);

// E.T.-style comparator: FP32 unfused per-head pipeline (Volta-era, no
// tensor cores); used by the Table III bench.
struct PaddedMhaArgsF32 {
  const float* q = nullptr;
  const float* k = nullptr;
  const float* v = nullptr;
  float* ctx = nullptr;
  int batch = 0;
  int heads = 0;
  int max_seq = 0;
  int head_size = 0;
  std::span<const int> seq_lens;
};
void mha_et_like(par::Device& dev, const PaddedMhaArgsF32& args,
                 core::Workspace& ws);

// --- ByteTransformer fused MHA + FlashAttention baseline -----------------
void mha_fused_short(par::Device& dev, const PackedMhaArgs& args,
                     core::Workspace& ws);
void mha_fused_long(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws,
                    std::int64_t scheduler_prefetch = 32);
void mha_flash_like(par::Device& dev, const PackedMhaArgs& args,
                    core::Workspace& ws);

// Scratch demand of the short kernel at a given shape; the short path is
// only viable when this fits the device's CTA arena (the same shared-memory
// capacity argument that fixes the paper's 384 cutoff on the A100).
std::size_t fused_short_scratch_bytes(int max_seq, int head_size);

// Dispatcher, per sequence: each sequence of length <= kShortSeqCutoff whose
// short-kernel scratch fits the device arena runs the short kernel, every
// other one the grouped-GEMM kernel (flash under causal masking), within the
// same call. A sequence's bits therefore depend only on its own length,
// never on its batch-mates.
void mha_fused(par::Device& dev, const PackedMhaArgs& args,
               core::Workspace& ws);

// --- reference ------------------------------------------------------------
// FP64 O(S^2) reference over padded per-head tensors; context rows of
// padding tokens are zeroed. Single-threaded; tests only.
void mha_reference(const double* q, const double* k, const double* v,
                   double* ctx, int batch, int heads, int max_seq,
                   int head_size, std::span<const int> seq_lens,
                   bool causal = false);

}  // namespace bt::attn
