// One BERT encoder layer, parameterized by the step-wise optimization flags
// of Fig. 14. The same function implements every rung of the ladder — from
// the Fig. 2(a) padded baseline to the fully fused, padding-free Fig. 2(c)
// pipeline — so benchmark deltas isolate exactly one optimization at a time.
//
// Tensor convention:
//   * flags.zero_padding == false: input/output are padded token rows
//     [batch * max_seq, hidden], padding rows zero-filled on entry.
//   * flags.zero_padding == true:  input/output are packed token rows
//     [valid_count, hidden] indexed through SeqOffsets.
#pragma once

#include <cstdint>
#include <span>

#include "common/half.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/padding.h"
#include "core/weights.h"
#include "core/workspace.h"
#include "parallel/device.h"

namespace bt::core {

// Prefix resume (cache/prefix_cache.h) for one layer of a packed forward:
// sequence b of `off` resumes after its first q_start[b] tokens, whose raw
// QKV rows for this layer (gemm0 output, bias unapplied — exactly what the
// fused kernels consume) are prefix_qkv[b], [q_start[b], 3*hidden]. The
// layer input/output then hold only the computed rows [q_start[b], len_b)
// of each sequence, packed in sequence order: sequence b's first computed
// row is row computed_offset[b]. q_start[b] = 0 (a cache miss) computes the
// whole sequence.
struct LayerResume {
  std::span<const int> q_start;                   // [batch]
  std::span<const std::int64_t> computed_offset;  // [batch + 1]
  std::span<const fp16_t* const> prefix_qkv;      // [batch]
};

// Stage keys used for the Fig. 3 breakdown: "gemm0", "attention", "gemm1",
// "layernorm0", "gemm2", "add_bias_gelu" (unfused only), "gemm3",
// "layernorm1". Split/merge transposes are attributed to "attention".
//
// With `resume`, gemm0, the projection, the FFN and both layernorms run
// over the computed rows only — all of them are row-independent — while
// attention reads each sequence's cached prefix QKV rows in place next to
// the fresh rows and computes only the computed query rows.
// Every computed output row is bitwise identical to the same row of a run
// without `resume` over the whole sequences. Requires flags.causal +
// fused_mha + zero_padding (validated by the caller): under bidirectional
// attention the computed rows' context would not match a full encode.
void encoder_layer_forward(par::Device& dev, const BertConfig& cfg,
                           const LayerWeights& w, const OptFlags& flags,
                           const fp16_t* input, fp16_t* output,
                           const SeqOffsets& off, Workspace& ws,
                           StageTimes* times = nullptr,
                           const LayerResume* resume = nullptr);

}  // namespace bt::core
