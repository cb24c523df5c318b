// Stacked encoder model (BERT / ALBERT / DistilBERT / DeBERTa).
//
// The model holds its weights through `std::shared_ptr<const ModelWeights>`
// and runs `config.layers` encoder iterations, dispatching to the DeBERTa
// disentangled-attention layer when configured. Shared ownership is what
// lets a serving::Service replica group run N engines against one physical
// copy of the weights *and* the persistent pre-packed GEMM panels: every
// replica's BertModel aliases the same storage, and pack_panels() runs
// exactly once (it is idempotent), never per-replica. The contract is
// per-model, not global: a serving::ModelRegistry holding several distinct
// BertModels packs each model's weights once, and registering one model
// under several names shares a single packed copy across all of them.
//
// With flags.zero_padding, forward() packs the input once on entry, every
// layer runs on packed rows, and the final hidden states are rebuilt to the
// padded layout on exit (paper Fig. 2c). forward_packed() is the same stack
// without the two layout passes — its caller (the serving engine) hands over
// packed rows — and lets each sequence resume from a cached prefix, so one
// packed forward serves prefix-cache hits and misses alike.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

#include "common/half.h"
#include "common/timer.h"
#include "core/config.h"
#include "core/encoder_layer.h"
#include "core/padding.h"
#include "core/weights.h"
#include "core/workspace.h"
#include "parallel/device.h"

namespace bt::core {

// Observer for the per-layer raw QKV projections (the gemm0 output, bias
// unapplied — exactly the rows the fused attention kernels consume and the
// prefix cache stores, see cache/prefix_cache.h). Called once per encoder
// layer after that layer completes; `qkv` points into a workspace buffer
// that the NEXT layer overwrites, so implementations must copy what they
// need before returning. The rows are the forward pass's computed rows:
// packed valid rows under zero_padding, and of a resumed sequence only its
// suffix rows. Never invoked for DeBERTa models (their disentangled
// attention has no reusable prefix state).
class QkvCaptureSink {
 public:
  virtual ~QkvCaptureSink() = default;
  virtual void on_layer_qkv(int layer, const fp16_t* qkv) = 0;
};

// Stages every layer's `rows` captured QKV rows into one
// [layers, rows, 3*hidden] buffer, so a caller can slice per-sequence row
// ranges out after the pass (layer stride: `rows` rows).
class QkvStagingSink final : public QkvCaptureSink {
 public:
  QkvStagingSink(fp16_t* buf, std::int64_t rows, std::int64_t hidden)
      : buf_(buf), rows_(rows), hidden_(hidden) {}

  void on_layer_qkv(int layer, const fp16_t* qkv) override {
    const std::int64_t n = rows_ * 3 * hidden_;
    std::memcpy(buf_ + layer * n, qkv,
                static_cast<std::size_t>(n) * sizeof(fp16_t));
  }

 private:
  fp16_t* buf_;
  std::int64_t rows_;
  std::int64_t hidden_;
};

// Cached prefix of one sequence of a packed forward (cache/prefix_cache.h
// PrefixEntry layout): the raw per-layer QKV rows of its first `rows`
// tokens, [layers, rows, 3*hidden] contiguous.
struct SeqPrefix {
  const fp16_t* qkv = nullptr;
  std::int64_t rows = 0;  // 0: nothing cached, the whole sequence computes
};

class BertModel {
 public:
  // Sole-ownership convenience: wraps the weights into shared storage.
  explicit BertModel(ModelWeights weights)
      : BertModel(std::make_shared<ModelWeights>(std::move(weights))) {}

  // Shared-ownership constructor: models built from the same shared_ptr
  // alias one weight + PackedPanels storage. Panels are built here (before
  // the storage goes const); pack_panels() is idempotent, so only the first
  // model over a given ModelWeights pays the packing cost. Not thread-safe
  // against concurrent construction over the same un-packed weights —
  // construct the first model (or call pack_panels()) before fanning out.
  explicit BertModel(std::shared_ptr<ModelWeights> weights) {
    if (weights == nullptr) {
      throw std::invalid_argument("BertModel: weights must not be null");
    }
    weights->pack_panels();
    weights_ = std::move(weights);
  }

  const BertConfig& config() const noexcept { return weights_->config; }
  const ModelWeights& weights() const noexcept { return *weights_; }

  // Identity of the shared storage — replicas of a pool compare equal here
  // (tests assert one physical weight copy across the fleet).
  const std::shared_ptr<const ModelWeights>& weights_ptr() const noexcept {
    return weights_;
  }

  // input/output: padded token rows [batch * max_seq, hidden]; padding rows
  // of `input` must be zero-filled. `off` describes the valid tokens.
  // Pack/unpack time is attributed to the "padding" stage of `times`.
  // `capture`, if given, observes each layer's raw QKV rows (packed layout;
  // requires flags.zero_padding and a non-DeBERTa model).
  void forward(par::Device& dev, const fp16_t* input, fp16_t* output,
               const SeqOffsets& off, const OptFlags& flags, Workspace& ws,
               StageTimes* times = nullptr,
               QkvCaptureSink* capture = nullptr) const;

  // The packed forward the serving engine runs: input/output are packed
  // COMPUTED rows [computed, hidden]. `off` describes the whole sequences;
  // `prefix` (empty, or one entry per sequence of `off`) names each
  // sequence's cached prefix, and only its rows [prefix[b].rows, len_b) are
  // computed, packed in sequence order. Without a prefix every valid row is
  // computed, and the rows are those forward() packs. Cache hits and misses
  // (rows = 0) thus share one forward — one set of GEMMs over the computed
  // rows, one attention call. Without flags.zero_padding the rows are
  // rebuilt to the padded layout around the padded pipeline.
  //
  // Exactness contract: every computed output row is bitwise identical to
  // the same row of forward() over the whole sequence with the same flags.
  // A non-zero prefix requires flags.causal + fused_mha + zero_padding, a
  // non-DeBERTa model, and prefix[b].rows < len_b; throws
  // std::invalid_argument otherwise. `capture` sees the computed rows.
  void forward_packed(par::Device& dev, const fp16_t* input, fp16_t* output,
                      const SeqOffsets& off, std::span<const SeqPrefix> prefix,
                      const OptFlags& flags, Workspace& ws,
                      StageTimes* times = nullptr,
                      QkvCaptureSink* capture = nullptr) const;

  // forward_packed for a batch of ONE sequence: given the cached QKV rows
  // of its first `prefix_rows` tokens (`prefix_qkv`,
  // [layers, prefix_rows, 3*hidden]) and the embedding rows of the suffix
  // (`suffix_input`, [suffix, hidden]), computes the suffix's final hidden
  // states (`suffix_output`) and streams each layer's suffix QKV rows to
  // `suffix_qkv` ([layers, suffix, 3*hidden]) so the caller can extend the
  // cache entry. `off` must describe exactly one sequence; throws
  // std::invalid_argument as forward_packed does.
  void forward_resume(par::Device& dev, const fp16_t* prefix_qkv,
                      std::int64_t prefix_rows, const fp16_t* suffix_input,
                      fp16_t* suffix_output, fp16_t* suffix_qkv,
                      const SeqOffsets& off, const OptFlags& flags,
                      Workspace& ws, StageTimes* times = nullptr) const;

  static BertModel random(const BertConfig& cfg, Rng& rng) {
    return BertModel(ModelWeights::random(cfg, rng));
  }

 private:
  // The encoder stack over `input` rows (padded under !zero_padding, packed
  // computed rows otherwise). The last layer writes `output`, or, when it
  // is null, a workspace buffer; returns where the final rows are.
  // Computes only the rows after each sequence's `prefix` (empty = all).
  const fp16_t* run_layers(par::Device& dev, const fp16_t* input,
                           fp16_t* output, const SeqOffsets& off,
                           std::span<const SeqPrefix> prefix,
                           const OptFlags& flags, Workspace& ws,
                           StageTimes* times, QkvCaptureSink* capture) const;

  std::shared_ptr<const ModelWeights> weights_;
};

}  // namespace bt::core
