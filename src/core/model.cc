#include "core/model.h"

#include <algorithm>
#include <vector>

#include "models/deberta.h"

namespace bt::core {

const fp16_t* BertModel::run_layers(par::Device& dev, const fp16_t* input,
                                    fp16_t* output, const SeqOffsets& off,
                                    std::span<const SeqPrefix> prefix,
                                    const OptFlags& flags, Workspace& ws,
                                    StageTimes* times,
                                    QkvCaptureSink* capture) const {
  const ModelWeights& weights = *weights_;
  const BertConfig& cfg = weights.config;
  const std::int64_t h = cfg.hidden();
  if (capture != nullptr &&
      (cfg.kind == ModelKind::kDeberta || !flags.zero_padding)) {
    throw std::invalid_argument(
        "BertModel::forward: QKV capture requires zero_padding and a "
        "non-DeBERTa model");
  }
  // Resume geometry: sequence b computes rows [q_start[b], len_b), packed.
  std::vector<int> q_start(prefix.size());
  std::vector<std::int64_t> computed_offset(prefix.size() + 1, 0);
  std::vector<const fp16_t*> prefix_qkv(prefix.size());
  for (std::size_t b = 0; b < prefix.size(); ++b) {
    q_start[b] = static_cast<int>(prefix[b].rows);
    computed_offset[b + 1] = computed_offset[b] + off.seq_lens[b] - q_start[b];
  }
  const LayerResume resume{q_start, computed_offset, prefix_qkv};
  const std::int64_t rows =
      !prefix.empty()      ? computed_offset.back()
      : flags.zero_padding ? off.valid_count
                           : static_cast<std::int64_t>(off.batch) * off.max_seq;

  // Layer i writes a buffer its input is not in; the last layer writes
  // `output` when given. Between a caller's input and output, two layers
  // need only buf_a, so buf_b is fetched on first use.
  fp16_t* buf_a = ws.get<fp16_t>("model.buf_a", rows * h).data();
  const fp16_t* cur = input;
  for (int layer = 0; layer < cfg.layers; ++layer) {
    const bool last = layer == cfg.layers - 1;
    fp16_t* dst = last && output != nullptr ? output
                  : cur != buf_a            ? buf_a
                  : ws.get<fp16_t>("model.buf_b", rows * h).data();
    const LayerWeights& w = weights.layer(layer);
    if (cfg.kind == ModelKind::kDeberta) {
      models::deberta_layer_forward(dev, cfg, weights, w, flags, cur, dst,
                                    off, ws, times);
    } else {
      for (std::size_t b = 0; b < prefix.size(); ++b) {
        prefix_qkv[b] = prefix[b].qkv + layer * prefix[b].rows * 3 * h;
      }
      encoder_layer_forward(dev, cfg, w, flags, cur, dst, off, ws, times,
                            prefix.empty() ? nullptr : &resume);
      if (capture != nullptr) {
        // Same key + size as the layer just used -> same grow-only buffer,
        // still holding this layer's gemm0 output (the next layer is what
        // overwrites it).
        capture->on_layer_qkv(
            layer, ws.get<fp16_t>("layer.qkv", rows * 3 * h).data());
      }
    }
    cur = dst;
  }
  return cur;
}

void BertModel::forward(par::Device& dev, const fp16_t* input, fp16_t* output,
                        const SeqOffsets& off, const OptFlags& flags,
                        Workspace& ws, StageTimes* times,
                        QkvCaptureSink* capture) const {
  if (!flags.zero_padding) {
    run_layers(dev, input, output, off, {}, flags, ws, times, capture);
    return;
  }
  const std::int64_t h = config().hidden();
  auto packed = ws.get<fp16_t>("model.buf_a", off.valid_count * h);
  {
    StageScope scope(times, "padding");
    pack_rows(dev, input, packed.data(), off, h);
  }
  const fp16_t* final_rows = run_layers(dev, packed.data(), nullptr, off, {},
                                        flags, ws, times, capture);
  StageScope scope(times, "padding");
  unpack_rows(dev, final_rows, output, off, h);
}

void BertModel::forward_packed(par::Device& dev, const fp16_t* input,
                               fp16_t* output, const SeqOffsets& off,
                               std::span<const SeqPrefix> prefix,
                               const OptFlags& flags, Workspace& ws,
                               StageTimes* times,
                               QkvCaptureSink* capture) const {
  if (!prefix.empty() && prefix.size() != static_cast<std::size_t>(off.batch)) {
    throw std::invalid_argument(
        "BertModel::forward_packed: prefix needs one entry per sequence");
  }
  if (std::any_of(prefix.begin(), prefix.end(),
                  [](const SeqPrefix& p) { return p.rows != 0; })) {
    if (config().kind == ModelKind::kDeberta) {
      throw std::invalid_argument(
          "BertModel::forward_packed: DeBERTa has no reusable prefix state");
    }
    if (!flags.causal || !flags.fused_mha || !flags.zero_padding) {
      throw std::invalid_argument(
          "BertModel::forward_packed: a prefix requires causal + fused_mha + "
          "zero_padding (prefix reuse is only exact under causal attention)");
    }
    for (std::size_t b = 0; b < prefix.size(); ++b) {
      if (prefix[b].rows < 0 || prefix[b].rows >= off.seq_lens[b]) {
        throw std::invalid_argument(
            "BertModel::forward_packed: a prefix must leave at least one row "
            "of its sequence to compute");
      }
    }
    run_layers(dev, input, output, off, prefix, flags, ws, times, capture);
  } else if (flags.zero_padding) {
    run_layers(dev, input, output, off, {}, flags, ws, times, capture);
  } else {
    // The padded pipeline: rebuild the padded grid around it.
    const std::int64_t h = config().hidden();
    auto padded = ws.get<fp16_t>(
        "model.padded", static_cast<std::int64_t>(off.batch) * off.max_seq * h);
    {
      StageScope scope(times, "padding");
      unpack_rows(dev, input, padded.data(), off, h);
    }
    const fp16_t* final_rows = run_layers(dev, padded.data(), nullptr, off,
                                          {}, flags, ws, times, capture);
    StageScope scope(times, "padding");
    pack_rows(dev, final_rows, output, off, h);
  }
}

void BertModel::forward_resume(par::Device& dev, const fp16_t* prefix_qkv,
                               std::int64_t prefix_rows,
                               const fp16_t* suffix_input,
                               fp16_t* suffix_output, fp16_t* suffix_qkv,
                               const SeqOffsets& off, const OptFlags& flags,
                               Workspace& ws, StageTimes* times) const {
  const SeqPrefix prefix{prefix_qkv, prefix_rows};
  QkvStagingSink sink(suffix_qkv, off.valid_count - prefix_rows,
                      config().hidden());
  forward_packed(dev, suffix_input, suffix_output, off, {&prefix, 1}, flags,
                 ws, times, &sink);
}

}  // namespace bt::core
