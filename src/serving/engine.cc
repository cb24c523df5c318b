#include "serving/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "cache/prefix_cache.h"
#include "core/padding.h"
#include "obs/metrics.h"

namespace bt::serving {

void EngineStats::publish(obs::MetricRegistry& reg,
                          const std::string& prefix) const {
  const auto set = [&](const char* field, double v) {
    reg.gauge(prefix + '.' + field).set(v);
  };
  set("requests", static_cast<double>(requests));
  set("batches", static_cast<double>(batches));
  set("micro_batches", static_cast<double>(micro_batches));
  set("valid_tokens", static_cast<double>(valid_tokens));
  set("processed_tokens", static_cast<double>(processed_tokens));
  set("padding_tokens", static_cast<double>(padding_tokens()));
  set("compute_seconds", compute_seconds);
  set("workspace_allocations", static_cast<double>(workspace_allocations));
  set("deadline_met", static_cast<double>(deadline_met));
  set("deadline_missed", static_cast<double>(deadline_missed));
  set("deadline_shed", static_cast<double>(deadline_shed));
  set("cache_hits", static_cast<double>(cache_hits));
  set("cache_misses", static_cast<double>(cache_misses));
  set("cache_hit_suffix_tokens", static_cast<double>(cache_hit_suffix_tokens));
  set("cache_saved_tokens", static_cast<double>(cache_saved_tokens));
}

namespace {

void validate_options(const EngineOptions& opts) {
  if (const std::string err = opts.flags.validate(); !err.empty()) {
    throw std::invalid_argument(err);
  }
  if (opts.policy == BatchPolicy::kPacked && !opts.flags.zero_padding) {
    throw std::invalid_argument(
        "EngineOptions: BatchPolicy::kPacked requires flags.zero_padding; "
        "without the padding-free pipeline the \"packed\" batch would still "
        "process every padded token");
  }
  if (opts.policy == BatchPolicy::kSortGroup && opts.group_size <= 0) {
    throw std::invalid_argument(
        "EngineOptions: BatchPolicy::kSortGroup needs group_size > 0 "
        "(use kPadToMax for a single whole-batch group)");
  }
  if (opts.max_batch_requests <= 0) {
    throw std::invalid_argument(
        "EngineOptions: max_batch_requests must be positive");
  }
}

}  // namespace

Engine::Engine(std::shared_ptr<const core::BertModel> model,
               EngineOptions opts)
    : opts_(opts),
      model_(std::move(model)),
      dev_(opts.threads, opts.scratch_bytes) {
  if (model_ == nullptr) {
    throw std::invalid_argument("Engine: model must not be null");
  }
  validate_options(opts_);
  if (opts_.prefix_cache != nullptr) {
    // causal is the exactness prerequisite (bidirectional prefix state can
    // never be reused); causal itself requires fused_mha via
    // OptFlags::validate, and the fused kernels require packed rows.
    if (!opts_.flags.causal || !opts_.flags.zero_padding) {
      throw std::invalid_argument(
          "EngineOptions: prefix_cache requires flags.causal and "
          "flags.zero_padding — prefix reuse is only exact under causal "
          "attention on the padding-free pipeline");
    }
    if (model_->config().kind == core::ModelKind::kDeberta) {
      throw std::invalid_argument(
          "EngineOptions: prefix_cache does not support DeBERTa "
          "(disentangled attention has no reusable per-layer prefix state)");
    }
  }
}

Engine::Engine(core::BertModel model, EngineOptions opts)
    : Engine(std::make_shared<const core::BertModel>(std::move(model)),
             opts) {}

void validate_request_shape(const char* who, const Tensor<fp16_t>& hidden,
                            std::int64_t hidden_dim) {
  if (hidden.rank() != 2 || hidden.dim(0) < 1 ||
      (hidden_dim >= 0 && hidden.dim(1) != hidden_dim)) {
    throw std::invalid_argument(
        std::string(who) + ": hidden must be [length >= 1, " +
        (hidden_dim >= 0 ? std::to_string(hidden_dim) : "hidden") + "]");
  }
}

void validate_request_id(const char* who, RequestId requested,
                         const RequestIdTracker& ids) {
  if (requested == std::numeric_limits<RequestId>::max()) {
    // The tracker's watermark is one past the largest issued id; issuing
    // the maximum representable id would overflow it.
    throw std::invalid_argument(std::string(who) + ": request id " +
                                std::to_string(requested) + " is out of range");
  }
  if (requested >= 0 && ids.issued(requested)) {
    // DuplicateIdError is still an invalid_argument (existing catch sites
    // hold), but carries ErrorCode::kDuplicateId for the wire front-end.
    throw DuplicateIdError(
        std::string(who) + ": request id " + std::to_string(requested) +
        " collides with a queued or previously issued id; duplicate "
        "Response::ids would be indistinguishable to the caller");
  }
}

RequestId Engine::submit(Request req) {
  validate_request_shape("Engine::submit", req.hidden, hidden());
  validate_request_id("Engine::submit", req.id, ids_);
  // Auto-assignment stays disjoint from caller-supplied ids: the tracker's
  // next id is always one past the largest issued one.
  const RequestId id = ids_.reserve(req.id);
  queue_.push_back(
      Pending{id, std::move(req.hidden), Timer(), std::move(req.session)});
  return id;
}

RequestId Engine::submit(Tensor<fp16_t> hidden) {
  return submit(Request{-1, std::move(hidden)});
}

std::vector<Response> Engine::run_batch() {
  if (queue_.empty()) return {};

  const std::size_t count = admit_count(
      queue_.size(), opts_.max_batch_requests, opts_.max_batch_tokens,
      [&](std::size_t i) { return queue_[i].hidden.dim(0); });

  std::vector<double> queue_secs(count);
  for (std::size_t i = 0; i < count; ++i) {
    queue_secs[i] = queue_[i].queued.seconds();
  }

  const std::int64_t h = hidden();
  const int layers = model_->config().layers;
  std::vector<Response> responses(count);

  // Prefix-cache probe: a sessioned request whose input extends a cached
  // prefix resumes from it and computes only its suffix; everything else
  // (sessionless, cache miss, cache off) computes every row. Either way the
  // request rides the same packed forward below.
  std::vector<std::string> keys(count);  // empty: not cached
  std::vector<std::shared_ptr<const cache::PrefixEntry>> hits(count);
  std::vector<int> computed(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Pending& p = queue_[i];
    if (opts_.prefix_cache != nullptr && p.session.has_value()) {
      keys[i] = cache::PrefixCache::session_key(opts_.cache_scope, *p.session);
      hits[i] = opts_.prefix_cache->probe(keys[i], p.hidden.data(),
                                          p.hidden.dim(0));
      if (hits[i] == nullptr) stats_.cache_misses += 1;
    }
    computed[i] = static_cast<int>(p.hidden.dim(0) -
                                   (hits[i] != nullptr ? hits[i]->length : 0));
  }

  // The plan runs over computed rows: a resumed prefix is neither processed
  // nor counted, so throughput math stays honest.
  const BatchPlan plan = plan_batch(opts_.policy, computed, opts_.group_size);
  for (const MicroBatch& mb : plan.micro) {
    const std::size_t gb = mb.indices.size();
    const std::int64_t rows = mb.valid_tokens;
    auto in = ws_.get<fp16_t>("engine.in", rows * h);
    auto out = ws_.get<fp16_t>("engine.out", rows * h);

    // Packed gather of each request's computed rows.
    std::vector<int> lens(gb);
    std::vector<core::SeqPrefix> prefix(gb);
    bool capture_wanted = false;
    std::int64_t row = 0;
    for (std::size_t i = 0; i < gb; ++i) {
      const std::size_t pos = static_cast<std::size_t>(mb.indices[i]);
      const Pending& p = queue_[pos];
      lens[i] = static_cast<int>(p.hidden.dim(0));
      if (hits[pos] != nullptr) {
        prefix[i] = core::SeqPrefix{hits[pos]->qkv.data(), hits[pos]->length};
      }
      std::memcpy(in.data() + row * h, p.hidden.data() + prefix[i].rows * h,
                  static_cast<std::size_t>(computed[pos] * h) *
                      sizeof(fp16_t));
      row += computed[pos];
      capture_wanted |= !keys[pos].empty();
    }
    const core::SeqOffsets off = core::build_seq_offsets(
        dev_, lens, *std::max_element(lens.begin(), lens.end()));

    // Sessioned requests update the cache from this very forward pass: the
    // sink stages every layer's computed QKV rows, and the loop below slices
    // each request's row range out by its computed-row offset.
    std::optional<core::QkvStagingSink> sink;
    std::span<fp16_t> capture;
    if (capture_wanted) {
      capture = ws_.get<fp16_t>("engine.cache_capture", layers * rows * 3 * h);
      sink.emplace(capture.data(), rows, h);
    }

    StageTimes stages;
    Timer t;
    model_->forward_packed(dev_, in.data(), out.data(), off, prefix,
                           opts_.flags, ws_, &stages,
                           capture_wanted ? &*sink : nullptr);
    const double compute = t.seconds();
    stats_.compute_seconds += compute;

    // Per-request scatter: cached prefix output rows (zero compute), then
    // the computed rows.
    row = 0;
    for (std::size_t i = 0; i < gb; ++i) {
      const std::size_t pos = static_cast<std::size_t>(mb.indices[i]);
      Pending& p = queue_[pos];
      const std::int64_t pre = prefix[i].rows;
      Response& r = responses[pos];
      r.id = p.id;
      r.output = Tensor<fp16_t>({lens[i], h});
      if (pre > 0) {
        std::memcpy(r.output.data(), hits[pos]->output.data(),
                    static_cast<std::size_t>(pre * h) * sizeof(fp16_t));
      }
      std::memcpy(r.output.data() + pre * h, out.data() + row * h,
                  static_cast<std::size_t>(computed[pos] * h) *
                      sizeof(fp16_t));
      if (!keys[pos].empty()) {
        const fp16_t* qkv = capture.data() + row * 3 * h;
        if (pre > 0) {
          opts_.prefix_cache->extend(keys[pos], hits[pos],
                                     p.hidden.data() + pre * h, lens[i], qkv,
                                     rows, r.output.data() + pre * h);
          stats_.cache_hits += 1;
          stats_.cache_hit_suffix_tokens += computed[pos];
          stats_.cache_saved_tokens += pre;
        } else {
          opts_.prefix_cache->insert(keys[pos], p.hidden.data(), lens[i],
                                     layers, h, qkv, rows, r.output.data());
        }
      }
      r.queue_seconds = queue_secs[pos];
      r.compute_seconds = compute;
      r.round = stats_.batches;  // 0-based: incremented after the round
      r.stages = stages;
      r.session = std::move(p.session);  // each pos scatters once
      row += computed[pos];
    }
  }

  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(count));
  stats_.requests += static_cast<long long>(count);
  stats_.batches += 1;
  stats_.micro_batches += static_cast<long long>(plan.micro.size());
  stats_.valid_tokens += plan.valid_tokens;
  stats_.processed_tokens += plan.processed_tokens;
  stats_.workspace_allocations = static_cast<long long>(ws_.allocations());
  return responses;
}

std::size_t Engine::discard_pending() {
  const std::size_t n = queue_.size();
  queue_.clear();
  return n;
}

std::vector<Response> Engine::drain() {
  std::vector<Response> all;
  while (!queue_.empty()) {
    std::vector<Response> round = run_batch();
    all.insert(all.end(), std::make_move_iterator(round.begin()),
               std::make_move_iterator(round.end()));
  }
  return all;
}

}  // namespace bt::serving
