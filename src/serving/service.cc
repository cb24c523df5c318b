#include "serving/service.h"

#include <limits>
#include <utility>

#include "cache/prefix_cache.h"
#include "obs/metrics.h"

namespace bt::serving {

namespace {

std::future<Response> resolved_error_future(std::exception_ptr error) {
  std::promise<Response> promise;
  promise.set_exception(std::move(error));
  return promise.get_future();
}

// Unknown-model rejections never reach a replica (the request enters no
// pool), so the scheduler-side failure counters cannot see them; count
// them here at the only place they happen.
obs::Counter& unknown_model_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("serving.errors.unknown_model");
  return c;
}

}  // namespace

Service::Service(ModelRegistry registry, ServiceOptions opts)
    : registry_(std::move(registry)) {
  if (registry_.empty()) {
    throw std::invalid_argument(
        "Service: registry must contain at least one model");
  }
  default_model_ =
      opts.default_model.empty() ? registry_.names().front() : opts.default_model;
  if (!registry_.contains(default_model_)) {
    throw std::invalid_argument("Service: default_model \"" + default_model_ +
                                "\" is not a registered model");
  }
  pools_.reserve(registry_.size());
  for (const std::string& name : registry_.names()) {
    const ModelSpec& spec = registry_.spec(name);
    EnginePoolOptions pool_opts = spec.pool;
    if (opts.prefix_cache_bytes > 0 &&
        pool_opts.engine.engine.flags.causal &&
        pool_opts.engine.engine.flags.zero_padding &&
        spec.model->config().kind != core::ModelKind::kDeberta) {
      // One cache shared across every eligible model: cross-model byte
      // pressure lands on a single LRU, and entries are scoped by the
      // registry name (the replicas' cache_scope) so models stay isolated.
      if (prefix_cache_ == nullptr) {
        prefix_cache_ =
            std::make_shared<cache::PrefixCache>(opts.prefix_cache_bytes);
      }
      pool_opts.engine.engine.prefix_cache = prefix_cache_;
    }
    index_.emplace(name, pools_.size());
    // Response::model reports the registry key the request resolved to.
    pools_.push_back(std::unique_ptr<EnginePool>(
        new EnginePool(name, spec.model, pool_opts)));
  }
}

Service::~Service() { stop(); }

std::future<Response> Service::submit(Request req) {
  return *dispatch(std::move(req), /*block=*/true);
}

std::future<Response> Service::submit(Tensor<fp16_t> hidden) {
  Request req;
  req.hidden = std::move(hidden);
  return submit(std::move(req));
}

std::optional<std::future<Response>> Service::try_submit(Request req) {
  return dispatch(std::move(req), /*block=*/false);
}

std::optional<std::future<Response>> Service::dispatch(Request req,
                                                       bool block) {
  const char* who = block ? "Service::submit" : "Service::try_submit";
  // Reference, not copy: the common sessionless/default-model submit must
  // not allocate on the dispatch path.
  const std::string& name =
      req.model.has_value() ? *req.model : default_model_;
  MutexLock lock(mutex_);
  // Model-independent programming errors (malformed tensor, duplicate id)
  // throw on the caller thread even when the model name is unknown or the
  // request would be declined — otherwise a typo in the name would mask
  // the real bug as a routing error. Only the hidden-width check must wait
  // for model resolution.
  validate_request_shape(who, req.hidden, /*hidden_dim=*/-1);
  validate_request_id(who, req.id, ids_);
  if (stop_) {
    if (!block) return std::nullopt;
    throw ShutdownError("Service::submit: service is stopped");
  }
  const auto it = index_.find(name);
  if (it == index_.end()) {
    // Routing error, not a programming error: resolve the future the
    // caller already awaits instead of throwing, and burn no request id
    // (the request never entered any pool).
    unknown_model_counter().inc();
    return resolved_error_future(std::make_exception_ptr(UnknownModelError(
        std::string(who) + ": unknown model \"" + name + "\"")));
  }
  EnginePool& pool = *pools_[it->second];
  validate_request_shape(who, req.hidden, pool.hidden());
  // Service-wide ids: the same caller-supplied id is rejected even across
  // different models, and auto ids stay disjoint from caller-supplied ones.
  req.id = req.id >= 0 ? req.id : ids_.next();
  if (req.id == std::numeric_limits<RequestId>::max()) {
    // Marking the maximum id would overflow the tracker's watermark.
    throw std::invalid_argument("Service: request id space exhausted");
  }
  const RequestId id = req.id;
  if (block) {
    // Hand off outside the service lock: one model's full replica queue
    // must not stall dispatch (or id assignment) for every other model.
    ids_.mark(id);
    lock.unlock();
    return pool.enqueue(std::move(req), /*block=*/true);
  }
  // Reserve only once the pool accepted, so a declined caller-supplied id
  // can be resubmitted. Holding the service lock across the pool call is
  // safe — it never blocks, and pool locks are always taken after the
  // service's, never the reverse.
  auto fut = pool.enqueue(std::move(req), /*block=*/false);
  if (fut.has_value()) ids_.mark(id);
  return fut;
}

void Service::stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  // Outside the service lock: each pool's drain() empties its replicas, and
  // observers (pending/stats) must stay callable meanwhile.
  for (auto& pool : pools_) pool->drain();
}

bool Service::stopped() const {
  MutexLock lock(mutex_);
  return stop_;
}

const EnginePool& Service::pool(std::string_view model) const {
  const auto it = index_.find(model);
  if (it == index_.end()) {
    throw std::out_of_range("Service: unknown model \"" + std::string(model) +
                            "\"");
  }
  return *pools_[it->second];
}

EngineStats Service::stats() const {
  EngineStats total;
  for (const auto& pool : pools_) total.merge(pool->stats());
  return total;
}

EngineStats Service::stats(std::string_view model) const {
  return pool(model).stats();
}

void Service::publish_stats() const {
  auto& reg = obs::MetricRegistry::global();
  stats().publish(reg, "serving.stats");
  const EnginePool::SessionRouteStats sessions = session_route_stats();
  reg.gauge("serving.route.session_requests")
      .set(static_cast<double>(sessions.session_requests));
  reg.gauge("serving.route.sticky_hits")
      .set(static_cast<double>(sessions.sticky_hits));
  reg.gauge("serving.pending").set(static_cast<double>(pending()));
  if (prefix_cache_ != nullptr) prefix_cache_->publish_stats();
  const std::vector<std::string>& names = registry_.names();
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    pools_[i]->publish_stats(reg, "serving.model." + names[i]);
  }
}

EnginePool::SessionRouteStats Service::session_route_stats() const {
  EnginePool::SessionRouteStats total;
  for (const auto& pool : pools_) {
    const auto s = pool->session_route_stats();
    total.session_requests += s.session_requests;
    total.sticky_hits += s.sticky_hits;
  }
  return total;
}

std::size_t Service::pending() const {
  std::size_t total = 0;
  for (const auto& pool : pools_) total += pool->pending();
  return total;
}

long long Service::pending_tokens() const {
  long long total = 0;
  for (const auto& pool : pools_) total += pool->pending_tokens();
  return total;
}

}  // namespace bt::serving
