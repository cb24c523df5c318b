// Service/ModelRegistry — the one async serving surface: bitwise
// equivalence with the synchronous Engine::drain per batching policy at 1
// and 2 replicas under concurrent submitters; the per-replica scheduler
// (batching window, backpressure, earliest-deadline-first admission,
// shedding, shutdown drain order); routing (round-robin determinism,
// least-outstanding balance, one shared weights copy); multi-model dispatch
// with provenance; sticky sessions on an allocation-free workspace; the
// service-wide id contract (and its bounded memory); and full-fleet
// shutdown drain.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "serving/engine.h"
#include "serving/service.h"
#include "tensor/tensor.h"

// mallinfo2 reports glibc's heap; sanitizer runtimes replace the allocator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BT_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BT_SANITIZER_HEAP 1
#endif
#endif

namespace bt::serving {
namespace {

core::BertConfig tiny_config() {
  core::BertConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_size = 16;
  return cfg;
}

std::shared_ptr<const core::BertModel> model_a() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(4242);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

std::shared_ptr<const core::BertModel> model_b() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(2424);
    return std::make_shared<const core::BertModel>(
        core::BertModel::random(tiny_config(), rng));
  }();
  return model;
}

struct PolicyCase {
  BatchPolicy policy;
  core::OptFlags flags;
  int group_size;
};

std::vector<PolicyCase> all_policies() {
  return {
      {BatchPolicy::kPadToMax, core::OptFlags::bias_gelu_fused(), 0},
      {BatchPolicy::kSortGroup, core::OptFlags::layernorm_fused(), 2},
      {BatchPolicy::kPacked, core::OptFlags::byte_transformer(), 0},
  };
}

EnginePoolOptions pool_options(const PolicyCase& pc, int replicas,
                               RoutePolicy route, int max_batch_requests,
                               double max_wait_seconds) {
  EnginePoolOptions opts;
  opts.engine.engine.policy = pc.policy;
  opts.engine.engine.flags = pc.flags;
  opts.engine.engine.group_size = pc.group_size > 0 ? pc.group_size : 4;
  opts.engine.engine.max_batch_requests = max_batch_requests;
  opts.engine.max_wait_seconds = max_wait_seconds;
  opts.replicas = replicas;
  opts.route = route;
  opts.threads_per_replica = 1;
  return opts;
}

// One replica of the packed policy: the shape the scheduler tests drive.
EnginePoolOptions single_replica(int max_batch_requests,
                                 double max_wait_seconds) {
  return pool_options(all_policies()[2], 1, RoutePolicy::kRoundRobin,
                      max_batch_requests, max_wait_seconds);
}

// A one-model Service named "a".
Service one_model(const EnginePoolOptions& opts,
                  std::shared_ptr<const core::BertModel> model = model_a()) {
  ModelRegistry registry;
  registry.add("a", std::move(model), opts);
  return Service(std::move(registry));
}

void expect_bits_equal(const Tensor<fp16_t>& got, const Tensor<fp16_t>& want) {
  ASSERT_EQ(got.rank(), 2);
  ASSERT_EQ(got.dim(0), want.dim(0));
  ASSERT_EQ(got.dim(1), want.dim(1));
  for (std::int64_t s = 0; s < got.dim(0); ++s) {
    for (std::int64_t j = 0; j < got.dim(1); ++j) {
      ASSERT_EQ(got(s, j).bits(), want(s, j).bits())
          << "row " << s << " col " << j;
    }
  }
}

// ---- registry ---------------------------------------------------------------

TEST(ModelRegistry, RegistersInOrderAndValidates) {
  ModelRegistry registry;
  registry.add("a", model_a()).add("b", model_b());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_TRUE(registry.contains("a"));
  EXPECT_FALSE(registry.contains("c"));
  ASSERT_EQ(registry.names().size(), 2u);
  EXPECT_EQ(registry.names()[0], "a");
  EXPECT_EQ(registry.names()[1], "b");
  EXPECT_EQ(registry.spec("b").model.get(), model_b().get());
  EXPECT_THROW(registry.spec("c"), std::out_of_range);

  EXPECT_THROW(registry.add("a", model_a()), std::invalid_argument);  // dup
  EXPECT_THROW(registry.add("", model_a()), std::invalid_argument);   // empty
  EXPECT_THROW(registry.add("c", nullptr), std::invalid_argument);    // null
}

// Registering one model under two names shares the one physical weight copy
// (the pack-once contract holds per model, not per name).
TEST(ModelRegistry, AliasedNamesShareOneWeightCopy) {
  const PolicyCase pc = all_policies()[2];
  ModelRegistry registry;
  registry.add("fast", model_a(),
               pool_options(pc, 1, RoutePolicy::kRoundRobin, 8, 0.0));
  registry.add("batch", model_a(),
               pool_options(pc, 2, RoutePolicy::kRoundRobin, 8, 0.0));
  Service service(std::move(registry));
  EXPECT_EQ(service.pool("fast").model().weights_ptr().get(),
            service.pool("batch").model().weights_ptr().get());
  service.stop();
}

TEST(ModelRegistry, SharedWeightsArePackedExactlyOnce) {
  Rng rng(77);
  auto weights = std::make_shared<core::ModelWeights>(
      core::ModelWeights::random(tiny_config(), rng));
  ASSERT_FALSE(weights->layers.front().packed.ready);

  core::BertModel first(weights);  // packs here
  ASSERT_TRUE(weights->layers.front().packed.ready);
  const float* panel_storage = weights->layers.front().packed.qkv.panel(0, 0);

  // A second model over the same weights must not re-pack: pack_panels
  // reports zero newly packed layers and the panel storage is untouched.
  EXPECT_EQ(weights->pack_panels(), 0u);
  core::BertModel second(weights);
  EXPECT_EQ(weights->layers.front().packed.qkv.panel(0, 0), panel_storage);
  EXPECT_EQ(first.weights_ptr().get(), second.weights_ptr().get());
}

// ---- construction -----------------------------------------------------------

TEST(Service, RejectsInconsistentConfiguration) {
  EXPECT_THROW(Service(ModelRegistry{}), std::invalid_argument);  // empty

  {
    ModelRegistry registry;
    registry.add("a", model_a());
    ServiceOptions opts;
    opts.default_model = "missing";
    EXPECT_THROW(Service(std::move(registry), opts), std::invalid_argument);
  }

  // Replica-group, scheduler and engine validation all surface through the
  // Service constructor.
  const auto rejects = [](const EnginePoolOptions& opts) {
    EXPECT_THROW(one_model(opts), std::invalid_argument);
  };
  EnginePoolOptions opts = single_replica(8, 0.0);
  opts.replicas = 0;
  rejects(opts);
  opts = single_replica(8, 0.0);
  opts.threads_per_replica = -1;
  rejects(opts);
  opts = single_replica(8, 0.0);
  opts.engine.max_queue = 0;
  rejects(opts);
  rejects(single_replica(8, -0.5));  // negative batching window
  rejects(single_replica(0, 0.0));   // max_batch_requests
  opts = pool_options({BatchPolicy::kPacked, core::OptFlags::bias_gelu_fused(), 0},
                      1, RoutePolicy::kRoundRobin, 8, 0.0);
  rejects(opts);  // kPacked without the zero-padding pipeline
  opts = single_replica(8, 0.0);
  opts.breaker.failure_threshold = 0;
  rejects(opts);
}

TEST(Service, DefaultModelIsFirstRegisteredUnlessOverridden) {
  const PolicyCase pc = all_policies()[2];
  {
    ModelRegistry registry;
    registry.add("a", model_a(), pool_options(pc, 1, RoutePolicy::kRoundRobin,
                                              8, 0.0));
    registry.add("b", model_b(), pool_options(pc, 1, RoutePolicy::kRoundRobin,
                                              8, 0.0));
    Service service(std::move(registry));
    EXPECT_EQ(service.default_model(), "a");
    Rng rng(3);
    Response r = service
                     .submit(Tensor<fp16_t>::random_normal(
                         {4, service.pool("a").hidden()}, rng))
                     .get();
    EXPECT_EQ(r.model, "a");
    service.stop();
  }
  {
    ModelRegistry registry;
    registry.add("a", model_a(), pool_options(pc, 1, RoutePolicy::kRoundRobin,
                                              8, 0.0));
    registry.add("b", model_b(), pool_options(pc, 1, RoutePolicy::kRoundRobin,
                                              8, 0.0));
    ServiceOptions opts;
    opts.default_model = "b";
    Service service(std::move(registry), opts);
    EXPECT_EQ(service.default_model(), "b");
    Rng rng(3);
    Response r = service
                     .submit(Tensor<fp16_t>::random_normal(
                         {4, service.pool("b").hidden()}, rng))
                     .get();
    EXPECT_EQ(r.model, "b");
    service.stop();
  }
}

TEST(Service, SingleRequestRoundTrips) {
  Service service = one_model(single_replica(8, /*max_wait=*/0.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(9);
  Response r =
      service.submit(Tensor<fp16_t>::random_normal({7, h}, rng)).get();
  EXPECT_EQ(r.id, 0);
  EXPECT_EQ(r.output.dim(0), 7);
  EXPECT_EQ(r.output.dim(1), h);
  EXPECT_GE(r.queue_seconds, 0.0);
  EXPECT_GE(r.compute_seconds, 0.0);
  EXPECT_EQ(r.model, "a");
  EXPECT_EQ(r.replica, 0);
  service.stop();
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.stats().requests, 1);
  EXPECT_TRUE(service.stopped());
}

// ---- bitwise equivalence ----------------------------------------------------

// The serving guarantee: a request's output is a function of its content
// and the model only — not of the replica it landed on or the round
// composition there. Several submitter threads race into a one-model
// Service under a tiny batching window; every output must bit-match the
// same request served by a synchronous Engine::drain with the same engine
// options — for every batching policy, at 1 and 2 replicas.
TEST(Service, BitMatchesSyncEngineDrainPerPolicyUnderConcurrentSubmitters) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 4;
  constexpr int kTotal = kThreads * kPerThread;
  const std::int64_t h = model_a()->config().hidden();

  for (const PolicyCase& pc : all_policies()) {
    for (int replicas : {1, 2}) {
      const EnginePoolOptions opts = pool_options(
          pc, replicas, RoutePolicy::kLeastOutstandingTokens,
          /*max_batch_requests=*/4, /*max_wait=*/0.0005);
      Service service = one_model(opts);

      std::vector<Tensor<fp16_t>> inputs(kTotal);
      std::vector<std::future<Response>> futures(kTotal);
      std::vector<std::thread> submitters;
      for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
          for (int j = 0; j < kPerThread; ++j) {
            const std::size_t slot =
                static_cast<std::size_t>(t * kPerThread + j);
            const int len = 2 + 3 * (static_cast<int>(slot) % 5);
            Rng rng(1000 + t * 100 + j);
            auto hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
            inputs[slot] = hidden.clone();
            futures[slot] = service.submit(Request{-1, std::move(hidden)});
          }
        });
      }
      for (auto& s : submitters) s.join();

      // Reference: the identical contents drained synchronously (caller ids
      // = slots so responses map back).
      Engine sync(model_a(), opts.engine.engine);
      for (int slot = 0; slot < kTotal; ++slot) {
        sync.submit(Request{slot, inputs[static_cast<std::size_t>(slot)].clone()});
      }
      const std::vector<Response> want = sync.drain();
      ASSERT_EQ(want.size(), static_cast<std::size_t>(kTotal));
      for (const Response& w : want) {
        Response got = futures[static_cast<std::size_t>(w.id)].get();
        expect_bits_equal(got.output, w.output);
        EXPECT_EQ(got.model, "a");  // provenance names the registry key
        EXPECT_GE(got.replica, 0);
        EXPECT_LT(got.replica, replicas);
      }
      service.stop();
      EXPECT_EQ(service.stats().requests, kTotal);
      EXPECT_EQ(service.pending(), 0u);
    }
  }
}

// ---- batching window and backpressure ---------------------------------------

TEST(Service, TrySubmitAppliesBackpressureWhenQueueIsFull) {
  EnginePoolOptions opts = single_replica(/*max_batch_requests=*/1,
                                          /*max_wait=*/0.0);
  opts.engine.max_queue = 1;
  Service service = one_model(opts);
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(6);

  // The first heavy request is popped and computes for many milliseconds;
  // the second then occupies the single queue slot, so backpressure is
  // observable while the scheduler is busy.
  auto first = service.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto second = service.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto declined = service.try_submit(
      Request{-1, Tensor<fp16_t>::random_normal({4, h}, rng)});
  EXPECT_FALSE(declined.has_value());
  // Programming errors are never masked as backpressure: a malformed
  // request throws even while the queue is full.
  EXPECT_THROW(service.try_submit(Request{-1, Tensor<fp16_t>::zeros({4})}),
               std::invalid_argument);

  EXPECT_EQ(first.get().output.dim(0), 512);
  EXPECT_EQ(second.get().output.dim(0), 512);
  service.stop();
}

// A token-cap-saturated round can never grow, so it must dispatch without
// waiting out the batching window — a lone oversized request would
// otherwise always pay the full max_wait as latency.
TEST(Service, TokenSaturatedRoundDispatchesBeforeWindowCloses) {
  EnginePoolOptions opts = single_replica(/*max_batch_requests=*/8,
                                          /*max_wait=*/30.0);
  opts.engine.engine.max_batch_tokens = 8;
  Service service = one_model(opts);
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(14);
  auto fut = service.submit(Tensor<fp16_t>::random_normal({16, h}, rng));
  // Must resolve in well under the 30 s window.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(fut.get().output.dim(0), 16);
  service.stop();
}

// ---- deadline-aware admission ----------------------------------------------

// EDF ordering, observed through Response::round: a long deadline-less
// blocker keeps the scheduler busy while three deadline requests queue up in
// reverse-deadline order; with a request cap of 1, each subsequent round
// serves exactly the earliest remaining deadline.
TEST(Service, DeadlineRequestsPopEarliestDeadlineFirst) {
  Service service = one_model(single_replica(/*max_batch_requests=*/1,
                                             /*max_wait=*/0.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(21);

  // The blocker dispatches first (round 0) and computes for tens of
  // milliseconds. The sleep yields the core to the scheduler thread so the
  // pop provably happened (on a single-core host the scheduler may not run
  // between consecutive submits at all); the three microsecond-scale
  // submits below then queue while the blocker computes.
  auto blocker = service.submit(Tensor<fp16_t>::random_normal({1024, h}, rng));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto late = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({3, h}, rng), deadline_in(100.0)});
  auto mid = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({4, h}, rng), deadline_in(50.0)});
  auto soon = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({5, h}, rng), deadline_in(10.0)});

  EXPECT_EQ(blocker.get().round, 0);
  EXPECT_EQ(soon.get().round, 1);  // earliest deadline, submitted last
  EXPECT_EQ(mid.get().round, 2);
  EXPECT_EQ(late.get().round, 3);
  service.stop();
}

// The FIFO bit-preservation half of the deadline contract: the identical
// scenario without deadlines dispatches strictly in submission order.
TEST(Service, NoDeadlinesPreservesFifoDispatch) {
  Service service = one_model(single_replica(/*max_batch_requests=*/1,
                                             /*max_wait=*/0.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(22);

  auto blocker = service.submit(Tensor<fp16_t>::random_normal({1024, h}, rng));
  auto first = service.submit(Tensor<fp16_t>::random_normal({3, h}, rng));
  auto second = service.submit(Tensor<fp16_t>::random_normal({4, h}, rng));
  auto third = service.submit(Tensor<fp16_t>::random_normal({5, h}, rng));

  EXPECT_EQ(blocker.get().round, 0);
  EXPECT_EQ(first.get().round, 1);
  EXPECT_EQ(second.get().round, 2);
  EXPECT_EQ(third.get().round, 3);
  service.stop();
}

// A queued deadline closes the batching window early: a lone request whose
// SLO comes due in 50 ms must not sit out a 30 s window.
TEST(Service, NearDeadlineClosesBatchingWindowEarly) {
  Service service = one_model(single_replica(/*max_batch_requests=*/8,
                                             /*max_wait=*/30.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(23);
  auto fut = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({6, h}, rng), deadline_in(0.05)});
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(fut.get().output.dim(0), 6);
  service.stop();
}

// ---- deadline shedding ------------------------------------------------------

// A request whose deadline passed before its round starts computing is shed:
// its future fails with the distinct DeadlineExceeded error, no compute is
// spent on it, and the shed / met / missed split is observable in stats().
TEST(Service, ShedsRequestsWhoseDeadlinePassedBeforeCompute) {
  Service service = one_model(single_replica(/*max_batch_requests=*/8,
                                             /*max_wait=*/0.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(31);

  // Expired on arrival.
  auto dead = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({5, h}, rng), deadline_in(-0.001)});
  EXPECT_THROW(dead.get(), DeadlineExceeded);

  // Plenty of slack: computes and resolves inside its deadline.
  auto alive = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({5, h}, rng), deadline_in(600.0)});
  EXPECT_EQ(alive.get().output.dim(0), 5);
  service.stop();

  const EngineStats st = service.stats();
  EXPECT_EQ(st.deadline_shed, 1);
  EXPECT_EQ(st.deadline_met, 1);
  EXPECT_EQ(st.deadline_missed, 0);
  // The shed request never reached the replica's engine: no compute, no
  // request accounting beyond the shed counter.
  EXPECT_EQ(st.requests, 1);
}

// deadline_missed: the deadline passes while the request computes. Self-
// calibrating — grow the sequence until one forward takes >= 40 ms on this
// host/build, then give an identical request a quarter of that as slack:
// far above the idle replica's wake-up latency (so the round starts before
// the deadline and the request is not shed) and far below its own compute
// time (so it cannot resolve in time).
TEST(Service, DeadlinePassingDuringComputeCountsAsMissed) {
  Service service = one_model(single_replica(/*max_batch_requests=*/1,
                                             /*max_wait=*/0.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(32);

  int len = 1024;
  double compute = 0;
  for (;; len *= 2) {
    auto r =
        service.submit(Tensor<fp16_t>::random_normal({len, h}, rng)).get();
    compute = r.compute_seconds;
    if (compute >= 0.04 || len >= 8192) break;
  }
  ASSERT_GE(compute, 0.04) << "calibration could not reach 40 ms at len "
                           << len;

  auto fut = service.submit(Request{
      -1, Tensor<fp16_t>::random_normal({len, h}, rng),
      deadline_in(compute * 0.25)});
  EXPECT_EQ(fut.get().output.dim(0), len);  // computed and delivered, late
  service.stop();
  const EngineStats st = service.stats();
  EXPECT_EQ(st.deadline_missed, 1);
  EXPECT_EQ(st.deadline_met, 0);
  EXPECT_EQ(st.deadline_shed, 0);
}

TEST(Service, PendingTokensTracksOutstandingRows) {
  Service service = one_model(single_replica(/*max_batch_requests=*/8,
                                             /*max_wait=*/30.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(24);
  EXPECT_EQ(service.pending_tokens(), 0);
  auto a = service.submit(Tensor<fp16_t>::random_normal({7, h}, rng));
  auto b = service.submit(Tensor<fp16_t>::random_normal({9, h}, rng));
  // Both sit inside the held-open window: queued or in flight, they count.
  EXPECT_EQ(service.pending_tokens(), 16);
  EXPECT_EQ(service.pending(), 2u);
  service.stop();
  a.get();
  b.get();
  EXPECT_EQ(service.pending_tokens(), 0);
}

// ---- shutdown ---------------------------------------------------------------

// Regression: the shutdown drain must resolve every accepted promise in
// dispatch order, with a submitter racing the drain. Request cap 1 gives
// each request its own round, so Response::round exposes the dispatch order;
// with no deadlines that order must equal id (submission) order, and stop()
// must not return before every accepted future is ready — a dropped promise
// would surface as a never-ready future or std::future_error.
TEST(Service, StopDrainResolvesInDispatchOrderWithMidDrainSubmitter) {
  Service service = one_model(single_replica(/*max_batch_requests=*/1,
                                             /*max_wait=*/30.0));
  const std::int64_t h = service.pool("a").hidden();

  std::vector<std::future<Response>> futures;
  Rng rng(25);
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service.submit(Tensor<fp16_t>::random_normal({64, h}, rng)));
  }

  // The mid-drain submitter keeps feeding requests until it observes the
  // stopped service; each accepted future must still resolve with a value.
  std::mutex extra_mutex;
  std::vector<std::future<Response>> extra;
  std::thread submitter([&] {
    Rng thread_rng(26);
    try {
      for (;;) {
        auto fut =
            service.submit(Tensor<fp16_t>::random_normal({8, h}, thread_rng));
        std::lock_guard lock(extra_mutex);
        extra.push_back(std::move(fut));
      }
    } catch (const std::runtime_error&) {
      // Service stopped — expected.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.stop();
  submitter.join();

  {
    std::lock_guard lock(extra_mutex);
    for (auto& f : extra) futures.push_back(std::move(f));
  }
  // stop() drained: every accepted future is already resolved...
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned with an unresolved promise";
  }
  // ...with a value (never a dropped/broken promise), and dispatch (round)
  // order equals submission (id) order under FIFO.
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, static_cast<RequestId>(i));  // ids dense
    EXPECT_EQ(responses[i].round, static_cast<long long>(i));
  }
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.stats().requests,
            static_cast<long long>(responses.size()));
}

// Soak: several submitters race a tiny batching window and a small queue, so
// rounds, blocking submits, and compute overlap continuously. Every future
// must resolve with the right geometry and a unique id.
TEST(Service, ConcurrentSubmittersUnderTinyWindowAllComplete) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  EnginePoolOptions opts = single_replica(/*max_batch_requests=*/3,
                                          /*max_wait=*/0.0005);
  opts.engine.max_queue = 4;  // force blocking submits
  Service service = one_model(opts);
  const std::int64_t h = service.pool("a").hidden();

  std::vector<std::vector<std::future<Response>>> futures(kThreads);
  std::vector<std::vector<int>> lens(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(9000 + t);
      for (int j = 0; j < kPerThread; ++j) {
        const int len = 1 + (t + 3 * j) % 11;
        lens[static_cast<std::size_t>(t)].push_back(len);
        futures[static_cast<std::size_t>(t)].push_back(
            service.submit(Tensor<fp16_t>::random_normal({len, h}, rng)));
      }
    });
  }
  for (auto& s : submitters) s.join();

  std::vector<RequestId> ids;
  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kPerThread; ++j) {
      Response r = futures[static_cast<std::size_t>(t)]
                       [static_cast<std::size_t>(j)].get();
      EXPECT_EQ(r.output.dim(0),
                lens[static_cast<std::size_t>(t)][static_cast<std::size_t>(j)]);
      EXPECT_EQ(r.output.dim(1), h);
      ids.push_back(r.id);
    }
  }
  service.stop();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(service.stats().requests, kThreads * kPerThread);
  EXPECT_EQ(service.pending(), 0u);
}

TEST(Service, StopDrainsEveryRegisteredModelsPools) {
  const EnginePoolOptions opts = pool_options(
      all_policies()[2], 2, RoutePolicy::kRoundRobin, 8, /*max_wait=*/30.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  registry.add("b", model_b(), opts);
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(14);

  // Every replica of every model holds an open 30 s window: stop() must
  // drain them all before returning.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.hidden = Tensor<fp16_t>::random_normal({1 + i % 4, h}, rng);
    req.model = i % 2 == 0 ? "a" : "b";
    futures.push_back(service.submit(std::move(req)));
  }
  service.stop();
  service.stop();  // idempotent
  EXPECT_TRUE(service.stopped());
  std::vector<RequestId> ids;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "stop() returned before some model's pool finished draining";
    Response r = futures[i].get();
    EXPECT_EQ(r.output.dim(0), 1 + static_cast<int>(i) % 4);
    ids.push_back(r.id);
  }
  // Nothing lost, nothing duplicated.
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids.size(), futures.size());
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.pending_tokens(), 0);
  EXPECT_EQ(service.stats().requests, 8);
  EXPECT_EQ(service.stats("a").requests, 4);
  EXPECT_EQ(service.stats("b").requests, 4);

  EXPECT_THROW(service.submit(Tensor<fp16_t>::random_normal({3, h}, rng)),
               std::runtime_error);
  EXPECT_FALSE(
      service
          .try_submit(Request{-1, Tensor<fp16_t>::random_normal({3, h}, rng)})
          .has_value());
}

// ---- replicas and routing ---------------------------------------------------

TEST(Service, ReplicasShareOneWeightsAndPackedPanelsCopy) {
  Service service = one_model(pool_options(
      all_policies()[2], /*replicas=*/3, RoutePolicy::kRoundRobin, 8, 0.0));
  const EnginePool& pool = service.pool("a");
  ASSERT_EQ(pool.replicas(), 3u);

  const core::ModelWeights* canonical = pool.model().weights_ptr().get();
  const float* canonical_panel =
      canonical->layer(0).packed.qkv.panel(0, 0);
  ASSERT_TRUE(canonical->layer(0).packed.ready);
  for (std::size_t i = 0; i < pool.replicas(); ++i) {
    // Same ModelWeights object and the same physical PackedB storage: the
    // replica group replicates schedulers and workspaces, never weights or
    // panels.
    EXPECT_EQ(pool.replica_model(i).weights_ptr().get(), canonical);
    EXPECT_EQ(&pool.replica_model(i).weights(), canonical);
    EXPECT_EQ(pool.replica_model(i).weights().layer(0).packed.qkv.panel(0, 0),
              canonical_panel);
  }
  service.stop();
}

// Round-robin is a pure function of submission order, so a seeded arrival
// sequence reproduces the identical replica assignment — verified through
// the exact per-replica request and token splits, twice.
TEST(Service, RoundRobinAssignmentIsDeterministic) {
  const std::vector<int> lens{2, 3, 4, 5, 6, 7};
  const std::int64_t h = model_a()->config().hidden();

  for (int run = 0; run < 2; ++run) {
    Service service = one_model(pool_options(
        all_policies()[2], /*replicas=*/2, RoutePolicy::kRoundRobin, 8,
        /*max_wait=*/30.0));
    std::vector<std::future<Response>> futures;
    Rng rng(55);
    for (int len : lens) {
      futures.push_back(
          service.submit(Tensor<fp16_t>::random_normal({len, h}, rng)));
    }
    service.stop();  // drains both replicas
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().replica, static_cast<int>(i % 2));
    }

    const auto rs = service.pool("a").replica_stats();
    ASSERT_EQ(rs.size(), 2u);
    // Evens (ids 0,2,4 -> lens 2,4,6) on replica 0, odds on replica 1.
    EXPECT_EQ(rs[0].routed_requests, 3);
    EXPECT_EQ(rs[0].routed_tokens, 2 + 4 + 6);
    EXPECT_EQ(rs[1].routed_requests, 3);
    EXPECT_EQ(rs[1].routed_tokens, 3 + 5 + 7);
    // Routed == served: each replica's engine accounting agrees.
    EXPECT_EQ(rs[0].engine.requests, 3);
    EXPECT_EQ(rs[1].engine.requests, 3);
    EXPECT_EQ(rs[0].engine.valid_tokens, 12);
    EXPECT_EQ(rs[1].engine.valid_tokens, 15);
  }
}

// Held-open windows keep every routed request outstanding, so the
// join-shortest-queue decisions are fully deterministic.
TEST(Service, LeastOutstandingRoutingBalancesLoad) {
  const std::int64_t h = model_a()->config().hidden();
  Rng rng(66);

  {  // least-outstanding-requests: a,c on replica 0; b on replica 1.
    Service service = one_model(
        pool_options(all_policies()[2], 2,
                     RoutePolicy::kLeastOutstandingRequests, 8,
                     /*max_wait=*/30.0));
    auto a = service.submit(Tensor<fp16_t>::random_normal({5, h}, rng));  // tie->0
    auto b = service.submit(Tensor<fp16_t>::random_normal({3, h}, rng));  // 1<-0 busy
    auto c = service.submit(Tensor<fp16_t>::random_normal({1, h}, rng));  // tie->0
    service.stop();
    a.get(); b.get(); c.get();
    const auto rs = service.pool("a").replica_stats();
    EXPECT_EQ(rs[0].routed_requests, 2);
    EXPECT_EQ(rs[0].routed_tokens, 6);
    EXPECT_EQ(rs[1].routed_requests, 1);
    EXPECT_EQ(rs[1].routed_tokens, 3);
    EXPECT_EQ(rs[0].peak_outstanding, 2u);
  }

  {  // least-outstanding-tokens: balances rows, not request counts.
    Service service = one_model(
        pool_options(all_policies()[2], 2,
                     RoutePolicy::kLeastOutstandingTokens, 8,
                     /*max_wait=*/30.0));
    auto a = service.submit(Tensor<fp16_t>::random_normal({5, h}, rng));  // 0 (tie)
    auto b = service.submit(Tensor<fp16_t>::random_normal({3, h}, rng));  // 1 (0<5)
    auto c = service.submit(Tensor<fp16_t>::random_normal({1, h}, rng));  // 1 (3<5)
    auto d = service.submit(Tensor<fp16_t>::random_normal({2, h}, rng));  // 1 (4<5)
    auto e = service.submit(Tensor<fp16_t>::random_normal({9, h}, rng));  // 0 (5<6)
    service.stop();
    a.get(); b.get(); c.get(); d.get(); e.get();
    const auto rs = service.pool("a").replica_stats();
    EXPECT_EQ(rs[0].routed_requests, 2);
    EXPECT_EQ(rs[0].routed_tokens, 5 + 9);
    EXPECT_EQ(rs[1].routed_requests, 3);
    EXPECT_EQ(rs[1].routed_tokens, 3 + 1 + 2);
  }
}

// ---- multi-model dispatch ---------------------------------------------------

// Request::model selects the replica group: the same input produces each
// model's own output (bit-matching a synchronous Engine on that model), and
// the per-model stats account separately.
TEST(Service, DispatchesByModelKeyWithPerModelAccounting) {
  const PolicyCase pc = all_policies()[2];
  const EnginePoolOptions opts =
      pool_options(pc, 1, RoutePolicy::kRoundRobin, 8, 0.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  registry.add("b", model_b(), opts);
  Service service(std::move(registry));
  const std::int64_t h = model_a()->config().hidden();

  Rng rng(11);
  const auto input = Tensor<fp16_t>::random_normal({6, h}, rng);
  Request to_a;
  to_a.hidden = input.clone();
  to_a.model = "a";
  Request to_b;
  to_b.hidden = input.clone();
  to_b.model = "b";
  Response ra = service.submit(std::move(to_a)).get();
  Response rb = service.submit(std::move(to_b)).get();
  EXPECT_EQ(ra.model, "a");
  EXPECT_EQ(rb.model, "b");

  const auto direct = [&](std::shared_ptr<const core::BertModel> model) {
    Engine engine(std::move(model), opts.engine.engine);
    engine.submit(input.clone());
    return std::move(engine.drain().front().output);
  };
  expect_bits_equal(ra.output, direct(model_a()));
  expect_bits_equal(rb.output, direct(model_b()));

  EXPECT_EQ(service.stats("a").requests, 1);
  EXPECT_EQ(service.stats("b").requests, 1);
  EXPECT_EQ(service.stats().requests, 2);
  EXPECT_THROW(service.stats("c"), std::out_of_range);
  EXPECT_THROW(service.pool("c"), std::out_of_range);
  service.stop();
}

// ---- error paths and the id contract ----------------------------------------

// An unknown model is a routing error: submit() must not throw (and must
// not burn the caller-supplied id) — the returned future is already
// resolved with UnknownModelError, the same async path every other
// per-request failure travels.
TEST(Service, UnknownModelResolvesTheFutureWithErrorInsteadOfThrowing) {
  ModelRegistry registry;
  registry.add("a", model_a(),
               pool_options(all_policies()[2], 1, RoutePolicy::kRoundRobin, 8,
                            0.0));
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(12);

  Request req;
  req.id = 5;
  req.hidden = Tensor<fp16_t>::random_normal({4, h}, rng);
  req.model = "nope";
  std::future<Response> fut = service.submit(std::move(req));  // no throw
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW(fut.get(), UnknownModelError);

  // The rejected submit burned nothing: id 5 is still free.
  Request retry;
  retry.id = 5;
  retry.hidden = Tensor<fp16_t>::random_normal({4, h}, rng);
  retry.model = "a";
  EXPECT_EQ(service.submit(std::move(retry)).get().id, 5);
  EXPECT_EQ(service.stats().requests, 1);

  // Programming errors are not masked by an unknown model name: the
  // model-independent checks (shape, duplicate id) still throw.
  Request bad_shape;
  bad_shape.hidden = Tensor<fp16_t>::zeros({4});  // rank 1
  bad_shape.model = "nope";
  EXPECT_THROW(service.submit(std::move(bad_shape)), std::invalid_argument);
  Request dup_id;
  dup_id.id = 5;  // issued above
  dup_id.hidden = Tensor<fp16_t>::random_normal({4, h}, rng);
  dup_id.model = "nope";
  EXPECT_THROW(service.submit(std::move(dup_id)), std::invalid_argument);
  service.stop();
}

// Ids are service-wide: auto ids count up across replicas, and a
// caller-supplied id collides wherever the router would have sent it.
TEST(Service, IdsAreUniqueAcrossReplicasAndDuplicatesRejected) {
  Service service = one_model(pool_options(
      all_policies()[2], 2, RoutePolicy::kRoundRobin, 8, /*max_wait=*/30.0));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(8);

  // Auto ids count up service-wide even though round-robin alternates
  // replicas.
  auto f0 = service.submit(Tensor<fp16_t>::random_normal({2, h}, rng));
  auto f1 = service.submit(Tensor<fp16_t>::random_normal({2, h}, rng));
  auto f7 =
      service.submit(Request{7, Tensor<fp16_t>::random_normal({2, h}, rng)});
  EXPECT_THROW(
      service.submit(Request{7, Tensor<fp16_t>::random_normal({2, h}, rng)}),
      std::invalid_argument);
  EXPECT_THROW(
      service.submit(Request{0, Tensor<fp16_t>::random_normal({2, h}, rng)}),
      std::invalid_argument);
  // try_submit shares the id contract: programming errors throw rather than
  // masquerading as backpressure.
  EXPECT_THROW(service.try_submit(
                   Request{7, Tensor<fp16_t>::random_normal({2, h}, rng)}),
               std::invalid_argument);
  // Malformed tensors throw the Engine contract's error.
  EXPECT_THROW(service.submit(Tensor<fp16_t>::zeros({4})),
               std::invalid_argument);  // rank 1
  EXPECT_THROW(service.submit(Tensor<fp16_t>::zeros({0, h})),
               std::invalid_argument);  // zero rows
  EXPECT_THROW(service.submit(Tensor<fp16_t>::zeros({4, h + 1})),
               std::invalid_argument);  // wrong hidden

  service.stop();
  EXPECT_EQ(f0.get().id, 0);
  EXPECT_EQ(f1.get().id, 1);
  EXPECT_EQ(f7.get().id, 7);
}

// Ids are service-wide: a caller-supplied id used for one model cannot be
// reused for a different model.
TEST(Service, DuplicateRequestIdAcrossModelsIsRejected) {
  const EnginePoolOptions opts =
      pool_options(all_policies()[2], 1, RoutePolicy::kRoundRobin, 8, 0.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  registry.add("b", model_b(), opts);
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(13);

  Request first;
  first.id = 7;
  first.hidden = Tensor<fp16_t>::random_normal({3, h}, rng);
  first.model = "a";
  auto f = service.submit(std::move(first));

  Request dup;
  dup.id = 7;
  dup.hidden = Tensor<fp16_t>::random_normal({3, h}, rng);
  dup.model = "b";  // different model, same id: still rejected
  EXPECT_THROW(service.submit(std::move(dup)), std::invalid_argument);

  // Auto ids stay disjoint from caller-supplied ones service-wide, so two
  // models' responses can never carry the same id.
  Request to_b;
  to_b.hidden = Tensor<fp16_t>::random_normal({3, h}, rng);
  to_b.model = "b";
  EXPECT_EQ(service.submit(std::move(to_b)).get().id, 8);
  EXPECT_EQ(f.get().id, 7);
  service.stop();
}

TEST(Service, TrySubmitDeclineDoesNotBurnTheCallerSuppliedId) {
  // One replica, one queue slot: occupy the scheduler with a long round and
  // fill the slot so the decline path is exercised deterministically.
  EnginePoolOptions opts = single_replica(1, /*max_wait=*/0.0);
  opts.engine.max_queue = 1;
  Service service = one_model(opts);
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(10);

  auto first = service.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto second = service.submit(Tensor<fp16_t>::random_normal({512, h}, rng));
  auto declined = service.try_submit(
      Request{99, Tensor<fp16_t>::random_normal({4, h}, rng)});
  EXPECT_FALSE(declined.has_value());

  EXPECT_EQ(first.get().output.dim(0), 512);
  EXPECT_EQ(second.get().output.dim(0), 512);
  // The declined id was not reserved: resubmitting it succeeds.
  auto retry =
      service.submit(Request{99, Tensor<fp16_t>::random_normal({4, h}, rng)});
  EXPECT_EQ(retry.get().id, 99);
  service.stop();
  // Declined attempts also left no trace in the routing accounting.
  EXPECT_EQ(service.pool("a").replica_stats()[0].routed_requests, 3);
}

// Regression: request-id bookkeeping must not grow with traffic. Every id
// is tracked once, service-wide, where auto ids are dense; a tracker that
// saw only the ids routed to one replica (every other id, under
// round-robin) would store one gap per skipped id for the life of the
// process — megabytes per 20k requests.
TEST(Service, RequestIdBookkeepingHeapStaysFlatAcrossReplicas) {
#ifdef BT_SANITIZER_HEAP
  GTEST_SKIP() << "mallinfo2 does not see the sanitizer heap";
#else
  core::BertConfig cfg;
  cfg.layers = 1;
  cfg.heads = 1;
  cfg.head_size = 16;
  Rng rng(91);
  auto model = std::make_shared<const core::BertModel>(
      core::BertModel::random(cfg, rng));
  Service service = one_model(
      pool_options(all_policies()[2], /*replicas=*/2, RoutePolicy::kRoundRobin,
                   /*max_batch_requests=*/8, /*max_wait=*/0.0),
      model);
  const Tensor<fp16_t> input =
      Tensor<fp16_t>::random_normal({4, cfg.hidden()}, rng);

  const auto drive = [&](int requests) {
    std::vector<std::future<Response>> in_flight;
    for (int i = 0; i < requests; ++i) {
      in_flight.push_back(service.submit(input.clone()));
      if (in_flight.size() == 64 || i + 1 == requests) {
        for (auto& f : in_flight) f.get();
        in_flight.clear();
      }
    }
  };
  const auto heap_in_use = [] {
    malloc_trim(0);
    return static_cast<long long>(mallinfo2().uordblks);
  };

  drive(2000);  // warm-up: workspaces, trace ring, metric registrations
  const long long before = heap_in_use();
  drive(20000);
  const long long growth = heap_in_use() - before;
  service.stop();
  EXPECT_LT(growth, 512 * 1024) << "heap grew by " << growth
                                << " bytes over 20k requests";
#endif
}

// ---- sticky sessions --------------------------------------------------------

// The session contract end to end: every request of a session lands on the
// replica that served its first request (Response::replica + the exposed
// pin agree), and that replica's workspace, sized by the first round, makes
// same-shape follow-up rounds allocation-free.
TEST(Service, StickySessionPinsReplicaAndReusesItsWorkspace) {
  EnginePoolOptions opts =
      pool_options(all_policies()[2], /*replicas=*/2,
                   RoutePolicy::kStickySession, 8, /*max_wait=*/0.0);
  ModelRegistry registry;
  registry.add("a", model_a(), opts);
  Service service(std::move(registry));
  const std::int64_t h = service.pool("a").hidden();
  Rng rng(15);

  const auto turn = [&](const char* session, int len) {
    Request req;
    req.hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
    req.session = session;
    return service.submit(std::move(req)).get();  // sequential: one round each
  };

  const Response r1 = turn("conv", 9);
  ASSERT_TRUE(r1.session.has_value());
  EXPECT_EQ(*r1.session, "conv");
  const auto pin = service.pool("a").pinned_replica("conv");
  ASSERT_TRUE(pin.has_value());
  EXPECT_EQ(static_cast<int>(*pin), r1.replica);
  const EngineStats s1 = service.stats();
  EXPECT_GT(s1.workspace_allocations, 0);

  for (int i = 0; i < 3; ++i) {
    const Response r = turn("conv", 9);
    EXPECT_EQ(r.replica, r1.replica) << "session hopped replicas";
  }
  const EngineStats s2 = service.stats();
  // The warm-workspace proof: three follow-up rounds, zero new allocations.
  EXPECT_EQ(s2.workspace_allocations, s1.workspace_allocations);

  const auto sr = service.session_route_stats();
  EXPECT_EQ(sr.session_requests, 4);
  EXPECT_EQ(sr.sticky_hits, 3);  // everything after the pin-creating first
  service.stop();
}

}  // namespace
}  // namespace bt::serving
