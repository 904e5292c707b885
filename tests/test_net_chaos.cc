// Chaos suite for the diffcd wire service: the resilient-client machinery
// (retry schedule, nonce idempotency) as units, then the
// wire-vs-in-process differential contract under injected network faults.
// The invariant everywhere: a query either completes bit-for-bit equal to
// the in-process engine or fails with a typed Status — never a hang, a
// crash, or a wrong answer.
//
// Tests that need fault injection skip themselves unless the library was
// built with -DDIFFC_FAILPOINTS=ON (the `chaos` CI job builds that way,
// under ASan, and runs this binary with several DIFFC_CHAOS_SEED values).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/implication.h"
#include "engine/implication_engine.h"
#include "net/client.h"
#include "net/nonce_cache.h"
#include "net/retry.h"
#include "net/server.h"
#include "obs/exposition.h"
#include "obs/trace_store.h"
#include "test_helpers.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace diffc::net {
namespace {

// Polls until `pred` holds or ~2 s pass.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Disarms every fail point on scope exit, so a failing assertion cannot
/// leak an armed schedule into the next test.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::DisarmAll(); }
};

/// The chaos seed: DIFFC_CHAOS_SEED when set (the CI job runs several),
/// else a fixed default.
std::uint64_t ChaosSeed() {
  const char* env = std::getenv("DIFFC_CHAOS_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 10);
  return 20260809;
}

/// Reads one un-labeled counter out of the Prometheus exposition (values
/// are cumulative across the whole test binary — use deltas).
double CounterValue(const std::string& name) {
  const std::string text = obs::SnapshotPrometheus();
  const std::string needle = "\n" + name + " ";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

std::string UniqueUnixAddress(const char* tag) {
  return "unix:/tmp/diffcd_chaos_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

// Default server options listening on `address`.
ServerOptions ListeningOn(const std::string& address) {
  ServerOptions options;
  options.listen_address = address;
  return options;
}

// -------------------------------------------------------- unit: retry loop

TEST(RetryScheduleTest, BacksOffExponentiallyAndExhausts) {
  // Retry k sleeps 10·2^k ms within the ±20 % jitter, capped at 2 s.
  // NextDelay does not sleep, so walking up to the cap costs nothing.
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.initial_backoff = std::chrono::milliseconds(10);
  policy.retry_budget = std::chrono::milliseconds(0);  // Unbounded.
  RetrySchedule schedule(policy, 1);

  for (int k = 0; k < 11; ++k) {
    Result<std::chrono::milliseconds> d =
        schedule.NextDelay(std::chrono::milliseconds(0), Deadline::Never());
    ASSERT_TRUE(d.ok()) << "retry " << k;
    const double nominal = std::min(10.0 * (1 << k), 2000.0);
    EXPECT_GE(static_cast<double>(d->count()), 0.8 * nominal) << "retry " << k;
    EXPECT_LE(static_cast<double>(d->count()), 1.2 * nominal) << "retry " << k;
  }

  // Attempt 12 was the last allowed: the next failure exhausts the policy.
  Result<std::chrono::milliseconds> last =
      schedule.NextDelay(std::chrono::milliseconds(0), Deadline::Never());
  EXPECT_EQ(last.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(schedule.failures(), 12);
}

TEST(RetryScheduleTest, ServerHintIsAFloor) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(5);
  RetrySchedule schedule(policy, 1);
  Result<std::chrono::milliseconds> d =
      schedule.NextDelay(std::chrono::milliseconds(150), Deadline::Never());
  ASSERT_TRUE(d.ok());
  EXPECT_GE(*d, std::chrono::milliseconds(150));
}

TEST(RetryScheduleTest, NeverSleepsPastTheCallerDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = std::chrono::milliseconds(100);
  RetrySchedule schedule(policy, 1);
  // 20 ms of deadline cannot absorb a 100 ms (±20 %) backoff: refuse, typed.
  Result<std::chrono::milliseconds> d = schedule.NextDelay(
      std::chrono::milliseconds(0), Deadline::After(std::chrono::milliseconds(20)));
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RetryScheduleTest, RetryBudgetBoundsTheWholeLoop) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = std::chrono::milliseconds(30);
  policy.retry_budget = std::chrono::milliseconds(50);
  RetrySchedule schedule(policy, 1);
  Result<std::chrono::milliseconds> first =
      schedule.NextDelay(std::chrono::milliseconds(0), Deadline::Never());
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(*first);  // The retry loop sleeps this out.
  // The first delay is 24–36 ms, so at most 26 ms of budget is left: the
  // second (doubled, 48–72 ms) delay would overrun it.
  Result<std::chrono::milliseconds> d =
      schedule.NextDelay(std::chrono::milliseconds(0), Deadline::Never());
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded);
}

// ------------------------------------------------------- unit: nonce cache

TEST(NonceCacheTest, MissInFlightDoneLifecycle) {
  NonceCache cache(NonceCache::Options{4});

  // First arrival claims; a racing duplicate sees in-flight.
  EXPECT_EQ(cache.Begin(7).state, NonceCache::State::kMiss);
  EXPECT_EQ(cache.Begin(7).state, NonceCache::State::kInFlight);

  Frame reply{0x13, kWireVersion, {1, 2, 3}};
  cache.Complete(7, reply);
  NonceCache::Lookup done = cache.Begin(7);
  EXPECT_EQ(done.state, NonceCache::State::kDone);
  EXPECT_EQ(done.reply.payload, reply.payload);

  // Abandoned claims re-execute; nonce 0 is never tracked.
  EXPECT_EQ(cache.Begin(8).state, NonceCache::State::kMiss);
  cache.Abandon(8);
  EXPECT_EQ(cache.Begin(8).state, NonceCache::State::kMiss);
  EXPECT_EQ(cache.Begin(0).state, NonceCache::State::kMiss);
  EXPECT_EQ(cache.Begin(0).state, NonceCache::State::kMiss);
}

TEST(NonceCacheTest, DoneEntriesEvictFifoAtCapacity) {
  NonceCache cache(NonceCache::Options{2});
  for (std::uint64_t nonce = 1; nonce <= 3; ++nonce) {
    ASSERT_EQ(cache.Begin(nonce).state, NonceCache::State::kMiss);
    cache.Complete(nonce, Frame{0x13, kWireVersion, {static_cast<std::uint8_t>(nonce)}});
  }
  // Nonce 1 was evicted by 3; 2 and 3 still replay.
  EXPECT_EQ(cache.Begin(2).state, NonceCache::State::kDone);
  EXPECT_EQ(cache.Begin(3).state, NonceCache::State::kDone);
  // 1 misses again (and re-claims).
  EXPECT_EQ(cache.Begin(1).state, NonceCache::State::kMiss);
}

// --------------------------------------- recovery without fault injection

TEST(NetChaosTest, ServerRestartReconnectsAndReRegistersHandles) {
  // The full recovery path with a real outage: the server process dies and
  // a *fresh* one binds the same address. The client-scoped handle keeps
  // working (transparent reconnect + re-registration), and verdicts stay
  // bit-for-bit equal to the in-process engine.
  const int n = 8;
  Rng rng(ChaosSeed());
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 25);
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < 40; ++i) goals.push_back(testing::RandomConstraint(rng, n));

  ImplicationEngine local;
  Result<std::shared_ptr<const PreparedPremises>> prepared = local.Prepare(n, premises);
  ASSERT_TRUE(prepared.ok());
  Result<BatchOutcome> expected = local.CheckBatch(*prepared, goals);
  ASSERT_TRUE(expected.ok());

  const std::string address = UniqueUnixAddress("restart");
  auto server = std::make_unique<DiffcdServer>(ListeningOn(address));
  ASSERT_TRUE(server->Start().ok());

  ClientOptions copts;
  copts.retry.initial_backoff = std::chrono::milliseconds(2);
  copts.seed = ChaosSeed() + 1;
  Result<DiffcClient> client = DiffcClient::Connect(address, copts);
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(n, premises);
  ASSERT_TRUE(registered.ok());
  Result<BatchResultMsg> before = client->CheckBatch(registered->handle, n, goals);
  ASSERT_TRUE(before.ok());

  // Kill the server and bring up a brand new one on the same address: a
  // fresh handle table, a fresh nonce cache, fresh everything.
  ASSERT_TRUE(server->Shutdown().ok());
  server = std::make_unique<DiffcdServer>(ListeningOn(address));
  ASSERT_TRUE(server->Start().ok());

  Result<BatchResultMsg> after = client->CheckBatch(registered->handle, n, goals);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(client->stats().reconnects, 1u);

  ASSERT_EQ(after->results.size(), goals.size());
  for (std::size_t i = 0; i < goals.size(); ++i) {
    EXPECT_EQ(after->results[i].verdict,
              static_cast<std::uint8_t>(expected->results[i].outcome.verdict))
        << "goal " << i;
    EXPECT_EQ(after->results[i].counterexample, before->results[i].counterexample)
        << "goal " << i;
  }
  EXPECT_TRUE(server->Shutdown().ok());
}

TEST(NetChaosTest, DeadEndpointFailsAfterMaxAttemptsThenConnectsOnceListening) {
  // A lazily created client whose first connect fails: nothing listens at
  // the address, so the call fails with the connect error, Unavailable,
  // after exactly max_attempts attempts. Once a server listens there, the next call
  // connects and succeeds.
  const std::string address = UniqueUnixAddress("dead");

  ClientOptions copts;
  copts.connect_timeout = std::chrono::milliseconds(250);
  copts.retry.initial_backoff = std::chrono::milliseconds(1);
  copts.seed = ChaosSeed() + 2;
  const auto retries = static_cast<std::uint64_t>(copts.retry.max_attempts - 1);
  DiffcClient client = DiffcClient::Create(address, copts);  // Nothing listening.

  Result<std::uint64_t> refused = client.Ping(1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable) << refused.status().ToString();
  EXPECT_EQ(refused.status().message().rfind("connect ", 0), 0u) << refused.status().ToString();
  EXPECT_NE(refused.status().message().find(address), std::string::npos);
  EXPECT_EQ(client.stats().retries, retries);
  EXPECT_EQ(client.stats().retries_exhausted, 1u);
  EXPECT_EQ(client.stats().reconnects, 0u);  // Never connected, so nothing re-connected.

  DiffcdServer server(ListeningOn(address));
  ASSERT_TRUE(server.Start().ok());
  Result<std::uint64_t> echoed = client.Ping(2);
  ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_EQ(*echoed, 2u);
  EXPECT_EQ(client.stats().retries, retries);  // The first attempt got through.
  EXPECT_TRUE(client.connected());
  EXPECT_TRUE(server.Shutdown().ok());
}

// --------------------------------------------- fault-injection scenarios

#define SKIP_WITHOUT_FAILPOINTS()                                              \
  if (!failpoint::CompiledIn()) {                                              \
    GTEST_SKIP() << "library built without -DDIFFC_FAILPOINTS=ON";             \
  }                                                                            \
  FailpointGuard guard

TEST(NetChaosTest, MidReplyResetReplaysTheBatchFromTheNonceCache) {
  SKIP_WITHOUT_FAILPOINTS();
  // Scenario: the server executes the batch, then the connection resets
  // halfway through the reply frame. The retry must reconnect, re-register
  // the handle, and get the *original* reply out of the nonce cache —
  // executed once, delivered bit-for-bit.
  const int n = 8;
  Rng rng(ChaosSeed() + 3);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 25);
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < 30; ++i) goals.push_back(testing::RandomConstraint(rng, n));

  ImplicationEngine local;
  Result<std::shared_ptr<const PreparedPremises>> prepared = local.Prepare(n, premises);
  ASSERT_TRUE(prepared.ok());
  Result<BatchOutcome> expected = local.CheckBatch(*prepared, goals);
  ASSERT_TRUE(expected.ok());

  DiffcdServer server(ListeningOn("127.0.0.1:0"));
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.retry.initial_backoff = std::chrono::milliseconds(2);
  copts.seed = ChaosSeed() + 4;
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(n, premises);
  ASSERT_TRUE(registered.ok());

  const double replays_before = CounterValue("diffc_net_nonce_replays_total");
  const double batches_before = CounterValue("diffc_net_batch_queries_total");
  failpoint::Arm("server/reset-mid-reply", failpoint::Spec::NthHit(1));

  Result<BatchResultMsg> batch = client->CheckBatch(registered->handle, n, goals);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GE(client->stats().retries, 1u);
  EXPECT_GE(client->stats().reconnects, 1u);
  // The retry was answered from the cache: one replay, zero re-executions.
  EXPECT_GE(CounterValue("diffc_net_nonce_replays_total"), replays_before + 1);
  EXPECT_EQ(CounterValue("diffc_net_batch_queries_total"),
            batches_before + static_cast<double>(goals.size()));

  ASSERT_EQ(batch->results.size(), goals.size());
  for (std::size_t i = 0; i < goals.size(); ++i) {
    EXPECT_EQ(batch->results[i].verdict,
              static_cast<std::uint8_t>(expected->results[i].outcome.verdict))
        << "goal " << i;
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(NetChaosTest, InjectedShedIsRetriedAfterTheHint) {
  SKIP_WITHOUT_FAILPOINTS();
  DiffcdServer server(ListeningOn("127.0.0.1:0"));
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.retry.initial_backoff = std::chrono::milliseconds(2);
  copts.seed = ChaosSeed() + 5;
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(
      3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(registered.ok());

  const double shed_before = CounterValue("diffc_net_shed_total");
  failpoint::Arm("server/shed", failpoint::Spec::NthHit(1));
  Result<BatchResultMsg> batch = client->CheckBatch(
      registered->handle, 3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->results[0].verdict, 1);
  EXPECT_GE(client->stats().shed_backoffs, 1u);
  EXPECT_GE(CounterValue("diffc_net_shed_total"), shed_before + 1);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(NetChaosTest, ShedRequestsLandInTraceStoreWithRetryChainIntact) {
  SKIP_WITHOUT_FAILPOINTS();
  // PR 8 acceptance: a request shed on its first attempt and retried to
  // success must leave the whole story in the trace store under ONE trace
  // id — the shed server record, the successful server record, and the
  // client record whose span carries the shed/backoff events between them.
  obs::GlobalTraceStore().Clear();
  DiffcdServer server(ListeningOn("127.0.0.1:0"));
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.retry.initial_backoff = std::chrono::milliseconds(2);
  copts.seed = ChaosSeed() + 11;
  copts.trace_sample_rate = 1.0;  // Force-sample the whole chain.
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(
      3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(registered.ok());

  failpoint::Arm("server/shed", failpoint::Spec::NthHit(1));
  Result<BatchResultMsg> batch = client->CheckBatch(
      registered->handle, 3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GE(client->stats().shed_backoffs, 1u);

  const TraceContext tc = client->last_trace();
  ASSERT_TRUE(tc.valid());
  std::vector<obs::StoredTrace> chain =
      obs::GlobalTraceStore().FindByTraceId(tc.trace_id_hi, tc.trace_id_lo);
  ASSERT_EQ(chain.size(), 3u) << "shed attempt + retried attempt + client record";

  const obs::StoredTrace* shed_rec = nullptr;
  const obs::StoredTrace* ok_rec = nullptr;
  const obs::StoredTrace* client_rec = nullptr;
  for (const obs::StoredTrace& t : chain) {
    if (t.kind == "server" && t.status == "shed") shed_rec = &t;
    if (t.kind == "server" && t.status == "ok") ok_rec = &t;
    if (t.kind == "client") client_rec = &t;
  }
  ASSERT_NE(shed_rec, nullptr);
  ASSERT_NE(ok_rec, nullptr);
  ASSERT_NE(client_rec, nullptr);

  // Both server attempts hang off the same client span.
  EXPECT_EQ(shed_rec->parent_span_id, client_rec->span_id);
  EXPECT_EQ(ok_rec->parent_span_id, client_rec->span_id);
  EXPECT_NE(shed_rec->span_id, ok_rec->span_id);
  EXPECT_TRUE(shed_rec->shed);
  // The shed attempt recorded where it was turned away.
  bool shed_noted = false;
  for (const obs::TraceSpan& s : shed_rec->record.spans) {
    if (s.name == "shed" && s.detail == "admission-cap") shed_noted = true;
  }
  EXPECT_TRUE(shed_noted);

  // The client span tells the retry story: the overload event, then the
  // backoff it honored — and the call still ended "ok".
  EXPECT_EQ(client_rec->status, "ok");
  EXPECT_TRUE(client_rec->shed);
  bool saw_shed_event = false;
  bool saw_backoff = false;
  for (const obs::TraceSpan& s : client_rec->record.spans) {
    if (s.name == "shed") saw_shed_event = true;
    if (s.name == "backoff") saw_backoff = true;
  }
  EXPECT_TRUE(saw_shed_event);
  EXPECT_TRUE(saw_backoff);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(NetChaosTest, TornWriteAndRecvResetAreRiddenOut) {
  SKIP_WITHOUT_FAILPOINTS();
  DiffcdServer server(ListeningOn("127.0.0.1:0"));
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.retry.max_attempts = 6;
  copts.retry.initial_backoff = std::chrono::milliseconds(2);
  copts.seed = ChaosSeed() + 6;
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());

  failpoint::Arm("net/send-torn", failpoint::Spec::NthHit(1));
  Result<std::uint64_t> echoed = client->Ping(11);
  ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_EQ(*echoed, 11u);
  EXPECT_GE(client->stats().retries, 1u);

  failpoint::Arm("net/recv-reset", failpoint::Spec::NthHit(1));
  echoed = client->Ping(12);
  ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_EQ(*echoed, 12u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(NetChaosTest, RandomizedFailpointScheduleNeverHangsOrLies) {
  SKIP_WITHOUT_FAILPOINTS();
  // The headline differential run: every wire fault site armed with
  // seeded probabilities, 30 batches, and the contract checked on each —
  // a reply is bit-for-bit the in-process engine's answer, or the call
  // fails with a typed Status. The CI chaos job runs this under ASan with
  // several DIFFC_CHAOS_SEED values.
  const std::uint64_t seed = ChaosSeed();
  const int n = 8;
  const int kBatches = 30;
  Rng rng(seed);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 25);
  std::vector<std::vector<DifferentialConstraint>> batches(kBatches);
  for (auto& goals : batches) {
    const int count = static_cast<int>(rng.UniformInt(3, 10));
    for (int i = 0; i < count; ++i) goals.push_back(testing::RandomConstraint(rng, n));
  }

  // Local expectations computed before any fail point is armed (the
  // engine has its own failpoint sites; this suite injects only wire
  // faults, but arming order keeps that true by construction).
  ImplicationEngine local;
  Result<std::shared_ptr<const PreparedPremises>> prepared = local.Prepare(n, premises);
  ASSERT_TRUE(prepared.ok());
  std::vector<BatchOutcome> expected;
  expected.reserve(kBatches);
  for (const auto& goals : batches) {
    Result<BatchOutcome> out = local.CheckBatch(*prepared, goals);
    ASSERT_TRUE(out.ok());
    expected.push_back(std::move(*out));
  }

  DiffcdServer server(ListeningOn("127.0.0.1:0"));
  ASSERT_TRUE(server.Start().ok());
  ClientOptions copts;
  copts.retry.max_attempts = 8;
  copts.retry.initial_backoff = std::chrono::milliseconds(2);
  copts.seed = seed + 7;
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(n, premises);
  ASSERT_TRUE(registered.ok());

  // Every wire-layer fault site, seeded so a CI failure reproduces with
  // the printed seed. The net/* sites fire on client and server sockets
  // alike — both directions of every exchange are in play.
  failpoint::Arm("net/send-torn", failpoint::Spec::Probability(0.05, seed + 11));
  failpoint::Arm("net/recv-reset", failpoint::Spec::Probability(0.05, seed + 12));
  failpoint::Arm("wire/decode-batch-result", failpoint::Spec::Probability(0.05, seed + 13));
  failpoint::Arm("wire/decode-register-ok", failpoint::Spec::Probability(0.05, seed + 14));
  failpoint::Arm("server/delay-reply", failpoint::Spec::Probability(0.10, seed + 15));
  failpoint::Arm("server/reset-mid-reply", failpoint::Spec::Probability(0.05, seed + 16));
  failpoint::Arm("server/abort-session", failpoint::Spec::Probability(0.03, seed + 17));
  failpoint::Arm("server/shed", failpoint::Spec::Probability(0.05, seed + 18));

  int completed = 0;
  int typed_failures = 0;
  for (int b = 0; b < kBatches; ++b) {
    Result<BatchResultMsg> wire = client->CheckBatch(registered->handle, n, batches[b]);
    if (!wire.ok()) {
      // Typed failure: a real StatusCode, never a hang or a garbled frame
      // surfaced as data.
      EXPECT_NE(wire.status().code(), StatusCode::kOk) << "seed " << seed;
      ++typed_failures;
      continue;
    }
    ++completed;
    ASSERT_EQ(wire->results.size(), batches[b].size()) << "seed " << seed << " batch " << b;
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      const EngineQueryResult& e = expected[b].results[i];
      EXPECT_EQ(wire->results[i].verdict, static_cast<std::uint8_t>(e.outcome.verdict))
          << "seed " << seed << " batch " << b << " goal " << i;
      EXPECT_EQ(wire->results[i].has_counterexample, e.outcome.counterexample.has_value())
          << "seed " << seed << " batch " << b << " goal " << i;
    }
  }
  failpoint::DisarmAll();

  // The schedule is noisy but survivable: most batches must get through.
  EXPECT_GE(completed, kBatches / 2)
      << "seed " << seed << ": " << typed_failures << " typed failures";

  // And the service is intact afterwards: a clean call works, the server
  // drains gracefully, and the sessions the chaos killed were reaped.
  Result<std::uint64_t> echoed = client->Ping(99);
  EXPECT_TRUE(echoed.ok()) << echoed.status().ToString();
  EXPECT_TRUE(WaitFor([&] { return server.sessions_active() <= 1; }));
  EXPECT_TRUE(server.Shutdown().ok());
}

}  // namespace
}  // namespace diffc::net
