// End-to-end tests of the diffcd service: a real server on a real socket
// (TCP ephemeral and Unix), driven through DiffcClient — round-trip
// equivalence against the in-process engine, typed error frames,
// admission control, handle lifecycle, graceful drain under load, and the
// HTTP /metrics endpoint. Unit coverage for PreparedHandleTable and
// AdmissionController rides along.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/implication.h"
#include "engine/handle_table.h"
#include "engine/implication_engine.h"
#include "net/admission.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace_store.h"
#include "prop/tautology.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc::net {
namespace {

ServerOptions LoopbackOptions() {
  ServerOptions options;
  options.listen_address = "127.0.0.1:0";
  return options;
}

// Polls until `pred` holds or ~2 s pass; the service's async transitions
// (session teardown, batch start) have no synchronous hook by design.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ------------------------------------------------------------ handle table

std::shared_ptr<const PreparedPremises> SomePrepared(int n) {
  ImplicationEngine engine;
  Result<std::shared_ptr<const PreparedPremises>> prepared = engine.Prepare(n, {});
  EXPECT_TRUE(prepared.ok());
  return *prepared;
}

TEST(PreparedHandleTableTest, RegisterLookupRelease) {
  PreparedHandleTable table;
  auto prepared = SomePrepared(4);
  Result<std::uint64_t> handle = table.Register(1, prepared);
  ASSERT_TRUE(handle.ok());
  EXPECT_NE(*handle, 0u);
  EXPECT_EQ(table.size(), 1u);

  Result<std::shared_ptr<const PreparedPremises>> found = table.Lookup(*handle);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), prepared.get());

  EXPECT_EQ(table.Lookup(*handle + 100).status().code(), StatusCode::kNotFound);
  // Wrong owner cannot release someone else's handle.
  EXPECT_EQ(table.Release(*handle, 2).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(table.Release(*handle, 1).ok());
  EXPECT_EQ(table.Release(*handle, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(table.size(), 0u);
}

TEST(PreparedHandleTableTest, QuotasAndOwnerTeardown) {
  PreparedHandleTable::Options options;
  options.max_handles_per_owner = 2;
  options.max_total_handles = 3;
  PreparedHandleTable table(options);
  auto prepared = SomePrepared(4);

  ASSERT_TRUE(table.Register(1, prepared).ok());
  ASSERT_TRUE(table.Register(1, prepared).ok());
  // Per-owner quota.
  EXPECT_EQ(table.Register(1, prepared).status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(table.Register(2, prepared).ok());
  // Process-wide quota.
  EXPECT_EQ(table.Register(3, prepared).status().code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(table.CountForOwner(1), 2u);
  EXPECT_EQ(table.ReleaseAllForOwner(1), 2u);
  EXPECT_EQ(table.CountForOwner(1), 0u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(PreparedHandleTableTest, HandleIdsAreNeverReused) {
  PreparedHandleTable table;
  auto prepared = SomePrepared(4);
  Result<std::uint64_t> first = table.Register(1, prepared);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(table.Release(*first, 1).ok());
  Result<std::uint64_t> second = table.Register(1, prepared);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
}

// --------------------------------------------------------------- admission

TEST(AdmissionControllerTest, SlotsAreBoundedAndRaii) {
  AdmissionController::Options options;
  options.max_inflight_batches = 2;
  AdmissionController ctrl(options);

  Result<AdmissionController::Slot> a = ctrl.Admit();
  Result<AdmissionController::Slot> b = ctrl.Admit();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ctrl.inflight(), 2u);
  EXPECT_EQ(ctrl.Admit().status().code(), StatusCode::kResourceExhausted);

  a->Reset();
  EXPECT_EQ(ctrl.inflight(), 1u);
  Result<AdmissionController::Slot> c = ctrl.Admit();
  EXPECT_TRUE(c.ok());

  // Move transfers ownership; the moved-from slot releases nothing.
  AdmissionController::Slot moved = std::move(*c);
  EXPECT_TRUE(moved.held());
  EXPECT_EQ(ctrl.inflight(), 2u);
}

TEST(AdmissionControllerTest, RejectionsDoNotLeakSlots) {
  // The rejection path must not consume capacity: rejected requests took
  // nothing, so they release nothing.
  AdmissionController::Options options;
  options.max_inflight_batches = 1;
  AdmissionController ctrl(options);

  Result<AdmissionController::Slot> held = ctrl.Admit();
  ASSERT_TRUE(held.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ctrl.Admit().status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(ctrl.inflight(), 1u);  // Rejections charged nothing.
  held->Reset();
  EXPECT_EQ(ctrl.inflight(), 0u);
  EXPECT_TRUE(ctrl.Admit().ok());
}

TEST(AdmissionControllerTest, ConcurrentContentionNeverExceedsCapacity) {
  AdmissionController::Options options;
  options.max_inflight_batches = 4;
  AdmissionController ctrl(options);

  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        Result<AdmissionController::Slot> slot = ctrl.Admit();
        if (!slot.ok()) {
          ASSERT_EQ(slot.status().code(), StatusCode::kResourceExhausted);
          continue;
        }
        const int now = concurrent.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        ++admitted;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        concurrent.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_LE(peak.load(), 4);
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(ctrl.inflight(), 0u);  // Every admitted slot returned exactly once.
}

TEST(AdmissionControllerTest, ShedWatermarksAndLatencyEwma) {
  AdmissionController::Options options;
  options.max_inflight_batches = 8;
  options.shed_watermark = 2;
  options.min_retry_after = std::chrono::milliseconds(10);
  options.max_retry_after = std::chrono::milliseconds(100);
  AdmissionController ctrl(options);

  // Below the watermark: no shedding, and the hint floors at the min.
  EXPECT_FALSE(ctrl.ShouldShed());
  EXPECT_EQ(ctrl.RetryAfterHint(), std::chrono::milliseconds(10));

  // In-flight watermark: trips at `shed_watermark` held slots even though
  // the hard cap still has headroom.
  Result<AdmissionController::Slot> a = ctrl.Admit();
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(ctrl.ShouldShed());
  Result<AdmissionController::Slot> b = ctrl.Admit();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(ctrl.ShouldShed());

  // A slow batch pushes the EWMA over 50 ms: shedding stops once the
  // slots drain, and the hint tracks the observed latency (clamped to
  // max_retry_after).
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  a->Reset();
  b->Reset();
  EXPECT_EQ(ctrl.inflight(), 0u);
  EXPECT_GT(ctrl.ewma_latency_ms(), 50.0);
  EXPECT_FALSE(ctrl.ShouldShed());
  EXPECT_GE(ctrl.RetryAfterHint(), std::chrono::milliseconds(10));
  EXPECT_LE(ctrl.RetryAfterHint(), std::chrono::milliseconds(100));
}

// ------------------------------------------------------------- end to end

TEST(DiffcdServiceTest, PingRoundTrip) {
  DiffcdServer server(LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());

  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  Result<std::uint64_t> echoed = client->Ping(0xFEEDFACEull);
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, 0xFEEDFACEull);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, HundredQueryRoundTripMatchesInProcessEngine) {
  // The acceptance bar: 100+ queries over the wire, bit-for-bit the same
  // verdicts as the in-process prepare/plan/execute path, and every
  // counterexample genuinely refutes its goal.
  const int n = 10;
  Rng rng(20260809);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 40);
  std::vector<DifferentialConstraint> goals;
  for (int i = 0; i < 120; ++i) goals.push_back(testing::RandomConstraint(rng, n));

  ImplicationEngine local;
  Result<std::shared_ptr<const PreparedPremises>> prepared = local.Prepare(n, premises);
  ASSERT_TRUE(prepared.ok());
  Result<BatchOutcome> expected = local.CheckBatch(*prepared, goals);
  ASSERT_TRUE(expected.ok());

  DiffcdServer server(LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(n, premises);
  ASSERT_TRUE(registered.ok());
  EXPECT_EQ(registered->canonical_constraints, (*prepared)->masks().size());
  Result<BatchResultMsg> wire = client->CheckBatch(registered->handle, n, goals);
  ASSERT_TRUE(wire.ok());

  ASSERT_EQ(wire->results.size(), goals.size());
  ASSERT_EQ(expected->results.size(), goals.size());
  for (std::size_t i = 0; i < goals.size(); ++i) {
    const EngineQueryResult& e = expected->results[i];
    const WireQueryResult& w = wire->results[i];
    EXPECT_EQ(w.status_code, e.status.code()) << "goal " << i;
    EXPECT_EQ(w.verdict, static_cast<std::uint8_t>(e.outcome.verdict)) << "goal " << i;
    EXPECT_EQ(w.has_counterexample, e.outcome.counterexample.has_value()) << "goal " << i;
    if (w.has_counterexample) {
      // The wire witness must actually refute: inside the goal's lattice,
      // outside the premises'.
      ItemSet u(w.counterexample);
      EXPECT_TRUE(InConstraintLattice({goals[i]}, u)) << "goal " << i;
      EXPECT_FALSE(InConstraintLattice(premises, u)) << "goal " << i;
    }
  }
  EXPECT_EQ(wire->stats.queries, goals.size());
  EXPECT_EQ(wire->stats.implied, expected->stats.implied);
  EXPECT_EQ(wire->stats.not_implied, expected->stats.not_implied);

  EXPECT_TRUE(client->Release(registered->handle).ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, UnixSocketRoundTrip) {
  const std::string path = "/tmp/diffcd_test_" + std::to_string(::getpid()) + ".sock";
  ServerOptions options;
  options.listen_address = "unix:" + path;
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.bound_address(), "unix:" + path);

  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered =
      client->RegisterPremises(3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(registered.ok());
  Result<BatchResultMsg> batch = client->CheckBatch(
      registered->handle, 3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->results.size(), 1u);
  EXPECT_EQ(batch->results[0].verdict, 1);  // A premise implies itself.
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, TypedErrorFramesCarryTheOriginalStatusCode) {
  ServerOptions options = LoopbackOptions();
  options.max_handles_per_session = 2;
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());

  // Unknown handle -> NotFound.
  Result<BatchResultMsg> missing = client->CheckBatch(
      424242, 3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Universe mismatch -> InvalidArgument.
  Result<RegisterOkMsg> registered = client->RegisterPremises(3, {});
  ASSERT_TRUE(registered.ok());
  Result<BatchResultMsg> mismatched = client->CheckBatch(
      registered->handle, 5, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // Handle quota -> ResourceExhausted (admission's second axis).
  ASSERT_TRUE(client->RegisterPremises(3, {}).ok());
  Result<RegisterOkMsg> over_quota = client->RegisterPremises(3, {});
  EXPECT_EQ(over_quota.status().code(), StatusCode::kResourceExhausted);

  // Releasing an unknown handle -> NotFound; the connection survives all
  // of these rejections.
  EXPECT_EQ(client->Release(99999).code(), StatusCode::kNotFound);
  Result<std::uint64_t> echoed = client->Ping(7);
  EXPECT_TRUE(echoed.ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, AdmissionRejectsWhenNoBatchSlots) {
  ServerOptions options = LoopbackOptions();
  options.max_inflight_batches = 0;  // Deterministic: every batch rejected.
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(3, {});
  ASSERT_TRUE(registered.ok());
  Result<BatchResultMsg> rejected = client->CheckBatch(
      registered->handle, 3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // Rejected, not queued: the connection is still serviceable.
  EXPECT_TRUE(client->Ping(1).ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, ShedRepliesAreHonoredByClientBackoff) {
  // Overload shedding end-to-end: with the soft watermark tripped the
  // server answers OVERLOADED (not an error, not a queue), and the
  // client's retry schedule backs off until capacity returns.
  ServerOptions options = LoopbackOptions();
  options.shed_watermark = 1;
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.retry.max_attempts = 12;
  copts.retry.initial_backoff = std::chrono::milliseconds(5);
  copts.seed = 99;
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(
      3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(registered.ok());

  // Pin an admission slot so the watermark sheds every new batch, then
  // free it while the client is backing off.
  Result<AdmissionController::Slot> pinned = server.admission().Admit();
  ASSERT_TRUE(pinned.ok());
  std::thread unpin([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pinned->Reset();
  });
  Result<BatchResultMsg> batch = client->CheckBatch(
      registered->handle, 3, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  unpin.join();

  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->results.size(), 1u);
  EXPECT_EQ(batch->results[0].verdict, 1);
  EXPECT_GT(client->stats().shed_backoffs, 0u);
  EXPECT_GT(client->stats().retries, 0u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, WatchdogKillsSessionStalledMidFrame) {
  ServerOptions options = LoopbackOptions();
  options.session_stall_budget = std::chrono::milliseconds(100);
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // An idle session (zero bytes sent) is fine indefinitely — the budget
  // arms only once a frame has started.
  Result<Socket> idle = Connect(server.bound_address());
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(WaitFor([&] { return server.sessions_active() == 1; }));

  // A session that sends half a header and goes silent is killed within
  // the stall budget, without taking the idle session with it.
  Result<Socket> stalled = Connect(server.bound_address());
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE(WaitFor([&] { return server.sessions_active() == 2; }));
  const std::uint8_t half_header[3] = {1, 0, 0};
  ASSERT_TRUE(stalled->SendAll(half_header, sizeof(half_header)).ok());
  EXPECT_TRUE(WaitFor([&] { return server.sessions_active() == 1; }));

  // The idle session outlived the watchdog and still serves requests.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(WriteFrame(*idle, EncodePing(PingMsg{77})).ok());
  Frame reply;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(*idle, &reply, &clean_eof).ok());
  ASSERT_FALSE(clean_eof);
  Result<PingMsg> pong = DecodePong(reply);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->nonce, 77u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, HandlesReleasedWhenSessionDisconnects) {
  DiffcdServer server(LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->RegisterPremises(3, {}).ok());
    ASSERT_TRUE(client->RegisterPremises(4, {}).ok());
    EXPECT_EQ(server.handles().size(), 2u);
  }  // Client destroyed: connection closes.
  EXPECT_TRUE(WaitFor([&] { return server.handles().size() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return server.sessions_active() == 0; }));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, FinishedSessionsAreReapedNotAccumulated) {
  // Regression: a long-running daemon must not retain a Session (and its
  // unjoined thread) per historical connection. The accept loop reaps
  // finished sessions on every new connection.
  DiffcdServer server(LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 5; ++i) {
    Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Ping(static_cast<std::uint64_t>(i)).ok());
  }  // Each client destroyed: its connection closes.
  ASSERT_TRUE(WaitFor([&] { return server.sessions_active() == 0; }));

  // The next accept reaps everything the five dead connections left.
  Result<DiffcClient> survivor = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor->Ping(99).ok());
  EXPECT_TRUE(WaitFor([&] { return server.sessions_tracked() <= 1; }));
  EXPECT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(server.sessions_tracked(), 0u);
}

TEST(DiffcdServiceTest, ShutdownIsNotBlockedByAnIdleMetricsConnection) {
  // Regression: a client that connects to the metrics port and sends
  // nothing must not pin the metrics thread — Shutdown joins it before
  // waiting out the drain, so an unbounded recv would hang SIGTERM
  // forever.
  ServerOptions options = LoopbackOptions();
  options.metrics_address = "127.0.0.1:0";
  options.metrics_timeout = std::chrono::milliseconds(200);
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Result<Socket> idle = Connect(server.metrics_bound_address());
  ASSERT_TRUE(idle.ok());
  // Give the metrics thread time to accept and block in the head read.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto started = std::chrono::steady_clock::now();
  EXPECT_TRUE(server.Shutdown().ok());
  const auto elapsed = std::chrono::steady_clock::now() - started;
  // Bound: one serve budget (~200 ms) plus slack, nowhere near a hang.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(DiffcdServiceTest, MalformedFramesGetTypedErrorThenClose) {
  DiffcdServer server(LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());

  {
    // Bad version byte: error frame back, then EOF.
    Result<Socket> raw = Connect(server.bound_address());
    ASSERT_TRUE(raw.ok());
    std::uint8_t header[6] = {0, 0, 0, 0, kWireVersion + 1,
                              static_cast<std::uint8_t>(WireRequest::kPing)};
    ASSERT_TRUE(raw->SendAll(header, sizeof(header)).ok());
    Frame reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(*raw, &reply, &clean_eof).ok());
    ASSERT_FALSE(clean_eof);
    Result<ErrorMsg> err = DecodeError(reply);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
    // And the server hangs up after an unparseable stream.
    EXPECT_TRUE(ReadFrame(*raw, &reply, &clean_eof).ok());
    EXPECT_TRUE(clean_eof);
  }
  {
    // Unknown request type byte (framing fine): same treatment.
    Result<Socket> raw = Connect(server.bound_address());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(WriteFrame(*raw, Frame{0x66, kWireVersion, {}}).ok());
    Frame reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(*raw, &reply, &clean_eof).ok());
    ASSERT_FALSE(clean_eof);
    Result<ErrorMsg> err = DecodeError(reply);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, StatusCode::kInvalidArgument);
  }
  {
    // Oversized declared payload: rejected from the header alone.
    Result<Socket> raw = Connect(server.bound_address());
    ASSERT_TRUE(raw.ok());
    const std::uint32_t huge = kMaxFramePayload + 1;
    std::uint8_t header[6];
    for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    header[4] = kWireVersion;
    header[5] = static_cast<std::uint8_t>(WireRequest::kPing);
    ASSERT_TRUE(raw->SendAll(header, sizeof(header)).ok());
    Frame reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(*raw, &reply, &clean_eof).ok());
    ASSERT_FALSE(clean_eof);
    EXPECT_EQ(reply.type, static_cast<std::uint8_t>(WireResponse::kError));
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

// The in-process decode status of `frame` under its request type's decoder.
Status DecodeStatus(const Frame& frame) {
  switch (static_cast<WireRequest>(frame.type)) {
    case WireRequest::kPing:
      return DecodePing(frame).status();
    case WireRequest::kRegisterPremises:
      return DecodeRegisterPremises(frame).status();
    case WireRequest::kCheckBatch:
      return DecodeCheckBatch(frame).status();
    case WireRequest::kRelease:
      return DecodeRelease(frame).status();
  }
  return Status::Internal("not a request type");
}

TEST(DiffcdServiceTest, EveryRequestTypeReachesItsDecoder) {
  // Every declared request type (IsKnownRequest's switch is exhaustive
  // under -Werror=switch) dispatches to the handler of that type: an
  // empty payload comes back, on one connection, as exactly that type's
  // decoder error — InvalidArgument, never Internal.
  DiffcdServer server(LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Socket> raw = Connect(server.bound_address());
  ASSERT_TRUE(raw.ok());
  int types = 0;
  for (int t = 0; t < 256; ++t) {
    const auto type = static_cast<std::uint8_t>(t);
    if (!IsKnownRequest(type)) continue;
    ++types;
    const char* name = WireRequestName(static_cast<WireRequest>(type));
    const Frame request{type, kWireVersion, {}};
    const Status expected = DecodeStatus(request);
    ASSERT_EQ(expected.code(), StatusCode::kInvalidArgument) << name;
    ASSERT_TRUE(WriteFrame(*raw, request).ok()) << name;
    Frame reply;
    bool clean_eof = false;
    ASSERT_TRUE(ReadFrame(*raw, &reply, &clean_eof).ok()) << name;
    ASSERT_FALSE(clean_eof) << name;
    Result<ErrorMsg> err = DecodeError(reply);
    ASSERT_TRUE(err.ok()) << name;
    EXPECT_EQ(err->code, StatusCode::kInvalidArgument) << name;
    EXPECT_EQ(err->message, expected.message()) << name;
  }
  EXPECT_EQ(types, 4);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, PerRequestDeadlineMapsOntoTheBatch) {
  // PHP(5,4) behind 22 pads (n = 64) needs about 2·10^8 search nodes per
  // query, so under the request's 1 ms deadline every query ends
  // DeadlineExceeded, whatever the machine speed.
  ServerOptions options = LoopbackOptions();
  options.engine.num_threads = 1;
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());

  const prop::DnfFormula php = testing::PigeonholeDnf(4, 22);
  const int n = php.num_vars;
  const std::vector<DifferentialConstraint> goals(4, TautologyGoal());
  Result<RegisterOkMsg> registered = client->RegisterPremises(n, DnfTautologyReduction(php));
  ASSERT_TRUE(registered.ok());

  Result<BatchResultMsg> batch = client->CheckBatch(registered->handle, n, goals,
                                                    std::chrono::milliseconds(1));
  ASSERT_TRUE(batch.ok());
  // The deadline fired in every query, and every slot is still populated
  // (index-aligned).
  ASSERT_EQ(batch->results.size(), goals.size());
  for (const WireQueryResult& r : batch->results) {
    EXPECT_EQ(r.status_code, StatusCode::kDeadlineExceeded) << r.status_message;
  }
  EXPECT_EQ(batch->stats.timed_out, goals.size());
  EXPECT_EQ(batch->stats.queries, goals.size());
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, GracefulDrainWaitsForInflightBatch) {
  // The in-flight time comes from the per-query deadline, not from CPU
  // work: PHP(5,4) behind 22 pads (n = 64) needs about 2·10^8 search nodes,
  // so each query runs until its 200 ms deadline and degrades to kUnknown.
  // Six queries on two workers keep the batch in flight for ~600 ms on any
  // machine, well inside the 30 s drain deadline.
  ServerOptions options = LoopbackOptions();
  options.engine.num_threads = 2;
  options.engine.per_query_deadline = std::chrono::milliseconds(200);
  options.engine.exhaustion_policy = ExhaustionPolicy::kDegrade;
  options.drain_deadline = std::chrono::seconds(30);
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const prop::DnfFormula php = testing::PigeonholeDnf(4, 22);
  const int n = php.num_vars;
  const ConstraintSet premises = DnfTautologyReduction(php);
  const std::vector<DifferentialConstraint> goals(6, TautologyGoal());

  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(n, premises);
  ASSERT_TRUE(registered.ok());

  Result<BatchResultMsg> batch = Status::Internal("batch never ran");
  std::thread in_flight([&] {
    batch = client->CheckBatch(registered->handle, n, goals);
  });
  // Wait until the batch is genuinely executing, then drain mid-burst.
  ASSERT_TRUE(WaitFor([&] { return server.admission().inflight() > 0; }));
  Status drained = server.Shutdown();
  in_flight.join();

  // The drain waited: the client holds a complete, index-aligned reply.
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->results.size(), goals.size());
  for (const WireQueryResult& r : batch->results) {
    EXPECT_EQ(r.status_code, StatusCode::kOk) << r.status_message;
    EXPECT_EQ(r.verdict, static_cast<std::uint8_t>(ImplicationOutcome::kUnknown));
  }
  EXPECT_EQ(server.sessions_active(), 0u);

  // Stopped means stopped: new requests fail, repeat shutdowns are no-ops.
  EXPECT_FALSE(client->Ping(1).ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

// ----------------------------------------------------------- HTTP metrics

std::string HttpGet(const std::string& address, const std::string& path) {
  Result<Socket> sock = Connect(address);
  EXPECT_TRUE(sock.ok());
  if (!sock.ok()) return "";
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: diffcd\r\n\r\n";
  EXPECT_TRUE(sock->SendAll(request.data(), request.size()).ok());
  std::string response;
  char buf[2048];
  while (true) {
    Result<std::size_t> got = sock->RecvSome(buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;
    response.append(buf, *got);
  }
  return response;
}

TEST(DiffcdServiceTest, MetricsEndpointServesPrometheusAndJson) {
  ServerOptions options = LoopbackOptions();
  options.metrics_address = "127.0.0.1:0";
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_FALSE(server.metrics_bound_address().empty());

  // Generate some traffic so the per-service counters exist with values.
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping(1).ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(3, {});
  ASSERT_TRUE(registered.ok());
  ASSERT_TRUE(client
                  ->CheckBatch(registered->handle, 3,
                               {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))})
                  .ok());

  const std::string metrics = HttpGet(server.metrics_bound_address(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  // Valid Prometheus exposition: HELP/TYPE blocks and the per-service
  // metrics, including the labeled per-type request latency family.
  EXPECT_NE(metrics.find("# TYPE diffc_net_request_seconds histogram"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_request_seconds_count{type=\"ping\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_request_seconds_count{type=\"check-batch\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE diffc_net_sessions_active gauge"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_connections_total"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_request_seconds_bucket"), std::string::npos);
  // The PR 7 resilience counters are registered (0 until faults happen).
  EXPECT_NE(metrics.find("diffc_net_shed_total"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_watchdog_kills_total"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_nonce_replays_total"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_nonce_inflight_dups_total"), std::string::npos);
  EXPECT_NE(metrics.find("diffc_net_accept_failures_total"), std::string::npos);

  const std::string json = HttpGet(server.metrics_bound_address(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);

  const std::string health = HttpGet(server.metrics_bound_address(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = HttpGet(server.metrics_bound_address(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_TRUE(server.Shutdown().ok());
}

// ---------------------------------------------------------- tracing (PR 8)

TEST(DiffcdServiceTest, TracezServesOneJoinedClientServerEngineTrace) {
  obs::GlobalTraceStore().Clear();
  ServerOptions options = LoopbackOptions();
  options.metrics_address = "127.0.0.1:0";
  options.engine.trace = true;  // Engine spans join the request trace.
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions copts;
  copts.trace_sample_rate = 1.0;  // Force-sample: client span + wire sampled flag.
  copts.seed = 20260809;
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address(), copts);
  ASSERT_TRUE(client.ok());

  Result<RegisterOkMsg> registered = client->RegisterPremises(
      4, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))});
  ASSERT_TRUE(registered.ok());
  Result<BatchResultMsg> batch = client->CheckBatch(
      registered->handle, 4, {DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{2}}))});
  ASSERT_TRUE(batch.ok());

  // The reply echoes the trace id the client minted for the batch call,
  // with the server's span id as the parent half of the echo.
  const TraceContext echo = client->last_trace();
  ASSERT_TRUE(echo.valid());
  EXPECT_TRUE(echo.sampled);
  EXPECT_EQ(echo.trace_id_hi, batch->trace.trace_id_hi);

  // Both sides of the loopback share the process-global store: exactly one
  // client record and one server record under the batch call's trace id.
  std::vector<obs::StoredTrace> joined =
      obs::GlobalTraceStore().FindByTraceId(echo.trace_id_hi, echo.trace_id_lo);
  ASSERT_EQ(joined.size(), 2u);
  const obs::StoredTrace* client_rec = nullptr;
  const obs::StoredTrace* server_rec = nullptr;
  for (const obs::StoredTrace& t : joined) {
    if (t.kind == "client") client_rec = &t;
    if (t.kind == "server") server_rec = &t;
  }
  ASSERT_NE(client_rec, nullptr);
  ASSERT_NE(server_rec, nullptr);
  // The span chain: client root -> server span (client ⊇ server ⊇ engine).
  EXPECT_EQ(client_rec->parent_span_id, 0u);
  EXPECT_EQ(server_rec->parent_span_id, client_rec->span_id);
  EXPECT_EQ(echo.parent_span_id, server_rec->span_id);
  EXPECT_EQ(client_rec->name, "check-batch");
  EXPECT_TRUE(client_rec->forced);
  ASSERT_FALSE(client_rec->record.spans.empty());
  EXPECT_EQ(client_rec->record.spans[0].name, "client:check-batch");
  // The server record covers the request phases, with the engine's span
  // tree grafted under "execute" (grafted spans sit at depth >= 2).
  ASSERT_FALSE(server_rec->record.spans.empty());
  EXPECT_EQ(server_rec->record.spans[0].name, "server:check-batch");
  bool saw_execute = false;
  bool saw_engine_depth = false;
  for (const obs::TraceSpan& s : server_rec->record.spans) {
    if (s.name == "execute") saw_execute = true;
    if (s.depth >= 2) saw_engine_depth = true;
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_engine_depth);
  // Both records carry wall anchors, and the server starts no earlier
  // than the client (same host clock).
  EXPECT_GT(client_rec->record.wall_start_unix_ns, 0u);
  EXPECT_GE(server_rec->record.wall_start_unix_ns,
            client_rec->record.wall_start_unix_ns);

  // The same joined view over HTTP, filterable by trace id.
  const std::string by_id =
      HttpGet(server.metrics_bound_address(), "/tracez?trace_id=" + echo.IdHex());
  EXPECT_NE(by_id.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(by_id.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(by_id.find("\"kind\": \"client\""), std::string::npos);
  EXPECT_NE(by_id.find("\"kind\": \"server\""), std::string::npos);
  EXPECT_NE(by_id.find("\"trace_id\": \"" + echo.IdHex() + "\""), std::string::npos);
  // Filters compose: a status filter that matches nothing yields an empty
  // list but the same envelope.
  const std::string none = HttpGet(server.metrics_bound_address(),
                                   "/tracez?trace_id=" + echo.IdHex() + "&status=shed");
  EXPECT_NE(none.find("\"count\": 0"), std::string::npos);
  EXPECT_NE(none.find("\"traces\": []"), std::string::npos);
  // And limit caps the newest-first listing.
  const std::string limited = HttpGet(server.metrics_bound_address(), "/tracez?limit=1");
  EXPECT_NE(limited.find("\"count\": 1"), std::string::npos);

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, StatuszReportsBuildOptionsAdmissionAndStoreHealth) {
  ServerOptions options = LoopbackOptions();
  options.metrics_address = "127.0.0.1:0";
  options.trace_sample_rate = 0.25;
  options.slow_request_threshold = std::chrono::milliseconds(750);
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping(1).ok());

  const std::string statusz = HttpGet(server.metrics_bound_address(), "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.1 200 OK"), std::string::npos);
  // Build block: protocol version and build mode are pinned.
  EXPECT_NE(statusz.find("\"wire_version\": 3"), std::string::npos);
  EXPECT_NE(statusz.find("\"compiler\": \""), std::string::npos);
  EXPECT_NE(statusz.find("\"uptime_ms\": "), std::string::npos);
  EXPECT_NE(statusz.find("\"start_wall_unix_ns\": "), std::string::npos);
  EXPECT_NE(statusz.find("\"draining\": false"), std::string::npos);
  // Options in force, including the PR 8 knobs.
  EXPECT_NE(statusz.find("\"slow_query_ms\": 750"), std::string::npos);
  EXPECT_NE(statusz.find("\"trace_sample_rate\": 0.25"), std::string::npos);
  EXPECT_NE(statusz.find("\"trace_store_capacity\": 256"), std::string::npos);
  // Live admission and session state.
  EXPECT_NE(statusz.find("\"admission\": {\"inflight\": 0"), std::string::npos);
  EXPECT_NE(statusz.find("\"shed_watermark\": "), std::string::npos);
  EXPECT_NE(statusz.find("\"ewma_latency_ms\": "), std::string::npos);
  EXPECT_NE(statusz.find("\"sessions_active\": 1"), std::string::npos);
  EXPECT_NE(statusz.find("\"handles_active\": 0"), std::string::npos);
  // Store health envelopes.
  EXPECT_NE(statusz.find("\"trace_store\": {\"capacity\": 256"), std::string::npos);
  EXPECT_NE(statusz.find("\"slow_query_log\": {\"capacity\": 128"), std::string::npos);

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(DiffcdServiceTest, SlowRequestsLandInTheSlowQueryLogWithTraceId) {
  obs::GlobalTraceStore().Clear();
  const std::uint64_t slow_before = obs::GlobalSlowQueryLog().total();
  ServerOptions options = LoopbackOptions();
  options.metrics_address = "127.0.0.1:0";
  options.slow_request_threshold = std::chrono::milliseconds(1);
  DiffcdServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // PHP(8,7) behind 2 pads pins the query in the SAT procedure for about
  // 4·10^4 search nodes, ~40 ms in a release build: 40× the 1 ms threshold.
  prop::DnfFormula php = testing::PigeonholeDnf(7, 2);
  ConstraintSet premises = DnfTautologyReduction(php);
  Result<DiffcClient> client = DiffcClient::Connect(server.bound_address());
  ASSERT_TRUE(client.ok());
  Result<RegisterOkMsg> registered = client->RegisterPremises(php.num_vars, premises);
  ASSERT_TRUE(registered.ok());
  Result<BatchResultMsg> batch =
      client->CheckBatch(registered->handle, php.num_vars, {TautologyGoal()});
  ASSERT_TRUE(batch.ok());

  ASSERT_GT(obs::GlobalSlowQueryLog().total(), slow_before);
  std::vector<obs::SlowQuery> entries = obs::GlobalSlowQueryLog().Snapshot();
  ASSERT_FALSE(entries.empty());
  const obs::SlowQuery& slow = entries.back();
  EXPECT_EQ(slow.kind, "check-batch");
  EXPECT_GE(slow.seconds, 0.001);
  EXPECT_EQ(slow.trace_id.size(), 32u);
  EXPECT_GT(slow.wall_unix_ns, 0u);

  // An unsampled slow request still lands in the trace store (tail rule)
  // as a skeleton record flagged slow.
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  ASSERT_TRUE(client->last_trace().valid());
  hi = client->last_trace().trace_id_hi;
  lo = client->last_trace().trace_id_lo;
  std::vector<obs::StoredTrace> stored = obs::GlobalTraceStore().FindByTraceId(hi, lo);
  ASSERT_EQ(stored.size(), 1u);  // Server-side only: the client was unsampled.
  EXPECT_TRUE(stored[0].slow);
  EXPECT_FALSE(stored[0].sampled);
  EXPECT_EQ(stored[0].status, "ok");
  ASSERT_EQ(stored[0].record.spans.size(), 1u);  // Skeleton: one root span.
  EXPECT_GT(stored[0].record.wall_start_unix_ns, 0u);

  // /slowz serves the ring with its counters.
  const std::string slowz = HttpGet(server.metrics_bound_address(), "/slowz");
  EXPECT_NE(slowz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(slowz.find("\"slow_queries\": [{\"slow_query\": "), std::string::npos);
  EXPECT_NE(slowz.find("\"kind\": \"check-batch\""), std::string::npos);

  EXPECT_TRUE(server.Shutdown().ok());
}

}  // namespace
}  // namespace diffc::net
