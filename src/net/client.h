#ifndef DIFFC_NET_CLIENT_H_
#define DIFFC_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/constraint.h"
#include "core/premise_masks.h"
#include "net/retry.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/deadline.h"
#include "util/status.h"

namespace diffc::net {

/// Resilience knobs of a `DiffcClient`. The defaults ride out transient
/// faults transparently; `RetryPolicy{.max_attempts = 1}` plus
/// `reconnect = false` recovers the PR 6 fail-fast behavior.
/// The client refuses `connect_timeout`, `retry.initial_backoff` or
/// `retry.retry_budget` past `kMaxDeadlineMs` with InvalidArgument, before
/// anything connects.
struct ClientOptions {
  /// Bound on connection establishment (non-blocking connect + poll);
  /// zero blocks indefinitely.
  std::chrono::milliseconds connect_timeout{2000};
  /// Backoff/budget discipline for transient failures (transport errors,
  /// OVERLOADED replies).
  RetryPolicy retry;
  /// Reconnect automatically after a lost connection, transparently
  /// re-registering every recorded premise set. When false, a lost
  /// connection fails every later call with FailedPrecondition.
  bool reconnect = true;
  /// Seed for retry jitter and request nonces; 0 draws one from
  /// std::random_device (tests pin it for reproducibility).
  std::uint64_t seed = 0;
  /// Head-sampling probability in [0, 1] for calls: a sampled call records
  /// its span (with every retry/backoff/reconnect event) into the global
  /// trace store and asks the server to sample too. A rate of 1 (the
  /// diffc_client --trace flag) forces sampling without an rng draw.
  /// Unsampled calls that hit a non-fatal failure tail-arm their tracer,
  /// so a retried call's chain is captured from the first failure on.
  double trace_sample_rate = 0.0;
};

/// Client-side resilience counters (monotonic over the client's life);
/// mirrored into the global metrics registry as diffc_net_client_*.
struct ClientStats {
  std::uint64_t retries = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t reconnects = 0;
  /// Backoffs taken because the server shed the request (OVERLOADED).
  std::uint64_t shed_backoffs = 0;
};

/// A blocking diffcd client: one connection, one outstanding request at a
/// time (the protocol is strict request/reply per connection; open more
/// connections for concurrency). Every server-side rejection arrives as
/// the original typed `Status` — the error frame round-trips the code, so
/// handle-quota rejections are ResourceExhausted here, unknown handles are
/// NotFound, malformed input is InvalidArgument.
///
/// Failure handling (DESIGN.md §11): transport-level failures (connect,
/// torn frames, resets, a reply that fails to decode) poison the
/// connection — the next attempt reconnects rather than reading a
/// desynced stream — and are retried under `ClientOptions::retry` with
/// capped exponential backoff, never past the caller's deadline.
/// Registered premise sets are recorded client-side and transparently
/// re-registered after a reconnect, so the handles this class hands out
/// stay valid across connection loss; CHECK_BATCH retries carry an
/// idempotency nonce so the server never runs (or admission-counts) a
/// batch twice. OVERLOADED replies back off by at least the server's
/// retry-after hint.
///
/// Not thread-safe. Move-only; the destructor closes the connection,
/// which releases every handle this session registered on the server.
class DiffcClient {
 public:
  DiffcClient() = default;

  /// Creates a client without touching the network; the first request
  /// connects lazily (useful when the endpoint may be down and the retry
  /// loop should own the failure). Every call answers InvalidArgument when
  /// `options` holds a duration past `kMaxDeadlineMs`.
  static DiffcClient Create(const std::string& address, ClientOptions options = {});

  /// Connects eagerly to a diffcd server at `address` ("host:port" or
  /// "unix:/path"); fails fast when the endpoint is unreachable, and with
  /// InvalidArgument, before connecting, when `options` holds a duration
  /// past `kMaxDeadlineMs`.
  static Result<DiffcClient> Connect(const std::string& address, ClientOptions options = {});

  bool connected() const { return sock_.valid() && !dead_; }

  /// Closes for good: drops the connection (releasing server-side
  /// handles), forgets recorded registrations, and fails later calls with
  /// FailedPrecondition — explicit Close is not a fault to ride out.
  void Close();

  /// Liveness probe; returns the echoed nonce.
  Result<std::uint64_t> Ping(std::uint64_t nonce);

  /// Compiles `premises` (over an `n`-attribute universe) server-side;
  /// the returned handle feeds `CheckBatch` until `Release` or `Close`.
  /// The handle is client-scoped and survives reconnects (the client
  /// re-registers under the covers). InvalidArgument for `n` outside
  /// [0, 64], before anything is sent.
  Result<RegisterOkMsg> RegisterPremises(int n, const ConstraintSet& premises);

  /// Decides `handle's premises |= goals[i]` for every goal. `deadline`
  /// (zero = none) is the server-side wall-clock budget for the whole
  /// batch — and the client-side bound past which no retry is scheduled;
  /// queries past it come back DeadlineExceeded or degraded, matching the
  /// in-process engine's semantics. InvalidArgument for `n` outside
  /// [0, 64] or a `deadline` past `kMaxDeadlineMs`, before anything is
  /// sent.
  Result<BatchResultMsg> CheckBatch(std::uint64_t handle, int n,
                                    const std::vector<DifferentialConstraint>& goals,
                                    std::chrono::milliseconds deadline = {});

  /// Drops `handle` server-side and forgets its registration record.
  Status Release(std::uint64_t handle);

  const ClientStats& stats() const { return stats_; }

  /// The trace context of the most recent call: minted client-side at call
  /// start, overwritten by the server's echo when the reply carries one.
  /// `IdHex()` is the id to look up in the server's /tracez.
  const TraceContext& last_trace() const { return last_trace_; }

 private:
  /// A recorded registration: enough to re-establish the server-side
  /// handle on a fresh connection. `premises` is the arena the first
  /// REGISTER encoded.
  struct HandleRecord {
    std::uint64_t server_handle = 0;
    int n = 0;
    PremiseMasks premises;
  };

  /// How a failed attempt should drive the retry loop.
  enum class FailureClass {
    kTransport,   // connection-level: poison + reconnect + retry
    kOverloaded,  // server shed: back off (honoring the hint) + retry
    kFatal,       // typed server verdict: surface immediately
  };

  DiffcClient(std::string address, ClientOptions options);

  /// The retry loop shared by every request: (re)connect with handle
  /// re-registration, one round trip, decode, classify, back off.
  /// `encode` runs per attempt (server handles may change across
  /// reconnects); `decode` validates the expected reply payload. `op`
  /// names the call for spans ("check-batch", ...); `wire_tc`, when
  /// non-null, receives the minted trace context so the encode closure can
  /// put it on the wire (null for messages without a trace field).
  template <typename T>
  Result<T> CallDecoded(const char* op, TraceContext* wire_tc, WireResponse expected,
                        const Deadline& deadline, const std::function<Frame()>& encode,
                        const std::function<Result<T>(const Frame&)>& decode);

  /// One send/receive on the current connection. Any framing-level
  /// failure (write, read, clean EOF, unexpected type) marks the
  /// connection dead — a partially read reply must never poison the next
  /// request. Typed error and OVERLOADED frames come back as their
  /// Status with `*cls`/`*retry_hint` set accordingly.
  Result<Frame> RoundTripRaw(const Frame& request, WireResponse expected, FailureClass* cls,
                             std::chrono::milliseconds* retry_hint);

  /// Ensures a live connection: reconnects when poisoned and re-registers
  /// recorded premises.
  Status EnsureReady(FailureClass* cls);

  std::uint64_t NextNonce();
  /// Nonzero draw from the client's seeded rng (trace/span ids —
  /// deterministic under a pinned seed).
  std::uint64_t RandomBits();

  std::string address_;
  ClientOptions options_;
  Socket sock_;
  /// Poisoned-connection flag (set on any framing error): the next call
  /// reconnects instead of reading garbage.
  bool dead_ = false;
  bool closed_ = false;
  bool connected_once_ = false;
  std::mt19937_64 rng_;
  /// Client-scoped handle → registration record. Client handles are
  /// allocated locally so they can never collide with a restarted
  /// server's handle space.
  std::unordered_map<std::uint64_t, HandleRecord> handles_;
  std::uint64_t next_handle_ = 1;
  ClientStats stats_;
  TraceContext last_trace_;
};

}  // namespace diffc::net

#endif  // DIFFC_NET_CLIENT_H_
