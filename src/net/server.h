#ifndef DIFFC_NET_SERVER_H_
#define DIFFC_NET_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/handle_table.h"
#include "engine/implication_engine.h"
#include "net/admission.h"
#include "net/nonce_cache.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffc::net {

struct SessionContext;

/// Tuning knobs of a `DiffcdServer`.
struct ServerOptions {
  /// Wire-protocol listen address: "host:port" (port 0 = ephemeral) or
  /// "unix:/path".
  std::string listen_address = "127.0.0.1:0";
  /// HTTP /metrics listen address; empty disables the endpoint.
  std::string metrics_address;
  /// Options for the embedded `ImplicationEngine`.
  EngineOptions engine;
  /// Admission (DESIGN.md §11): a CHECK_BATCH that arrives with this many
  /// batches executing gets an OVERLOADED reply with a retry-after hint.
  std::size_t max_inflight_batches = 8;
  /// Per-frame stall budget: once a session has sent the first byte of a
  /// frame, the rest must arrive within this budget or the watchdog kills
  /// the session (a stuck-mid-frame peer otherwise pins its thread until
  /// drain). Idle sessions (no partial frame) are unaffected. Zero
  /// disables.
  std::chrono::milliseconds session_stall_budget{10000};
  /// Handle quota per session and process-wide (ResourceExhausted frames
  /// past either).
  std::size_t max_handles_per_session = 16;
  std::size_t max_total_handles = 4096;
  /// Graceful-drain budget: how long `Shutdown` waits for in-flight
  /// requests before firing the server-wide cancel token.
  std::chrono::milliseconds drain_deadline{5000};
  /// Per-connection budget on the HTTP metrics endpoint: every recv and
  /// the reply write are bounded by this, so a silent or trickling
  /// scraper cannot pin the metrics thread (which `Shutdown` joins
  /// before waiting out the drain). Zero disables the bound.
  std::chrono::milliseconds metrics_timeout{5000};
  /// Requests slower than this are recorded (with their span tree, when
  /// sampled) in the trace store and the slow store behind /slowz, and
  /// logged as one JSON line to stderr; zero disables. diffcd exposes this
  /// as --slow_query_ms.
  std::chrono::milliseconds slow_request_threshold{250};
  /// Head-sampling probability for request traces in [0, 1]: a sampled
  /// request records its full span tree (admission wait, nonce lookup,
  /// engine execution) into the trace store for /tracez. Unsampled
  /// requests pay one branch; slow/shed/errored ones still land in the
  /// store as single-span skeletons (tail always-sample). A rate of 1
  /// (diffcd --trace) forces sampling of every request without a draw.
  double trace_sample_rate = 0.01;
  /// Retained traces in the process-wide store behind /tracez.
  std::size_t trace_store_capacity = 256;
};

/// `diffcd` — the networked implication service. One process-embedded
/// instance owns:
///
///   - a wire listener (TCP or Unix) with one session thread per
///     connection, dispatching each frame to its request type's handler;
///   - an `ImplicationEngine` answering each CHECK_BATCH on the session
///     thread that received it, with per-request deadlines mapped onto
///     `Deadline` and the drain path onto a server-wide `CancelToken`;
///   - a `PreparedHandleTable` of REGISTER_PREMISES artifacts (per-session
///     quota; a session's handles are released when it disconnects);
///   - an `AdmissionController` bounding concurrent batches;
///   - an optional HTTP listener serving the PR 3 Prometheus exposition at
///     `/metrics` (and `/metrics.json`, `/healthz`).
///
/// Lifecycle: `Start()` binds and spawns the accept loop; `Shutdown()`
/// drains gracefully — stop accepting, half-close session reads so blocked
/// sessions see EOF while in-flight responses still flush, wait for
/// in-flight work up to `drain_deadline`, then fire the server-wide cancel
/// token and join everything. `Shutdown` is idempotent and also runs from
/// the destructor. `diffcd_main.cc` maps SIGTERM/SIGINT onto it.
class DiffcdServer {
 public:
  explicit DiffcdServer(ServerOptions options = {});
  ~DiffcdServer();

  DiffcdServer(const DiffcdServer&) = delete;
  DiffcdServer& operator=(const DiffcdServer&) = delete;

  /// Binds the listener(s) and starts accepting. FailedPrecondition when
  /// already started.
  Status Start() EXCLUDES(mu_);

  /// Graceful drain (see class comment). OK when fully drained within the
  /// deadline; DeadlineExceeded when the drain budget expired and
  /// in-flight work had to be cancelled (the server is still fully stopped
  /// on return). Idempotent: later calls return the first outcome.
  Status Shutdown() EXCLUDES(mu_);

  /// The bound wire address (real port for TCP port 0). Empty before
  /// `Start`.
  std::string bound_address() const EXCLUDES(mu_);
  /// The bound metrics address; empty when disabled or before `Start`.
  std::string metrics_bound_address() const EXCLUDES(mu_);

  /// True once `Shutdown` has begun: new connections and new requests on
  /// existing connections are refused.
  bool draining() const EXCLUDES(mu_);

  /// Live session count (tests and gauges).
  std::size_t sessions_active() const EXCLUDES(mu_);

  /// Sessions the server still holds state for: live ones plus finished
  /// ones awaiting their join by the reaper. Tests use this to prove that
  /// completed connections do not accumulate.
  std::size_t sessions_tracked() const EXCLUDES(mu_);

  // --- the request path's shared state (tests and the load benchmark) ---

  ImplicationEngine& engine() { return engine_; }
  PreparedHandleTable& handles() { return handles_; }
  AdmissionController& admission() { return admission_; }
  NonceCache& nonces() { return nonces_; }

 private:
  struct Session {
    std::uint64_t id = 0;
    Socket sock;
    std::thread thread;
  };

  void AcceptLoop();
  void SessionLoop(Session* session);
  /// Joins and destroys sessions that have finished their loop. The
  /// accept loop runs this on every new connection (so a long-lived
  /// server's footprint tracks *live* connections, not historical ones)
  /// and `Shutdown` runs it once more at the end.
  void ReapFinishedSessions() EXCLUDES(mu_);
  void MetricsLoop();
  /// Serves one HTTP connection on the metrics listener.
  void ServeMetricsConnection(Socket sock);
  /// JSON body of /statusz (schema: DESIGN.md §12).
  std::string RenderStatusz() const;
  /// Dispatches one request frame to its type's handler, returning the
  /// response frame.
  Frame Dispatch(SessionContext* ctx, const Frame& frame);
  /// The wire handlers, one per `WireRequest`. Each answers every failure
  /// with a typed error frame; connection teardown is the session loop's
  /// call, not theirs.
  Frame HandlePing(SessionContext* ctx, const Frame& frame);
  Frame HandleRegisterPremises(SessionContext* ctx, const Frame& frame);
  Frame HandleCheckBatch(SessionContext* ctx, const Frame& frame);
  Frame HandleRelease(SessionContext* ctx, const Frame& frame);
  /// Called by a handler once it has decoded the request's trace context:
  /// adopts the wire identity (or mints one when absent), draws the
  /// head-sampling decision, mints the server span id, and enables
  /// `ctx->tracer` when sampled. Idempotent per request.
  void ArmRequestTrace(SessionContext* ctx, const TraceContext& wire_tc, const char* name);
  /// Closes the request's trace after the reply frame is chosen: joins the
  /// collected engine traces, classifies the outcome from the reply type,
  /// and stores into the trace store (and, when slow, the slow store) per
  /// the sampling and tail rules (DESIGN.md §12).
  void FinishRequestTrace(SessionContext* ctx, std::uint8_t reply_type,
                          std::uint64_t elapsed_ns);

  const ServerOptions options_;
  ImplicationEngine engine_;
  PreparedHandleTable handles_;
  AdmissionController admission_;
  NonceCache nonces_;
  CancelToken drain_cancel_;

  // Listeners, listener threads, and bound addresses are written only in
  // `Start` (before any server thread exists) and torn down once in the
  // single `Shutdown` transition; the in-between reads (blocking `Accept`
  // from the listener threads, address getters) are lock-free on purpose —
  // a blocking accept cannot hold a mutex. `Listener::Shutdown` is the
  // cross-thread unblock; `Close` runs only after the threads are joined.
  Listener listener_;
  Listener metrics_listener_;
  std::string bound_address_;
  std::string metrics_bound_address_;
  /// Set once in `Start` (before any server thread), read by /statusz.
  std::chrono::steady_clock::time_point start_steady_{};
  std::uint64_t start_wall_unix_ns_ = 0;
  std::thread accept_thread_;
  std::thread metrics_thread_;

  mutable Mutex mu_;
  enum class State { kIdle, kRunning, kDraining, kStopped };
  State state_ GUARDED_BY(mu_) = State::kIdle;
  Status shutdown_status_ GUARDED_BY(mu_);
  std::uint64_t next_session_id_ GUARDED_BY(mu_) = 1;
  /// Live sessions only: a session's last act (under `mu_`) is to move
  /// its own entry onto `finished_sessions_`, where the reaper (accept
  /// loop or `Shutdown`) joins the thread and frees the `Session`.
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_ GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Session>> finished_sessions_ GUARDED_BY(mu_);
  std::size_t active_sessions_ GUARDED_BY(mu_) = 0;
};

}  // namespace diffc::net

#endif  // DIFFC_NET_SERVER_H_
