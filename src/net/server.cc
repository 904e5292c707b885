#include "net/server.h"

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "net/http.h"
#include "obs/event_log.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_store.h"
#include "rewrite/simplifier.h"
#include "util/failpoint.h"

namespace diffc::net {

/// The server-side trace state of one in-flight request. Armed by the
/// handler once the wire trace context is decoded (`ArmRequestTrace`),
/// finished by the session loop after the reply frame is chosen
/// (`FinishRequestTrace`), which decides storage: sampled requests always,
/// unsampled ones when slow/shed/errored (as single-span skeletons).
struct RequestTrace {
  /// Trace identity: from the wire when the client sent one, minted
  /// server-side otherwise.
  TraceContext wire;
  /// This request's server span id (minted at arm time; echoed in the
  /// reply's trace context).
  std::uint64_t server_span_id = 0;
  /// Span sink; enabled iff `sampled`.
  obs::Tracer tracer;
  bool armed = false;
  bool sampled = false;
  /// True when sampling was forced by the wire flag or a sample rate of 1
  /// rather than drawn from `trace_sample_rate`.
  bool forced = false;
  /// Operation name ("check-batch", ...) once known.
  std::string name;
  /// Engine trace records collected by the handler (capped at 4), joined
  /// under the request's "execute" span at finish time.
  std::vector<std::shared_ptr<const obs::TraceRecord>> engine_traces;
};

/// Per-request context handed to the wire handlers.
struct SessionContext {
  /// The owning session — the handle-table owner id.
  std::uint64_t session_id = 0;
  /// Per-request tracer (never null; disabled unless the request is
  /// sampled — see `RequestTrace`).
  obs::Tracer* tracer = nullptr;
  /// This request's trace state (never null during dispatch).
  RequestTrace* trace = nullptr;
};

namespace {

/// Every diffcd service metric, registered once (the single registration
/// site per (name, labels) the metric-dup lint rule audits) and reused via
/// lock-free handles.
struct ServiceMetrics {
  obs::Counter* connections;
  obs::Gauge* sessions_active;
  obs::Histogram* request_seconds_ping;
  obs::Histogram* request_seconds_register;
  obs::Histogram* request_seconds_check_batch;
  obs::Histogram* request_seconds_release;
  obs::Counter* frame_errors;
  obs::Counter* error_frames;
  obs::Counter* admission_rejected;
  obs::Counter* batch_queries;
  obs::Gauge* handles_active;
  obs::Gauge* inflight_batches;
  obs::Counter* drains;
  obs::Gauge* draining;
  obs::Counter* shed;
  obs::Counter* watchdog_kills;
  obs::Counter* nonce_replays;
  obs::Counter* nonce_inflight_dups;
  obs::Counter* accept_failures;
};

ServiceMetrics& Metrics() {
  static ServiceMetrics* metrics = [] {
    obs::Registry& r = obs::Registry::Global();
    auto* m = new ServiceMetrics();
    m->connections =
        r.GetCounter("diffc_net_connections_total", "Wire connections accepted by diffcd");
    m->sessions_active = r.GetGauge("diffc_net_sessions_active", "Live diffcd sessions");
    // One latency histogram per `WireRequest`; its `_count` is the number
    // of requests dispatched of that type.
    m->request_seconds_ping =
        r.GetHistogram("diffc_net_request_seconds", "Wire request wall time by type",
                       obs::ExponentialBuckets(0.0001, 4.0, 12), {{"type", "ping"}});
    m->request_seconds_register =
        r.GetHistogram("diffc_net_request_seconds", "Wire request wall time by type",
                       obs::ExponentialBuckets(0.0001, 4.0, 12),
                       {{"type", "register-premises"}});
    m->request_seconds_check_batch =
        r.GetHistogram("diffc_net_request_seconds", "Wire request wall time by type",
                       obs::ExponentialBuckets(0.0001, 4.0, 12), {{"type", "check-batch"}});
    m->request_seconds_release =
        r.GetHistogram("diffc_net_request_seconds", "Wire request wall time by type",
                       obs::ExponentialBuckets(0.0001, 4.0, 12), {{"type", "release"}});
    m->frame_errors = r.GetCounter(
        "diffc_net_frame_errors_total",
        "Malformed wire input: bad version, oversized or truncated frames, unknown types");
    m->error_frames =
        r.GetCounter("diffc_net_error_frames_total", "Typed error frames sent to clients");
    m->admission_rejected = r.GetCounter(
        "diffc_net_admission_rejected_total",
        "Requests rejected by admission control (batch slots or handle quotas)");
    m->batch_queries =
        r.GetCounter("diffc_net_batch_queries_total", "Implication queries served over the wire");
    m->handles_active =
        r.GetGauge("diffc_net_handles_active", "Live prepared-premises handles");
    m->inflight_batches =
        r.GetGauge("diffc_net_inflight_batches", "CHECK_BATCH requests currently executing");
    m->drains = r.GetCounter("diffc_net_drains_total", "Graceful drains begun");
    m->draining = r.GetGauge("diffc_net_draining", "1 while a drain is in progress");
    m->shed = r.GetCounter(
        "diffc_net_shed_total",
        "CHECK_BATCH requests shed with an OVERLOADED reply (watermarks, admission "
        "cap, or in-flight retry nonces)");
    m->watchdog_kills = r.GetCounter(
        "diffc_net_watchdog_kills_total",
        "Sessions killed by the watchdog for stalling mid-frame beyond the stall budget");
    m->nonce_replays = r.GetCounter(
        "diffc_net_nonce_replays_total",
        "CHECK_BATCH retries answered from the idempotency nonce cache");
    m->nonce_inflight_dups = r.GetCounter(
        "diffc_net_nonce_inflight_dups_total",
        "CHECK_BATCH retries shed because the original attempt is still executing");
    m->accept_failures = r.GetCounter(
        "diffc_net_accept_failures_total",
        "Transient accept() failures the accept loop rode out");
    return m;
  }();
  return *metrics;
}

/// The latency histogram of request type `t`.
obs::Histogram* RequestSeconds(ServiceMetrics& m, WireRequest t) {
  switch (t) {
    case WireRequest::kPing:
      return m.request_seconds_ping;
    case WireRequest::kRegisterPremises:
      return m.request_seconds_register;
    case WireRequest::kCheckBatch:
      return m.request_seconds_check_batch;
    case WireRequest::kRelease:
      return m.request_seconds_release;
  }
  return m.request_seconds_ping;  // Unreachable: SessionLoop admits known types only.
}

Frame ErrFrame(const Status& s) {
  Metrics().error_frames->Inc();
  return EncodeError(ErrorMsg::FromStatus(s));
}

/// The trace context a handler echoes in its reply: the request's trace
/// id, this request's server span id, and the sampling flag. Zero-id
/// (invalid) before `ArmRequestTrace`.
TraceContext ReplyTraceContext(const RequestTrace& rt) {
  TraceContext tc;
  if (!rt.armed) return tc;
  tc.trace_id_hi = rt.wire.trace_id_hi;
  tc.trace_id_lo = rt.wire.trace_id_lo;
  tc.parent_span_id = rt.server_span_id;
  tc.sampled = rt.sampled;
  return tc;
}

/// RAII over an in-flight nonce claim: `Abandon`s on destruction unless
/// the reply was published with `Publish` — error replies must not be
/// replayed (a retry should re-execute, not re-fail).
class NonceClaim {
 public:
  NonceClaim(NonceCache* cache, std::uint64_t nonce) : cache_(cache), nonce_(nonce) {}
  ~NonceClaim() {
    if (cache_ != nullptr) cache_->Abandon(nonce_);
  }
  NonceClaim(const NonceClaim&) = delete;
  NonceClaim& operator=(const NonceClaim&) = delete;

  void Publish(const Frame& reply) {
    if (cache_ != nullptr) cache_->Complete(nonce_, reply);
    cache_ = nullptr;
  }

 private:
  NonceCache* cache_;
  std::uint64_t nonce_;
};

/// The OVERLOADED shed reply, hinting the server's EWMA batch latency.
Frame ShedFrame(const AdmissionController& admission) {
  Metrics().shed->Inc();
  OverloadedMsg shed;
  shed.retry_after_ms = static_cast<std::uint32_t>(admission.RetryAfterHint().count());
  return EncodeOverloaded(shed);
}

}  // namespace

// ------------------------------------------------------------ server proper

DiffcdServer::DiffcdServer(ServerOptions options)
    : options_(std::move(options)),
      engine_(options_.engine),
      handles_(PreparedHandleTable::Options{options_.max_handles_per_session,
                                            options_.max_total_handles}),
      admission_(AdmissionController::Options{options_.max_inflight_batches,
                                              options_.shed_watermark}),
      nonces_(NonceCache::Options{}) {}

DiffcdServer::~DiffcdServer() {
  // Destructor drain: the outcome is whatever Shutdown reports; a caller
  // that cares about DeadlineExceeded calls Shutdown itself first.
  (void)Shutdown();
}

Status DiffcdServer::Start() {
  {
    MutexLock lock(&mu_);
    if (state_ != State::kIdle) {
      return Status::FailedPrecondition("diffcd server already started");
    }
  }
  Result<Listener> wire = Listener::Bind(options_.listen_address);
  if (!wire.ok()) return wire.status();
  listener_ = std::move(*wire);
  bound_address_ = listener_.bound_address();

  if (!options_.metrics_address.empty()) {
    Result<Listener> http = Listener::Bind(options_.metrics_address);
    if (!http.ok()) {
      listener_.Close();
      return http.status();
    }
    metrics_listener_ = std::move(*http);
    metrics_bound_address_ = metrics_listener_.bound_address();
  }

  start_steady_ = std::chrono::steady_clock::now();
  start_wall_unix_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // Resize only on change: SetCapacity drops retained traces, and tests
  // start several servers in one process against the one global store.
  if (obs::GlobalTraceStore().capacity() != options_.trace_store_capacity) {
    obs::GlobalTraceStore().SetCapacity(options_.trace_store_capacity);
  }

  {
    MutexLock lock(&mu_);
    state_ = State::kRunning;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (metrics_listener_.valid()) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  obs::GlobalEventLog().Record("diffcd-start", {{"address", bound_address_}});
  return Status::Ok();
}

std::string DiffcdServer::bound_address() const { return bound_address_; }

std::string DiffcdServer::metrics_bound_address() const { return metrics_bound_address_; }

bool DiffcdServer::draining() const {
  MutexLock lock(&mu_);
  return state_ == State::kDraining || state_ == State::kStopped;
}

std::size_t DiffcdServer::sessions_active() const {
  MutexLock lock(&mu_);
  return active_sessions_;
}

std::size_t DiffcdServer::sessions_tracked() const {
  MutexLock lock(&mu_);
  return sessions_.size() + finished_sessions_.size();
}

void DiffcdServer::ReapFinishedSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    MutexLock lock(&mu_);
    finished.swap(finished_sessions_);
  }
  // Joins run unlocked: a finished session's thread is at (or within a few
  // instructions of) exit, so each join is near-instant but may still
  // briefly block.
  for (auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void DiffcdServer::AcceptLoop() {
  while (true) {
    Result<Socket> conn = listener_.Accept();
    if (!conn.ok()) {
      // Cancelled means Shutdown closed the listener. Anything else
      // (EMFILE, injected net/accept-fail, ...) is transient: one lost
      // connection must not take the whole accept loop down with it.
      if (conn.status().code() == StatusCode::kCancelled) return;
      Metrics().accept_failures->Inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    ReapFinishedSessions();
    MutexLock lock(&mu_);
    if (state_ != State::kRunning) {
      conn->ShutdownBoth();
      continue;
    }
    auto session = std::make_unique<Session>();
    session->id = next_session_id_++;
    session->sock = std::move(*conn);
    Session* raw = session.get();
    ++active_sessions_;
    Metrics().connections->Inc();
    Metrics().sessions_active->Set(static_cast<double>(active_sessions_));
    sessions_.emplace(session->id, std::move(session));
    // Started under the lock so Shutdown's join either sees a joinable
    // thread or no session entry at all — never a half-built Session.
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void DiffcdServer::SessionLoop(Session* session) {
  ServiceMetrics& m = Metrics();
  SessionContext ctx;
  ctx.session_id = session->id;
  while (true) {
    Frame frame;
    bool clean_eof = false;
    Status rs = ReadFrame(session->sock, &frame, &clean_eof, options_.session_stall_budget);
    if (!rs.ok()) {
      if (rs.code() == StatusCode::kDeadlineExceeded) {
        // Watchdog: the peer went silent mid-frame past the stall budget;
        // kill the session rather than pin its thread until drain.
        m.watchdog_kills->Inc();
        obs::GlobalEventLog().Record("diffcd-watchdog-kill",
                                     {{"session", std::to_string(session->id)}});
        (void)WriteFrame(session->sock, ErrFrame(rs));  // Best-effort courtesy.
        break;
      }
      m.frame_errors->Inc();
      // Best-effort: the stream is unparseable past this point, so the
      // typed error frame is a courtesy before the connection closes.
      (void)WriteFrame(session->sock, ErrFrame(rs));
      break;
    }
    if (clean_eof) break;
    if (draining()) {
      // Error path deliberately unchecked: the session ends either way.
      (void)WriteFrame(session->sock,
                       ErrFrame(Status::FailedPrecondition(
                           "server draining; connection accepts no new requests")));
      break;
    }
    if (!IsKnownRequest(frame.type)) {
      m.frame_errors->Inc();
      // As above: unknown type bytes poison the stream's framing trust.
      (void)WriteFrame(session->sock,
                       ErrFrame(Status::InvalidArgument(
                           "unknown request type byte " + std::to_string(int{frame.type}))));
      break;
    }

    RequestTrace rt;
    ctx.trace = &rt;
    ctx.tracer = &rt.tracer;
    const auto started = std::chrono::steady_clock::now();
    Frame reply = Dispatch(&ctx, frame);
    const auto elapsed_steady = std::chrono::steady_clock::now() - started;
    const double elapsed = std::chrono::duration<double>(elapsed_steady).count();
    const auto type = static_cast<WireRequest>(frame.type);
    RequestSeconds(m, type)->Observe(elapsed);
    if (options_.slow_request_threshold.count() > 0 &&
        elapsed >= std::chrono::duration<double>(options_.slow_request_threshold).count()) {
      std::vector<std::pair<std::string, std::string>> fields = {
          {"type", WireRequestName(type)},
          {"seconds", std::to_string(elapsed)},
          {"session", std::to_string(session->id)},
      };
      if (rt.armed) fields.emplace_back("trace_id", rt.wire.IdHex());
      obs::GlobalEventLog().Record("diffcd-slow-request", std::move(fields));
    }
    FinishRequestTrace(&ctx, reply.type,
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               elapsed_steady)
                               .count()));
    ctx.tracer = nullptr;
    ctx.trace = nullptr;

    // Chaos-only fault sites on the reply path (compiled out by default):
    // a handler thread that dies before replying, a delayed reply, and a
    // connection reset halfway through the reply frame.
    if (DIFFC_FAILPOINT("server/abort-session")) break;
    if (DIFFC_FAILPOINT("server/delay-reply")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    if (DIFFC_FAILPOINT("server/reset-mid-reply")) {
      std::vector<std::uint8_t> bytes = SerializeFrame(reply);
      (void)session->sock.SendAll(bytes.data(), bytes.size() / 2);  // Torn on purpose.
      break;
    }

    Status ws = WriteFrame(session->sock, reply);
    if (!ws.ok()) break;
  }

  // Session teardown: the session's handles die with it.
  handles_.ReleaseAllForOwner(session->id);
  m.handles_active->Set(static_cast<double>(handles_.size()));
  std::size_t remaining = 0;
  {
    MutexLock lock(&mu_);
    // Close under mu_: Shutdown's ShutdownRead/ShutdownBoth sweeps touch
    // the same fd under the same lock, and once the entry leaves
    // `sessions_` here they cannot see it at all — no close/shutdown race
    // on a recycled fd.
    session->sock.Close();
    --active_sessions_;
    remaining = active_sessions_;
    auto it = sessions_.find(session->id);
    if (it != sessions_.end()) {
      finished_sessions_.push_back(std::move(it->second));
      sessions_.erase(it);
    }
  }
  // `session` may now be freed by a reaper — but only after this thread
  // exits (the reaper joins first), so the remaining statement is safe.
  m.sessions_active->Set(static_cast<double>(remaining));
}

Frame DiffcdServer::Dispatch(SessionContext* ctx, const Frame& frame) {
  // SessionLoop has rejected unknown type bytes, so the cast names a
  // declared enumerator; -Werror=switch keeps the switch exhaustive.
  const auto type = static_cast<WireRequest>(frame.type);
  obs::SpanGuard span(ctx->tracer, WireRequestName(type));
  switch (type) {
    case WireRequest::kPing:
      return HandlePing(ctx, frame);
    case WireRequest::kRegisterPremises:
      return HandleRegisterPremises(ctx, frame);
    case WireRequest::kCheckBatch:
      return HandleCheckBatch(ctx, frame);
    case WireRequest::kRelease:
      return HandleRelease(ctx, frame);
  }
  return ErrFrame(Status::InvalidArgument("unknown request type byte " +
                                          std::to_string(int{frame.type})));
}

// ----------------------------------------------------------- wire handlers

Frame DiffcdServer::HandlePing(SessionContext* ctx, const Frame& frame) {
  Result<PingMsg> msg = DecodePing(frame);
  if (!msg.ok()) return ErrFrame(msg.status());
  // Ping carries no wire trace context; the server still mints a trace
  // so slow/errored pings land in the store like any request.
  ArmRequestTrace(ctx, TraceContext{}, "ping");
  return EncodePong(*msg);
}

Frame DiffcdServer::HandleRegisterPremises(SessionContext* ctx, const Frame& frame) {
  Result<RegisterPremisesMsg> msg = DecodeRegisterPremises(frame);
  if (!msg.ok()) return ErrFrame(msg.status());
  ArmRequestTrace(ctx, msg->trace, "register-premises");

  Result<std::shared_ptr<const PreparedPremises>> prepared = [&] {
    obs::SpanGuard prepare_span(ctx->tracer, "prepare");
    return engine_.Prepare(msg->n, msg->premises);
  }();
  if (!prepared.ok()) return ErrFrame(prepared.status());

  obs::SpanGuard register_span(ctx->tracer, "handle-register");
  Result<std::uint64_t> handle = handles_.Register(ctx->session_id, *prepared);
  if (!handle.ok()) {
    if (handle.status().code() == StatusCode::kResourceExhausted) {
      Metrics().admission_rejected->Inc();
    }
    return ErrFrame(handle.status());
  }
  Metrics().handles_active->Set(static_cast<double>(handles_.size()));

  RegisterOkMsg ok;
  ok.handle = *handle;
  ok.canonical_constraints = static_cast<std::uint32_t>((*prepared)->masks().size());
  ok.trace = ReplyTraceContext(*ctx->trace);
  return EncodeRegisterOk(ok);
}

Frame DiffcdServer::HandleCheckBatch(SessionContext* ctx, const Frame& frame) {
  Result<CheckBatchMsg> msg = DecodeCheckBatch(frame);
  if (!msg.ok()) return ErrFrame(msg.status());
  ArmRequestTrace(ctx, msg->trace, "check-batch");

  // Idempotency first: a retry of an already-answered batch replays the
  // original reply (no second execution, no second admission charge); a
  // retry racing the original execution is shed rather than run twice.
  NonceCache::Lookup seen = [&] {
    obs::SpanGuard nonce_span(ctx->tracer, "nonce-lookup");
    return nonces_.Begin(msg->nonce);
  }();
  if (seen.state == NonceCache::State::kDone) {
    Metrics().nonce_replays->Inc();
    ctx->tracer->Note("nonce-replay");
    return seen.reply;
  }
  if (seen.state == NonceCache::State::kInFlight) {
    Metrics().nonce_inflight_dups->Inc();
    ctx->tracer->Note("nonce-inflight-dup");
    return ShedFrame(admission_);
  }
  NonceClaim claim(&nonces_, msg->nonce);

  Result<std::shared_ptr<const PreparedPremises>> prepared = handles_.Lookup(msg->handle);
  if (!prepared.ok()) return ErrFrame(prepared.status());
  if (msg->n != (*prepared)->n()) {
    return ErrFrame(Status::InvalidArgument(
        "batch universe n=" + std::to_string(msg->n) + " does not match handle " +
        std::to_string(msg->handle) + " (n=" + std::to_string((*prepared)->n()) + ")"));
  }

  // Load shedding before admission: past the soft watermark (or under the
  // injected-overload failpoint) the server answers OVERLOADED while it
  // still has headroom to say so.
  bool watermark_shed = false;
  Result<AdmissionController::Slot> slot = [&]() -> Result<AdmissionController::Slot> {
    obs::SpanGuard admit_span(ctx->tracer, "admission");
    if (DIFFC_FAILPOINT("server/shed") || admission_.ShouldShed()) {
      watermark_shed = true;
      ctx->tracer->Note("shed", "watermark");
      return Status::ResourceExhausted("shed at watermark");
    }
    return admission_.Admit();
  }();
  if (!slot.ok()) {
    if (!watermark_shed) {
      Metrics().admission_rejected->Inc();
      ctx->tracer->Note("shed", "admission-cap");
    }
    return ShedFrame(admission_);
  }
  Metrics().inflight_batches->Set(static_cast<double>(admission_.inflight()));

  // The request's own wall-clock budget; the server-wide drain cancel
  // token rides along so an expired drain stops this batch cooperatively.
  Deadline deadline = msg->deadline_ms > 0
                          ? Deadline::After(std::chrono::milliseconds(msg->deadline_ms))
                          : Deadline::Never();
  Result<BatchOutcome> outcome = [&]() -> Result<BatchOutcome> {
    obs::SpanGuard execute_span(ctx->tracer, "execute");
    return engine_.CheckBatch(*prepared, msg->goals, deadline, drain_cancel_);
  }();
  slot->Reset();
  Metrics().inflight_batches->Set(static_cast<double>(admission_.inflight()));
  if (!outcome.ok()) return ErrFrame(outcome.status());
  Metrics().batch_queries->Inc(msg->goals.size());

  // Keep up to 4 engine span trees (present when EngineOptions::trace is
  // on) to join under this request's "execute" span at finish time.
  if (ctx->trace->sampled) {
    for (const EngineQueryResult& r : outcome->results) {
      if (ctx->trace->engine_traces.size() >= 4) break;
      if (r.trace != nullptr) ctx->trace->engine_traces.push_back(r.trace);
    }
  }

  obs::SpanGuard encode_span(ctx->tracer, "encode");
  BatchResultMsg reply;
  reply.results.reserve(outcome->results.size());
  for (const EngineQueryResult& r : outcome->results) {
    WireQueryResult q;
    q.status_code = r.status.code();
    q.status_message = r.status.message();
    q.verdict = static_cast<std::uint8_t>(r.outcome.verdict);
    if (r.outcome.counterexample.has_value()) {
      q.has_counterexample = true;
      q.counterexample = r.outcome.counterexample->bits();
    }
    reply.results.push_back(std::move(q));
  }
  const BatchStats& s = outcome->stats;
  reply.stats.queries = s.queries;
  reply.stats.implied = s.implied;
  reply.stats.not_implied = s.not_implied;
  reply.stats.failed = s.failed;
  reply.stats.degraded = s.degraded;
  reply.stats.timed_out = s.timed_out;
  reply.stats.cancelled = s.cancelled;
  reply.stats.batch_wall_ns = s.batch_wall_ns;
  reply.trace = ReplyTraceContext(*ctx->trace);
  Frame out = EncodeBatchResult(reply);
  // Only successful results are replayable; failures above Abandon the
  // claim via RAII so a retry re-executes.
  claim.Publish(out);
  return out;
}

Frame DiffcdServer::HandleRelease(SessionContext* ctx, const Frame& frame) {
  Result<ReleaseMsg> msg = DecodeRelease(frame);
  if (!msg.ok()) return ErrFrame(msg.status());
  ArmRequestTrace(ctx, TraceContext{}, "release");
  Status s = handles_.Release(msg->handle, ctx->session_id);
  if (!s.ok()) return ErrFrame(s);
  Metrics().handles_active->Set(static_cast<double>(handles_.size()));
  return EncodeReleaseOk();
}

// ---------------------------------------------------------- request tracing

void DiffcdServer::ArmRequestTrace(SessionContext* ctx, const TraceContext& wire_tc,
                                   const char* name) {
  RequestTrace* rt = ctx->trace;
  if (rt->armed) return;
  rt->armed = true;
  rt->name = name;
  rt->wire = wire_tc;
  if (!rt->wire.valid()) {
    // The client sent no context (a zero trace id, or ping/release): mint
    // a trace id server-side so the request is still addressable in /tracez.
    rt->wire.trace_id_hi = obs::RandomTraceBits();
    rt->wire.trace_id_lo = obs::RandomTraceBits();
    rt->wire.parent_span_id = 0;
    rt->wire.sampled = false;
  }
  rt->server_span_id = obs::RandomTraceBits();
  // Head sampling: the wire flag and a rate of 1 force it; otherwise one
  // probability draw per request decides.
  rt->forced = wire_tc.sampled || options_.trace_sample_rate >= 1.0;
  rt->sampled = rt->forced || (options_.trace_sample_rate > 0.0 &&
                               obs::SamplingDraw() < options_.trace_sample_rate);
  rt->wire.sampled = rt->sampled;
  if (rt->sampled) {
    rt->tracer = obs::Tracer(true);
    // Root span: closed by Finish(), so it covers everything from arm
    // (just after decode) to the reply being chosen.
    rt->tracer.Begin(std::string("server:") + name);
  }
}

void DiffcdServer::FinishRequestTrace(SessionContext* ctx, std::uint8_t reply_type,
                                      std::uint64_t elapsed_ns) {
  RequestTrace* rt = ctx->trace;
  if (!rt->armed) return;

  std::string status = "ok";
  bool shed = false;
  bool errored = false;
  if (reply_type == static_cast<std::uint8_t>(WireResponse::kError)) {
    status = "error";
    errored = true;
  } else if (reply_type == static_cast<std::uint8_t>(WireResponse::kOverloaded)) {
    status = "shed";
    shed = true;
  }
  const bool slow =
      options_.slow_request_threshold.count() > 0 &&
      elapsed_ns >= static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            options_.slow_request_threshold)
                            .count());
  // Tail rule: unsampled requests still land in the store when something
  // went wrong enough that an operator will come looking.
  if (!(rt->sampled || slow || shed || errored)) return;

  obs::StoredTrace st;
  st.trace_id_hi = rt->wire.trace_id_hi;
  st.trace_id_lo = rt->wire.trace_id_lo;
  st.span_id = rt->server_span_id;
  st.parent_span_id = rt->wire.parent_span_id;
  st.kind = "server";
  st.name = rt->name;
  st.status = status;
  st.sampled = rt->sampled;
  st.forced = rt->forced;
  st.slow = slow;
  st.shed = shed;
  st.errored = errored;
  st.duration_ns = elapsed_ns;
  if (rt->sampled) {
    obs::TraceRecord rec = rt->tracer.Finish();
    // Join the engine span trees under this request's "execute" span
    // (falling back to the root when a shed/error path never opened one).
    int attach = 0;
    for (std::size_t i = 0; i < rec.spans.size(); ++i) {
      if (rec.spans[i].name == "execute") attach = static_cast<int>(i);
    }
    for (const auto& engine_trace : rt->engine_traces) {
      if (engine_trace != nullptr) obs::AppendChildRecord(&rec, attach, *engine_trace);
    }
    st.record = std::move(rec);
  } else {
    // Skeleton record: one root span, wall anchor back-dated by the
    // elapsed time so /tracez still renders an absolute start.
    obs::TraceRecord rec;
    const std::uint64_t now_wall = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    rec.wall_start_unix_ns = now_wall >= elapsed_ns ? now_wall - elapsed_ns : 0;
    obs::TraceSpan root;
    root.name = "server:" + rt->name;
    root.duration_ns = elapsed_ns;
    rec.spans.push_back(std::move(root));
    st.record = std::move(rec);
  }

  if (slow) {
    obs::SlowQuery q;
    q.wall_unix_ns = st.record.wall_start_unix_ns;
    q.kind = rt->name;
    q.seconds = static_cast<double>(elapsed_ns) / 1e9;
    q.session = ctx->session_id;
    q.trace_id = rt->wire.IdHex();
    q.status = status;
    const obs::SlowQuery stored = obs::GlobalSlowQueryLog().Add(q);
    // The structured stderr line operators grep/tail for.
    std::fprintf(stderr, "%s\n", stored.ToJsonLine().c_str());
  }

  obs::GlobalTraceStore().Add(std::move(st));
}

// ------------------------------------------------------------------- drain

Status DiffcdServer::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (state_ == State::kStopped) return shutdown_status_;
    if (state_ == State::kIdle) {
      state_ = State::kStopped;
      shutdown_status_ = Status::Ok();
      return shutdown_status_;
    }
    if (state_ == State::kDraining) {
      // A concurrent Shutdown owns the drain; report its eventual outcome
      // conservatively as OK-in-progress. (Single-caller in practice:
      // diffcd_main and the tests call Shutdown exactly once.)
      return Status::Ok();
    }
    state_ = State::kDraining;
  }

  ServiceMetrics& m = Metrics();
  m.drains->Inc();
  m.draining->Set(1);
  obs::GlobalEventLog().Record(
      "diffcd-drain-begin",
      {{"address", bound_address_}, {"sessions", std::to_string(sessions_active())}});

  // 1. Stop accepting: shut the listeners down (waking a blocked accept),
  //    retire the listener threads, and only then close the fds the
  //    threads were reading.
  listener_.Shutdown();
  metrics_listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  listener_.Close();
  metrics_listener_.Close();

  // 2. Half-close every session's read side: a session blocked in
  //    ReadFrame wakes with clean EOF and exits; a session mid-request
  //    keeps running and can still flush its response.
  {
    MutexLock lock(&mu_);
    for (auto& [id, session] : sessions_) session->sock.ShutdownRead();
  }

  // 3. Wait for in-flight work under the drain budget.
  const Deadline drain_deadline = options_.drain_deadline.count() > 0
                                      ? Deadline::After(options_.drain_deadline)
                                      : Deadline::Never();
  bool drained = false;
  while (true) {
    {
      MutexLock lock(&mu_);
      if (active_sessions_ == 0) {
        drained = true;
        break;
      }
    }
    if (drain_deadline.Expired()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  Status result = Status::Ok();
  if (!drained) {
    // 4. Budget spent: cancel in-flight batches cooperatively and cut the
    //    write sides so stuck peers cannot pin the process.
    drain_cancel_.Cancel();
    {
      MutexLock lock(&mu_);
      for (auto& [id, session] : sessions_) session->sock.ShutdownBoth();
    }
    result = Status::DeadlineExceeded(
        "drain budget expired with sessions in flight; in-flight batches cancelled");
  }

  // 5. Join every session thread (prompt now: reads EOF, batches
  //    cancelled) and drop the table. Sessions pulled out of `sessions_`
  //    here no longer self-move to the finished list (the move guards on
  //    map membership); sessions that already finished are joined by the
  //    final reap.
  std::vector<std::unique_ptr<Session>> sessions;
  {
    MutexLock lock(&mu_);
    sessions.reserve(sessions_.size());
    for (auto& [id, session] : sessions_) sessions.push_back(std::move(session));
    sessions_.clear();
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
  }
  ReapFinishedSessions();

  {
    MutexLock lock(&mu_);
    state_ = State::kStopped;
    shutdown_status_ = result;
  }
  m.draining->Set(0);
  m.sessions_active->Set(0);
  obs::GlobalEventLog().Record("diffcd-drain-end",
                               {{"forced", drained ? "false" : "true"},
                                {"status", result.ToString()}});
  return result;
}

// --------------------------------------------------------- /metrics (HTTP)

namespace {

void SendHttp(const Socket& sock, int code, const std::string& reason,
              const std::string& content_type, const std::string& body) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  // Best-effort both: a scraper that disconnected mid-reply is not an
  // error the server can act on.
  (void)sock.SendAll(head.data(), head.size());
  (void)sock.SendAll(body.data(), body.size());  // Best-effort, as above.
}

}  // namespace

void DiffcdServer::MetricsLoop() {
  while (true) {
    Result<Socket> conn = metrics_listener_.Accept();
    if (!conn.ok()) return;  // Listener closed by Shutdown.
    ServeMetricsConnection(std::move(*conn));
  }
}

void DiffcdServer::ServeMetricsConnection(Socket sock) {
  // Shutdown joins the metrics thread before waiting out the drain, so
  // this connection must terminate on its own: every recv and the reply
  // send are bounded by the per-connection budget, and the head loop
  // re-checks an overall deadline so a byte-at-a-time trickle cannot
  // stretch the serve past ~2x the budget.
  const std::chrono::milliseconds budget = options_.metrics_timeout;
  const bool bounded = budget.count() > 0;
  if (bounded) {
    // Best-effort: on setsockopt failure the recv deadline below still
    // caps non-silent peers, and a fully silent peer is a kernel oddity
    // not worth failing the scrape over.
    (void)sock.SetRecvTimeout(budget);
    (void)sock.SetSendTimeout(budget);  // Best-effort, as above.
  }
  const auto give_up = std::chrono::steady_clock::now() + budget;

  // Read until the end of the request head, bounded — the endpoint parses
  // only the request line and ignores headers and bodies.
  std::string head;
  char buf[1024];
  while (head.size() < kMaxHttpHeadBytes && head.find("\r\n\r\n") == std::string::npos) {
    if (bounded && std::chrono::steady_clock::now() >= give_up) {
      return;  // Trickling peer spent the budget; drop silently.
    }
    Result<std::size_t> n = sock.RecvSome(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    head.append(buf, *n);
  }
  HttpRequestHead req;
  Status parsed = ParseHttpRequestHead(head, &req);
  if (parsed.code() == StatusCode::kNotFound) return;  // Not HTTP; drop silently.
  if (!parsed.ok()) {
    SendHttp(sock, 400, "Bad Request", "text/plain", "malformed request line\n");
    return;
  }
  if (req.method != "GET") {
    SendHttp(sock, 405, "Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  const std::string& path = req.path;
  const std::string& query = req.query;
  if (path == "/metrics") {
    SendHttp(sock, 200, "OK", "text/plain; version=0.0.4; charset=utf-8",
             obs::SnapshotPrometheus());
  } else if (path == "/metrics.json") {
    SendHttp(sock, 200, "OK", "application/json", obs::SnapshotJson());
  } else if (path == "/healthz") {
    if (draining()) {
      SendHttp(sock, 503, "Service Unavailable", "text/plain", "draining\n");
    } else {
      SendHttp(sock, 200, "OK", "text/plain", "ok\n");
    }
  } else if (path == "/tracez") {
    SendHttp(sock, 200, "OK", "application/json", RenderTracez(query));
  } else if (path == "/statusz") {
    SendHttp(sock, 200, "OK", "application/json", RenderStatusz());
  } else if (path == "/slowz") {
    SendHttp(sock, 200, "OK", "application/json", RenderSlowz());
  } else {
    SendHttp(sock, 404, "Not Found", "text/plain", "unknown path\n");
  }
}

std::string DiffcdServer::RenderTracez(const std::string& query) const {
  obs::TraceStore& store = obs::GlobalTraceStore();

  // Filters: trace_id (exact), status (ok|error|shed), min_ms (duration
  // floor), limit (newest N, default 64).
  const std::string want_id = HttpQueryParam(query, "trace_id");
  const std::string want_status = HttpQueryParam(query, "status");
  const std::string min_ms_s = HttpQueryParam(query, "min_ms");
  const std::string limit_s = HttpQueryParam(query, "limit");
  double min_ms = 0;
  if (!min_ms_s.empty()) min_ms = std::strtod(min_ms_s.c_str(), nullptr);
  std::size_t limit = 64;
  if (!limit_s.empty()) {
    const unsigned long parsed = std::strtoul(limit_s.c_str(), nullptr, 10);
    if (parsed > 0) limit = static_cast<std::size_t>(parsed);
  }

  std::vector<obs::StoredTrace> traces;
  std::uint64_t id_hi = 0;
  std::uint64_t id_lo = 0;
  if (!want_id.empty() && ParseTraceId(want_id, &id_hi, &id_lo)) {
    traces = store.FindByTraceId(id_hi, id_lo);
  } else {
    traces = store.Snapshot();
  }

  std::string body = "{\"capacity\": " + std::to_string(store.capacity()) +
                     ", \"total\": " + std::to_string(store.total()) +
                     ", \"dropped\": " + std::to_string(store.dropped());
  std::string items;
  std::size_t count = 0;
  // Newest first, up to `limit`.
  for (std::size_t i = traces.size(); i-- > 0 && count < limit;) {
    const obs::StoredTrace& t = traces[i];
    if (!want_status.empty() && t.status != want_status) continue;
    if (min_ms > 0 && static_cast<double>(t.duration_ns) / 1e6 < min_ms) continue;
    if (!items.empty()) items += ", ";
    items += t.ToJson();
    ++count;
  }
  body += ", \"count\": " + std::to_string(count) + ", \"traces\": [" + items + "]}";
  return body;
}

std::string DiffcdServer::RenderStatusz() const {
  using obs::JsonEscape;
  const std::uint64_t uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_steady_)
          .count());

  std::string b = "{";
  // Build info: compiler, build mode, protocol, compiled-in fail points.
  b += "\"build\": {\"compiler\": \"" + JsonEscape(
#if defined(__VERSION__)
                                            __VERSION__
#else
                                            "unknown"
#endif
                                            ) +
       "\"";
#if defined(NDEBUG)
  b += ", \"debug\": false";
#else
  b += ", \"debug\": true";
#endif
#if defined(DIFFC_FAILPOINTS)
  b += ", \"failpoints\": true";
#else
  b += ", \"failpoints\": false";
#endif
  b += ", \"wire_version\": " + std::to_string(int{kWireVersion});
  b += "}";

  b += ", \"uptime_ms\": " + std::to_string(uptime_ms);
  b += ", \"start_wall_unix_ns\": " + std::to_string(start_wall_unix_ns_);
  b += ", \"draining\": " + std::string(draining() ? "true" : "false");

  // The server options in force (the observable subset).
  b += ", \"options\": {";
  b += "\"listen_address\": \"" + JsonEscape(options_.listen_address) + "\"";
  b += ", \"metrics_address\": \"" + JsonEscape(options_.metrics_address) + "\"";
  b += ", \"max_inflight_batches\": " + std::to_string(options_.max_inflight_batches);
  b += ", \"shed_watermark\": " + std::to_string(options_.shed_watermark);
  b += ", \"session_stall_budget_ms\": " +
       std::to_string(options_.session_stall_budget.count());
  b += ", \"max_handles_per_session\": " +
       std::to_string(options_.max_handles_per_session);
  b += ", \"max_total_handles\": " + std::to_string(options_.max_total_handles);
  b += ", \"drain_deadline_ms\": " + std::to_string(options_.drain_deadline.count());
  b += ", \"metrics_timeout_ms\": " + std::to_string(options_.metrics_timeout.count());
  b += ", \"slow_query_ms\": " + std::to_string(options_.slow_request_threshold.count());
  b += ", \"trace_sample_rate\": " + obs::FormatDouble(options_.trace_sample_rate);
  b += ", \"trace_store_capacity\": " + std::to_string(options_.trace_store_capacity);
  b += "}";

  // Admission: configured watermarks plus the live controller state.
  const AdmissionController::Options& adm = admission_.options();
  b += ", \"admission\": {";
  b += "\"inflight\": " + std::to_string(admission_.inflight());
  b += ", \"capacity\": " + std::to_string(admission_.capacity());
  b += ", \"shed_watermark\": " + std::to_string(adm.shed_watermark);
  b += ", \"ewma_latency_ms\": " + obs::FormatDouble(admission_.ewma_latency_ms());
  b += "}";

  // Live counts.
  b += ", \"sessions_active\": " + std::to_string(sessions_active());
  b += ", \"sessions_tracked\": " + std::to_string(sessions_tracked());
  b += ", \"handles_active\": " + std::to_string(handles_.size());
  b += ", \"nonce_cache_entries\": " + std::to_string(nonces_.size());

  // Trace-store and slow-query-log health.
  obs::TraceStore& store = obs::GlobalTraceStore();
  b += ", \"trace_store\": {\"capacity\": " + std::to_string(store.capacity()) +
       ", \"size\": " + std::to_string(store.size()) +
       ", \"total\": " + std::to_string(store.total()) +
       ", \"dropped\": " + std::to_string(store.dropped()) + "}";
  obs::SlowQueryLog& slow = obs::GlobalSlowQueryLog();
  b += ", \"slow_query_log\": {\"capacity\": " + std::to_string(slow.capacity()) +
       ", \"total\": " + std::to_string(slow.total()) +
       ", \"dropped\": " + std::to_string(slow.dropped()) + "}";

  // Rewrite-simplifier totals since start (DESIGN.md §14).
  const rewrite::RewriteTotals rw = rewrite::GlobalRewriteTotals();
  b += ", \"rewrite\": {\"simplify_calls\": " + std::to_string(rw.simplify_calls) +
       ", \"passes\": " + std::to_string(rw.passes) +
       ", \"applied\": " + std::to_string(rw.applied) +
       ", \"constraints_removed\": " + std::to_string(rw.constraints_removed) + "}";
  b += "}";
  return b;
}

std::string DiffcdServer::RenderSlowz() const {
  obs::SlowQueryLog& log = obs::GlobalSlowQueryLog();
  std::string items;
  for (const obs::SlowQuery& q : log.Snapshot()) {
    if (!items.empty()) items += ", ";
    items += q.ToJsonLine();
  }
  return "{\"capacity\": " + std::to_string(log.capacity()) +
         ", \"total\": " + std::to_string(log.total()) +
         ", \"dropped\": " + std::to_string(log.dropped()) + ", \"slow_queries\": [" +
         items + "]}";
}

}  // namespace diffc::net
