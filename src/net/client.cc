#include "net/client.h"

#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_store.h"

namespace diffc::net {

namespace {

/// Client-side resilience metrics, registered once (the single site the
/// metric-dup lint rule audits) and shared by every client in the
/// process.
struct ClientMetricsSet {
  obs::Counter* retries;
  obs::Counter* retries_exhausted;
  obs::Counter* reconnects;
  obs::Counter* shed_backoffs;
};

ClientMetricsSet& ClientMetrics() {
  static ClientMetricsSet* metrics = [] {
    obs::Registry& r = obs::Registry::Global();
    auto* m = new ClientMetricsSet();
    m->retries = r.GetCounter("diffc_net_client_retries_total",
                              "Request attempts retried by DiffcClient");
    m->retries_exhausted =
        r.GetCounter("diffc_net_client_retries_exhausted_total",
                     "Requests that failed after exhausting the retry policy");
    m->reconnects = r.GetCounter("diffc_net_client_reconnects_total",
                                 "Reconnects after a lost or poisoned connection");
    m->shed_backoffs = r.GetCounter("diffc_net_client_shed_backoffs_total",
                                    "Backoffs honoring a server OVERLOADED retry-after hint");
    return m;
  }();
  return *metrics;
}

// The wire carries the universe size in one byte and the engine takes
// [0, 64]; any other size is refused before anything is encoded or sent.
Status CheckUniverseSize(int n) {
  if (n < 0 || n > 64) {
    return Status::InvalidArgument("universe size " + std::to_string(n) +
                                   " is outside [0, 64]");
  }
  return Status::Ok();
}

// Connect and backoff durations become `steady_clock` offsets, which
// overflow past about 9.2·10^12 ms; the wire's deadline cap bounds them
// well below that. Checked before anything connects.
Status CheckDurations(const ClientOptions& options) {
  const std::pair<const char*, std::chrono::milliseconds> durations[] = {
      {"connect_timeout", options.connect_timeout},
      {"retry.initial_backoff", options.retry.initial_backoff},
      {"retry.retry_budget", options.retry.retry_budget}};
  for (const auto& [name, ms] : durations) {
    if (ms.count() > static_cast<std::int64_t>(kMaxDeadlineMs)) {
      return Status::InvalidArgument(std::string(name) + " " + std::to_string(ms.count()) +
                                     " ms exceeds cap " + std::to_string(kMaxDeadlineMs));
    }
  }
  return Status::Ok();
}

}  // namespace

DiffcClient::DiffcClient(std::string address, ClientOptions options)
    : address_(std::move(address)),
      options_(options),
      rng_(options.seed != 0 ? options.seed : std::random_device{}()) {}

DiffcClient DiffcClient::Create(const std::string& address, ClientOptions options) {
  return DiffcClient(address, options);
}

Result<DiffcClient> DiffcClient::Connect(const std::string& address, ClientOptions options) {
  if (Status s = CheckDurations(options); !s.ok()) return s;
  DiffcClient client(address, options);
  FailureClass cls = FailureClass::kTransport;
  Status s = client.EnsureReady(&cls);
  if (!s.ok()) return s;
  return client;
}

void DiffcClient::Close() {
  sock_.Close();
  dead_ = false;
  closed_ = true;
  handles_.clear();
}

std::uint64_t DiffcClient::NextNonce() {
  // Nonce 0 means "no idempotency" on the wire, so never hand it out.
  std::uint64_t nonce = rng_();
  return nonce != 0 ? nonce : 1;
}

std::uint64_t DiffcClient::RandomBits() {
  std::uint64_t v = 0;
  while (v == 0) v = rng_();
  return v;
}

Result<Frame> DiffcClient::RoundTripRaw(const Frame& request, WireResponse expected,
                                        FailureClass* cls,
                                        std::chrono::milliseconds* retry_hint) {
  *cls = FailureClass::kTransport;
  *retry_hint = std::chrono::milliseconds(0);
  if (!sock_.valid()) return Status::FailedPrecondition("client not connected");
  Status ws = WriteFrame(sock_, request);
  if (!ws.ok()) {
    dead_ = true;
    return ws;
  }
  Frame reply;
  bool clean_eof = false;
  Status rs = ReadFrame(sock_, &reply, &clean_eof);
  if (!rs.ok()) {
    dead_ = true;
    return rs;
  }
  if (clean_eof) {
    dead_ = true;
    return Status::Unavailable("connection closed by server before a reply");
  }
  if (reply.type == static_cast<std::uint8_t>(WireResponse::kOverloaded)) {
    Result<OverloadedMsg> shed = DecodeOverloaded(reply);
    if (!shed.ok()) {
      dead_ = true;
      return shed.status();
    }
    *cls = FailureClass::kOverloaded;
    *retry_hint = std::chrono::milliseconds(shed->retry_after_ms);
    return shed->ToStatus();
  }
  if (reply.type == static_cast<std::uint8_t>(WireResponse::kError)) {
    Result<ErrorMsg> err = DecodeError(reply);
    if (!err.ok()) {
      dead_ = true;
      return err.status();
    }
    if (err->code == StatusCode::kUnavailable) {
      // The server sends Unavailable only when the connection itself is
      // doomed (an injected fault, a read it cannot trust): transport-class,
      // so the retry reconnects instead of surfacing the transient.
      dead_ = true;
      return err->ToStatus();
    }
    *cls = FailureClass::kFatal;
    return err->ToStatus();
  }
  if (reply.type != static_cast<std::uint8_t>(expected)) {
    // A parseable-but-wrong type byte means the request/reply pairing is
    // lost (e.g. a stale reply from a previous, interrupted exchange) —
    // the connection cannot be trusted for the next call either.
    dead_ = true;
    return Status::Unavailable(
        "unexpected reply type byte " + std::to_string(int{reply.type}) + " (expected " +
        WireResponseName(expected) + "); connection desynced");
  }
  return reply;
}

Status DiffcClient::EnsureReady(FailureClass* cls) {
  *cls = FailureClass::kTransport;
  if (address_.empty()) return Status::FailedPrecondition("client not connected");
  if (!sock_.valid() || dead_) {
    if (connected_once_ && !options_.reconnect) {
      *cls = FailureClass::kFatal;
      return Status::FailedPrecondition("connection lost and reconnect is disabled");
    }
    sock_.Close();
    Result<Socket> fresh = net::Connect(address_, options_.connect_timeout);
    if (!fresh.ok()) return fresh.status();
    sock_ = std::move(*fresh);
    dead_ = false;
    if (connected_once_) {
      ++stats_.reconnects;
      ClientMetrics().reconnects->Inc();
    }
    connected_once_ = true;
    // A fresh session starts with no server-side handles: re-establish
    // every recorded registration so the client-scoped handles keep
    // working transparently.
    for (auto& [client_handle, rec] : handles_) {
      RegisterPremisesMsg msg;
      msg.n = rec.n;
      msg.premises = rec.premises;
      std::chrono::milliseconds hint{0};
      Result<Frame> reply = RoundTripRaw(EncodeRegisterPremises(msg),
                                         WireResponse::kRegisterOk, cls, &hint);
      if (!reply.ok()) return reply.status();
      Result<RegisterOkMsg> ok = DecodeRegisterOk(*reply);
      if (!ok.ok()) {
        dead_ = true;
        *cls = FailureClass::kTransport;
        return ok.status();
      }
      rec.server_handle = ok->handle;
    }
  }
  return Status::Ok();
}

template <typename T>
Result<T> DiffcClient::CallDecoded(const char* op, TraceContext* wire_tc,
                                   WireResponse expected, const Deadline& deadline,
                                   const std::function<Frame()>& encode,
                                   const std::function<Result<T>(const Frame&)>& decode) {
  if (closed_) return Status::FailedPrecondition("client closed");
  if (Status s = CheckDurations(options_); !s.ok()) return s;
  // Every call mints a trace identity up front (two rng draws) so the
  // server can join its span even when the client records nothing. The
  // head-sampling decision controls whether *this side* records spans; an
  // unsampled call that starts failing tail-arms its tracer so the retry
  // chain is captured from the first failure on.
  TraceContext tc;
  tc.trace_id_hi = RandomBits();
  tc.trace_id_lo = RandomBits();
  const std::uint64_t client_span_id = RandomBits();
  tc.parent_span_id = client_span_id;
  const bool forced = options_.trace_sample_rate >= 1.0;
  const bool head_sampled =
      forced ||
      (options_.trace_sample_rate > 0 &&
       std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < options_.trace_sample_rate);
  tc.sampled = head_sampled;
  if (wire_tc != nullptr) *wire_tc = tc;
  last_trace_ = tc;
  obs::Tracer tracer(head_sampled);
  if (head_sampled) tracer.Begin(std::string("client:") + op);
  bool any_shed = false;
  const auto arm_tail = [&] {
    if (tracer.enabled()) return;
    tracer = obs::Tracer(true);
    tracer.Begin(std::string("client:") + op);
    tracer.Note("tail-armed");
    // Ask the server to sample the remaining attempts too, so both sides
    // of the struggling request land in the trace store.
    if (wire_tc != nullptr) wire_tc->sampled = true;
  };
  const auto finish_trace = [&](const char* status, bool errored) {
    if (!tracer.enabled()) return;
    obs::StoredTrace st;
    st.trace_id_hi = tc.trace_id_hi;
    st.trace_id_lo = tc.trace_id_lo;
    st.span_id = client_span_id;
    st.parent_span_id = 0;  // The client is the trace root.
    st.kind = "client";
    st.name = op;
    st.status = status;
    st.sampled = head_sampled;
    st.forced = forced;
    st.shed = any_shed;
    st.errored = errored;
    st.record = tracer.Finish();
    st.duration_ns = st.record.TotalNs();
    obs::GlobalTraceStore().Add(std::move(st));
  };
  RetrySchedule schedule(options_.retry, rng_());
  for (int attempt = 1;; ++attempt) {
    if (tracer.enabled() && attempt > 1) {
      tracer.Note("attempt", std::to_string(attempt));
    }
    FailureClass cls = FailureClass::kTransport;
    std::chrono::milliseconds hint{0};
    const char* transport_event = "connect-failed";
    const std::uint64_t reconnects_before = stats_.reconnects;
    Status last = EnsureReady(&cls);
    if (stats_.reconnects > reconnects_before) tracer.Note("reconnect", address_);
    if (last.ok()) {
      transport_event = "transport-error";
      Result<Frame> reply = RoundTripRaw(encode(), expected, &cls, &hint);
      if (!reply.ok()) {
        last = reply.status();
      } else {
        Result<T> decoded = decode(*reply);
        if (decoded.ok()) {
          finish_trace("ok", /*errored=*/false);
          return decoded;
        }
        // Framed but unparseable: treat like any other desync — poison
        // the connection and retry the idempotent request on a fresh
        // one.
        dead_ = true;
        cls = FailureClass::kTransport;
        transport_event = "decode-failed";
        last = decoded.status();
      }
    }

    // Classify: a typed server verdict surfaces as is; transport failures
    // and sheds are retried.
    if (cls == FailureClass::kFatal) {
      finish_trace("error", /*errored=*/true);
      return last;
    }
    const bool server_shed = cls == FailureClass::kOverloaded;
    arm_tail();
    if (server_shed) {
      any_shed = true;
      tracer.Note("shed", "retry_after=" + std::to_string(hint.count()) + "ms");
    } else {
      tracer.Note(transport_event, last.message());
    }

    Result<std::chrono::milliseconds> delay = schedule.NextDelay(hint, deadline);
    if (!delay.ok()) {
      ++stats_.retries_exhausted;
      ClientMetrics().retries_exhausted->Inc();
      tracer.Note("retries-exhausted", delay.status().message());
      finish_trace(server_shed ? "shed" : "error", /*errored=*/true);
      return last;
    }
    if (server_shed) {
      ++stats_.shed_backoffs;
      ClientMetrics().shed_backoffs->Inc();
    }
    if (tracer.enabled()) {
      tracer.Note("backoff", std::to_string(delay->count()) + "ms" +
                                 (server_shed ? " shed" : ""));
    }
    if (delay->count() > 0) std::this_thread::sleep_for(*delay);
    ++stats_.retries;
    ClientMetrics().retries->Inc();
  }
}

Result<std::uint64_t> DiffcClient::Ping(std::uint64_t nonce) {
  PingMsg msg;
  msg.nonce = nonce;
  Result<PingMsg> pong = CallDecoded<PingMsg>(
      "ping", nullptr, WireResponse::kPong, Deadline::Never(),
      [&] { return EncodePing(msg); },
      [](const Frame& f) { return DecodePong(f); });
  if (!pong.ok()) return pong.status();
  return pong->nonce;
}

Result<RegisterOkMsg> DiffcClient::RegisterPremises(int n, const ConstraintSet& premises) {
  Status valid = CheckUniverseSize(n);
  if (!valid.ok()) return valid;
  // Compiled once: every attempt encodes this arena, and the handle record
  // keeps it for re-registration.
  RegisterPremisesMsg msg;
  msg.n = n;
  msg.premises = PremiseMasks::Compile(premises);
  Result<RegisterOkMsg> ok = CallDecoded<RegisterOkMsg>(
      "register-premises", &msg.trace, WireResponse::kRegisterOk, Deadline::Never(),
      [&] { return EncodeRegisterPremises(msg); },
      [](const Frame& f) { return DecodeRegisterOk(f); });
  if (!ok.ok()) return ok;
  if (ok->trace.valid()) last_trace_ = ok->trace;
  // Hand out a client-scoped handle: stable across reconnects (and across
  // server restarts, whose fresh handle spaces could collide with stale
  // server handles).
  const std::uint64_t client_handle = next_handle_++;
  HandleRecord rec;
  rec.server_handle = ok->handle;
  rec.n = n;
  rec.premises = std::move(msg.premises);
  handles_.emplace(client_handle, std::move(rec));
  RegisterOkMsg out = *ok;
  out.handle = client_handle;
  return out;
}

Result<BatchResultMsg> DiffcClient::CheckBatch(std::uint64_t handle, int n,
                                               const std::vector<DifferentialConstraint>& goals,
                                               std::chrono::milliseconds deadline) {
  Status valid = CheckUniverseSize(n);
  if (!valid.ok()) return valid;
  if (deadline.count() > static_cast<std::int64_t>(kMaxDeadlineMs)) {
    // The InvalidArgument the server's decoder would answer.
    return Status::InvalidArgument("deadline " + std::to_string(deadline.count()) +
                                   " ms exceeds cap " + std::to_string(kMaxDeadlineMs));
  }
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    // The same NotFound an unknown handle would earn server-side.
    return Status::NotFound("unknown handle " + std::to_string(handle));
  }
  CheckBatchMsg msg;
  msg.deadline_ms = deadline.count() > 0 ? static_cast<std::uint64_t>(deadline.count()) : 0;
  msg.n = n;
  msg.goals = goals;
  // One nonce for every attempt of this logical batch: a retry whose
  // predecessor actually executed replays the cached reply instead of
  // running (and admission-counting) the batch twice.
  msg.nonce = NextNonce();
  const Deadline op_deadline = deadline.count() > 0 ? Deadline::After(deadline)
                                                    : Deadline::Never();
  Result<BatchResultMsg> res = CallDecoded<BatchResultMsg>(
      "check-batch", &msg.trace, WireResponse::kBatchResult, op_deadline,
      [&] {
        // Re-resolved per attempt: a reconnect re-registers and changes
        // the server-side handle.
        msg.handle = it->second.server_handle;
        return EncodeCheckBatch(msg);
      },
      [](const Frame& f) { return DecodeBatchResult(f); });
  if (res.ok() && res->trace.valid()) last_trace_ = res->trace;
  return res;
}

Status DiffcClient::Release(std::uint64_t handle) {
  auto it = handles_.find(handle);
  if (it == handles_.end()) {
    return Status::NotFound("unknown handle " + std::to_string(handle));
  }
  ReleaseMsg msg;
  Result<bool> ok = CallDecoded<bool>(
      "release", nullptr, WireResponse::kReleaseOk, Deadline::Never(),
      [&] {
        msg.handle = it->second.server_handle;
        return EncodeRelease(msg);
      },
      [](const Frame&) { return Result<bool>(true); });
  // Forget the record either way: on failure the server-side handle dies
  // with its session (or already did), and keeping the record would just
  // re-register premises nobody will use again.
  handles_.erase(it);
  return ok.status();
}

}  // namespace diffc::net
