#include "net/wire.h"

#include <algorithm>
#include <cstring>

#include "lattice/set_family.h"
#include "obs/exposition.h"
#include "util/bitops.h"
#include "util/failpoint.h"

namespace diffc::net {

std::string TraceContext::IdHex() const {
  return obs::HexU64(trace_id_hi) + obs::HexU64(trace_id_lo);
}

const char* WireRequestName(WireRequest t) {
  switch (t) {
    case WireRequest::kPing:
      return "ping";
    case WireRequest::kRegisterPremises:
      return "register-premises";
    case WireRequest::kCheckBatch:
      return "check-batch";
    case WireRequest::kRelease:
      return "release";
  }
  return "?";
}

const char* WireResponseName(WireResponse t) {
  switch (t) {
    case WireResponse::kPong:
      return "pong";
    case WireResponse::kRegisterOk:
      return "register-ok";
    case WireResponse::kBatchResult:
      return "batch-result";
    case WireResponse::kReleaseOk:
      return "release-ok";
    case WireResponse::kOverloaded:
      return "overloaded";
    case WireResponse::kError:
      return "error";
  }
  return "?";
}

bool IsKnownRequest(std::uint8_t t) {
  switch (static_cast<WireRequest>(t)) {
    case WireRequest::kPing:
    case WireRequest::kRegisterPremises:
    case WireRequest::kCheckBatch:
    case WireRequest::kRelease:
      return true;
  }
  return false;
}

void WireWriter::U32(std::uint32_t v) {
  const std::size_t at = out_.size();
  out_.resize(at + 4);
  for (std::size_t i = 0; i < 4; ++i) out_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void WireWriter::U64(std::uint64_t v) {
  const std::size_t at = out_.size();
  out_.resize(at + 8);
  for (std::size_t i = 0; i < 8; ++i) out_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void WireWriter::String(std::string_view s) {
  U32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

Result<std::uint8_t> WireReader::U8() {
  std::uint8_t v = 0;
  if (!cur_.TryU8(&v)) return Status::InvalidArgument("truncated payload: u8");
  return v;
}

Result<std::uint32_t> WireReader::U32() {
  std::uint32_t v = 0;
  if (!cur_.TryU32(&v)) return Status::InvalidArgument("truncated payload: u32");
  return v;
}

Result<std::uint64_t> WireReader::U64() {
  std::uint64_t v = 0;
  if (!cur_.TryU64(&v)) return Status::InvalidArgument("truncated payload: u64");
  return v;
}

Result<std::string> WireReader::String(std::uint32_t max_bytes) {
  Result<std::uint32_t> len = U32();
  if (!len.ok()) return len.status();
  if (*len > max_bytes) {
    return Status::InvalidArgument("string field exceeds cap (" + std::to_string(*len) +
                                   " > " + std::to_string(max_bytes) + ")");
  }
  std::string s;
  if (!cur_.TryBytes(*len, &s)) {
    return Status::InvalidArgument("truncated payload: string body");
  }
  return s;
}

Status WireReader::Finish() const {
  if (!cur_.exhausted()) {
    return Status::InvalidArgument("trailing bytes after message (" +
                                   std::to_string(cur_.remaining()) + ")");
  }
  return Status::Ok();
}

Status DecodeFrameHeader(const std::uint8_t* data, std::size_t size, FrameHeader* out) {
  ByteCursor cur(data, size);
  std::uint32_t len = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  if (!cur.TryU32(&len) || !cur.TryU8(&version) || !cur.TryU8(&type)) {
    return Status::InvalidArgument("truncated frame header");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " + std::to_string(int{version}) +
                                   " (expected " + std::to_string(int{kWireVersion}) + ")");
  }
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("declared frame payload " + std::to_string(len) +
                                   " exceeds cap " + std::to_string(kMaxFramePayload));
  }
  out->payload_len = len;
  out->version = version;
  out->type = type;
  return Status::Ok();
}

namespace {

Status CheckFrameType(const Frame& f, std::uint8_t expected, const char* what) {
  if (f.type != expected) {
    return Status::InvalidArgument(std::string("frame is not a ") + what + " (type " +
                                   std::to_string(f.type) + ")");
  }
  return Status::Ok();
}

// A constraint list is u8 n, u32 count, then per constraint a u64 lhs
// mask, a u32 member count and the u64 member masks. The universe size
// travels in the list; every mask is validated against it as it is read
// (out-of-range bits would otherwise be undefined shifts downstream).
constexpr std::size_t kListHeaderBytes = 1 + 4;
constexpr std::size_t kConstraintHeaderBytes = 8 + 4;
constexpr std::size_t kMemberBytes = 8;

// Reads a constraint list into `*out`, sorting and deduplicating each
// family in place, so the arena keeps `PremiseMasks`' invariant whatever
// order the peer sent.
Status DecodeConstraintList(WireReader* r, int* n, PremiseMasks* out) {
  Result<std::uint8_t> raw_n = r->U8();
  if (!raw_n.ok()) return raw_n.status();
  if (*raw_n > 64) {
    return Status::InvalidArgument("universe size " + std::to_string(int{*raw_n}) +
                                   " exceeds the 64-attribute maximum");
  }
  *n = int{*raw_n};
  const Mask full = FullMask(*n);
  Result<std::uint32_t> count = r->U32();
  if (!count.ok()) return count.status();
  if (*count > kMaxConstraintsPerMessage) {
    return Status::InvalidArgument("constraint count " + std::to_string(*count) +
                                   " exceeds cap " + std::to_string(kMaxConstraintsPerMessage));
  }
  // Reserve no more than the rest of the payload can hold.
  const std::size_t premises =
      std::min<std::size_t>(*count, r->remaining() / kConstraintHeaderBytes);
  std::vector<Mask>& pool = out->members;
  out->premises.reserve(premises);
  pool.reserve((r->remaining() - premises * kConstraintHeaderBytes) / kMemberBytes);
  for (std::uint32_t i = 0; i < *count; ++i) {
    Result<std::uint64_t> lhs = r->U64();
    if (!lhs.ok()) return lhs.status();
    if ((*lhs & ~full) != 0) {
      return Status::InvalidArgument("constraint lhs mask has attributes outside the " +
                                     std::to_string(*n) + "-attribute universe");
    }
    Result<std::uint32_t> size = r->U32();
    if (!size.ok()) return size.status();
    if (*size > kMaxFamilyMembers) {
      return Status::InvalidArgument("constraint family size " + std::to_string(*size) +
                                     " exceeds cap " + std::to_string(kMaxFamilyMembers));
    }
    const std::size_t begin = pool.size();
    for (std::uint32_t j = 0; j < *size; ++j) {
      Result<std::uint64_t> m = r->U64();
      if (!m.ok()) return m.status();
      if ((*m & ~full) != 0) {
        return Status::InvalidArgument("constraint family member has attributes outside the " +
                                       std::to_string(*n) + "-attribute universe");
      }
      pool.push_back(*m);
    }
    const auto first = pool.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(first, pool.end());
    pool.erase(std::unique(first, pool.end()), pool.end());
    PremiseMasks::Premise p;
    p.lhs = *lhs;
    p.begin = static_cast<std::uint32_t>(begin);
    p.end = static_cast<std::uint32_t>(pool.size());
    out->premises.push_back(p);
  }
  return Status::Ok();
}

std::size_t ConstraintListBytes(const PremiseMasks& list) {
  std::size_t bytes = kListHeaderBytes + list.size() * kConstraintHeaderBytes;
  for (const PremiseMasks::Premise& p : list.premises) bytes += p.size() * kMemberBytes;
  return bytes;
}

std::size_t ConstraintListBytes(const std::vector<DifferentialConstraint>& list) {
  std::size_t bytes = kListHeaderBytes + list.size() * kConstraintHeaderBytes;
  for (const DifferentialConstraint& c : list) bytes += c.rhs().members().size() * kMemberBytes;
  return bytes;
}

void EncodeConstraintList(WireWriter* w, int n, const PremiseMasks& list) {
  w->U8(static_cast<std::uint8_t>(n));
  w->U32(static_cast<std::uint32_t>(list.size()));
  for (const PremiseMasks::Premise& p : list.premises) {
    w->U64(p.lhs);
    w->U32(static_cast<std::uint32_t>(p.size()));
    for (Mask y : list.family(p)) w->U64(y);
  }
}

void EncodeConstraintList(WireWriter* w, int n,
                          const std::vector<DifferentialConstraint>& list) {
  w->U8(static_cast<std::uint8_t>(n));
  w->U32(static_cast<std::uint32_t>(list.size()));
  for (const DifferentialConstraint& c : list) {
    w->U64(c.lhs().bits());
    const std::vector<ItemSet>& members = c.rhs().members();
    w->U32(static_cast<std::uint32_t>(members.size()));
    for (const ItemSet& m : members) w->U64(m.bits());
  }
}

Frame MakeFrame(std::uint8_t type, WireWriter&& w) {
  return Frame{type, kWireVersion, std::move(w).Take()};
}

// Trace context: 25 bytes — trace id hi/lo, parent span id, sampled flag.
constexpr std::size_t kTraceContextBytes = 25;

void EncodeTraceContext(WireWriter* w, const TraceContext& tc) {
  w->U64(tc.trace_id_hi);
  w->U64(tc.trace_id_lo);
  w->U64(tc.parent_span_id);
  w->U8(tc.sampled ? 1 : 0);
}

Status DecodeTraceContext(WireReader* r, TraceContext* tc) {
  Result<std::uint64_t> hi = r->U64();
  if (!hi.ok()) return hi.status();
  tc->trace_id_hi = *hi;
  Result<std::uint64_t> lo = r->U64();
  if (!lo.ok()) return lo.status();
  tc->trace_id_lo = *lo;
  Result<std::uint64_t> parent = r->U64();
  if (!parent.ok()) return parent.status();
  tc->parent_span_id = *parent;
  Result<std::uint8_t> sampled = r->U8();
  if (!sampled.ok()) return sampled.status();
  if (*sampled > 1) {
    return Status::InvalidArgument("trace sampled flag byte out of range (" +
                                   std::to_string(int{*sampled}) + ")");
  }
  tc->sampled = *sampled != 0;
  return Status::Ok();
}

}  // namespace

Frame EncodeRegisterPremises(const RegisterPremisesMsg& msg) {
  WireWriter w;
  w.Reserve(ConstraintListBytes(msg.premises) + kTraceContextBytes);
  EncodeConstraintList(&w, msg.n, msg.premises);
  EncodeTraceContext(&w, msg.trace);
  return MakeFrame(static_cast<std::uint8_t>(WireRequest::kRegisterPremises), std::move(w));
}

Result<RegisterPremisesMsg> DecodeRegisterPremises(const Frame& f) {
  Status ts = CheckFrameType(f, static_cast<std::uint8_t>(WireRequest::kRegisterPremises),
                             "register-premises");
  if (!ts.ok()) return ts;
  WireReader r(f.payload);
  RegisterPremisesMsg msg;
  Status s = DecodeConstraintList(&r, &msg.n, &msg.premises);
  if (!s.ok()) return s;
  s = DecodeTraceContext(&r, &msg.trace);
  if (!s.ok()) return s;
  s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

Frame EncodeRegisterOk(const RegisterOkMsg& msg) {
  WireWriter w;
  w.U64(msg.handle);
  w.U32(msg.canonical_constraints);
  EncodeTraceContext(&w, msg.trace);
  return MakeFrame(static_cast<std::uint8_t>(WireResponse::kRegisterOk), std::move(w));
}

Result<RegisterOkMsg> DecodeRegisterOk(const Frame& f) {
  Status ts =
      CheckFrameType(f, static_cast<std::uint8_t>(WireResponse::kRegisterOk), "register-ok");
  if (!ts.ok()) return ts;
  if (DIFFC_FAILPOINT("wire/decode-register-ok")) {
    return Status::Unavailable("failpoint: injected register-ok decode failure");
  }
  WireReader r(f.payload);
  RegisterOkMsg msg;
  Result<std::uint64_t> handle = r.U64();
  if (!handle.ok()) return handle.status();
  msg.handle = *handle;
  Result<std::uint32_t> canonical = r.U32();
  if (!canonical.ok()) return canonical.status();
  msg.canonical_constraints = *canonical;
  Status s = DecodeTraceContext(&r, &msg.trace);
  if (!s.ok()) return s;
  s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

Frame EncodeCheckBatch(const CheckBatchMsg& msg) {
  WireWriter w;
  w.Reserve(3 * 8 + ConstraintListBytes(msg.goals) + kTraceContextBytes);
  w.U64(msg.handle);
  w.U64(msg.deadline_ms);
  w.U64(msg.nonce);
  EncodeConstraintList(&w, msg.n, msg.goals);
  EncodeTraceContext(&w, msg.trace);
  return MakeFrame(static_cast<std::uint8_t>(WireRequest::kCheckBatch), std::move(w));
}

Result<CheckBatchMsg> DecodeCheckBatch(const Frame& f) {
  Status ts =
      CheckFrameType(f, static_cast<std::uint8_t>(WireRequest::kCheckBatch), "check-batch");
  if (!ts.ok()) return ts;
  WireReader r(f.payload);
  CheckBatchMsg msg;
  Result<std::uint64_t> handle = r.U64();
  if (!handle.ok()) return handle.status();
  msg.handle = *handle;
  Result<std::uint64_t> deadline = r.U64();
  if (!deadline.ok()) return deadline.status();
  if (*deadline > kMaxDeadlineMs) {
    return Status::InvalidArgument("deadline " + std::to_string(*deadline) +
                                   " ms exceeds cap " + std::to_string(kMaxDeadlineMs));
  }
  msg.deadline_ms = *deadline;
  Result<std::uint64_t> nonce = r.U64();
  if (!nonce.ok()) return nonce.status();
  msg.nonce = *nonce;
  PremiseMasks goals;
  Status s = DecodeConstraintList(&r, &msg.n, &goals);
  if (!s.ok()) return s;
  msg.goals = goals.Materialize();
  s = DecodeTraceContext(&r, &msg.trace);
  if (!s.ok()) return s;
  s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

Frame EncodeBatchResult(const BatchResultMsg& msg) {
  // The reply must decode under the peer's own caps: each status_message
  // is truncated to kMaxErrorMessageBytes (mirroring EncodeError), and
  // the per-message cap shrinks further whenever full-length messages
  // could push the frame past kMaxFramePayload — so the reply provably
  // fits for any result count DecodeBatchResult accepts. Fixed bytes per
  // result: code(1) + length(4) + verdict(1) + has_cx(1) + cx(8) = 15;
  // plus the count(4), the 8 u64 stats, and the trace-context echo.
  std::size_t message_cap = kMaxErrorMessageBytes;
  if (!msg.results.empty()) {
    const std::size_t fixed = 4 + 15 * msg.results.size() + 8 * 8 + kTraceContextBytes;
    const std::size_t budget = fixed < kMaxFramePayload ? kMaxFramePayload - fixed : 0;
    message_cap = std::min<std::size_t>(message_cap, budget / msg.results.size());
  }
  WireWriter w;
  w.U32(static_cast<std::uint32_t>(msg.results.size()));
  for (const WireQueryResult& r : msg.results) {
    w.U8(static_cast<std::uint8_t>(r.status_code));
    std::string_view m = r.status_message;
    if (m.size() > message_cap) m = m.substr(0, message_cap);
    w.String(m);
    w.U8(r.verdict);
    w.U8(r.has_counterexample ? 1 : 0);
    w.U64(r.counterexample);
  }
  w.U64(msg.stats.queries);
  w.U64(msg.stats.implied);
  w.U64(msg.stats.not_implied);
  w.U64(msg.stats.failed);
  w.U64(msg.stats.degraded);
  w.U64(msg.stats.timed_out);
  w.U64(msg.stats.cancelled);
  w.U64(msg.stats.batch_wall_ns);
  EncodeTraceContext(&w, msg.trace);
  return MakeFrame(static_cast<std::uint8_t>(WireResponse::kBatchResult), std::move(w));
}

Result<BatchResultMsg> DecodeBatchResult(const Frame& f) {
  Status ts =
      CheckFrameType(f, static_cast<std::uint8_t>(WireResponse::kBatchResult), "batch-result");
  if (!ts.ok()) return ts;
  if (DIFFC_FAILPOINT("wire/decode-batch-result")) {
    return Status::Unavailable("failpoint: injected batch-result decode failure");
  }
  WireReader r(f.payload);
  Result<std::uint32_t> count = r.U32();
  if (!count.ok()) return count.status();
  if (*count > kMaxConstraintsPerMessage) {
    return Status::InvalidArgument("result count " + std::to_string(*count) + " exceeds cap");
  }
  BatchResultMsg msg;
  msg.results.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    WireQueryResult q;
    Result<std::uint8_t> code = r.U8();
    if (!code.ok()) return code.status();
    q.status_code = static_cast<StatusCode>(*code);
    Result<std::string> message = r.String(kMaxErrorMessageBytes);
    if (!message.ok()) return message.status();
    q.status_message = *std::move(message);
    Result<std::uint8_t> verdict = r.U8();
    if (!verdict.ok()) return verdict.status();
    if (*verdict > 2) return Status::InvalidArgument("verdict byte out of range");
    q.verdict = *verdict;
    Result<std::uint8_t> has_cx = r.U8();
    if (!has_cx.ok()) return has_cx.status();
    q.has_counterexample = *has_cx != 0;
    Result<std::uint64_t> cx = r.U64();
    if (!cx.ok()) return cx.status();
    q.counterexample = *cx;
    msg.results.push_back(std::move(q));
  }
  std::uint64_t* stats_fields[] = {
      &msg.stats.queries,   &msg.stats.implied,   &msg.stats.not_implied,
      &msg.stats.failed,    &msg.stats.degraded,  &msg.stats.timed_out,
      &msg.stats.cancelled, &msg.stats.batch_wall_ns,
  };
  for (std::uint64_t* field : stats_fields) {
    Result<std::uint64_t> v = r.U64();
    if (!v.ok()) return v.status();
    *field = *v;
  }
  Status s = DecodeTraceContext(&r, &msg.trace);
  if (!s.ok()) return s;
  s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

Frame EncodeRelease(const ReleaseMsg& msg) {
  WireWriter w;
  w.U64(msg.handle);
  return MakeFrame(static_cast<std::uint8_t>(WireRequest::kRelease), std::move(w));
}

Result<ReleaseMsg> DecodeRelease(const Frame& f) {
  Status ts = CheckFrameType(f, static_cast<std::uint8_t>(WireRequest::kRelease), "release");
  if (!ts.ok()) return ts;
  WireReader r(f.payload);
  ReleaseMsg msg;
  Result<std::uint64_t> handle = r.U64();
  if (!handle.ok()) return handle.status();
  msg.handle = *handle;
  Status s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

Frame EncodeReleaseOk() {
  return Frame{static_cast<std::uint8_t>(WireResponse::kReleaseOk), kWireVersion, {}};
}

namespace {

Frame EncodeNonce(std::uint8_t type, const PingMsg& msg) {
  WireWriter w;
  w.U64(msg.nonce);
  return MakeFrame(type, std::move(w));
}

Result<PingMsg> DecodeNonce(const Frame& f, std::uint8_t expected, const char* what) {
  Status ts = CheckFrameType(f, expected, what);
  if (!ts.ok()) return ts;
  WireReader r(f.payload);
  PingMsg msg;
  Result<std::uint64_t> nonce = r.U64();
  if (!nonce.ok()) return nonce.status();
  msg.nonce = *nonce;
  Status s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

}  // namespace

Frame EncodePing(const PingMsg& msg) {
  return EncodeNonce(static_cast<std::uint8_t>(WireRequest::kPing), msg);
}

Result<PingMsg> DecodePing(const Frame& f) {
  return DecodeNonce(f, static_cast<std::uint8_t>(WireRequest::kPing), "ping");
}

Frame EncodePong(const PingMsg& msg) {
  return EncodeNonce(static_cast<std::uint8_t>(WireResponse::kPong), msg);
}

Result<PingMsg> DecodePong(const Frame& f) {
  return DecodeNonce(f, static_cast<std::uint8_t>(WireResponse::kPong), "pong");
}

Frame EncodeOverloaded(const OverloadedMsg& msg) {
  WireWriter w;
  w.U32(msg.retry_after_ms);
  return MakeFrame(static_cast<std::uint8_t>(WireResponse::kOverloaded), std::move(w));
}

Result<OverloadedMsg> DecodeOverloaded(const Frame& f) {
  Status ts =
      CheckFrameType(f, static_cast<std::uint8_t>(WireResponse::kOverloaded), "overloaded");
  if (!ts.ok()) return ts;
  WireReader r(f.payload);
  OverloadedMsg msg;
  Result<std::uint32_t> retry_after = r.U32();
  if (!retry_after.ok()) return retry_after.status();
  msg.retry_after_ms = *retry_after;
  Status s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

Frame EncodeError(const ErrorMsg& msg) {
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(msg.code));
  std::string_view m = msg.message;
  if (m.size() > kMaxErrorMessageBytes) m = m.substr(0, kMaxErrorMessageBytes);
  w.String(m);
  return MakeFrame(static_cast<std::uint8_t>(WireResponse::kError), std::move(w));
}

Result<ErrorMsg> DecodeError(const Frame& f) {
  Status ts = CheckFrameType(f, static_cast<std::uint8_t>(WireResponse::kError), "error");
  if (!ts.ok()) return ts;
  WireReader r(f.payload);
  ErrorMsg msg;
  Result<std::uint8_t> code = r.U8();
  if (!code.ok()) return code.status();
  if (*code > static_cast<std::uint8_t>(kMaxStatusCode)) {
    return Status::InvalidArgument("unknown status code byte " + std::to_string(int{*code}));
  }
  msg.code = static_cast<StatusCode>(*code);
  Result<std::string> message = r.String(kMaxErrorMessageBytes);
  if (!message.ok()) return message.status();
  msg.message = *std::move(message);
  Status s = r.Finish();
  if (!s.ok()) return s;
  return msg;
}

std::vector<std::uint8_t> SerializeFrame(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(6 + f.payload.size());
  std::uint32_t len = static_cast<std::uint32_t>(f.payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  out.push_back(f.version);
  out.push_back(f.type);
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

}  // namespace diffc::net
