#ifndef DIFFC_NET_WIRE_H_
#define DIFFC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/constraint.h"
#include "core/premise_masks.h"
#include "net/cursor.h"
#include "util/status.h"

namespace diffc::net {

/// The diffcd wire protocol: length-prefixed binary frames over a stream
/// socket (TCP or Unix). Every frame is
///
///     [u32 payload_len][u8 version][u8 type][payload: payload_len bytes]
///
/// with all integers little-endian. `payload_len` counts only the payload
/// (not the 6-byte header) and is capped at `kMaxFramePayload`; a peer
/// declaring a larger frame is malformed and the connection is closed
/// after a typed error frame — the length is rejected *before* any
/// allocation, so a hostile 4 GiB declaration costs nothing. A version
/// mismatch or unknown type byte is handled the same way. A stream that
/// ends mid-frame decodes as InvalidArgument ("truncated"), never as a
/// hang or a partial message.
///
/// Payload scalars are fixed-width little-endian; variable-size fields
/// (strings, constraint lists) carry a length prefix with a hard cap each,
/// and every attribute mask is validated against the message's universe
/// size as it is read — out-of-range attribute indices are rejected at the
/// boundary (see DESIGN.md §11).

/// Protocol version carried by every frame, and the only one this build
/// speaks: `ReadFrame` rejects any other version byte. v2 added the
/// CHECK_BATCH idempotency nonce and the OVERLOADED reply. v3 added the
/// trace context (16-byte trace id + 8-byte parent span id + sampling flag)
/// to REGISTER_PREMISES / CHECK_BATCH requests and its echo (trace id +
/// server span id + flag) to their replies.
inline constexpr std::uint8_t kWireVersion = 3;

/// Hard cap on a frame payload, checked before allocation.
inline constexpr std::uint32_t kMaxFramePayload = 4u << 20;  // 4 MiB

/// Caps on variable-size message fields (defense against absurd-but-
/// under-the-frame-cap declarations).
inline constexpr std::uint32_t kMaxConstraintsPerMessage = 1u << 16;
inline constexpr std::uint32_t kMaxFamilyMembers = 1u << 12;
inline constexpr std::uint32_t kMaxErrorMessageBytes = 1u << 12;

/// Cap on `CheckBatchMsg::deadline_ms`: one day. A wire value becomes a
/// nanosecond clock offset, which overflows int64 past ~9.2·10^12 ms.
inline constexpr std::uint64_t kMaxDeadlineMs = 24ull * 60 * 60 * 1000;

/// Client-to-server message types. Every enumerator has a
/// `WireRequestName` case and a `DiffcdServer::Dispatch` case (both
/// enforced by -Werror=switch).
enum class WireRequest : std::uint8_t {
  kPing = 0x01,              // liveness probe; echoes a nonce
  kRegisterPremises = 0x02,  // compile a premise set into a server handle
  kCheckBatch = 0x03,        // stream an implication batch against a handle
  kRelease = 0x04,           // drop a handle
};

/// Server-to-client message types (disjoint byte range from requests, so a
/// direction mix-up can never parse).
enum class WireResponse : std::uint8_t {
  kPong = 0x11,
  kRegisterOk = 0x12,
  kBatchResult = 0x13,
  kReleaseOk = 0x14,
  kOverloaded = 0x15,
  kError = 0x7F,
};

/// Stable names ("ping", "check-batch", ...) for stats and traces.
const char* WireRequestName(WireRequest t);
const char* WireResponseName(WireResponse t);

/// True iff `t` is a declared `WireRequest` enumerator.
bool IsKnownRequest(std::uint8_t t);

/// One decoded frame: the type byte, the version byte it was (or will be)
/// framed with — always `kWireVersion` on a frame `ReadFrame` returns —
/// and the raw payload.
struct Frame {
  std::uint8_t type = 0;
  std::uint8_t version = kWireVersion;
  std::vector<std::uint8_t> payload;
};

/// The fixed 6 bytes in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 6;

/// A decoded (and validated) frame header.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
};

/// Decodes the 6-byte frame header out of `data` and enforces the header
/// contract before anything is allocated: the version byte must equal
/// `kWireVersion` and the declared payload length stay under
/// `kMaxFramePayload`. InvalidArgument on a short buffer, any other
/// version, or an oversized declaration — the same Status
/// `ReadFrame` surfaces, shared so the fuzz harness exercises the exact
/// production path.
Status DecodeFrameHeader(const std::uint8_t* data, std::size_t size, FrameHeader* out);

/// The trace context carried by REGISTER_PREMISES / CHECK_BATCH frames
/// and echoed (with the responder's span id as `parent_span_id`) in their
/// replies. A zero trace id means "no context"; the server then mints one.
struct TraceContext {
  /// 16-byte trace id as two u64 halves (hi rendered first).
  std::uint64_t trace_id_hi = 0;
  std::uint64_t trace_id_lo = 0;
  /// Requests: the sender's span the server span should parent under.
  /// Replies: the server span id, so the client can point at it.
  std::uint64_t parent_span_id = 0;
  /// Head-sampling decision, propagated so both sides store the trace.
  bool sampled = false;

  bool valid() const { return trace_id_hi != 0 || trace_id_lo != 0; }

  /// 32 lower-case hex digits, hi half first (matches /tracez).
  std::string IdHex() const;
};

/// Appends little-endian scalars and length-prefixed blobs to a payload.
class WireWriter {
 public:
  /// Makes room for `bytes` more bytes, so an encoder that knows its size
  /// allocates once.
  void Reserve(std::size_t bytes) { out_.reserve(out_.size() + bytes); }
  void U8(std::uint8_t v) { out_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  /// u32 length + bytes.
  void String(std::string_view s);

  std::vector<std::uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reads over a payload. Every read reports
/// truncation as InvalidArgument instead of walking off the buffer, and
/// `Finish()` rejects trailing garbage. All byte access goes through the
/// `ByteCursor` (net/cursor.h) — this class only adds the typed-Status
/// vocabulary the codecs speak.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& payload) : cur_(payload) {}

  Result<std::uint8_t> U8();
  Result<std::uint32_t> U32();
  Result<std::uint64_t> U64();
  /// Reads a u32 length (capped at `max_bytes`) + bytes.
  Result<std::string> String(std::uint32_t max_bytes);

  /// OK iff the payload was consumed exactly.
  Status Finish() const;

  std::size_t remaining() const { return cur_.remaining(); }

 private:
  ByteCursor cur_;
};

// ---------------------------------------------------------------- messages

/// REGISTER_PREMISES: compile `premises` over an `n`-attribute universe
/// into a server-side `PreparedPremises` handle. The premises travel as
/// the arena the engine prepares from: the client compiles its set once,
/// the decoder fills an arena whose families are sorted and unique, and
/// the server hands that arena to `ImplicationEngine::Prepare`.
struct RegisterPremisesMsg {
  int n = 0;
  PremiseMasks premises;
  /// The caller's trace context.
  TraceContext trace;
};

/// Reply: the handle and the size of the canonicalized set.
struct RegisterOkMsg {
  std::uint64_t handle = 0;
  std::uint32_t canonical_constraints = 0;
  /// Trace id echo; `parent_span_id` is the server span id.
  TraceContext trace;
};

/// CHECK_BATCH: decide `handle's premises |= goals[i]` for every goal.
/// `n` must match the handle's universe (revalidated server-side);
/// `deadline_ms` (0 = none, at most `kMaxDeadlineMs`) bounds the whole
/// batch server-side.
/// `nonce` (0 = none) makes the request idempotent: the server caches the
/// reply keyed by nonce, so a client retry of a batch whose reply was
/// lost gets the original answer back instead of a second execution (and
/// a second admission-quota charge).
struct CheckBatchMsg {
  std::uint64_t handle = 0;
  std::uint64_t deadline_ms = 0;
  std::uint64_t nonce = 0;
  int n = 0;
  std::vector<DifferentialConstraint> goals;
  /// The caller's trace context.
  TraceContext trace;
};

/// One per-goal answer: the engine's per-query status, verdict, and
/// counterexample, index-aligned with the request's goals.
struct WireQueryResult {
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  /// ImplicationOutcome::Verdict as a byte.
  std::uint8_t verdict = 0;
  bool has_counterexample = false;
  std::uint64_t counterexample = 0;
};

/// The aggregate counters mirrored from `BatchStats` (the wire subset).
struct WireBatchStats {
  std::uint64_t queries = 0;
  std::uint64_t implied = 0;
  std::uint64_t not_implied = 0;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t batch_wall_ns = 0;
};

struct BatchResultMsg {
  std::vector<WireQueryResult> results;
  WireBatchStats stats;
  /// Trace id echo; `parent_span_id` is the server span id.
  TraceContext trace;
};

struct ReleaseMsg {
  std::uint64_t handle = 0;
};

struct PingMsg {
  std::uint64_t nonce = 0;
};

/// OVERLOADED: the server shed this request — the admission cap on
/// in-flight batches, or a duplicate of a still-executing retry nonce.
/// `retry_after_ms` (0 = client's choice) is the server's backoff hint,
/// derived from its EWMA batch latency; `DiffcClient`'s retry schedule
/// never retries sooner than the hint.
struct OverloadedMsg {
  std::uint32_t retry_after_ms = 0;

  /// The Status a client surfaces when its retries exhaust on shed
  /// replies (ResourceExhausted, matching direct admission rejections).
  Status ToStatus() const {
    return Status::ResourceExhausted(
        "server overloaded; retry after " + std::to_string(retry_after_ms) + "ms");
  }
};

/// ERROR: a typed failure — the `Status` the server rejected the request
/// with, round-tripped so `DiffcClient` surfaces the original code
/// (InvalidArgument for malformed input, ResourceExhausted for admission
/// rejections, NotFound for unknown handles, ...).
struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const { return Status(code, message); }
  static ErrorMsg FromStatus(const Status& s) {
    return ErrorMsg{s.code(), s.message()};
  }
};

// ----------------------------------------------------------- frame codecs

/// Encoders frame at `kWireVersion`; the four trace-carrying messages end
/// with the 25-byte trace context.
Frame EncodeRegisterPremises(const RegisterPremisesMsg& msg);
Frame EncodeRegisterOk(const RegisterOkMsg& msg);
Frame EncodeCheckBatch(const CheckBatchMsg& msg);
Frame EncodeBatchResult(const BatchResultMsg& msg);
Frame EncodeRelease(const ReleaseMsg& msg);
Frame EncodeReleaseOk();
Frame EncodePing(const PingMsg& msg);
Frame EncodePong(const PingMsg& msg);
Frame EncodeOverloaded(const OverloadedMsg& msg);
Frame EncodeError(const ErrorMsg& msg);

/// Decoders verify the frame type, every field bound, and (for constraint
/// payloads) that each attribute mask fits the declared universe — the
/// wire is the trust boundary. Both constraint lists decode into a
/// `PremiseMasks` arena with each family sorted and deduplicated in place;
/// CHECK_BATCH materializes its goals from it.
Result<RegisterPremisesMsg> DecodeRegisterPremises(const Frame& f);
Result<RegisterOkMsg> DecodeRegisterOk(const Frame& f);
Result<CheckBatchMsg> DecodeCheckBatch(const Frame& f);
Result<BatchResultMsg> DecodeBatchResult(const Frame& f);
Result<ReleaseMsg> DecodeRelease(const Frame& f);
Result<PingMsg> DecodePing(const Frame& f);
Result<PingMsg> DecodePong(const Frame& f);
Result<OverloadedMsg> DecodeOverloaded(const Frame& f);
Result<ErrorMsg> DecodeError(const Frame& f);

/// Serializes `f` as header + payload bytes (the exact octets WriteFrame
/// puts on the wire), for tests and buffering.
std::vector<std::uint8_t> SerializeFrame(const Frame& f);

}  // namespace diffc::net

#endif  // DIFFC_NET_WIRE_H_
