// Wire-protocol codec and framing tests: round-trips for every message
// type, and the malformed-input matrix the boundary owes us — oversized
// declared lengths, bad version bytes, truncated payloads, out-of-range
// universe sizes and attribute masks, trailing garbage.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/constraint.h"
#include "lattice/set_family.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/bitops.h"

namespace diffc::net {
namespace {

DifferentialConstraint MakeConstraint(std::initializer_list<int> lhs,
                                      std::vector<ItemSet> members) {
  return DifferentialConstraint(ItemSet(lhs), SetFamily(std::move(members)));
}

// ------------------------------------------------------------- round trips

TEST(WireCodecTest, PingRoundTrip) {
  PingMsg msg;
  msg.nonce = 0xDEADBEEFCAFEF00Dull;
  Result<PingMsg> decoded = DecodePing(EncodePing(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nonce, msg.nonce);

  Result<PingMsg> pong = DecodePong(EncodePong(msg));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->nonce, msg.nonce);
}

TEST(WireCodecTest, RegisterPremisesRoundTrip) {
  const ConstraintSet premises = {MakeConstraint({0}, {ItemSet{1}, ItemSet{2, 3}}),
                                  MakeConstraint({1, 4}, {ItemSet{0}}),
                                  MakeConstraint({2}, {})};
  RegisterPremisesMsg msg;
  msg.n = 5;
  msg.premises = PremiseMasks::Compile(premises);
  Result<RegisterPremisesMsg> decoded = DecodeRegisterPremises(EncodeRegisterPremises(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->n, 5);
  const ConstraintSet got = decoded->premises.Materialize();
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < premises.size(); ++i) {
    EXPECT_EQ(got[i].lhs(), premises[i].lhs());
    EXPECT_EQ(got[i].rhs(), premises[i].rhs());
  }
}

TEST(WireCodecTest, CheckBatchRoundTrip) {
  CheckBatchMsg msg;
  msg.handle = 7;
  msg.deadline_ms = 1500;
  msg.n = 6;
  msg.goals = {MakeConstraint({0, 1}, {ItemSet{2}}), MakeConstraint({3}, {ItemSet{4, 5}})};
  Result<CheckBatchMsg> decoded = DecodeCheckBatch(EncodeCheckBatch(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->handle, 7u);
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  EXPECT_EQ(decoded->n, 6);
  ASSERT_EQ(decoded->goals.size(), 2u);
  EXPECT_EQ(decoded->goals[0].lhs(), msg.goals[0].lhs());
  EXPECT_EQ(decoded->goals[1].rhs(), msg.goals[1].rhs());
}

TEST(WireCodecTest, CheckBatchDeadlineCap) {
  // The cap itself decodes; one past it and UINT64_MAX (which would wrap
  // to a negative clock offset) are rejected like the decoder's other caps.
  CheckBatchMsg msg;
  msg.handle = 7;
  msg.n = 2;
  msg.goals = {MakeConstraint({0}, {ItemSet{1}})};
  msg.deadline_ms = kMaxDeadlineMs;
  Result<CheckBatchMsg> at_cap = DecodeCheckBatch(EncodeCheckBatch(msg));
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->deadline_ms, kMaxDeadlineMs);
  for (const std::uint64_t over : {kMaxDeadlineMs + 1, ~std::uint64_t{0}}) {
    msg.deadline_ms = over;
    Result<CheckBatchMsg> decoded = DecodeCheckBatch(EncodeCheckBatch(msg));
    ASSERT_FALSE(decoded.ok()) << over;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << over;
    EXPECT_NE(decoded.status().message().find("cap"), std::string::npos) << over;
  }
}

TEST(WireCodecTest, BatchResultRoundTrip) {
  BatchResultMsg msg;
  WireQueryResult implied;
  implied.verdict = 1;
  WireQueryResult refuted;
  refuted.verdict = 0;
  refuted.has_counterexample = true;
  refuted.counterexample = 0b1011;
  WireQueryResult failed;
  failed.status_code = StatusCode::kDeadlineExceeded;
  failed.status_message = "budget spent";
  msg.results = {implied, refuted, failed};
  msg.stats.queries = 3;
  msg.stats.implied = 1;
  msg.stats.not_implied = 1;
  msg.stats.failed = 1;
  msg.stats.timed_out = 1;
  msg.stats.batch_wall_ns = 12345;

  Result<BatchResultMsg> decoded = DecodeBatchResult(EncodeBatchResult(msg));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->results.size(), 3u);
  EXPECT_EQ(decoded->results[0].verdict, 1);
  EXPECT_FALSE(decoded->results[0].has_counterexample);
  EXPECT_TRUE(decoded->results[1].has_counterexample);
  EXPECT_EQ(decoded->results[1].counterexample, 0b1011u);
  EXPECT_EQ(decoded->results[2].status_code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->results[2].status_message, "budget spent");
  EXPECT_EQ(decoded->stats.queries, 3u);
  EXPECT_EQ(decoded->stats.timed_out, 1u);
  EXPECT_EQ(decoded->stats.batch_wall_ns, 12345u);
}

TEST(WireCodecTest, BatchResultEncodeTruncatesOversizedStatusMessages) {
  // An engine status longer than kMaxErrorMessageBytes must be truncated
  // at encode time — otherwise every conforming decoder would reject the
  // server's own reply as malformed.
  BatchResultMsg msg;
  WireQueryResult failed;
  failed.status_code = StatusCode::kInternal;
  failed.status_message = std::string(kMaxErrorMessageBytes + 500, 'x');
  msg.results = {failed};

  Result<BatchResultMsg> decoded = DecodeBatchResult(EncodeBatchResult(msg));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->results.size(), 1u);
  EXPECT_EQ(decoded->results[0].status_message.size(), std::size_t{kMaxErrorMessageBytes});
  EXPECT_EQ(decoded->results[0].status_code, StatusCode::kInternal);
}

TEST(WireCodecTest, BatchResultEncodeStaysUnderFrameCapWithManyFailures) {
  // Enough failed results that even per-message-capped text would blow
  // kMaxFramePayload: the encoder must shrink the per-message cap so the
  // whole reply still frames and decodes. 1100 x ~4 KiB > 4 MiB.
  const std::size_t count = 1100;
  BatchResultMsg msg;
  msg.results.reserve(count);
  WireQueryResult failed;
  failed.status_code = StatusCode::kDeadlineExceeded;
  failed.status_message = std::string(kMaxErrorMessageBytes, 'y');
  for (std::size_t i = 0; i < count; ++i) msg.results.push_back(failed);
  msg.stats.queries = count;
  msg.stats.failed = count;

  Frame reply = EncodeBatchResult(msg);
  EXPECT_LE(reply.payload.size(), std::size_t{kMaxFramePayload});
  Result<BatchResultMsg> decoded = DecodeBatchResult(reply);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->results.size(), count);
  // Messages shrank uniformly (never grew), and some diagnostic text
  // survived.
  EXPECT_LT(decoded->results[0].status_message.size(), std::size_t{kMaxErrorMessageBytes});
  EXPECT_GT(decoded->results[0].status_message.size(), 0u);
  EXPECT_EQ(decoded->results[0].status_message,
            decoded->results[count - 1].status_message);
  EXPECT_EQ(decoded->stats.failed, count);
}

TEST(WireCodecTest, ReleaseAndErrorRoundTrip) {
  ReleaseMsg rel;
  rel.handle = 99;
  Result<ReleaseMsg> decoded_rel = DecodeRelease(EncodeRelease(rel));
  ASSERT_TRUE(decoded_rel.ok());
  EXPECT_EQ(decoded_rel->handle, 99u);

  Status original = Status::ResourceExhausted("server at capacity");
  Result<ErrorMsg> err = DecodeError(EncodeError(ErrorMsg::FromStatus(original)));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(err->ToStatus().message(), "server at capacity");
}

TEST(WireCodecTest, FullUniverseMasksRoundTripAtN64) {
  // The n = 64 boundary: FullMask(64) masks must survive the wire intact.
  RegisterPremisesMsg msg;
  msg.n = 64;
  msg.premises = PremiseMasks::Compile({DifferentialConstraint(
      ItemSet(FullMask(64)), SetFamily({ItemSet(Mask{1} << 63)}))});
  Result<RegisterPremisesMsg> decoded = DecodeRegisterPremises(EncodeRegisterPremises(msg));
  ASSERT_TRUE(decoded.ok());
  const PremiseMasks::Premise& p = decoded->premises.premises[0];
  EXPECT_EQ(p.lhs, ~Mask{0});
  EXPECT_EQ(decoded->premises.family(p)[0], Mask{1} << 63);
}

// ------------------------------------------------ trace context (wire v3)

TEST(WireCodecTest, TraceContextRoundTripsAtV3) {
  TraceContext tc;
  tc.trace_id_hi = 0xA1A2A3A4A5A6A7A8ull;
  tc.trace_id_lo = 0xB1B2B3B4B5B6B7B8ull;
  tc.parent_span_id = 0xC1C2C3C4C5C6C7C8ull;
  tc.sampled = true;
  ASSERT_TRUE(tc.valid());
  EXPECT_EQ(tc.IdHex(), "a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8");

  CheckBatchMsg msg;
  msg.handle = 7;
  msg.n = 4;
  msg.goals = {MakeConstraint({0}, {ItemSet{1}})};
  msg.trace = tc;
  Frame f = EncodeCheckBatch(msg);
  EXPECT_EQ(f.version, kWireVersion);
  Result<CheckBatchMsg> decoded = DecodeCheckBatch(f);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace.trace_id_hi, tc.trace_id_hi);
  EXPECT_EQ(decoded->trace.trace_id_lo, tc.trace_id_lo);
  EXPECT_EQ(decoded->trace.parent_span_id, tc.parent_span_id);
  EXPECT_TRUE(decoded->trace.sampled);

  RegisterPremisesMsg reg;
  reg.n = 4;
  reg.trace = tc;
  Result<RegisterPremisesMsg> reg_decoded = DecodeRegisterPremises(EncodeRegisterPremises(reg));
  ASSERT_TRUE(reg_decoded.ok());
  EXPECT_EQ(reg_decoded->trace.trace_id_lo, tc.trace_id_lo);

  RegisterOkMsg ok;
  ok.handle = 3;
  ok.trace = tc;
  Result<RegisterOkMsg> ok_decoded = DecodeRegisterOk(EncodeRegisterOk(ok));
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_EQ(ok_decoded->trace.parent_span_id, tc.parent_span_id);

  BatchResultMsg res;
  res.trace = tc;
  Result<BatchResultMsg> res_decoded = DecodeBatchResult(EncodeBatchResult(res));
  ASSERT_TRUE(res_decoded.ok());
  EXPECT_EQ(res_decoded->trace.trace_id_hi, tc.trace_id_hi);
}

TEST(WireCodecTest, CorruptSampledByteRejected) {
  CheckBatchMsg msg;
  msg.handle = 1;
  msg.n = 4;
  msg.goals = {MakeConstraint({0}, {ItemSet{1}})};
  msg.trace.trace_id_hi = 1;
  msg.trace.trace_id_lo = 2;
  Frame f = EncodeCheckBatch(msg);
  // The sampled flag is the final payload byte; anything but 0/1 is
  // malformed.
  f.payload.back() = 2;
  Result<CheckBatchMsg> decoded = DecodeCheckBatch(f);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- malformed input

Frame TamperedPing() { return EncodePing(PingMsg{42}); }

TEST(WireCodecTest, WrongFrameTypeRejected) {
  Frame ping = TamperedPing();
  EXPECT_FALSE(DecodeRelease(ping).ok());
  EXPECT_FALSE(DecodeCheckBatch(ping).ok());
  EXPECT_EQ(DecodeRelease(ping).status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, TrailingGarbageRejected) {
  Frame ping = TamperedPing();
  ping.payload.push_back(0xFF);
  Result<PingMsg> decoded = DecodePing(ping);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, TruncatedPayloadRejected) {
  Frame ping = TamperedPing();
  ping.payload.pop_back();
  EXPECT_FALSE(DecodePing(ping).ok());

  CheckBatchMsg batch;
  batch.handle = 1;
  batch.n = 4;
  batch.goals = {MakeConstraint({0}, {ItemSet{1}})};
  Frame f = EncodeCheckBatch(batch);
  f.payload.resize(f.payload.size() / 2);
  EXPECT_FALSE(DecodeCheckBatch(f).ok());
}

TEST(WireCodecTest, UniverseSizeOver64Rejected) {
  // Wire-side of the Universe::Letters truncation fix: n = 65 is refused
  // outright, never clamped.
  RegisterPremisesMsg msg;
  msg.n = 65;
  Frame f = EncodeRegisterPremises(msg);
  Result<RegisterPremisesMsg> decoded = DecodeRegisterPremises(f);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("64"), std::string::npos);
}

TEST(WireCodecTest, OutOfUniverseMaskRejected) {
  // A goal whose mask has bits past the declared n: rejected before any
  // ItemSet reaches the engine (the ItemSet boundary contract).
  CheckBatchMsg msg;
  msg.handle = 1;
  msg.n = 4;
  msg.goals = {MakeConstraint({0}, {ItemSet{1}})};
  Frame f = EncodeCheckBatch(msg);
  // The lhs mask u64 sits after handle (8) + deadline (8) + nonce (8) +
  // n (1) + count (4) = 29 bytes; set a bit far outside n = 4.
  ASSERT_GT(f.payload.size(), 36u);
  f.payload[29 + 7] = 0x80;  // bit 63 of the little-endian lhs mask
  Result<CheckBatchMsg> decoded = DecodeCheckBatch(f);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("outside"), std::string::npos);
}

TEST(WireCodecTest, AbsurdFamilyCountRejected) {
  // A family-member count past the cap must fail fast on the declared
  // count, not by walking off the truncated payload.
  WireWriter w;
  w.U8(4);                        // n
  w.U32(1);                       // one constraint
  w.U64(0b1);                     // lhs
  w.U32(kMaxFamilyMembers + 1);   // family count over the cap
  Frame f{static_cast<std::uint8_t>(WireRequest::kRegisterPremises), kWireVersion,
          std::move(w).Take()};
  Result<RegisterPremisesMsg> decoded = DecodeRegisterPremises(f);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("cap"), std::string::npos);
}

// -------------------------------------------- cap symmetry at the boundary
//
// The caps are a two-party contract: whatever the encoder lets through,
// every conforming decoder must accept, and one byte past the cap must be
// truncated (encoder) or rejected (decoder) — on both the client and the
// server side of each message.

TEST(CapSymmetryTest, ErrorMessageAtExactCapRoundTripsUntruncated) {
  ErrorMsg msg;
  msg.code = StatusCode::kInternal;
  msg.message = std::string(kMaxErrorMessageBytes, 'e');
  Result<ErrorMsg> decoded = DecodeError(EncodeError(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->message.size(), std::size_t{kMaxErrorMessageBytes});
  EXPECT_EQ(decoded->message, msg.message);
}

TEST(CapSymmetryTest, ErrorMessageOneOverCapIsTruncatedByEncoder) {
  ErrorMsg msg;
  msg.code = StatusCode::kUnavailable;
  msg.message = std::string(kMaxErrorMessageBytes + 1, 'e');
  Result<ErrorMsg> decoded = DecodeError(EncodeError(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->message.size(), std::size_t{kMaxErrorMessageBytes});
}

TEST(CapSymmetryTest, ErrorDecoderRejectsDeclaredLengthOneOverCap) {
  // A non-conforming encoder that declares kMaxErrorMessageBytes + 1 must
  // be refused on the declared length, before the body is consumed.
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(StatusCode::kInternal));
  w.String(std::string(kMaxErrorMessageBytes + 1, 'x'));
  Frame f{static_cast<std::uint8_t>(WireResponse::kError), kWireVersion,
          std::move(w).Take()};
  Result<ErrorMsg> decoded = DecodeError(f);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("cap"), std::string::npos);
}

TEST(CapSymmetryTest, BatchResultStatusMessageAtExactCapAcceptedOneOverRejected) {
  // Same boundary on the reply path the client decodes: a result whose
  // status_message is exactly at the cap is legal; a declared length one
  // past it is malformed.
  BatchResultMsg msg;
  WireQueryResult failed;
  failed.status_code = StatusCode::kInternal;
  failed.status_message = std::string(kMaxErrorMessageBytes, 'm');
  msg.results = {failed};
  Result<BatchResultMsg> decoded = DecodeBatchResult(EncodeBatchResult(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->results[0].status_message.size(),
            std::size_t{kMaxErrorMessageBytes});

  WireWriter w;
  w.U32(1);  // one result
  w.U8(static_cast<std::uint8_t>(StatusCode::kInternal));
  w.String(std::string(kMaxErrorMessageBytes + 1, 'm'));
  w.U8(2);   // verdict: failed
  w.U8(0);   // no counterexample
  w.U64(0);
  for (int i = 0; i < 8; ++i) w.U64(0);  // stats
  Frame f{static_cast<std::uint8_t>(WireResponse::kBatchResult), kWireVersion,
          std::move(w).Take()};
  Result<BatchResultMsg> rejected = DecodeBatchResult(f);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("cap"), std::string::npos);
}

// ------------------------------------------------- frame header contract

TEST(FrameHeaderTest, ValidHeaderParses) {
  std::uint8_t bytes[kFrameHeaderBytes] = {0x0D, 0xF0, 0x00, 0x00, kWireVersion,
                                           static_cast<std::uint8_t>(WireRequest::kCheckBatch)};
  FrameHeader head;
  ASSERT_TRUE(DecodeFrameHeader(bytes, sizeof(bytes), &head).ok());
  EXPECT_EQ(head.payload_len, 0xF00Du);
  EXPECT_EQ(head.version, kWireVersion);
  EXPECT_EQ(head.type, static_cast<std::uint8_t>(WireRequest::kCheckBatch));
}

TEST(FrameHeaderTest, ShortBufferIsTruncated) {
  std::uint8_t bytes[kFrameHeaderBytes] = {0, 0, 0, 0, kWireVersion, 0};
  FrameHeader head;
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    Status s = DecodeFrameHeader(bytes, len, &head);
    ASSERT_FALSE(s.ok()) << "header of " << len << " bytes must not parse";
    EXPECT_NE(s.message().find("truncated"), std::string::npos);
  }
}

TEST(FrameHeaderTest, VersionWindowIsClosedOnBothSides) {
  // The window is the one version this build speaks.
  FrameHeader head;
  std::uint8_t low[kFrameHeaderBytes] = {0, 0, 0, 0, kWireVersion - 1, 0};
  Status s = DecodeFrameHeader(low, sizeof(low), &head);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos);

  std::uint8_t high[kFrameHeaderBytes] = {0, 0, 0, 0, kWireVersion + 1, 0};
  s = DecodeFrameHeader(high, sizeof(high), &head);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(FrameHeaderTest, PayloadCapBoundary) {
  // len == kMaxFramePayload is the last legal value; one more is refused.
  // This is the shared gate for both directions — client and server frame
  // reads run through the same DecodeFrameHeader.
  auto header_with_len = [](std::uint32_t len) {
    std::vector<std::uint8_t> bytes(kFrameHeaderBytes, 0);
    for (int i = 0; i < 4; ++i) bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
    bytes[4] = kWireVersion;
    bytes[5] = static_cast<std::uint8_t>(WireRequest::kPing);
    return bytes;
  };
  FrameHeader head;
  std::vector<std::uint8_t> at_cap = header_with_len(kMaxFramePayload);
  ASSERT_TRUE(DecodeFrameHeader(at_cap.data(), at_cap.size(), &head).ok());
  EXPECT_EQ(head.payload_len, kMaxFramePayload);

  std::vector<std::uint8_t> over = header_with_len(kMaxFramePayload + 1);
  Status s = DecodeFrameHeader(over.data(), over.size(), &head);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("cap"), std::string::npos);
}

// --------------------------------------- trace-context truncation matrix
//
// A trace-carrying frame carries exactly kTraceContextBytes (25) of trace
// context at the payload tail. Cutting the frame at every point inside
// those 25 bytes must be InvalidArgument — for the request codecs the
// server runs and the reply codecs the client runs alike. Keeping none of
// them is the pre-v3 payload layout, which is malformed, not lenient.
// (Leaving all 25 intact is the round-trip case, pinned here too so the
// loop bounds are honest.)

void ExpectTraceCutPointsRejected(
    const Frame& v3, const std::function<Status(const Frame&)>& decode) {
  ASSERT_GE(v3.payload.size(), std::size_t{25});
  const std::size_t base = v3.payload.size() - 25;
  for (std::size_t kept = 0; kept < 25; ++kept) {
    Frame cut = v3;
    cut.payload.resize(base + kept);
    Status s = decode(cut);
    ASSERT_FALSE(s.ok()) << "decode with " << kept << "/25 trace bytes must fail";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "kept=" << kept;
  }
  EXPECT_TRUE(decode(v3).ok());
}

TEST(TraceCutPointTest, RegisterPremisesRequest) {
  RegisterPremisesMsg msg;
  msg.n = 4;
  msg.premises = PremiseMasks::Compile({MakeConstraint({0}, {ItemSet{1}})});
  msg.trace.trace_id_hi = 1;
  msg.trace.trace_id_lo = 2;
  msg.trace.parent_span_id = 3;
  ExpectTraceCutPointsRejected(EncodeRegisterPremises(msg), [](const Frame& f) {
    return DecodeRegisterPremises(f).status();
  });
}

TEST(TraceCutPointTest, CheckBatchRequest) {
  CheckBatchMsg msg;
  msg.handle = 5;
  msg.n = 4;
  msg.goals = {MakeConstraint({0}, {ItemSet{1}})};
  msg.trace.trace_id_hi = 1;
  msg.trace.trace_id_lo = 2;
  ExpectTraceCutPointsRejected(EncodeCheckBatch(msg), [](const Frame& f) {
    return DecodeCheckBatch(f).status();
  });
}

TEST(TraceCutPointTest, RegisterOkReply) {
  RegisterOkMsg msg;
  msg.handle = 11;
  msg.trace.trace_id_hi = 1;
  msg.trace.trace_id_lo = 2;
  ExpectTraceCutPointsRejected(EncodeRegisterOk(msg), [](const Frame& f) {
    return DecodeRegisterOk(f).status();
  });
}

TEST(TraceCutPointTest, BatchResultReply) {
  BatchResultMsg msg;
  WireQueryResult implied;
  implied.verdict = 1;
  msg.results = {implied};
  msg.stats.queries = 1;
  msg.trace.trace_id_hi = 1;
  msg.trace.trace_id_lo = 2;
  ExpectTraceCutPointsRejected(EncodeBatchResult(msg), [](const Frame& f) {
    return DecodeBatchResult(f).status();
  });
}

TEST(WireCodecTest, SerializedHeaderLayout) {
  Frame ping = TamperedPing();
  std::vector<std::uint8_t> bytes = SerializeFrame(ping);
  ASSERT_EQ(bytes.size(), 6u + ping.payload.size());
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t{bytes[i]} << (8 * i);
  EXPECT_EQ(len, ping.payload.size());
  EXPECT_EQ(bytes[4], kWireVersion);
  EXPECT_EQ(bytes[5], static_cast<std::uint8_t>(WireRequest::kPing));
}

// ----------------------------------------------------------------- framing
//
// ReadFrame over a socketpair: the header contract (version byte, length
// cap, truncation) is enforced before any payload allocation.

struct SocketPair {
  Socket a;
  Socket b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(FramingTest, FrameRoundTripOverSocket) {
  SocketPair pair;
  Frame sent = EncodePing(PingMsg{1234});
  ASSERT_TRUE(WriteFrame(pair.a, sent).ok());
  Frame got;
  bool clean_eof = true;
  ASSERT_TRUE(ReadFrame(pair.b, &got, &clean_eof).ok());
  EXPECT_FALSE(clean_eof);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.payload, sent.payload);
}

TEST(FramingTest, CleanEofBetweenFrames) {
  SocketPair pair;
  pair.a.Close();
  Frame got;
  bool clean_eof = false;
  ASSERT_TRUE(ReadFrame(pair.b, &got, &clean_eof).ok());
  EXPECT_TRUE(clean_eof);
}

TEST(FramingTest, OversizedDeclaredLengthRejectedBeforeAllocation) {
  SocketPair pair;
  // Header declaring a payload one byte over the cap; no payload follows.
  const std::uint32_t len = kMaxFramePayload + 1;
  std::uint8_t header[6];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  header[4] = kWireVersion;
  header[5] = static_cast<std::uint8_t>(WireRequest::kPing);
  ASSERT_TRUE(pair.a.SendAll(header, sizeof(header)).ok());
  Frame got;
  bool clean_eof = false;
  Status s = ReadFrame(pair.b, &got, &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("cap"), std::string::npos);
}

TEST(FramingTest, OnlyTheWireVersionIsAccepted) {
  // ReadFrame accepts exactly kWireVersion and records it on the frame;
  // the versions on either side of it are rejected with a typed error.
  {
    SocketPair pair;
    Frame sent = EncodePing(PingMsg{77});
    ASSERT_TRUE(WriteFrame(pair.a, sent).ok());
    Frame got;
    bool clean_eof = true;
    ASSERT_TRUE(ReadFrame(pair.b, &got, &clean_eof).ok());
    EXPECT_EQ(got.version, kWireVersion);
    EXPECT_EQ(got.payload, sent.payload);
  }
  for (std::uint8_t v : {static_cast<std::uint8_t>(kWireVersion - 1),
                         static_cast<std::uint8_t>(kWireVersion + 1)}) {
    SocketPair pair;
    Frame sent = EncodePing(PingMsg{77});
    sent.version = v;
    ASSERT_TRUE(WriteFrame(pair.a, sent).ok());
    Frame got;
    bool clean_eof = false;
    Status s = ReadFrame(pair.b, &got, &clean_eof);
    ASSERT_FALSE(s.ok()) << "version " << int{v};
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("version"), std::string::npos);
  }
}

TEST(FramingTest, VersionMismatchRejected) {
  SocketPair pair;
  std::uint8_t header[6] = {0, 0, 0, 0, static_cast<std::uint8_t>(kWireVersion + 1),
                            static_cast<std::uint8_t>(WireRequest::kPing)};
  ASSERT_TRUE(pair.a.SendAll(header, sizeof(header)).ok());
  Frame got;
  bool clean_eof = false;
  Status s = ReadFrame(pair.b, &got, &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(FramingTest, TruncatedHeaderIsError) {
  SocketPair pair;
  std::uint8_t partial[3] = {1, 2, 3};
  ASSERT_TRUE(pair.a.SendAll(partial, sizeof(partial)).ok());
  pair.a.Close();
  Frame got;
  bool clean_eof = false;
  Status s = ReadFrame(pair.b, &got, &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
}

TEST(FramingTest, TruncatedPayloadIsError) {
  SocketPair pair;
  Frame sent = EncodePing(PingMsg{1});
  std::vector<std::uint8_t> bytes = SerializeFrame(sent);
  // Header promises 8 payload bytes; deliver half and hang up.
  ASSERT_TRUE(pair.a.SendAll(bytes.data(), bytes.size() - 4).ok());
  pair.a.Close();
  Frame got;
  bool clean_eof = false;
  Status s = ReadFrame(pair.b, &got, &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
}

// ------------------------------------------------- errno classification
//
// The socket layer's error taxonomy, pinned at the boundary the client
// retry logic keys on: a hard peer reset is Unavailable (retryable on a
// fresh connection), an orderly-but-early close is InvalidArgument
// ("truncated", not retryable as-is), and EINTR never surfaces at all.

TEST(SocketErrnoTest, PeerResetOnRecvIsUnavailable) {
  // Linux AF_UNIX semantics: closing a socket that still has unread data
  // in its receive queue resets the peer — the peer's next recv fails
  // with ECONNRESET rather than reporting EOF. That must classify as
  // Unavailable, distinct from the InvalidArgument of a mid-frame EOF.
  SocketPair pair;
  const std::uint8_t junk[64] = {};
  ASSERT_TRUE(pair.a.SendAll(junk, sizeof(junk)).ok());
  // b closes with a's 64 bytes still queued and unread.
  pair.b.Close();
  std::uint8_t buf[16];
  bool clean_eof = false;
  Status s = pair.a.RecvAll(buf, sizeof(buf), &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.message();
  EXPECT_FALSE(clean_eof);
}

TEST(SocketErrnoTest, BrokenPipeOnSendIsUnavailable) {
  SocketPair pair;
  pair.b.Close();
  const std::uint8_t junk[64] = {};
  Status s = pair.a.SendAll(junk, sizeof(junk));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.message();
}

TEST(SocketErrnoTest, OrderlyEarlyCloseStaysInvalidArgumentNotUnavailable) {
  // The reset case above must not blur the existing truncation contract:
  // a peer that sends part of a request and closes cleanly (nothing
  // unread in its own queue) is a protocol error, not an outage.
  SocketPair pair;
  const std::uint8_t partial[4] = {1, 2, 3, 4};
  ASSERT_TRUE(pair.a.SendAll(partial, sizeof(partial)).ok());
  pair.a.Close();
  std::uint8_t buf[16];
  bool clean_eof = false;
  Status s = pair.b.RecvAll(buf, sizeof(buf), &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.message();
  EXPECT_NE(s.message().find("truncated"), std::string::npos);
}

// A loopback TCP address nothing listens on: bound, then closed.
std::string ClosedLoopbackAddress() {
  Result<Listener> listener = Listener::Bind("127.0.0.1:0");
  EXPECT_TRUE(listener.ok());
  return listener.ok() ? listener->bound_address() : "127.0.0.1:1";
}

TEST(SocketErrnoTest, RefusedOrMissingEndpointIsUnavailable) {
  // A refused TCP connect, blocking and bounded (the bounded one reads the
  // refusal back through SO_ERROR), and a Unix path nothing listens on:
  // all retryable outages, not Internal.
  std::string missing_unix = "unix:/tmp/diffc_wire_missing_";
  missing_unix += std::to_string(::getpid());
  missing_unix += ".sock";
  for (const std::string& address : {ClosedLoopbackAddress(), missing_unix}) {
    for (const int timeout_ms : {0, 250}) {
      Result<Socket> s = Connect(address, std::chrono::milliseconds(timeout_ms));
      ASSERT_FALSE(s.ok()) << address;
      EXPECT_EQ(s.status().code(), StatusCode::kUnavailable)
          << address << " timeout " << timeout_ms << ": " << s.status().ToString();
      EXPECT_EQ(s.status().message().rfind("connect " + address, 0), 0u)
          << s.status().ToString();
    }
  }
}

TEST(SocketErrnoTest, RecvTimeoutIsDeadlineExceeded) {
  SocketPair pair;
  ASSERT_TRUE(pair.b.SetRecvTimeout(std::chrono::milliseconds(50)).ok());
  std::uint8_t buf[16];
  bool clean_eof = false;
  Status s = pair.b.RecvAll(buf, sizeof(buf), &clean_eof);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.message();
}

TEST(SocketErrnoTest, EintrDuringBlockingRecvIsRetriedNotSurfaced) {
  // A signal delivered to a thread parked in recv makes the syscall fail
  // with EINTR when the handler is installed without SA_RESTART. The read
  // loop must absorb it and deliver the bytes that eventually arrive.
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // Deliberately no SA_RESTART: recv must see EINTR.
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  SocketPair pair;
  std::atomic<bool> receiving{false};
  Status result = Status::Internal("not run");
  std::uint8_t got[8] = {};
  std::thread reader([&] {
    receiving.store(true);
    bool clean_eof = false;
    result = pair.b.RecvAll(got, sizeof(got), &clean_eof);
  });
  while (!receiving.load()) std::this_thread::yield();
  // Interrupt the blocked recv several times before any data exists.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pthread_kill(reader.native_handle(), SIGUSR1);
  }
  const std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(pair.a.SendAll(payload, sizeof(payload)).ok());
  reader.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);

  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_EQ(std::memcmp(got, payload, sizeof(payload)), 0);
}

}  // namespace
}  // namespace diffc::net
