// Fuzzes `ReadFrame` — the first production code that touches bytes from
// the network — over arbitrary streams delivered through a real
// socketpair, so the recv loops, the header validation in
// `DecodeFrameHeader`, and mid-frame-EOF handling all run exactly as in
// diffcd. Frames that survive framing are handed to every decoder whose
// type byte matches, closing the loop on the full decode path.

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

#include "harness.h"
#include "net/socket.h"
#include "net/wire.h"

using namespace diffc;
using namespace diffc::net;

namespace {

// Socketpair buffers hold ~208 KiB; capping the stream below that lets the
// writer push everything before the reader starts, so no input can hang
// the harness.
constexpr std::size_t kMaxStream = 64 * 1024;

void DecodeByType(const Frame& f) {
  switch (f.type) {
    case static_cast<std::uint8_t>(WireRequest::kPing):
      fuzz::CheckRoundTrip(f, DecodePing, EncodePing);
      break;
    case static_cast<std::uint8_t>(WireRequest::kRegisterPremises):
      fuzz::CheckRoundTrip(f, DecodeRegisterPremises, EncodeRegisterPremises);
      break;
    case static_cast<std::uint8_t>(WireRequest::kCheckBatch):
      fuzz::CheckRoundTrip(f, DecodeCheckBatch, EncodeCheckBatch);
      break;
    case static_cast<std::uint8_t>(WireRequest::kRelease):
      fuzz::CheckRoundTrip(f, DecodeRelease, EncodeRelease);
      break;
    case static_cast<std::uint8_t>(WireResponse::kPong):
      fuzz::CheckRoundTrip(f, DecodePong, EncodePong);
      break;
    case static_cast<std::uint8_t>(WireResponse::kRegisterOk):
      fuzz::CheckRoundTrip(f, DecodeRegisterOk, EncodeRegisterOk);
      break;
    case static_cast<std::uint8_t>(WireResponse::kBatchResult):
      fuzz::CheckRoundTrip(f, DecodeBatchResult, EncodeBatchResult);
      break;
    case static_cast<std::uint8_t>(WireResponse::kOverloaded):
      fuzz::CheckRoundTrip(f, DecodeOverloaded, EncodeOverloaded);
      break;
    case static_cast<std::uint8_t>(WireResponse::kError):
      fuzz::CheckRoundTrip(f, DecodeError, EncodeError);
      break;
    default:
      break;  // Unknown type: the session loop answers with an error frame.
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxStream) return 0;

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0;
  {
    Socket writer(fds[0]);
    Socket reader(fds[1]);
    // Entire stream lands in the socket buffer before the first read; the
    // close after makes any declared-but-missing payload a mid-frame EOF
    // (must decode as truncation, never hang or crash).
    if (size > 0 && !writer.SendAll(data, size).ok()) return 0;
    writer.Close();

    while (true) {
      Frame f;
      bool clean_eof = false;
      Status s = ReadFrame(reader, &f, &clean_eof);
      if (!s.ok()) {
        if (s.message().empty()) {
          fuzz::FuzzFail("typed-error", "ReadFrame failed with an empty message");
        }
        break;
      }
      if (clean_eof) break;
      DecodeByType(f);
    }
  }
  return 0;
}
