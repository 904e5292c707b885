// Fuzzes the reply decoders exactly as `DiffcClient` uses them — a
// malicious or corrupted *server* must not be able to crash a client. The
// first input byte selects, modulo 5, which reply codec sees the remaining
// bytes as its payload (bit 3 once picked a wire version and is now
// ignored, so the seed layout is unchanged).

#include <cstdint>

#include "harness.h"
#include "net/wire.h"

using namespace diffc;
using namespace diffc::net;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size - 1 > kMaxFramePayload) return 0;

  const std::uint8_t selector = data[0];
  Frame f;
  f.payload.assign(data + 1, data + size);

  switch (selector % 5) {
    case 0:
      f.type = static_cast<std::uint8_t>(WireResponse::kPong);
      fuzz::CheckRoundTrip(f, DecodePong, EncodePong);
      break;
    case 1:
      f.type = static_cast<std::uint8_t>(WireResponse::kRegisterOk);
      fuzz::CheckRoundTrip(f, DecodeRegisterOk, EncodeRegisterOk);
      break;
    case 2:
      f.type = static_cast<std::uint8_t>(WireResponse::kBatchResult);
      fuzz::CheckRoundTrip(f, DecodeBatchResult, EncodeBatchResult);
      break;
    case 3:
      f.type = static_cast<std::uint8_t>(WireResponse::kOverloaded);
      fuzz::CheckRoundTrip(f, DecodeOverloaded, EncodeOverloaded);
      break;
    default:
      f.type = static_cast<std::uint8_t>(WireResponse::kError);
      fuzz::CheckRoundTrip(f, DecodeError, EncodeError);
      break;
  }
  return 0;
}
