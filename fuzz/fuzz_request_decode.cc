// Structure-aware fuzzing of the request decoders the server trusts least:
// REGISTER_PREMISES and CHECK_BATCH. Bit 0 of the first input byte selects
// the type (bit 1 once picked a wire version and is now ignored, so the
// seed layout is unchanged) and the rest becomes the payload verbatim —
// the frame header is always well-formed, so coverage spends its budget
// past the header checks, inside the constraint-list and trace-context
// parsing where the interesting bounds live.

#include <cstdint>
#include <vector>

#include "harness.h"
#include "net/wire.h"

using namespace diffc;
using namespace diffc::net;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size - 1 > kMaxFramePayload) return 0;

  const std::uint8_t selector = data[0];
  Frame f;
  f.type = (selector & 1) != 0
               ? static_cast<std::uint8_t>(WireRequest::kCheckBatch)
               : static_cast<std::uint8_t>(WireRequest::kRegisterPremises);
  f.payload.assign(data + 1, data + size);

  if (f.type == static_cast<std::uint8_t>(WireRequest::kCheckBatch)) {
    fuzz::CheckRoundTrip(f, DecodeCheckBatch, EncodeCheckBatch);
  } else {
    fuzz::CheckRoundTrip(f, DecodeRegisterPremises, EncodeRegisterPremises);
  }
  return 0;
}
