// Structure-aware fuzzing of the request decoders the server trusts least:
// REGISTER_PREMISES and CHECK_BATCH. Bit 0 of the first input byte selects
// the type (bit 1 once picked a wire version and is now ignored, so the
// seed layout is unchanged) and the rest becomes the payload verbatim —
// the frame header is always well-formed, so coverage spends its budget
// past the header checks, inside the constraint-list and trace-context
// parsing where the interesting bounds live.
//
// Every REGISTER payload the decoder accepts must also yield an arena the
// prepared cache can key on: each family strictly increasing, the
// premises back to back over the whole member pool, every mask inside
// the universe, and `PremiseMasks::Compile` of its materialized set
// reproducing it exactly — the same key an in-process `Prepare` of that
// set builds.

#include <cstdint>
#include <string>
#include <vector>

#include "core/premise_masks.h"
#include "harness.h"
#include "net/wire.h"
#include "util/bitops.h"

using namespace diffc;
using namespace diffc::net;

namespace {

bool SameArena(const PremiseMasks& a, const PremiseMasks& b) {
  if (a.members != b.members || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const PremiseMasks::Premise& p = a.premises[i];
    const PremiseMasks::Premise& q = b.premises[i];
    if (p.lhs != q.lhs || p.begin != q.begin || p.end != q.end) return false;
  }
  return true;
}

void CheckRegisterArena(const Frame& f) {
  Result<RegisterPremisesMsg> msg = DecodeRegisterPremises(f);
  if (!msg.ok()) return;
  const PremiseMasks& arena = msg->premises;
  const Mask full = FullMask(msg->n);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < arena.size(); ++i) {
    const PremiseMasks::Premise& p = arena.premises[i];
    const std::string where = "premise " + std::to_string(i);
    if (p.begin != next || p.end < p.begin || p.end > arena.members.size()) {
      fuzz::FuzzFail("arena-layout", where + " does not follow its predecessor");
    }
    next = p.end;
    if ((p.lhs & ~full) != 0) fuzz::FuzzFail("arena-universe", where + " lhs");
    const std::span<const Mask> family = arena.family(p);
    for (std::size_t j = 0; j < family.size(); ++j) {
      if ((family[j] & ~full) != 0) fuzz::FuzzFail("arena-universe", where + " member");
      if (j > 0 && family[j - 1] >= family[j]) {
        fuzz::FuzzFail("arena-sorted", where + " family is not strictly increasing");
      }
    }
  }
  if (next != arena.members.size()) {
    fuzz::FuzzFail("arena-layout", "member pool holds " + std::to_string(arena.members.size()) +
                                       " masks, premises cover " + std::to_string(next));
  }
  if (!SameArena(PremiseMasks::Compile(arena.Materialize()), arena)) {
    fuzz::FuzzFail("arena-key", "Compile(Materialize()) differs from the decoded arena");
  }
}

}  // namespace

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
    CheckRegisterArena(f);
  }
  return 0;
}
