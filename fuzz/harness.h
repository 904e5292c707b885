#ifndef DIFFC_FUZZ_HARNESS_H_
#define DIFFC_FUZZ_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "net/wire.h"
#include "util/status.h"

/// Shared property vocabulary for the fuzz targets (fuzz/*.cc).
///
/// Every target's contract is the same two-part property:
///
///   1. *Totality*: a decoder fed arbitrary bytes either succeeds or
///      returns a typed `Status` — it never crashes, never reads out of
///      bounds (ASan+UBSan are the oracle for that half), and never
///      returns Ok with an unconsumed tail.
///   2. *Idempotence*: on accepted input, decode∘encode is a fixed point —
///      re-encoding the decoded message and decoding *that* must yield a
///      byte-identical second encoding. (The first encoding may differ
///      from the raw input: canonicalization such as the BatchResult
///      message-cap shrink is allowed, but it must converge in one step.)
///
/// Violations call `FuzzFail`, which aborts — libFuzzer and the
/// standalone driver both treat that as a finding and preserve the input.

namespace diffc::fuzz {

[[noreturn]] inline void FuzzFail(const char* property, const std::string& detail) {
  std::fprintf(stderr, "fuzz property violated: %s: %s\n", property, detail.c_str());
  std::abort();
}

/// Asserts the decode-then-encode idempotence property for one codec pair.
/// `decode(Frame) -> Result<Msg>`, `encode(Msg) -> Frame`.
template <typename Decode, typename Encode>
void CheckRoundTrip(const net::Frame& f, Decode decode, Encode encode) {
  auto m1 = decode(f);
  if (!m1.ok()) {
    if (m1.status().message().empty()) {
      FuzzFail("typed-error", "decoder rejected input with an empty message");
    }
    return;  // Rejected with a typed error: property holds.
  }
  net::Frame e1 = encode(*m1);
  auto m2 = decode(e1);
  if (!m2.ok()) {
    FuzzFail("re-decode", "decoder rejected its own encoder's output: " +
                              m2.status().ToString());
  }
  net::Frame e2 = encode(*m2);
  if (e1.type != e2.type || e1.payload != e2.payload) {
    FuzzFail("idempotence", "second encoding differs from first (payload " +
                                std::to_string(e1.payload.size()) + " vs " +
                                std::to_string(e2.payload.size()) + " bytes)");
  }
}

}  // namespace diffc::fuzz

#endif  // DIFFC_FUZZ_HARNESS_H_
