// Fuzzes the rewrite canonicalizer (src/rewrite/, DESIGN.md §14). The
// input bytes decode into a small universe (n in [2, 8]) and a constraint
// set; the decoded instance runs through `Simplify` at both levels with the
// properties:
//
//   1. *Termination*: the driver reaches a confirmed fixpoint within the
//      automatic pass bound (2 + the scalar potential of the input).
//   2. *Soundness*: L(C) over all 2^n subsets is bit-for-bit unchanged —
//      the materialized-lattice oracle, not a weaker structural check.
//   3. *Idempotence*: re-running on the output applies zero edits and
//      returns the identical set.
//   4. *Order independence*: a shuffle of the instance simplifies to the
//      identical set, so the output depends on the set alone.
//
// Byte format (any byte string decodes; truncation just yields fewer
// constraints): byte 0 picks n; then per constraint, one lhs byte followed
// by a member-count byte (low 2 bits, + 1) and that many member bytes.
// Masks are truncated to the universe. Empty members are kept: a constraint
// whose family holds ∅ is trivially satisfied everywhere (∅ ⊆ U for every
// U), exactly the shape drop-trivial must handle.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/constraint.h"
#include "harness.h"
#include "rewrite/lc_check.h"
#include "rewrite/simplifier.h"

using namespace diffc;

namespace {

ConstraintSet DecodeInstance(const std::uint8_t* data, std::size_t size, int* n_out) {
  const int n = 2 + data[0] % 7;  // 2..8: small enough to materialize L(C).
  *n_out = n;
  const Mask full = FullMask(n);
  ConstraintSet c;
  std::size_t pos = 1;
  while (pos + 1 < size && c.size() < 16) {
    const ItemSet lhs(static_cast<Mask>(data[pos]) & full);
    const int member_count = 1 + (data[pos + 1] & 3);
    pos += 2;
    std::vector<ItemSet> members;
    for (int i = 0; i < member_count && pos < size; ++i, ++pos) {
      members.push_back(ItemSet(static_cast<Mask>(data[pos]) & full));
    }
    if (members.empty()) break;
    c.push_back(DifferentialConstraint(lhs, SetFamily(std::move(members))));
  }
  return c;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size > 4096) return 0;

  int n = 0;
  const ConstraintSet instance = DecodeInstance(data, size, &n);
  // A shuffle seeded by the input bytes, so a replay reproduces it.
  ConstraintSet shuffled = instance;
  std::uint64_t seed = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) seed = (seed ^ data[i]) * 0x100000001b3ull;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(seed));

  for (int level = 1; level <= 2; ++level) {
    rewrite::SimplifyOptions opts;
    opts.level = level;
    rewrite::SimplifyStats stats;
    const ConstraintSet out = rewrite::Simplify(n, instance, opts, &stats);

    if (!stats.reached_fixpoint) {
      fuzz::FuzzFail("termination", "no fixpoint within the pass bound at level " +
                                        std::to_string(level));
    }
    if (stats.passes > rewrite::SimplifyPassBound(stats.before)) {
      fuzz::FuzzFail("termination", "pass count exceeds the potential bound");
    }
    if (stats.before < stats.after) {
      fuzz::FuzzFail("progress", "simplified cost exceeds the input cost");
    }

    Result<bool> same = rewrite::LcEquivalent(n, instance, out);
    if (!same.ok()) {
      fuzz::FuzzFail("oracle", "L(C) materialization failed: " + same.status().ToString());
    }
    if (!*same) {
      fuzz::FuzzFail("soundness", "L(C) changed at level " + std::to_string(level) +
                                      " (n=" + std::to_string(n) + ", " +
                                      std::to_string(instance.size()) + " constraints)");
    }

    rewrite::SimplifyStats again_stats;
    const ConstraintSet again = rewrite::Simplify(n, out, opts, &again_stats);
    if (again_stats.applied_total != 0 || again != out) {
      fuzz::FuzzFail("idempotence", "re-simplification edited an already-canonical set");
    }

    if (rewrite::Simplify(n, shuffled, opts) != out) {
      fuzz::FuzzFail("order", "a shuffled instance simplified to a different set at level " +
                                  std::to_string(level));
    }
  }
  return 0;
}
