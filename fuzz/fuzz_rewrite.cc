// Fuzzes the rewrite canonicalizer (src/rewrite/, DESIGN.md §14). The
// input bytes decode into a small universe (n in [2, 8]) and a constraint
// set; the decoded instance runs through `Simplify` with the properties:
//
//   1. *Fixpoint*: the driver's one pass finishes within the step budget,
//      and no builtin rule's `Probe` edits the output.
//   2. *Soundness*: L(C) over all 2^n subsets is unchanged — the
//      enumerated lattices (`ClosureLattice`) are equal, not a weaker
//      structural check.
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

#include "core/closure.h"
#include "core/constraint.h"
#include "harness.h"
#include "rewrite/rewrite_rule.h"
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

  rewrite::SimplifyStats stats;
  const ConstraintSet out = rewrite::Simplify(n, instance, {}, &stats);

  if (!stats.reached_fixpoint) {
    fuzz::FuzzFail("fixpoint", "the pass ran out of step budget");
  }
  for (const rewrite::RewriteRule* rule : rewrite::BuiltinRules()) {
    if (rewrite::Probe(*rule, n, out).edits != 0) {
      fuzz::FuzzFail("fixpoint", std::string(rule->name()) + " edits the simplified set");
    }
  }
  if (stats.before < stats.after) {
    fuzz::FuzzFail("progress", "simplified cost exceeds the input cost");
  }

  Result<std::vector<ItemSet>> before = ClosureLattice(n, instance);
  Result<std::vector<ItemSet>> after = ClosureLattice(n, out);
  if (!before.ok() || !after.ok()) {
    fuzz::FuzzFail("oracle", "L(C) enumeration failed");
  }
  if (*before != *after) {
    fuzz::FuzzFail("soundness", "L(C) changed (n=" + std::to_string(n) + ", " +
                                    std::to_string(instance.size()) + " constraints)");
  }

  rewrite::SimplifyStats again_stats;
  const ConstraintSet again = rewrite::Simplify(n, out, {}, &again_stats);
  if (again_stats.applied_total != 0 || again != out) {
    fuzz::FuzzFail("idempotence", "re-simplification edited an already-canonical set");
  }

  if (rewrite::Simplify(n, shuffled, {}) != out) {
    fuzz::FuzzFail("order", "a shuffled instance simplified to a different set");
  }
  return 0;
}
