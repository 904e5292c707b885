// The builtin L(C)-preserving rewrite rules, derived from the Figure 1/2
// inference-rule schemas (`core/inference.h`) read as deletions: where
// Figure 1 derives a new constraint from old ones, each rule here removes a
// constraint or a member that the rest of the set already accounts for,
// leaving L(C) — and hence every implication verdict — exactly unchanged.
// Soundness arguments, and why one pass in list order reaches the
// fixpoint, live in DESIGN.md §14; every rule is property-tested against
// the enumerated L(C) (`ClosureLattice`) in tests/test_rewrite.cc and
// fuzz/fuzz_rewrite.cc.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "rewrite/rewrite_rule.h"

namespace diffc {
namespace rewrite {
namespace {

using Premise = PremiseMasks::Premise;

// Keeps the ⊆-minimal masks of the sorted, duplicate-free range
// [first, last), in order, and returns the new end. A proper subset is
// numerically smaller, so each mask is tested only against the minimal
// masks kept before it — the `SetFamily::Minimized` set, in its order.
Mask* KeepMinimal(Mask* first, Mask* last) {
  Mask* kept = first;
  for (Mask* y = first; y != last; ++y) {
    const Mask m = *y;
    if (std::none_of(first, kept, [m](Mask o) { return IsSubset(o, m); })) *kept++ = m;
  }
  return kept;
}

// Removes the premises whose flag is set, keeping the order of the rest.
void RemoveFlagged(std::vector<Premise>* ps, const std::vector<char>& flags) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ps->size(); ++i) {
    if (flags[i] == 0) (*ps)[kept++] = (*ps)[i];
  }
  ps->resize(kept);
}

// Triviality, read as deletion: some member Y ⊆ X ⟺ L(X, Y) = ∅, so the
// constraint excludes nothing from the union L(C).
class DropTrivialRule : public RewriteRule {
 public:
  const char* name() const override { return "drop-trivial"; }
  std::size_t Apply(RewriteArena* arena) const override {
    PremiseMasks& m = arena->masks();
    return std::erase_if(m.premises, [&](const Premise& p) {
      return arena->Charge(p.size()) && m.SomeMemberSubsetOf(p, p.lhs);
    });
  }
};

// Member subsumption: L(X, Y) depends on Y only through SomeMemberSubsetOf,
// which is invariant under dropping ⊆-non-minimal members.
class MinimizeRhsRule : public RewriteRule {
 public:
  const char* name() const override { return "minimize-rhs"; }
  std::size_t Apply(RewriteArena* arena) const override {
    PremiseMasks& m = arena->masks();
    std::size_t removed_members = 0;
    for (Premise& p : m.premises) {
      if (!arena->ChargeSquare(p.size())) break;
      Mask* family = m.members.data() + p.begin;
      const auto end = static_cast<std::uint32_t>(
          p.begin + (KeepMinimal(family, family + p.size()) - family));
      if (end == p.end) continue;
      removed_members += p.end - end;
      p.end = end;
    }
    return removed_members;
  }
};

// Constraint subsumption: drop b when some kept a with a.lhs ⊆ b.lhs
// absorbs it (`PremiseMasks::Absorbs`, exactly L(b) ⊆ L(a)) — then L(C)
// loses nothing. Absorption is transitive (it is L-containment on
// nontrivial constraints), so chains collapse onto their kept heads.
class AbsorbSubsumedRule : public RewriteRule {
 public:
  const char* name() const override { return "absorb-subsumed"; }
  std::size_t Apply(RewriteArena* arena) const override {
    const PremiseMasks& m = arena->masks();
    const std::vector<Premise>& ps = m.premises;
    const std::size_t count = ps.size();
    // The lhs masks lie back to back for the subset scans.
    std::vector<Mask> lhs(count);
    for (std::size_t i = 0; i < count; ++i) lhs[i] = ps[i].lhs;
    std::vector<std::uint32_t> candidates(count);
    std::vector<char> dropped(count, 0);
    std::size_t edits = 0;
    // Descending j keeps the earliest of mutually-absorbing constraints.
    // Premises are sorted by lhs and a subset is never numerically larger,
    // so the absorbers of j lie before the end of its lhs run.
    std::size_t run_end = count;
    for (std::size_t j = count; j-- > 0;) {
      const Premise& b = ps[j];
      if (j + 1 < count && ps[j + 1].lhs != b.lhs) run_end = j + 1;
      if (!arena->Charge(run_end)) break;
      // The absorbers with lhs ⊆ b.lhs, ascending, gathered without a
      // branch per premise.
      std::size_t k = 0;
      for (std::size_t i = 0; i < run_end; ++i) {
        candidates[k] = static_cast<std::uint32_t>(i);
        k += IsSubset(lhs[i], b.lhs) ? 1 : 0;
      }
      for (std::size_t c = 0; c < k; ++c) {
        const std::uint32_t i = candidates[c];
        if (i == j || dropped[i] != 0) continue;
        if (!arena->Charge(ps[i].size() * b.size())) break;
        if (m.Absorbs(ps[i], b.lhs, m.family(b))) {
          dropped[j] = 1;
          ++edits;
          break;
        }
      }
      if (arena->exhausted()) break;
    }
    if (edits > 0) RemoveFlagged(&arena->masks().premises, dropped);
    return edits;
  }
};

}  // namespace

const std::vector<const RewriteRule*>& BuiltinRules() {
  static const DropTrivialRule drop_trivial;
  static const MinimizeRhsRule minimize_rhs;
  static const AbsorbSubsumedRule absorb_subsumed;
  static const std::vector<const RewriteRule*> rules = {&drop_trivial, &minimize_rhs,
                                                        &absorb_subsumed};
  return rules;
}

const RewriteRule* FindRule(const std::string& name) {
  for (const RewriteRule* rule : BuiltinRules()) {
    if (name == rule->name()) return rule;
  }
  return nullptr;
}

}  // namespace rewrite
}  // namespace diffc
