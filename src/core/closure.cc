#include "core/closure.h"

#include "core/implication.h"
#include "lattice/decomposition.h"

namespace diffc {

Result<std::vector<ItemSet>> ClosureLattice(int n, const ConstraintSet& c, int max_bits) {
  if (n > max_bits) {
    return Status::ResourceExhausted("closure lattice enumeration over " +
                                     std::to_string(n) + " attributes");
  }
  std::vector<ItemSet> out;
  const Mask full = FullMask(n);
  for (Mask m = 0;; ++m) {
    if (InConstraintLattice(c, ItemSet(m))) out.push_back(ItemSet(m));
    if (m == full) break;
  }
  return out;
}

namespace {

// True iff `premises` implies every constraint in `goals`.
Result<bool> ImpliesAll(int n, const ConstraintSet& premises, const ConstraintSet& goals) {
  for (const DifferentialConstraint& g : goals) {
    Result<ImplicationOutcome> r = CheckImplicationSat(n, premises, g);
    if (!r.ok()) return r.status();
    if (!r->implied) return false;
  }
  return true;
}

}  // namespace

Result<bool> AreEquivalent(int n, const ConstraintSet& a, const ConstraintSet& b) {
  Result<bool> ab = ImpliesAll(n, a, b);
  if (!ab.ok() || !*ab) return ab;
  return ImpliesAll(n, b, a);
}

Result<std::vector<int>> RedundantConstraints(int n, const ConstraintSet& c) {
  std::vector<int> redundant;
  for (int i = 0; i < static_cast<int>(c.size()); ++i) {
    ConstraintSet rest;
    rest.reserve(c.size() - 1);
    for (int j = 0; j < static_cast<int>(c.size()); ++j) {
      if (j != i) rest.push_back(c[j]);
    }
    Result<ImplicationOutcome> r = CheckImplicationSat(n, rest, c[i]);
    if (!r.ok()) return r.status();
    if (r->implied) redundant.push_back(i);
  }
  return redundant;
}

Result<ConstraintSet> MinimalCover(int n, const ConstraintSet& c) {
  ConstraintSet cover = c;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < static_cast<int>(cover.size()); ++i) {
      ConstraintSet rest;
      rest.reserve(cover.size() - 1);
      for (int j = 0; j < static_cast<int>(cover.size()); ++j) {
        if (j != i) rest.push_back(cover[j]);
      }
      Result<ImplicationOutcome> r = CheckImplicationSat(n, rest, cover[i]);
      if (!r.ok()) return r.status();
      if (r->implied) {
        cover = std::move(rest);
        changed = true;
        break;
      }
    }
  }
  return cover;
}

}  // namespace diffc
