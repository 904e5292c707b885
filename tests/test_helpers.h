#ifndef DIFFC_TESTS_TEST_HELPERS_H_
#define DIFFC_TESTS_TEST_HELPERS_H_

#include <vector>

#include "core/constraint.h"
#include "prop/tautology.h"
#include "util/random.h"

namespace diffc::testing {

/// A random differential constraint over `n` attributes: left-hand side
/// with the given density, `members` right-hand members of the given
/// density. Constraints may be trivial; callers that need nontrivial ones
/// should filter.
inline DifferentialConstraint RandomConstraint(Rng& rng, int n, double lhs_density = 0.25,
                                               int members = 2,
                                               double member_density = 0.3) {
  ItemSet lhs(rng.RandomMask(n, lhs_density));
  std::vector<ItemSet> family;
  family.reserve(members);
  for (int i = 0; i < members; ++i) {
    Mask m = rng.RandomMask(n, member_density);
    if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);  // Avoid trivial-by-∅.
    family.push_back(ItemSet(m));
  }
  return DifferentialConstraint(lhs, SetFamily(std::move(family)));
}

/// A random constraint set of `count` constraints.
inline ConstraintSet RandomConstraintSet(Rng& rng, int n, int count,
                                         double lhs_density = 0.25, int members = 2,
                                         double member_density = 0.3) {
  ConstraintSet out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    out.push_back(RandomConstraint(rng, n, lhs_density, members, member_density));
  }
  return out;
}

/// PHP(holes+1, holes) as a DNF tautology (Proposition 5.5): pigeon i sits
/// in no hole, or pigeons i and j share hole k. Through
/// `DnfTautologyReduction` the interval cover is inconclusive on it (the
/// empty goal family's one witness interval is not covered), so the query
/// reaches the `sat` search, which refutes it in exactly 2·holes! − 1
/// nodes. Each of the `pads` extra conjuncts ¬a ∧ ¬b on two fresh variables
/// becomes a premise ∅ -> {{a}, {b}}; the search branches on those before
/// the pigeonhole core (two live members beat a pigeon's `holes`), so
/// every pad doubles its work. Requires (holes + 1) · holes + 2 · pads ≤ 64.
inline prop::DnfFormula PigeonholeDnf(int holes, int pads = 0) {
  prop::DnfFormula f;
  f.num_vars = (holes + 1) * holes + 2 * pads;
  auto var = [&](int pigeon, int hole) { return pigeon * holes + hole; };
  for (int i = 0; i <= holes; ++i) {
    prop::DnfConjunct c;
    for (int k = 0; k < holes; ++k) c.neg |= Mask{1} << var(i, k);
    f.conjuncts.push_back(c);
  }
  for (int i = 0; i <= holes; ++i) {
    for (int j = i + 1; j <= holes; ++j) {
      for (int k = 0; k < holes; ++k) {
        prop::DnfConjunct c;
        c.pos = (Mask{1} << var(i, k)) | (Mask{1} << var(j, k));
        f.conjuncts.push_back(c);
      }
    }
  }
  for (int p = 0; p < pads; ++p) {
    prop::DnfConjunct c;
    c.neg = Mask{3} << ((holes + 1) * holes + 2 * p);
    f.conjuncts.push_back(c);
  }
  return f;
}

}  // namespace diffc::testing

#endif  // DIFFC_TESTS_TEST_HELPERS_H_
