// PreparedPremises: the compiled premise artifact behind the engine's
// prepare/plan/execute pipeline. Canonicalization invariants (trivial
// premises dropped, right-hand families minimized, duplicates removed —
// all without changing L(C)), the mask arena against the canonical set,
// the FD closure index, build stats, and id uniqueness.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/implication.h"
#include "engine/prepared_premises.h"
#include "rewrite/simplifier.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

TEST(PreparedPremisesTest, CanonicalizationDropsTrivialAndDuplicates) {
  const int n = 8;
  DifferentialConstraint real(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2, 3}}));
  DifferentialConstraint trivial(ItemSet{0, 1}, SetFamily({ItemSet{1}}));  // 1 ⊆ lhs.
  ConstraintSet premises{real, trivial, real};  // Duplicate `real`.
  Result<std::shared_ptr<const PreparedPremises>> built =
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(built.ok());
  const PreparedPremises& p = **built;
  EXPECT_EQ(p.n(), n);
  const ConstraintSet canonical = p.masks().Materialize();
  ASSERT_EQ(canonical.size(), 1u);
  EXPECT_EQ(canonical[0], real);
  EXPECT_EQ(p.stats().rewrite.before.constraints, 3u);
  EXPECT_EQ(p.stats().rewrite.after.constraints, 1u);
  EXPECT_EQ(p.stats().rewrite.Applied("drop-trivial"), 1u);
  EXPECT_EQ(p.stats().rewrite.Applied("absorb-subsumed"), 1u);
}

TEST(PreparedPremisesTest, CanonicalizationMinimizesWitnessFamilies) {
  const int n = 8;
  // {1} ⊂ {1,2}: the non-minimal member never matters for
  // SomeMemberSubsetOf, so minimization removes it without changing L.
  ConstraintSet premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{1, 2}}))};
  Result<std::shared_ptr<const PreparedPremises>> built =
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(built.ok());
  const PreparedPremises& p = **built;
  const ConstraintSet canonical = p.masks().Materialize();
  ASSERT_EQ(canonical.size(), 1u);
  EXPECT_EQ(canonical[0].rhs(), SetFamily({ItemSet{1}}));
  EXPECT_EQ(p.stats().rewrite.Applied("minimize-rhs"), 1u);
  // The canonical set excludes exactly the same lattice points.
  for (Mask m = 0; m < (Mask{1} << n); ++m) {
    EXPECT_EQ(InConstraintLattice(premises, ItemSet(m)),
              InConstraintLattice(canonical, ItemSet(m)))
        << "U=" << m;
  }
}

TEST(PreparedPremisesTest, CanonicalizationPreservesVerdicts) {
  // Random premise sets: implication verdicts against the canonical set
  // must equal verdicts against the original.
  Rng rng(411);
  for (int round = 0; round < 20; ++round) {
    const int n = 8;
    ConstraintSet premises = testing::RandomConstraintSet(rng, n, 5, 0.25, 3);
    // Seed some trivial and duplicate premises to exercise the dropping.
    premises.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
    premises.push_back(premises[0]);
    Result<std::shared_ptr<const PreparedPremises>> built =
        PreparedPremises::Build(n, premises);
    ASSERT_TRUE(built.ok());
    for (int q = 0; q < 10; ++q) {
      DifferentialConstraint goal = testing::RandomConstraint(rng, n);
      Result<ImplicationOutcome> original = CheckImplication(n, premises, goal);
      Result<ImplicationOutcome> canonical =
          CheckImplication(n, (*built)->masks().Materialize(), goal);
      ASSERT_TRUE(original.ok());
      ASSERT_TRUE(canonical.ok());
      EXPECT_EQ(original->implied, canonical->implied) << "round=" << round << " q=" << q;
    }
  }
}

TEST(PreparedPremisesTest, MaskArenaMatchesCanonicalConstraints) {
  const int n = 10;
  Rng rng(88);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 6);
  Result<std::shared_ptr<const PreparedPremises>> built =
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(built.ok());
  // The arena is the canonical set `rewrite::Simplify` returns, premise by
  // premise and member by member, with the families back to back.
  const ConstraintSet canonical = rewrite::Simplify(n, premises, rewrite::SimplifyOptions());
  const PremiseMasks& masks = (*built)->masks();
  ASSERT_EQ(masks.size(), canonical.size());
  ASSERT_FALSE(masks.premises.empty());
  EXPECT_EQ(masks.premises.front().begin, 0u);
  EXPECT_EQ(masks.premises.back().end, masks.members.size());
  for (std::size_t p = 0; p < canonical.size(); ++p) {
    const PremiseMasks::Premise& premise = masks.premises[p];
    if (p > 0) {
      EXPECT_EQ(premise.begin, masks.premises[p - 1].end);
    }
    EXPECT_EQ(premise.lhs, canonical[p].lhs().bits());
    const std::vector<ItemSet>& members = canonical[p].rhs().members();
    ASSERT_EQ(premise.size(), members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      EXPECT_EQ(masks.members[premise.begin + k], members[k].bits());
    }
  }
}

TEST(PreparedPremisesTest, FdIndexMatchesEligibility) {
  const int n = 8;
  ConstraintSet fd_premises{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}})),
      DifferentialConstraint(ItemSet{1}, SetFamily({ItemSet{2}})),
  };
  Result<std::shared_ptr<const PreparedPremises>> fd_built =
      PreparedPremises::Build(n, fd_premises);
  ASSERT_TRUE(fd_built.ok());
  EXPECT_TRUE((*fd_built)->fd_index().eligible);
  EXPECT_EQ((*fd_built)->fd_index().fds.size(), 2u);
  // Closure of {0} under 0→1, 1→2 is {0,1,2}; the indexed checker agrees
  // with the direct FD checker.
  DifferentialConstraint goal(ItemSet{0}, SetFamily({ItemSet{2}}));
  Result<ImplicationOutcome> indexed =
      CheckImplicationFdIndexed(n, (*fd_built)->fd_index(), goal);
  Result<ImplicationOutcome> direct = CheckImplicationFd(n, fd_premises, goal);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(indexed->implied);
  EXPECT_EQ(indexed->implied, direct->implied);

  ConstraintSet general{
      DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}, ItemSet{2}}))};
  Result<std::shared_ptr<const PreparedPremises>> general_built =
      PreparedPremises::Build(n, general);
  ASSERT_TRUE(general_built.ok());
  EXPECT_FALSE((*general_built)->fd_index().eligible);
  EXPECT_EQ(CheckImplicationFdIndexed(n, (*general_built)->fd_index(), goal)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PreparedPremisesTest, BuildStatsAreCoherent) {
  const int n = 12;
  Rng rng(3);
  ConstraintSet premises = testing::RandomConstraintSet(rng, n, 8);
  Result<std::shared_ptr<const PreparedPremises>> built =
      PreparedPremises::Build(n, premises);
  ASSERT_TRUE(built.ok());
  const PrepareStats& s = (*built)->stats();
  // Each edit of the two constraint-dropping rules removes one
  // constraint; minimize-rhs removes none.
  const rewrite::SimplifyStats& rs = s.rewrite;
  EXPECT_EQ(rs.before.constraints, premises.size());
  EXPECT_EQ(rs.after.constraints,
            rs.before.constraints - rs.Applied("drop-trivial") - rs.Applied("absorb-subsumed"));
  EXPECT_EQ((*built)->masks().size(), rs.after.constraints);
  EXPECT_GT(s.total_ns, 0u);
  EXPECT_LE(s.canonicalize_ns, s.total_ns);
  EXPECT_LE(s.fd_index_ns, s.total_ns);
}

TEST(PreparedPremisesTest, IdsAreProcessUnique) {
  std::set<std::uint64_t> ids;
  ConstraintSet premises{DifferentialConstraint(ItemSet{0}, SetFamily({ItemSet{1}}))};
  for (int i = 0; i < 16; ++i) {
    Result<std::shared_ptr<const PreparedPremises>> built =
        PreparedPremises::Build(8, premises);
    ASSERT_TRUE(built.ok());
    EXPECT_TRUE(ids.insert((*built)->id()).second);
  }
}

TEST(PreparedPremisesTest, InvalidUniverseSizeFails) {
  EXPECT_EQ(PreparedPremises::Build(-1, ConstraintSet{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PreparedPremises::Build(65, ConstraintSet{}).status().code(),
            StatusCode::kInvalidArgument);
  Result<std::shared_ptr<const PreparedPremises>> empty =
      PreparedPremises::Build(0, ConstraintSet{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE((*empty)->masks().Materialize().empty());
}

}  // namespace
}  // namespace diffc
