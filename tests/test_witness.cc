#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "lattice/decomposition.h"
#include "lattice/hitting_set.h"
#include "test_helpers.h"
#include "util/random.h"

namespace diffc {
namespace {

SetFamily FamilyOf(std::vector<Mask> masks) { return SetFamily::FromMasks(masks); }

// ------------------------------------------------------------ witness sets

TEST(WitnessTest, PaperExample27) {
  // S = {A,B,C,D}; W({B, CD}) = {BC, BD, BCD}.
  SetFamily fam = FamilyOf({0b0010, 0b1100});
  Result<std::vector<ItemSet>> ws = AllWitnessSets(fam);
  ASSERT_TRUE(ws.ok());
  std::vector<ItemSet> expected{ItemSet(0b0110), ItemSet(0b1010), ItemSet(0b1110)};
  EXPECT_EQ(*ws, expected);
}

TEST(WitnessTest, PaperExample27Overlap) {
  // W({BC, BD}) = {B, BC, BD, CD, BCD}.
  SetFamily fam = FamilyOf({0b0110, 0b1010});
  Result<std::vector<ItemSet>> ws = AllWitnessSets(fam);
  ASSERT_TRUE(ws.ok());
  std::set<Mask> got;
  for (const ItemSet& w : *ws) got.insert(w.bits());
  EXPECT_EQ(got, (std::set<Mask>{0b0010, 0b0110, 0b1010, 0b1100, 0b1110}));
}

TEST(WitnessTest, EmptyFamilyHasEmptyWitness) {
  // W(∅) = {∅} (Definition 2.5).
  Result<std::vector<ItemSet>> ws = AllWitnessSets(SetFamily());
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(*ws, std::vector<ItemSet>{ItemSet()});
  EXPECT_TRUE(HasWitnessSet(SetFamily()));
}

TEST(WitnessTest, EmptyMemberKillsAllWitnesses) {
  SetFamily fam({ItemSet(), ItemSet{1}});
  EXPECT_FALSE(HasWitnessSet(fam));
  Result<std::vector<ItemSet>> ws = AllWitnessSets(fam);
  ASSERT_TRUE(ws.ok());
  EXPECT_TRUE(ws->empty());
}

TEST(WitnessTest, IsWitnessSetChecksBothConditions) {
  SetFamily fam = FamilyOf({0b0010, 0b1100});
  EXPECT_TRUE(IsWitnessSet(fam, ItemSet(0b0110)));
  EXPECT_FALSE(IsWitnessSet(fam, ItemSet(0b0010)));  // Misses CD.
  EXPECT_FALSE(IsWitnessSet(fam, ItemSet(0b0111)));  // A outside ∪Y.
}

TEST(WitnessTest, GuardOnLargeUnion) {
  std::vector<ItemSet> members;
  for (int i = 0; i < 30; ++i) members.push_back(ItemSet::Singleton(i));
  Result<std::vector<ItemSet>> ws = AllWitnessSets(SetFamily(members), /*max_union_bits=*/24);
  EXPECT_EQ(ws.status().code(), StatusCode::kResourceExhausted);
}

TEST(MinimalWitnessTest, PaperExample) {
  // Minimal witness sets of {B, CD}: BC and BD.
  SetFamily fam = FamilyOf({0b0010, 0b1100});
  Result<std::vector<ItemSet>> mins = MinimalWitnessSets(fam);
  ASSERT_TRUE(mins.ok());
  EXPECT_EQ(*mins, (std::vector<ItemSet>{ItemSet(0b0110), ItemSet(0b1010)}));
}

TEST(MinimalWitnessTest, SingletonMembersForceFullUnion) {
  SetFamily fam = FamilyOf({0b001, 0b010, 0b100});
  Result<std::vector<ItemSet>> mins = MinimalWitnessSets(fam);
  ASSERT_TRUE(mins.ok());
  EXPECT_EQ(*mins, std::vector<ItemSet>{ItemSet(0b111)});
}

TEST(MinimalWitnessTest, EmptyMemberYieldsNone) {
  Result<std::vector<ItemSet>> mins = MinimalWitnessSets(SetFamily({ItemSet()}));
  ASSERT_TRUE(mins.ok());
  EXPECT_TRUE(mins->empty());
}

// The ⊆-minimal elements of `AllWitnessSets(fam)`: the brute-force oracle
// of the transversal search.
std::vector<ItemSet> BruteForceMinimalWitnesses(const SetFamily& fam) {
  Result<std::vector<ItemSet>> all = AllWitnessSets(fam);
  EXPECT_TRUE(all.ok());
  std::vector<ItemSet> minimal;
  for (const ItemSet& w : *all) {
    const bool dominated = std::any_of(all->begin(), all->end(), [&](const ItemSet& w2) {
      return w2 != w && w2.IsSubsetOf(w);
    });
    if (!dominated) minimal.push_back(w);
  }
  return minimal;
}

// Property: minimal witness sets = ⊆-minimal elements of AllWitnessSets,
// on random families.
class MinimalWitnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(MinimalWitnessProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  const int n = 7;
  for (int iter = 0; iter < 20; ++iter) {
    int members = static_cast<int>(rng.UniformInt(0, 4));
    SetFamily fam = SetFamily::FromMasks(rng.RandomFamily(n, members, 0.35));
    Result<std::vector<ItemSet>> mins = MinimalWitnessSets(fam);
    ASSERT_TRUE(mins.ok());
    EXPECT_EQ(*mins, BruteForceMinimalWitnesses(fam));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalWitnessProperty, ::testing::Range(1, 9));

// The mask-native core against the brute-force oracle on families drawn
// over up to 12 positions of a universe of 7, 12 or 64 attributes (bit 63
// included), with empty members, repeated members and supersets of other
// members mixed in. One scratch serves every call, as interval cover's
// per-thread buffers do. Also checks the leaf budget: a search succeeds at
// a budget of exactly its leaf count and is ResourceExhausted one below.
TEST(MinimalWitnessOracleTest, CoreMatchesBruteForce) {
  Rng rng(20261017);
  WitnessScratch scratch;
  int empty_members = 0, repeats = 0, supersets = 0, wide = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int n = std::array<int, 3>{7, 12, 64}[iter % 3];
    // The positions members are drawn from: at most 12, so AllWitnessSets
    // stays small; for n = 64 spread over the whole word.
    Mask pool = 0;
    const int positions = static_cast<int>(rng.UniformInt(1, std::min(n, 12)));
    while (Popcount(pool) < positions) {
      pool |= Mask{1} << (Popcount(pool) == 0 && n == 64 ? 63 : rng.UniformInt(0, n - 1));
    }
    std::vector<ItemSet> members;
    const int count = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < count; ++i) {
      const double shape = rng.UniformDouble();
      if (shape < 0.05) {
        members.push_back(ItemSet());
        ++empty_members;
      } else if (shape < 0.15 && !members.empty()) {
        members.push_back(members[rng.UniformInt(0, members.size() - 1)]);
        ++repeats;
      } else if (shape < 0.3 && !members.empty()) {
        const ItemSet base = members[rng.UniformInt(0, members.size() - 1)];
        members.push_back(base.Union(ItemSet(rng.RandomSubsetOf(pool))));
        ++supersets;
      } else {
        Mask m = rng.RandomSubsetOf(pool);
        if (m == 0) m = pool & (0 - pool);  // Lowest pool bit.
        members.push_back(ItemSet(m));
      }
    }
    const SetFamily fam(members);
    if ((fam.UnionOfMembers().bits() >> 32) != 0) ++wide;
    const std::vector<ItemSet> expected = BruteForceMinimalWitnesses(fam);

    WitnessSearchStats stats;
    ASSERT_TRUE(MinimalWitnessMasks(fam, 1 << 20, &scratch, &stats).ok());
    std::vector<ItemSet> got;
    for (Mask w : scratch.witnesses) got.push_back(ItemSet(w));
    ASSERT_EQ(got, expected) << "iteration " << iter;
    EXPECT_LE(stats.candidates, WitnessLeafBound(fam, 1 << 20));
    EXPECT_GE(stats.candidates, expected.size());

    if (stats.candidates > 0) {
      EXPECT_TRUE(MinimalWitnessMasks(fam, stats.candidates, &scratch).ok());
      EXPECT_EQ(MinimalWitnessMasks(fam, stats.candidates - 1, &scratch).code(),
                StatusCode::kResourceExhausted);
    }
  }
  // The draw exercised every shape it is meant to.
  EXPECT_GT(empty_members, 0);
  EXPECT_GT(repeats, 0);
  EXPECT_GT(supersets, 0);
  EXPECT_GT(wide, 0);
}

TEST(MinimalWitnessOracleTest, LeafBoundIsTheMemberSizeProduct) {
  EXPECT_EQ(WitnessLeafBound(SetFamily(), 64), 1u);
  EXPECT_EQ(WitnessLeafBound(FamilyOf({0b0011, 0b1100, 0b10000}), 64), 4u);
  EXPECT_EQ(WitnessLeafBound(SetFamily({ItemSet(), ItemSet{1}}), 64), 0u);
  // Seven disjoint pairs: 128 leaves, reported as "above 64" once the
  // partial product passes it.
  std::vector<ItemSet> pairs;
  for (int i = 0; i < 7; ++i) pairs.push_back(ItemSet{2 * i, 2 * i + 1});
  EXPECT_EQ(WitnessLeafBound(SetFamily(pairs), 64), 65u);
  EXPECT_EQ(WitnessLeafBound(SetFamily(pairs), 1000), 128u);
  // No overflow on a family whose product leaves 64 bits: 63^12 > 2^64.
  std::vector<ItemSet> wide;
  for (int i = 0; i < 12; ++i) wide.push_back(ItemSet(~(Mask{1} << i)));
  EXPECT_EQ(WitnessLeafBound(SetFamily(wide), ~std::uint64_t{0} - 1), ~std::uint64_t{0});
}

// --------------------------------------------------- lattice decomposition

TEST(DecompositionTest, PaperExample27) {
  // L(A, {B, CD}) = {A, AC, AD}.
  Result<std::vector<ItemSet>> L =
      EnumerateDecomposition(4, ItemSet{0}, FamilyOf({0b0010, 0b1100}));
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(*L, (std::vector<ItemSet>{ItemSet(0b0001), ItemSet(0b0101), ItemSet(0b1001)}));
}

TEST(DecompositionTest, PaperExample27Overlap) {
  // L(A, {BC, BD}) = {A, AB, AC, AD, ACD}.
  Result<std::vector<ItemSet>> L =
      EnumerateDecomposition(4, ItemSet{0}, FamilyOf({0b0110, 0b1010}));
  ASSERT_TRUE(L.ok());
  std::set<Mask> got;
  for (const ItemSet& s : *L) got.insert(s.bits());
  EXPECT_EQ(got, (std::set<Mask>{0b0001, 0b0011, 0b0101, 0b1001, 0b1101}));
}

TEST(DecompositionTest, ExamplesFromSection3) {
  // Example 3.2: L(A, {B}) = {A, AC}; L(B, {C}) = {B, AB}; L(C, {A}) = {C, BC}.
  auto enumerate = [](ItemSet x, SetFamily fam) {
    return *EnumerateDecomposition(3, x, fam);
  };
  EXPECT_EQ(enumerate(ItemSet{0}, SetFamily({ItemSet{1}})),
            (std::vector<ItemSet>{ItemSet(0b001), ItemSet(0b101)}));
  EXPECT_EQ(enumerate(ItemSet{1}, SetFamily({ItemSet{2}})),
            (std::vector<ItemSet>{ItemSet(0b010), ItemSet(0b011)}));
  EXPECT_EQ(enumerate(ItemSet{2}, SetFamily({ItemSet{0}})),
            (std::vector<ItemSet>{ItemSet(0b100), ItemSet(0b110)}));
}

TEST(DecompositionTest, EmptyFamilyIsFullUpset) {
  // L(X, ∅) = [X, S].
  Result<std::uint64_t> count = CountDecomposition(4, ItemSet{1}, SetFamily());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
}

TEST(DecompositionTest, TrivialIffEmpty) {
  SetFamily fam({ItemSet{0}});
  EXPECT_TRUE(DecompositionIsEmpty(ItemSet{0, 1}, fam));
  EXPECT_FALSE(DecompositionIsEmpty(ItemSet{1}, fam));
  Result<std::vector<ItemSet>> L = EnumerateDecomposition(3, ItemSet{0, 1}, fam);
  ASSERT_TRUE(L.ok());
  EXPECT_TRUE(L->empty());
}

TEST(DecompositionTest, MembershipAgreesWithEnumeration) {
  Rng rng(99);
  const int n = 6;
  for (int iter = 0; iter < 30; ++iter) {
    ItemSet x(rng.RandomMask(n, 0.25));
    SetFamily fam = SetFamily::FromMasks(rng.RandomFamily(n, 2, 0.3));
    Result<std::vector<ItemSet>> L = EnumerateDecomposition(n, x, fam);
    ASSERT_TRUE(L.ok());
    std::set<Mask> in_l;
    for (const ItemSet& s : *L) in_l.insert(s.bits());
    for (Mask m = 0; m < (Mask{1} << n); ++m) {
      EXPECT_EQ(InDecomposition(n, x, fam, ItemSet(m)), in_l.count(m) > 0) << m;
    }
  }
}

TEST(DecompositionTest, CountMatchesEnumeration) {
  Rng rng(123);
  const int n = 7;
  for (int iter = 0; iter < 20; ++iter) {
    ItemSet x(rng.RandomMask(n, 0.2));
    SetFamily fam = SetFamily::FromMasks(rng.RandomFamily(n, 3, 0.3));
    Result<std::vector<ItemSet>> L = EnumerateDecomposition(n, x, fam);
    Result<std::uint64_t> count = CountDecomposition(n, x, fam);
    ASSERT_TRUE(L.ok());
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(L->size(), *count);
  }
}

// Definition 2.6 as an identity: L(X, Y) = ∪_{W ∈ W(Y)} [X, S∖W].
class IntervalCoverProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalCoverProperty, CoverEqualsDecomposition) {
  Rng rng(GetParam() * 31);
  const int n = 6;
  for (int iter = 0; iter < 20; ++iter) {
    ItemSet x(rng.RandomMask(n, 0.25));
    int members = static_cast<int>(rng.UniformInt(0, 3));
    SetFamily fam = SetFamily::FromMasks(rng.RandomFamily(n, members, 0.35));
    Result<std::vector<Interval>> cover = DecompositionIntervalCover(n, x, fam);
    ASSERT_TRUE(cover.ok());
    for (Mask m = 0; m < (Mask{1} << n); ++m) {
      ItemSet u(m);
      bool in_cover = false;
      for (const Interval& iv : *cover) {
        if (iv.Contains(u)) {
          in_cover = true;
          break;
        }
      }
      EXPECT_EQ(in_cover, InDecomposition(n, x, fam, u)) << "m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalCoverProperty, ::testing::Range(1, 9));

// Proposition 2.8: L(X, Y) = L(X, Y ∪ {Z}) ∪ L(X ∪ Z, Y).
class Prop28Property : public ::testing::TestWithParam<int> {};

TEST_P(Prop28Property, Holds) {
  Rng rng(GetParam() * 77 + 5);
  const int n = 6;
  for (int iter = 0; iter < 25; ++iter) {
    ItemSet x(rng.RandomMask(n, 0.25));
    ItemSet z(rng.RandomMask(n, 0.3));
    SetFamily fam = SetFamily::FromMasks(rng.RandomFamily(n, 2, 0.3));
    SetFamily with_z = fam.WithMember(z);
    for (Mask m = 0; m < (Mask{1} << n); ++m) {
      ItemSet u(m);
      bool lhs = InDecomposition(n, x, fam, u);
      bool rhs = InDecomposition(n, x, with_z, u) ||
                 InDecomposition(n, x.Union(z), fam, u);
      EXPECT_EQ(lhs, rhs) << "m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop28Property, ::testing::Range(1, 9));

}  // namespace
}  // namespace diffc
