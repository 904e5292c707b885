#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "lattice/interval.h"
#include "lattice/itemset.h"
#include "lattice/set_family.h"
#include "lattice/universe.h"

namespace diffc {
namespace {

// ---------------------------------------------------------------- Universe

TEST(UniverseTest, LettersNamesAndSize) {
  Universe u = Universe::Letters(4);
  EXPECT_EQ(u.size(), 4);
  EXPECT_EQ(u.name(0), "A");
  EXPECT_EQ(u.name(3), "D");
  EXPECT_EQ(u.full_mask(), 0b1111u);
}

TEST(UniverseTest, LettersBeyondAlphabetGetSuffixes) {
  Universe u = Universe::Letters(28);
  EXPECT_EQ(u.name(26), "A1");
  EXPECT_EQ(u.name(27), "B1");
}

TEST(UniverseTest, NamedValidation) {
  EXPECT_TRUE(Universe::Named({"x", "y"}).ok());
  EXPECT_FALSE(Universe::Named({"x", "x"}).ok());
  EXPECT_FALSE(Universe::Named({""}).ok());
  EXPECT_FALSE(Universe::Named(std::vector<std::string>(65, "a")).ok());
}

TEST(UniverseTest, Index) {
  Universe u = Universe::Letters(3);
  EXPECT_EQ(*u.Index("B"), 1);
  EXPECT_FALSE(u.Index("Z").ok());
}

TEST(UniverseTest, FormatSetSingleChars) {
  Universe u = Universe::Letters(4);
  EXPECT_EQ(u.FormatSet(0b1101), "ACD");
  EXPECT_EQ(u.FormatSet(0), "0");
}

TEST(UniverseTest, FormatSetMultiCharUsesCommas) {
  Universe u = *Universe::Named({"id", "name"});
  EXPECT_EQ(u.FormatSet(0b11), "id,name");
}

TEST(UniverseTest, FormatFamily) {
  Universe u = Universe::Letters(4);
  EXPECT_EQ(u.FormatFamily({0b0010, 0b1100}), "{B, CD}");
  EXPECT_EQ(u.FormatFamily({}), "{}");
}

// ---------------------------------------------------------------- ItemSet

TEST(ItemSetTest, BasicOps) {
  ItemSet a{0, 2};
  ItemSet b{2, 3};
  EXPECT_EQ(a.size(), 2);
  EXPECT_TRUE(a.Contains(0));
  EXPECT_FALSE(a.Contains(1));
  EXPECT_EQ(a.Union(b), (ItemSet{0, 2, 3}));
  EXPECT_EQ(a.Intersect(b), (ItemSet{2}));
  EXPECT_EQ(a.Minus(b), (ItemSet{0}));
  EXPECT_EQ(a.ComplementIn(4), (ItemSet{1, 3}));
}

TEST(ItemSetTest, SubsetAndEmpty) {
  EXPECT_TRUE(ItemSet().empty());
  EXPECT_TRUE(ItemSet().IsSubsetOf(ItemSet{1}));
  EXPECT_TRUE((ItemSet{1}).IsSubsetOf(ItemSet{0, 1}));
  EXPECT_FALSE((ItemSet{2}).IsSubsetOf(ItemSet{0, 1}));
}

TEST(ItemSetTest, Singleton) {
  EXPECT_EQ(ItemSet::Singleton(3).bits(), 0b1000u);
}

TEST(ItemSetTest, ToString) {
  Universe u = Universe::Letters(4);
  EXPECT_EQ((ItemSet{0, 2, 3}).ToString(u), "ACD");
  EXPECT_EQ(ItemSet().ToString(u), "0");
}

TEST(ItemSetTest, ParseConcatenated) {
  Universe u = Universe::Letters(4);
  EXPECT_EQ(*ParseItemSet(u, "ACD"), (ItemSet{0, 2, 3}));
  EXPECT_EQ(*ParseItemSet(u, " B "), (ItemSet{1}));
  EXPECT_EQ(*ParseItemSet(u, "0"), ItemSet());
}

TEST(ItemSetTest, ParseCommaSeparated) {
  Universe u = *Universe::Named({"id", "name", "age"});
  EXPECT_EQ(*ParseItemSet(u, "id, age"), (ItemSet{0, 2}));
}

TEST(ItemSetTest, ParseErrors) {
  Universe u = Universe::Letters(3);
  EXPECT_FALSE(ParseItemSet(u, "AX").ok());
  EXPECT_FALSE(ParseItemSet(u, "").ok());
}

TEST(ItemSetTest, ParseRoundTrip) {
  Universe u = Universe::Letters(6);
  for (Mask m = 0; m < 64; ++m) {
    ItemSet s(m);
    EXPECT_EQ(*ParseItemSet(u, s.ToString(u)), s) << m;
  }
}

// ---------------------------------------------------------------- SetFamily

// An lvalue family hands out references; a temporary hands out values, so a
// range-for over `f.Minimized().members()` cannot dangle.
static_assert(std::is_same_v<decltype(std::declval<const SetFamily&>().members()),
                             const std::vector<ItemSet>&>);
static_assert(std::is_same_v<decltype(std::declval<SetFamily>().members()),
                             std::vector<ItemSet>>);
static_assert(std::is_same_v<decltype(std::declval<const SetFamily&>().member(0)),
                             const ItemSet&>);
static_assert(std::is_same_v<decltype(std::declval<SetFamily>().member(0)), ItemSet>);

TEST(SetFamilyTest, SortsAndDedupes) {
  SetFamily f({ItemSet{2}, ItemSet{0}, ItemSet{2}});
  EXPECT_EQ(f.size(), 2);
  EXPECT_EQ(f.member(0), ItemSet{0});
  EXPECT_EQ(f.member(1), ItemSet{2});
}

TEST(SetFamilyTest, EqualityIgnoresOrder) {
  SetFamily a({ItemSet{0}, ItemSet{1}});
  SetFamily b({ItemSet{1}, ItemSet{0}});
  EXPECT_EQ(a, b);
}

TEST(SetFamilyTest, EmptyFamilyVsEmptyMember) {
  SetFamily none;
  SetFamily just_empty({ItemSet()});
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(just_empty.empty());
  EXPECT_TRUE(just_empty.HasEmptyMember());
  EXPECT_FALSE(none.HasEmptyMember());
  EXPECT_NE(none, just_empty);
}

TEST(SetFamilyTest, SomeMemberSubsetOf) {
  SetFamily f({ItemSet{0, 1}, ItemSet{2}});
  EXPECT_TRUE(f.SomeMemberSubsetOf(ItemSet{0, 1, 3}));
  EXPECT_TRUE(f.SomeMemberSubsetOf(ItemSet{2}));
  EXPECT_FALSE(f.SomeMemberSubsetOf(ItemSet{0, 3}));
}

TEST(SetFamilyTest, UnionOfMembers) {
  SetFamily f({ItemSet{0, 1}, ItemSet{2}});
  EXPECT_EQ(f.UnionOfMembers(), (ItemSet{0, 1, 2}));
  EXPECT_EQ(SetFamily().UnionOfMembers(), ItemSet());
}

TEST(SetFamilyTest, WithAndWithoutMember) {
  SetFamily f({ItemSet{0}});
  SetFamily g = f.WithMember(ItemSet{1});
  EXPECT_EQ(g.size(), 2);
  EXPECT_TRUE(g.HasMember(ItemSet{1}));
  EXPECT_EQ(g.WithoutMember(ItemSet{1}), f);
  EXPECT_EQ(f.WithMember(ItemSet{0}), f);  // Re-adding dedupes.
}

TEST(SetFamilyTest, IntersectMembersWith) {
  SetFamily f({ItemSet{0, 1}, ItemSet{1, 2}});
  SetFamily g = f.IntersectMembersWith(ItemSet{1});
  // Both intersect to {1}: deduped to a single member.
  EXPECT_EQ(g, SetFamily({ItemSet{1}}));
}

TEST(SetFamilyTest, Singletons) {
  SetFamily f = SetFamily::Singletons(ItemSet{0, 2});
  EXPECT_EQ(f, SetFamily({ItemSet{0}, ItemSet{2}}));
  EXPECT_TRUE(SetFamily::Singletons(ItemSet()).empty());
}

TEST(SetFamilyTest, Minimized) {
  SetFamily f({ItemSet{0}, ItemSet{0, 1}, ItemSet{2, 3}});
  EXPECT_EQ(f.Minimized(), SetFamily({ItemSet{0}, ItemSet{2, 3}}));
}

TEST(SetFamilyTest, MinimizedKeepsAntichain) {
  SetFamily f({ItemSet{0, 1}, ItemSet{1, 2}});
  EXPECT_EQ(f.Minimized(), f);
}

TEST(SetFamilyTest, ToString) {
  Universe u = Universe::Letters(4);
  SetFamily f({ItemSet{1}, ItemSet{2, 3}});
  EXPECT_EQ(f.ToString(u), "{B, CD}");
}

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, SizeAndContains) {
  Interval iv{ItemSet{0}, ItemSet{0, 1, 2}};
  EXPECT_FALSE(iv.IsEmpty());
  EXPECT_EQ(iv.Size(), 4u);
  EXPECT_TRUE(iv.Contains(ItemSet{0, 2}));
  EXPECT_FALSE(iv.Contains(ItemSet{1}));    // Misses lo.
  EXPECT_FALSE(iv.Contains(ItemSet{0, 3})); // Escapes hi.
}

TEST(IntervalTest, EmptyWhenLoNotSubsetOfHi) {
  Interval iv{ItemSet{3}, ItemSet{0, 1}};
  EXPECT_TRUE(iv.IsEmpty());
  EXPECT_EQ(iv.Size(), 0u);
  EXPECT_TRUE(iv.Enumerate().empty());
}

TEST(IntervalTest, EnumerateSortedAndComplete) {
  Interval iv{ItemSet{1}, ItemSet{0, 1, 2}};
  std::vector<ItemSet> got = iv.Enumerate();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], (ItemSet{1}));
  EXPECT_EQ(got[3], (ItemSet{0, 1, 2}));
  for (const ItemSet& s : got) EXPECT_TRUE(iv.Contains(s));
}

TEST(IntervalTest, PointInterval) {
  Interval iv{ItemSet{0, 1}, ItemSet{0, 1}};
  EXPECT_EQ(iv.Size(), 1u);
  EXPECT_EQ(iv.Enumerate(), (std::vector<ItemSet>{ItemSet{0, 1}}));
}

TEST(IntervalTest, ToString) {
  Universe u = Universe::Letters(4);
  Interval iv{ItemSet{0}, ItemSet{0, 3}};
  EXPECT_EQ(iv.ToString(u), "[A, AD]");
}

// ------------------------------------------------- n = 64 boundary (bugfix)
//
// Regression tests for the input-boundary fixes: Universe::Letters used to
// truncate n > 64 silently (inconsistent with Named's InvalidArgument) and
// ItemSet's index paths shifted unchecked (UB at i >= 64). The full
// 64-attribute universe itself must keep working exactly.

TEST(UniverseTest, LettersCheckedRejectsOutOfRange) {
  EXPECT_FALSE(Universe::LettersChecked(-1).ok());
  EXPECT_FALSE(Universe::LettersChecked(65).ok());
  EXPECT_EQ(Universe::LettersChecked(65).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Universe::LettersChecked(100).status().code(), StatusCode::kInvalidArgument);
}

TEST(UniverseTest, LettersCheckedAcceptsFullRange) {
  Result<Universe> empty = Universe::LettersChecked(0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0);
  Result<Universe> full = Universe::LettersChecked(64);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 64);
  EXPECT_EQ(full->full_mask(), ~Mask{0});
}

TEST(ItemSetTest, ContainsIsWellDefinedOutOfRange) {
  ItemSet all(~Mask{0});
  EXPECT_TRUE(all.Contains(0));
  EXPECT_TRUE(all.Contains(63));
  // Out-of-range indices are simply not members — never UB, never true.
  EXPECT_FALSE(all.Contains(64));
  EXPECT_FALSE(all.Contains(70));
  EXPECT_FALSE(all.Contains(-1));
  EXPECT_FALSE(ItemSet().Contains(64));
}

TEST(ItemSetTest, FullMaskBoundaryAt64) {
  EXPECT_EQ(FullMask(64), ~Mask{0});
  EXPECT_EQ(FullMask(63), ~Mask{0} >> 1);
  EXPECT_EQ(FullMask(0), Mask{0});
  ItemSet all(FullMask(64));
  EXPECT_EQ(all.size(), 64);
  EXPECT_TRUE(all.Contains(63));
}

TEST(ItemSetTest, ComplementInBoundaryAt64) {
  EXPECT_EQ(ItemSet().ComplementIn(64).bits(), ~Mask{0});
  EXPECT_EQ(ItemSet(~Mask{0}).ComplementIn(64).bits(), Mask{0});
  ItemSet low(FullMask(32));
  EXPECT_EQ(low.ComplementIn(64).bits(), ~Mask{0} << 32);
  EXPECT_EQ(ItemSet::Singleton(63).ComplementIn(64).size(), 63);
}

#ifndef NDEBUG
TEST(ItemSetTest, DebugAssertsOnOutOfRangeConstruction) {
  EXPECT_DEATH(ItemSet({64}), "out of");
  EXPECT_DEATH(ItemSet({-1}), "out of");
  EXPECT_DEATH(ItemSet::Singleton(64), "out of");
}

TEST(UniverseTest, DebugAssertsOnOutOfRangeLetters) {
  EXPECT_DEATH(Universe::Letters(65), "0 <= n <= 64");
  EXPECT_DEATH(Universe::Letters(-1), "0 <= n <= 64");
}
#endif

}  // namespace
}  // namespace diffc
