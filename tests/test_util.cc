#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>

#include "util/bitops.h"
#include "util/deadline.h"
#include "util/random.h"
#include "util/rational.h"
#include "util/status.h"
#include "util/text.h"

namespace diffc {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition), "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded), "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
}

TEST(StatusTest, OkStatusDropsMessage) {
  // Invariant: an OK status never carries a message, no matter how it was
  // constructed — so `ok()` / equality / ToString can't disagree about it.
  Status s(StatusCode::kOk, "should be ignored");
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, Status());
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::Internal("x"));
  EXPECT_NE(Status(), Status::Internal("boom"));
}

TEST(StatusTest, ToStringCoversAllErrorConstructors) {
  EXPECT_EQ(Status::InvalidArgument("a").ToString(), "InvalidArgument: a");
  EXPECT_EQ(Status::OutOfRange("b").ToString(), "OutOfRange: b");
  EXPECT_EQ(Status::FailedPrecondition("c").ToString(), "FailedPrecondition: c");
  EXPECT_EQ(Status::NotFound("d").ToString(), "NotFound: d");
  EXPECT_EQ(Status::ResourceExhausted("e").ToString(), "ResourceExhausted: e");
  EXPECT_EQ(Status::Internal("f").ToString(), "Internal: f");
  EXPECT_EQ(Status::DeadlineExceeded("g").ToString(), "DeadlineExceeded: g");
  EXPECT_EQ(Status::Cancelled("h").ToString(), "Cancelled: h");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

// ---------------------------------------------------------------- Rational

TEST(RationalTest, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.IsZero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(RationalTest, Reduces) {
  Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
}

TEST(RationalTest, NormalizesSign) {
  Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
  EXPECT_TRUE(r.IsNegative());
}

TEST(RationalTest, Arithmetic) {
  Rational a(1, 3), b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, Rational(1, 6));
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
  EXPECT_EQ(-a, Rational(-1, 3));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
  EXPECT_GE(Rational(2, 4), Rational(1, 2));
  EXPECT_NE(Rational(1, 3), Rational(1, 4));
}

TEST(RationalTest, CompoundAssignment) {
  Rational r(1, 2);
  r += Rational(1, 2);
  EXPECT_EQ(r, Rational(1));
  r *= Rational(2, 3);
  EXPECT_EQ(r, Rational(2, 3));
  r -= Rational(2, 3);
  EXPECT_TRUE(r.IsZero());
}

TEST(RationalTest, ToString) {
  EXPECT_EQ(Rational(3).ToString(), "3");
  EXPECT_EQ(Rational(1, 2).ToString(), "1/2");
  EXPECT_EQ(Rational(-1, 2).ToString(), "-1/2");
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 4).ToDouble(), 0.25);
}

TEST(RationalTest, SumOfThirdsIsExactlyOne) {
  Rational acc;
  for (int i = 0; i < 3; ++i) acc += Rational(1, 3);
  EXPECT_EQ(acc, Rational(1));
}

// Overflow used to abort the process; it must now surface as the sticky
// overflow value, detectable with Overflowed().

TEST(RationalTest, MultiplicationOverflowIsErrorNotCrash) {
  Rational big(std::int64_t{1} << 62);
  Rational r = big * big;
  EXPECT_TRUE(r.Overflowed());
  EXPECT_FALSE(r.IsZero());
}

TEST(RationalTest, AdditionOverflowIsErrorNotCrash) {
  // num/den with den ~2^40: the sum's reduced denominator is ~2^80.
  Rational a(1, (std::int64_t{1} << 40) + 1);
  Rational b(1, (std::int64_t{1} << 40) + 15);
  EXPECT_TRUE((a + b).Overflowed());
}

TEST(RationalTest, NegationOfMinIsOverflowNotUb) {
  Rational min_num(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE((-min_num).Overflowed());
  EXPECT_TRUE((Rational(0) - min_num).Overflowed());
}

TEST(RationalTest, OverflowIsSticky) {
  Rational poison = Rational::Overflow();
  EXPECT_TRUE((poison + Rational(1)).Overflowed());
  EXPECT_TRUE((Rational(1) + poison).Overflowed());
  EXPECT_TRUE((poison - poison).Overflowed());
  EXPECT_TRUE((poison * Rational(0)).Overflowed());
  EXPECT_TRUE((poison / Rational(2)).Overflowed());
  EXPECT_TRUE((-poison).Overflowed());
}

TEST(RationalTest, DivisionByZeroIsOverflow) {
  EXPECT_TRUE((Rational(1) / Rational(0)).Overflowed());
  EXPECT_TRUE((Rational(0) / Rational(0)).Overflowed());
}

TEST(RationalTest, ZeroDenominatorConstructorIsOverflow) {
  EXPECT_TRUE(Rational(5, 0).Overflowed());
}

TEST(RationalTest, OverflowComparesEqualOnlyToItself) {
  Rational poison = Rational::Overflow();
  EXPECT_EQ(poison, Rational::Overflow());
  EXPECT_NE(poison, Rational(0));
  EXPECT_FALSE(poison < Rational(1));
  EXPECT_FALSE(Rational(1) < poison);
  EXPECT_FALSE(poison < poison);
}

TEST(RationalTest, OverflowToString) {
  EXPECT_EQ(Rational::Overflow().ToString(), "overflow");
}

TEST(RationalTest, NearOverflowStillExact) {
  // Values that fit exactly must keep working right up to the edge.
  Rational max_num(std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(max_num.Overflowed());
  EXPECT_FALSE((max_num - max_num).Overflowed());
  EXPECT_TRUE((max_num - max_num).IsZero());
  EXPECT_TRUE((max_num + Rational(1)).Overflowed());
}

// ---------------------------------------------------------------- bitops

TEST(BitopsTest, FullMask) {
  EXPECT_EQ(FullMask(0), 0u);
  EXPECT_EQ(FullMask(3), 0b111u);
  EXPECT_EQ(FullMask(64), ~Mask{0});
}

TEST(BitopsTest, SubsetTest) {
  EXPECT_TRUE(IsSubset(0b101, 0b111));
  EXPECT_FALSE(IsSubset(0b101, 0b011));
  EXPECT_TRUE(IsSubset(0, 0));
}

TEST(BitopsTest, ForEachBitVisitsAllInOrder) {
  std::vector<int> bits;
  ForEachBit(0b10110, [&](int b) { bits.push_back(b); });
  EXPECT_EQ(bits, (std::vector<int>{1, 2, 4}));
}

TEST(BitopsTest, ForEachSubsetVisitsAll) {
  std::set<Mask> seen;
  ForEachSubset(0b101, [&](Mask m) { seen.insert(m); });
  EXPECT_EQ(seen, (std::set<Mask>{0, 0b001, 0b100, 0b101}));
}

TEST(BitopsTest, ForEachSubsetOfEmpty) {
  int count = 0;
  ForEachSubset(0, [&](Mask m) {
    EXPECT_EQ(m, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(BitopsTest, ForEachSupersetVisitsAll) {
  std::set<Mask> seen;
  ForEachSuperset(0b001, 0b011, [&](Mask m) { seen.insert(m); });
  EXPECT_EQ(seen, (std::set<Mask>{0b001, 0b011}));
}

TEST(BitopsTest, SubsetSupersetCountsMatch) {
  // 2^k subsets of a k-element set; supersets within a universe mirror it.
  int subsets = 0;
  ForEachSubset(0b11011, [&](Mask) { ++subsets; });
  EXPECT_EQ(subsets, 16);
  int supersets = 0;
  ForEachSuperset(0b00011, FullMask(6), [&](Mask) { ++supersets; });
  EXPECT_EQ(supersets, 16);
}

// ---------------------------------------------------------------- random

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, RandomMaskWithinUniverse) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(IsSubset(rng.RandomMask(10, 0.5), FullMask(10)));
  }
}

TEST(RngTest, RandomMaskDensityExtremes) {
  Rng rng(5);
  EXPECT_EQ(rng.RandomMask(12, 0.0), 0u);
  EXPECT_EQ(rng.RandomMask(12, 1.0), FullMask(12));
}

TEST(RngTest, RandomNonemptySubsetIsNonemptySubset) {
  Rng rng(13);
  const Mask pool = 0b1010110;
  for (int i = 0; i < 200; ++i) {
    Mask m = rng.RandomNonemptySubsetOf(pool);
    EXPECT_NE(m, 0u);
    EXPECT_TRUE(IsSubset(m, pool));
  }
}

TEST(RngTest, RandomSubsetOfStaysInPool) {
  Rng rng(17);
  const Mask pool = 0b111000;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(IsSubset(rng.RandomSubsetOf(pool), pool));
  }
}

TEST(RngTest, RandomFamilyHasRequestedCount) {
  Rng rng(19);
  EXPECT_EQ(rng.RandomFamily(8, 5, 0.3).size(), 5u);
}

// ---------------------------------------------------------------- text

TEST(TextTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(TextTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TextTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsNever());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), Deadline::Clock::duration::max());
  EXPECT_TRUE(Deadline::Never().IsNever());
}

TEST(DeadlineTest, AfterExpires) {
  Deadline past = Deadline::After(std::chrono::nanoseconds(-1));
  EXPECT_FALSE(past.IsNever());
  EXPECT_TRUE(past.Expired());
  EXPECT_LE(past.Remaining().count(), 0);

  Deadline future = Deadline::After(std::chrono::hours(1));
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.Remaining().count(), 0);
}

TEST(DeadlineTest, EarlierPicksTheTighterBound) {
  Deadline a = Deadline::After(std::chrono::hours(1));
  Deadline never = Deadline::Never();
  EXPECT_EQ(Deadline::Earlier(a, never).expiry(), a.expiry());
  EXPECT_EQ(Deadline::Earlier(never, a).expiry(), a.expiry());
  EXPECT_TRUE(Deadline::Earlier(never, never).IsNever());

  Deadline b = Deadline::At(a.expiry() - std::chrono::minutes(1));
  EXPECT_EQ(Deadline::Earlier(a, b).expiry(), b.expiry());
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken token;
  CancelToken copy = token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_FALSE(copy.Cancelled());
  copy.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_TRUE(copy.Cancelled());
  token.Cancel();  // Idempotent.
  EXPECT_TRUE(token.Cancelled());
}

TEST(CancelTokenTest, FreshTokensAreIndependent) {
  CancelToken a;
  CancelToken b;
  a.Cancel();
  EXPECT_FALSE(b.Cancelled());
}

TEST(StopCheckTest, DefaultNeverStops) {
  StopCheck stop;
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(stop.Check().ok());
  EXPECT_FALSE(stop.stopped());
  EXPECT_EQ(stop.samples(), 0u);  // Unarmed checks never touch the clock.
}

TEST(StopCheckTest, ExpiredDeadlineFiresOnFirstCheck) {
  StopCheck stop(Deadline::After(std::chrono::nanoseconds(-1)), CancelToken());
  Status s = stop.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(stop.stopped());
}

TEST(StopCheckTest, CancellationWinsAndIsSticky) {
  CancelToken token;
  StopCheck stop(Deadline::After(std::chrono::nanoseconds(-1)), token);
  token.Cancel();
  // Both conditions hold; cancellation is reported (checked first).
  EXPECT_EQ(stop.Check().code(), StatusCode::kCancelled);
  // Sticky: the same status comes back without re-sampling.
  const std::uint64_t samples = stop.samples();
  EXPECT_EQ(stop.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(stop.CheckNow().code(), StatusCode::kCancelled);
  EXPECT_EQ(stop.samples(), samples);
}

TEST(StopCheckTest, ChecksAreAmortizedByStride) {
  CancelToken token;
  StopCheck stop(Deadline::Never(), token, /*stride=*/64);
  // First call samples; the next 63 are countdown-only.
  EXPECT_TRUE(stop.Check().ok());
  EXPECT_EQ(stop.samples(), 1u);
  token.Cancel();
  for (int i = 0; i < 63; ++i) EXPECT_TRUE(stop.Check().ok());
  EXPECT_EQ(stop.samples(), 1u);
  // The 64th call after the sample re-samples and observes the token.
  EXPECT_EQ(stop.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(stop.samples(), 2u);
}

TEST(StopCheckTest, CheckNowBypassesTheStride) {
  CancelToken token;
  StopCheck stop(Deadline::Never(), token, /*stride=*/1'000'000);
  EXPECT_TRUE(stop.Check().ok());
  token.Cancel();
  EXPECT_EQ(stop.CheckNow().code(), StatusCode::kCancelled);
}

TEST(StopCheckTest, CheckNowRestartsTheStride) {
  CancelToken token;
  StopCheck stop(Deadline::Never(), token, /*stride=*/64);
  // Midway through a countdown, a CheckNow sample starts a new one: the
  // next 63 Check() calls do not sample, as after Check()'s own sample.
  EXPECT_TRUE(stop.Check().ok());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(stop.Check().ok());
  EXPECT_TRUE(stop.CheckNow().ok());
  EXPECT_EQ(stop.samples(), 2u);
  token.Cancel();
  for (int i = 0; i < 63; ++i) EXPECT_TRUE(stop.Check().ok());
  EXPECT_EQ(stop.samples(), 2u);
  EXPECT_EQ(stop.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(stop.samples(), 3u);
}

TEST(StopCheckTest, CheckNowBeforeTheFirstCheckStartsTheCountdown) {
  // A plan's pre-step sample is the query's first: the step's first
  // Check() does not sample again.
  StopCheck stop(Deadline::After(std::chrono::hours(1)), CancelToken(), /*stride=*/8);
  EXPECT_TRUE(stop.CheckNow().ok());
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(stop.Check().ok());
  EXPECT_EQ(stop.samples(), 1u);
  EXPECT_TRUE(stop.Check().ok());
  EXPECT_EQ(stop.samples(), 2u);
}

TEST(StopCheckTest, DeadlineObservedAcrossSleep) {
  StopCheck stop(Deadline::After(std::chrono::milliseconds(1)), CancelToken(),
                 /*stride=*/1);
  EXPECT_TRUE(stop.Check().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_EQ(stop.Check().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace diffc
