#ifndef DIFFC_BENCH_BENCH_UTIL_H_
#define DIFFC_BENCH_BENCH_UTIL_H_

// Helpers shared by the experiment binaries under bench/.

#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "core/constraint.h"
#include "util/random.h"

namespace diffc {
namespace bench {

/// Wall time of `reps` calls of `fn`, in milliseconds per call.
inline double MeasureMs(const std::function<void()>& fn, int reps = 1) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() / reps;
}

/// A random constraint over `n` attributes: each attribute is in the lhs
/// with probability `lhs_density`, and each of the `members` members holds
/// each attribute with probability `member_density` (an empty draw becomes
/// one random attribute). The draws are made in that order, so a seed
/// always yields the same constraint.
inline DifferentialConstraint RandomConstraint(Rng& rng, int n, int members, double lhs_density,
                                               double member_density) {
  ItemSet lhs(rng.RandomMask(n, lhs_density));
  std::vector<ItemSet> family;
  for (int i = 0; i < members; ++i) {
    Mask m = rng.RandomMask(n, member_density);
    if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
    family.push_back(ItemSet(m));
  }
  return DifferentialConstraint(lhs, SetFamily(std::move(family)));
}

}  // namespace bench
}  // namespace diffc

#endif  // DIFFC_BENCH_BENCH_UTIL_H_
