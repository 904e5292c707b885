// Fuzzes the minimal-witness-set enumerator (`lattice/hitting_set.h`,
// DESIGN.md §10) against brute force. The input bytes decode into a universe
// n in [1, 64], a leaf budget and a family of at most 8 members drawn over
// at most 12 attribute positions; then:
//
//   1. *Oracle*: `MinimalWitnessMasks` under an unbounded budget equals the
//      ⊆-minimal elements of `AllWitnessSets` (every subset of ∪Y that hits
//      each member), sorted by mask; `MinimalWitnessSets` returns the same
//      sets.
//   2. *Leaf bound*: the search reaches at most `WitnessLeafBound` leaves,
//      and at least one per minimal witness set.
//   3. *Budget rule*: a search succeeds iff its budget is at least its leaf
//      count — exactly at the count it returns the same sets, one below it
//      is ResourceExhausted, and so is the decoded budget iff it is below.
//
// Byte format (any byte string of 2+ bytes decodes; truncation just yields
// fewer positions or members): byte 0 picks n (1 + b % 64); byte 1 is the
// budget (0–255); byte 2's low nibble is the number of positions (at most
// 12), each one byte (b % n); then each member is a 2-byte little-endian
// selector whose bit j takes position j. A zero selector is an empty member,
// repeated selectors collapse, and a selector that is a superset of another
// gives a non-minimal member.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "lattice/hitting_set.h"

using namespace diffc;

namespace {

constexpr int kMaxPositions = 12;
constexpr int kMaxMembers = 8;

std::string Describe(int n, const SetFamily& family) {
  std::string s = "n=";
  s += std::to_string(n);
  s += ", members";
  for (const ItemSet& m : family.members()) {
    s += ' ';
    s += std::to_string(m.bits());
  }
  return s;
}

std::vector<Mask> BruteForce(const SetFamily& family) {
  Result<std::vector<ItemSet>> all = AllWitnessSets(family);
  if (!all.ok()) fuzz::FuzzFail("oracle", all.status().ToString());
  std::vector<Mask> minimal;
  for (const ItemSet& w : *all) {
    const bool dominated = std::any_of(all->begin(), all->end(), [&](const ItemSet& v) {
      return v != w && v.IsSubsetOf(w);
    });
    if (!dominated) minimal.push_back(w.bits());
  }
  return minimal;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size < 2 || size > 4096) return 0;
  const int n = 1 + data[0] % 64;
  const std::size_t budget = data[1];
  std::size_t pos = 2;
  std::vector<int> positions;
  if (pos < size) {
    const int count = std::min(data[pos++] & 0xf, kMaxPositions);
    for (int i = 0; i < count && pos < size; ++i) positions.push_back(data[pos++] % n);
  }
  std::vector<ItemSet> members;
  while (pos + 2 <= size && members.size() < kMaxMembers) {
    const unsigned selector = data[pos] | (data[pos + 1] << 8);
    pos += 2;
    Mask m = 0;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if ((selector >> j) & 1) m |= Mask{1} << positions[j];
    }
    members.push_back(ItemSet(m));
  }
  const SetFamily family(std::move(members));
  const std::vector<Mask> expected = BruteForce(family);

  WitnessScratch scratch;
  WitnessSearchStats stats;
  Status s = MinimalWitnessMasks(family, std::size_t{1} << 20, &scratch, &stats);
  if (!s.ok()) fuzz::FuzzFail("totality", s.ToString() + " (" + Describe(n, family) + ")");
  if (scratch.witnesses != expected) {
    fuzz::FuzzFail("oracle", "core and brute force disagree (" + Describe(n, family) + ")");
  }
  Result<std::vector<ItemSet>> sets = MinimalWitnessSets(family);
  if (!sets.ok() || sets->size() != expected.size() ||
      !std::equal(sets->begin(), sets->end(), expected.begin(),
                  [](const ItemSet& a, Mask b) { return a.bits() == b; })) {
    fuzz::FuzzFail("wrapper", "MinimalWitnessSets differs from the core (" +
                                  Describe(n, family) + ")");
  }

  const std::uint64_t leaves = stats.candidates;
  if (leaves > WitnessLeafBound(family, std::uint64_t{1} << 20) || leaves < expected.size()) {
    fuzz::FuzzFail("leaf-bound", std::to_string(leaves) + " leaves for " +
                                     std::to_string(expected.size()) + " witnesses (" +
                                     Describe(n, family) + ")");
  }
  if (!MinimalWitnessMasks(family, leaves, &scratch).ok() || scratch.witnesses != expected) {
    fuzz::FuzzFail("budget", "a budget of exactly the leaf count failed (" +
                                 Describe(n, family) + ")");
  }
  if (leaves > 0 && MinimalWitnessMasks(family, leaves - 1, &scratch).code() !=
                        StatusCode::kResourceExhausted) {
    fuzz::FuzzFail("budget", "a budget below the leaf count was not ResourceExhausted (" +
                                 Describe(n, family) + ")");
  }
  const bool within = MinimalWitnessMasks(family, budget, &scratch).ok();
  if (within != (leaves <= budget)) {
    fuzz::FuzzFail("budget", "budget " + std::to_string(budget) + " against " +
                                 std::to_string(leaves) + " leaves (" + Describe(n, family) +
                                 ")");
  }
  return 0;
}
