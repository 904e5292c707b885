// Fuzzes the engine's decision procedures against the core oracles
// (DESIGN.md §10, §13). The input bytes decode into a universe n in [1, 12],
// a goal and up to 24 premises; `CheckOne` on the prepared premises must
// then satisfy:
//
//   1. *Totality*: OK status and a definite verdict — n ≤ 12 is far inside
//      every default budget.
//   2. *Agreement*: the verdict equals `CheckImplicationExhaustive`
//      (Theorem 3.5) and `CheckImplicationSat` (Prop. 5.4 CNF + DPLL) on
//      the raw premises, and `CheckImplicationFd` (Armstrong closure) when
//      `FdSubclassApplicable`.
//   3. *Certificates*: every not-implied answer, the engine's and each
//      oracle's, passes `IsValidCounterexample` against the raw premises.
//   4. *Kernel bound*: the `sat` search visits at most 2^(f+1) − 1 nodes,
//      f = n − |X| the goal's free attributes: one full binary tree over
//      them. The bound holds as well when the search starts from interval
//      cover's uncovered intervals [X, S∖W]: it seeds only when
//      Σ 2^−|W| ≤ 1, and each seeded tree has at most 2^(f−|W|+1) − 1
//      nodes. Dropping the exhaustive fallback rests on this bound.
//   5. *Proofs*: when the engine answers implied, `DeriveImplied` on the
//      raw premises returns a derivation that `ValidateDerivation` accepts
//      and whose last step is the goal; when it answers not implied,
//      `DeriveImplied` returns NotFound. The proof search visits at most
//      2^13 − 1 nodes here, so the default step budget always suffices.
//
// Byte format (any byte string of 4+ bytes decodes; truncation just yields
// fewer premises): byte 0 picks n; then the goal and each premise as a
// 2-byte little-endian lhs mask, a member-count byte (low 3 bits: 0–7
// members, so empty families occur) and 2 bytes per member mask. Masks are
// truncated to the universe. The cap of 24 premises fits PHP(4,3) through
// the Prop. 5.5 reduction (22 premises over n = 12).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/counterexample.h"
#include "core/implication.h"
#include "core/inference.h"
#include "engine/implication_engine.h"
#include "engine/prepared_premises.h"
#include "harness.h"

using namespace diffc;

namespace {

constexpr std::size_t kMaxPremises = 24;

std::optional<Mask> ReadMask(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                             Mask full) {
  if (*pos + 2 > size) return std::nullopt;
  const Mask m = static_cast<Mask>(data[*pos]) | (static_cast<Mask>(data[*pos + 1]) << 8);
  *pos += 2;
  return m & full;
}

std::optional<DifferentialConstraint> ReadConstraint(const std::uint8_t* data,
                                                     std::size_t size, std::size_t* pos,
                                                     Mask full) {
  const std::optional<Mask> lhs = ReadMask(data, size, pos, full);
  if (!lhs.has_value() || *pos >= size) return std::nullopt;
  const int member_count = data[(*pos)++] & 7;
  std::vector<ItemSet> members;
  for (int i = 0; i < member_count; ++i) {
    const std::optional<Mask> member = ReadMask(data, size, pos, full);
    if (!member.has_value()) return std::nullopt;
    members.push_back(ItemSet(*member));
  }
  return DifferentialConstraint(ItemSet(*lhs), SetFamily(std::move(members)));
}

std::string Describe(int n, const ConstraintSet& premises, const DifferentialConstraint& goal) {
  return "n=" + std::to_string(n) + ", " + std::to_string(premises.size()) +
         " premises, |X|=" + std::to_string(goal.lhs().size());
}

// Requires `oracle` to be OK, to match the engine's verdict, and to carry a
// certificate with every not-implied answer.
void CheckOracle(const char* name, const Result<ImplicationOutcome>& oracle,
                 const ImplicationOutcome& engine, int n, const ConstraintSet& premises,
                 const DifferentialConstraint& goal) {
  if (!oracle.ok()) {
    fuzz::FuzzFail("oracle", std::string(name) + " failed: " + oracle.status().ToString());
  }
  if (oracle->verdict != engine.verdict) {
    fuzz::FuzzFail("agreement", std::string("engine and ") + name + " disagree (" +
                                    Describe(n, premises, goal) + ")");
  }
  if (oracle->verdict == ImplicationOutcome::kNotImplied &&
      (!oracle->counterexample.has_value() ||
       !IsValidCounterexample(n, premises, goal, *oracle->counterexample))) {
    fuzz::FuzzFail("certificate", std::string(name) + " returned an invalid counterexample");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size > 4096) return 0;
  const int n = 1 + data[0] % 12;
  const Mask full = FullMask(n);
  std::size_t pos = 1;
  const std::optional<DifferentialConstraint> goal = ReadConstraint(data, size, &pos, full);
  if (!goal.has_value()) return 0;
  ConstraintSet premises;
  while (premises.size() < kMaxPremises) {
    std::optional<DifferentialConstraint> premise = ReadConstraint(data, size, &pos, full);
    if (!premise.has_value()) break;
    premises.push_back(std::move(*premise));
  }

  // One engine for the process; `CheckOne` runs on the calling thread.
  static ImplicationEngine* engine = new ImplicationEngine();
  Result<std::shared_ptr<const PreparedPremises>> prepared =
      PreparedPremises::Build(n, premises);
  if (!prepared.ok()) {
    fuzz::FuzzFail("prepare", prepared.status().ToString());
  }
  const EngineQueryResult r = engine->CheckOne(*prepared, *goal);
  if (!r.status.ok()) {
    fuzz::FuzzFail("totality", r.status.ToString() + " (" + Describe(n, premises, *goal) + ")");
  }
  if (r.outcome.verdict == ImplicationOutcome::kNotImplied &&
      (!r.outcome.counterexample.has_value() ||
       !IsValidCounterexample(n, premises, *goal, *r.outcome.counterexample))) {
    fuzz::FuzzFail("certificate", "engine returned an invalid counterexample (" +
                                      Describe(n, premises, *goal) + ")");
  }

  CheckOracle("exhaustive", CheckImplicationExhaustive(n, premises, *goal), r.outcome, n,
              premises, *goal);
  CheckOracle("sat", CheckImplicationSat(n, premises, *goal), r.outcome, n, premises, *goal);
  if (FdSubclassApplicable(premises, *goal)) {
    CheckOracle("fd", CheckImplicationFd(n, premises, *goal), r.outcome, n, premises, *goal);
  }

  const int free_bits = n - goal->lhs().size();
  const std::uint64_t node_bound = (std::uint64_t{2} << free_bits) - 1;
  if (r.stats.solver.decisions > node_bound) {
    fuzz::FuzzFail("kernel-bound", std::to_string(r.stats.solver.decisions) +
                                       " sat nodes exceed 2^(f+1)-1 = " +
                                       std::to_string(node_bound) + " (" +
                                       Describe(n, premises, *goal) + ")");
  }

  Result<Derivation> proof = DeriveImplied(n, premises, *goal);
  if (r.outcome.verdict == ImplicationOutcome::kImplied) {
    if (!proof.ok()) {
      fuzz::FuzzFail("proof", "no derivation of an implied goal: " + proof.status().ToString() +
                                  " (" + Describe(n, premises, *goal) + ")");
    }
    const Status valid = ValidateDerivation(n, premises, *proof);
    if (!valid.ok() || proof->conclusion() != *goal) {
      fuzz::FuzzFail("proof", "derivation does not prove the goal: " + valid.ToString() + " (" +
                                  Describe(n, premises, *goal) + ")");
    }
  } else if (proof.status().code() != StatusCode::kNotFound) {
    fuzz::FuzzFail("proof", "DeriveImplied answered " + proof.status().ToString() +
                                " for a goal that is not implied (" +
                                Describe(n, premises, *goal) + ")");
  }
  return 0;
}
