// The benchmark's seeded workload generators and the reply verifier. This
// is the only generator the benchmark uses; the program under test sees
// nothing but the generated premise sets and goals.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/implication.h"
#include "util/random.h"

namespace loadbench {
namespace {

using diffc::ItemSet;
using diffc::Mask;
using diffc::Rng;
using diffc::SetFamily;

// A random constraint: left-hand side at density 2/n, `members` nonempty
// right-hand members at density `member_density`/n.
DifferentialConstraint RandomConstraint(Rng& rng, int n, int members,
                                        double member_density = 2.0) {
  ItemSet lhs(rng.RandomMask(n, 2.0 / n));
  std::vector<ItemSet> family;
  for (int i = 0; i < members; ++i) {
    Mask m = rng.RandomMask(n, member_density / n);
    if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
    family.push_back(ItemSet(m));
  }
  return DifferentialConstraint(lhs, SetFamily(std::move(family)));
}

// A derived goal: `p` with a wider left-hand side, implied by `p` (the
// revalidation pattern of mining loops).
DifferentialConstraint Augmented(Rng& rng, int n, const DifferentialConstraint& p) {
  return DifferentialConstraint(p.lhs().Union(ItemSet(rng.RandomMask(n, 2.0 / n))), p.rhs());
}

ConstraintSet RandomSet(Rng& rng, int n, int count, int members, double member_density) {
  ConstraintSet c;
  for (int i = 0; i < count; ++i) c.push_back(RandomConstraint(rng, n, members, member_density));
  return c;
}

// A 64-constraint set with the redundancy the rewrite rules remove:
// augmented copies, split same-lhs singletons, members overlapping their
// left-hand side, non-minimal families and a trivial constraint.
ConstraintSet PlantedRedundancySet(Rng& rng, int n) {
  const int kBase = 36;
  ConstraintSet c = RandomSet(rng, n, kBase, 2, 3.0);
  for (int i = 0; i < 8; ++i) c.push_back(Augmented(rng, n, c[static_cast<std::size_t>(i * 3)]));
  for (int i = 0; i < 4; ++i) {
    ItemSet lhs(rng.RandomMask(n, 2.0 / n));
    for (int k = 0; k < 2; ++k) {
      Mask m = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
      if (m == 0) m = Mask{1} << rng.UniformInt(0, n - 1);
      c.push_back(DifferentialConstraint(lhs, SetFamily({ItemSet(m)})));
    }
  }
  for (int i = 0; i < 4; ++i) {
    ItemSet lhs(rng.RandomMask(n, 3.0 / n));
    Mask outside = rng.RandomMask(n, 2.0 / n) & ~lhs.bits();
    if (outside == 0) outside = Mask{1} << rng.UniformInt(0, n - 1);
    c.push_back(DifferentialConstraint(
        lhs, SetFamily({ItemSet(outside | (lhs.bits() & (lhs.bits() >> 1)))})));
  }
  for (int i = 0; i < 7; ++i) {
    const DifferentialConstraint& p = c[static_cast<std::size_t>(i * 5)];
    c.push_back(DifferentialConstraint(
        p.lhs(), p.rhs().WithMember(p.rhs().member(0).Union(ItemSet(rng.RandomMask(n, 0.3))))));
  }
  c.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
  return c;
}

// Premise sets of the interactive and refute workloads. How costly a
// query is depends mostly on its premise set, and varies between random
// sets far more than between runs. So these sets come from a fixed seed,
// each run spreads its batches over several of them, and the run's seed
// draws the goals. With the set-up registrations and one probe handle this
// stays within the server's 16 handles per session.
constexpr int kSetsPerRun = 12;
constexpr std::uint64_t kFixedSetSeed = 20260809;

// Probe sets per non-churn workload: twice the prepared-premises cache.
constexpr int kProbeSets = 512;

// interactive: n=16, 12 premises, 8 random goals per batch.
void MakeInteractive(Rng& rng, Workload* w) {
  w->n = 16;
  w->clients = 1;
  Rng fixed(kFixedSetSeed);
  for (int s = 0; s < kSetsPerRun; ++s) w->sets.push_back(RandomSet(fixed, w->n, 12, 2, 2.0));
  for (int b = 0; b < kSetsPerRun * 32; ++b) {
    Batch batch;
    batch.set = static_cast<std::size_t>(b % kSetsPerRun);
    for (int g = 0; g < 8; ++g) batch.goals.push_back(RandomConstraint(rng, w->n, 2));
    w->batches.push_back(std::move(batch));
  }
  for (int s = 0; s < kProbeSets; ++s) w->probe_sets.push_back(RandomSet(rng, w->n, 12, 2, 2.0));
}

// revalidate: E5-shaped. n=32, 64 premises plus a trivial premise and two
// duplicates; 128-goal batches of augmented premises only; two clients.
void MakeRevalidate(Rng& rng, Workload* w) {
  w->n = 32;
  w->clients = 2;
  for (int s = 0; s < 4; ++s) {
    ConstraintSet c = RandomSet(rng, w->n, 64, 2, 2.0);
    c.push_back(DifferentialConstraint(ItemSet{0, 1}, SetFamily({ItemSet{1}})));
    c.push_back(c[0]);
    c.push_back(c[1]);
    w->sets.push_back(std::move(c));
  }
  for (int b = 0; b < 32; ++b) {
    Batch batch;
    batch.set = static_cast<std::size_t>(b % 4);
    const ConstraintSet& c = w->sets[batch.set];
    for (int g = 0; g < 128; ++g) {
      batch.goals.push_back(Augmented(rng, w->n, c[static_cast<std::size_t>((b * 7 + g) % 64)]));
    }
    w->batches.push_back(std::move(batch));
  }
  for (int s = 0; s < kProbeSets; ++s) w->probe_sets.push_back(RandomSet(rng, w->n, 64, 2, 2.0));
}

// refute: n=24, 64 premises, 16 random goals per batch, about half of them
// not implied, so most goals reach SAT and most replies carry
// counterexamples. SAT cost varies widely between goals, so a run draws 768
// batches: with 192, the batch p50 differed by up to 15% between seeds.
void MakeRefute(Rng& rng, Workload* w) {
  w->n = 24;
  w->clients = 1;
  Rng fixed(kFixedSetSeed);
  for (int s = 0; s < kSetsPerRun; ++s) w->sets.push_back(RandomSet(fixed, w->n, 64, 2, 2.0));
  for (int b = 0; b < kSetsPerRun * 64; ++b) {
    Batch batch;
    batch.set = static_cast<std::size_t>(b % kSetsPerRun);
    for (int g = 0; g < 16; ++g) batch.goals.push_back(RandomConstraint(rng, w->n, 3));
    w->batches.push_back(std::move(batch));
  }
  for (int s = 0; s < kProbeSets; ++s) w->probe_sets.push_back(RandomSet(rng, w->n, 64, 2, 2.0));
}

// churn: fresh 64-constraint sets with planted redundancy, each checked
// with one 4-goal derived batch. The 512 measured sets cycle through a
// prepared-premises cache of 256 entries, so every registration compiles
// from scratch; 64 more sets serve the set-up's warm-up.
void MakeChurn(Rng& rng, Workload* w) {
  w->n = 16;
  w->clients = 1;
  w->churn = true;
  w->measured = 512;
  for (int s = 0; s < 512 + 64; ++s) {
    w->sets.push_back(PlantedRedundancySet(rng, w->n));
    Batch batch;
    batch.set = static_cast<std::size_t>(s);
    for (int g = 0; g < 4; ++g) {
      batch.goals.push_back(Augmented(rng, w->n, w->sets.back()[static_cast<std::size_t>(g * 9)]));
    }
    w->batches.push_back(std::move(batch));
  }
}

}  // namespace

diffc::Result<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  Rng rng(seed);
  if (name == "interactive") {
    MakeInteractive(rng, &w);
  } else if (name == "revalidate") {
    MakeRevalidate(rng, &w);
  } else if (name == "refute") {
    MakeRefute(rng, &w);
  } else if (name == "churn") {
    MakeChurn(rng, &w);
  } else {
    return diffc::Status::InvalidArgument("unknown workload: " + name);
  }
  if (w.measured == 0) w.measured = w.batches.size();
  for (Batch& b : w.batches) {
    for (const DifferentialConstraint& g : b.goals) {
      diffc::Result<diffc::ImplicationOutcome> ref =
          diffc::CheckImplication(w.n, w.sets[b.set], g);
      if (!ref.ok()) return ref.status();
      b.implied.push_back(ref->implied);
    }
  }
  return w;
}

Verifier::Verifier(const Workload& w) : w_(w) {
  for (const Batch& b : w.batches) verified_cx_.emplace_back(b.goals.size(), ~std::uint64_t{0});
}

bool Verifier::Check(std::size_t batch, const diffc::net::BatchResultMsg& reply,
                     std::string* why) {
  const Batch& b = w_.batches[batch];
  if (reply.results.size() != b.goals.size()) {
    *why = "batch " + std::to_string(batch) + ": " + std::to_string(reply.results.size()) +
           " results for " + std::to_string(b.goals.size()) + " goals";
    return false;
  }
  for (std::size_t i = 0; i < b.goals.size(); ++i) {
    const diffc::net::WireQueryResult& r = reply.results[i];
    const std::string where = "batch " + std::to_string(batch) + " goal " + std::to_string(i);
    if (r.status_code != diffc::StatusCode::kOk) {
      *why = where + ": status " + r.status_message;
      return false;
    }
    const bool implied = r.verdict == diffc::ImplicationOutcome::kImplied;
    if (r.verdict == diffc::ImplicationOutcome::kUnknown || implied != b.implied[i]) {
      *why = where + ": verdict disagrees with CheckImplication";
      return false;
    }
    if (implied) continue;
    if (!r.has_counterexample) {
      *why = where + ": not-implied reply without a counterexample";
      return false;
    }
    if (r.counterexample == verified_cx_[batch][i]) continue;
    const ItemSet u(r.counterexample);
    const DifferentialConstraint& g = b.goals[i];
    if (!g.lhs().IsSubsetOf(u) || g.rhs().SomeMemberSubsetOf(u) ||
        diffc::InConstraintLattice(w_.sets[b.set], u)) {
      *why = where + ": counterexample fails its certificate check";
      return false;
    }
    verified_cx_[batch][i] = r.counterexample;
  }
  return true;
}

void RunCounters::Fail(const std::string& what) {
  ++failed;
  if (first_problem.empty()) first_problem = what;
}

void RunCounters::Mismatch(const std::string& what) {
  ++mismatches;
  if (first_problem.empty()) first_problem = what;
}

void RunCounters::Add(const RunCounters& o) {
  attempted += o.attempted;
  failed += o.failed;
  mismatches += o.mismatches;
  if (first_problem.empty()) first_problem = o.first_problem;
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  return (*v)[rank];
}

double TailQuantile(std::size_t samples) {
  if (samples >= 1000 || samples == 0) return 0.99;
  const double q = 1.0 - 10.0 / static_cast<double>(samples);
  return q > 0.5 ? q : 0.5;
}

}  // namespace loadbench
