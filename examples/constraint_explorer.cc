// constraint_explorer: a small CLI for playing with differential
// constraints.
//
//   constraint_explorer <n> "<constraints>" "<goal>"
//
//   n            universe size (attributes A, B, C, ...)
//   constraints  ';'-separated differential constraints, e.g.
//                "A -> {B}; B -> {CD}"
//   goal         a single constraint to test against the set
//
// Prints the lattice decompositions, the implication verdict from three
// deciders, a machine-checked proof when implied, and a counterexample
// (function + basket list) when not. Runs a built-in demo when invoked
// with no arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "diffc.h"

using namespace diffc;

namespace {

int Explore(int n, const std::string& constraints_text, const std::string& goal_text) {
  Universe u = Universe::Letters(n);
  Result<ConstraintSet> premises = ParseConstraintSet(u, constraints_text);
  if (!premises.ok()) {
    std::fprintf(stderr, "error parsing constraints: %s\n",
                 premises.status().ToString().c_str());
    return 1;
  }
  Result<DifferentialConstraint> goal = ParseConstraint(u, goal_text);
  if (!goal.ok()) {
    std::fprintf(stderr, "error parsing goal: %s\n", goal.status().ToString().c_str());
    return 1;
  }

  std::printf("universe: %s\n", u.FormatSet(u.full_mask()).c_str());
  std::printf("premises: %s\n", ConstraintSetToString(*premises, u).c_str());
  std::printf("goal:     %s%s\n\n", goal->ToString(u).c_str(),
              goal->IsTrivial() ? "   (trivial)" : "");

  // Lattice decompositions (Definition 2.6).
  auto print_lattice = [&](const DifferentialConstraint& c) {
    Result<std::vector<ItemSet>> L = EnumerateDecomposition(n, c.lhs(), c.rhs());
    std::printf("  L(%s) = {", c.ToString(u).c_str());
    if (L.ok()) {
      for (std::size_t i = 0; i < L->size(); ++i) {
        std::printf("%s%s", i ? ", " : "", (*L)[i].ToString(u).c_str());
      }
    } else {
      std::printf("too large to enumerate");
    }
    std::printf("}\n");
  };
  for (const DifferentialConstraint& p : *premises) print_lattice(p);
  print_lattice(*goal);

  // Implication, three ways (Theorem 3.5 / Proposition 5.4 / Section 8).
  Result<ImplicationOutcome> sat = CheckImplicationSat(n, *premises, *goal);
  if (!sat.ok()) {
    std::fprintf(stderr, "SAT checker failed: %s\n", sat.status().ToString().c_str());
    return 1;
  }
  std::printf("\nSAT/coNP decision: %s\n", sat->implied ? "IMPLIED" : "NOT implied");
  if (Result<ImplicationOutcome> ex = CheckImplicationExhaustive(n, *premises, *goal);
      ex.ok()) {
    std::printf("exhaustive check:  %s\n", ex->implied ? "IMPLIED" : "NOT implied");
  }
  if (FdSubclassApplicable(*premises, *goal)) {
    std::printf("FD-subclass (P):   %s\n",
                CheckImplicationFd(n, *premises, *goal)->implied ? "IMPLIED"
                                                                 : "NOT implied");
  }

  if (sat->implied) {
    Result<Derivation> proof = DeriveImplied(n, *premises, *goal);
    if (proof.ok()) {
      Status valid = ValidateDerivation(n, *premises, *proof);
      std::printf("\nproof in the Figure 1 system (%d steps, %s):\n%s", proof->size(),
                  valid.ok() ? "machine-validated" : valid.ToString().c_str(),
                  proof->ToString(u).c_str());
    } else {
      std::printf("\nproof generation skipped: %s\n", proof.status().ToString().c_str());
    }
  } else {
    ItemSet cex = *sat->counterexample;
    std::printf("counterexample U = %s  (valid: %s)\n", cex.ToString(u).c_str(),
                IsValidCounterexample(n, *premises, *goal, cex) ? "yes" : "no");
    std::printf("witnesses: the function f_U(W)=[W ⊆ U] and the one-basket list "
                "(%s)\nboth satisfy every premise and violate the goal.\n",
                cex.ToString(u).c_str());
  }

  // Redundancy report.
  if (Result<std::vector<int>> redundant = RedundantConstraints(n, *premises);
      redundant.ok() && !redundant->empty()) {
    std::printf("\nredundant premises (implied by the rest):");
    for (int i : *redundant) std::printf(" #%d", i);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    std::printf("== demo: constraint_explorer 4 \"A -> {BC, CD}; C -> {D}\" "
                "\"AB -> {D}\" ==\n\n");
    int rc = Explore(4, "A -> {BC, CD}; C -> {D}", "AB -> {D}");
    if (rc != 0) return rc;
    std::printf("\n== demo: a non-implied goal ==\n\n");
    return Explore(4, "A -> {BC, CD}; C -> {D}", "D -> {A}");
  }
  if (argc != 4) {
    std::fprintf(stderr,
                 "usage: %s <n> \"<constraints>\" \"<goal>\"\n"
                 "   eg: %s 4 \"A -> {B}; B -> {CD}\" \"A -> {D}\"\n",
                 argv[0], argv[0]);
    return 2;
  }
  int n = std::atoi(argv[1]);
  if (n < 1 || n > 26) {
    std::fprintf(stderr, "n must be in 1..26\n");
    return 2;
  }
  return Explore(n, argv[2], argv[3]);
}
