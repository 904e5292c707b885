#ifndef DIFFC_DIFFC_H_
#define DIFFC_DIFFC_H_

/// \file
/// Umbrella header for the diffc library — a complete implementation of
/// "Differential Constraints" (Sayrafi & Van Gucht, PODS 2005): the
/// constraint language and its density semantics, lattice decompositions,
/// the sound & complete inference system with machine-checkable proofs,
/// the propositional translation and coNP decision procedure, the frequent
/// itemset application (disjunctive rules and concise representations),
/// and the relational application (Simpson functions and positive boolean
/// dependencies).

#include "core/armstrong.h"
#include "core/atoms.h"
#include "core/closure.h"
#include "core/constraint.h"
#include "core/counterexample.h"
#include "core/differential_semantics.h"
#include "core/function_ops.h"
#include "core/implication.h"
#include "core/inference.h"
#include "core/parser.h"
#include "ds/belief.h"
#include "engine/caches.h"
#include "engine/implication_engine.h"
#include "fis/apriori.h"
#include "fis/association.h"
#include "fis/basket.h"
#include "fis/closed.h"
#include "fis/concise.h"
#include "fis/disjunctive.h"
#include "fis/generator.h"
#include "fis/frequency.h"
#include "fis/induce.h"
#include "fis/io.h"
#include "fis/ndi.h"
#include "fis/support.h"
#include "lattice/decomposition.h"
#include "math/gauss.h"
#include "math/simplex.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "lattice/hitting_set.h"
#include "lattice/interval.h"
#include "lattice/itemset.h"
#include "lattice/mobius.h"
#include "lattice/set_family.h"
#include "lattice/universe.h"
#include "prop/cnf.h"
#include "prop/dpll.h"
#include "prop/formula.h"
#include "prop/implication_constraint.h"
#include "prop/minterm.h"
#include "prop/tautology.h"
#include "relational/boolean_dependency.h"
#include "relational/distribution.h"
#include "relational/dmvd.h"
#include "relational/entropy.h"
#include "relational/fd.h"
#include "relational/normalization.h"
#include "relational/positive_bool.h"
#include "relational/relation.h"
#include "relational/simpson.h"
#include "util/bitops.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/rational.h"
#include "util/status.h"
#include "util/text.h"

#endif  // DIFFC_DIFFC_H_
