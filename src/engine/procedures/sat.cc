#include "engine/procedures/procedure.h"
#include "engine/sat_kernel.h"

namespace diffc {

/// The complete procedure: the mask-native counterexample search
/// (`SearchCounterexample`) over the premise arena compiled into the
/// prepared artifact, seeded on the intervals interval cover left
/// uncovered. Returns ResourceExhausted past the node budget
/// (`max_solver_decisions`), which is what arms the exhaustive fallback.
class SatProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kSat; }
  const char* name() const override { return "sat"; }

  Applicability CanDecide(const PreparedPremises& /*premises*/,
                          const ProcedureQuery& /*query*/) const override {
    return Applicability::kYes;
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                    const ProcedureQuery& query,
                                    ProcedureContext* ctx) const override {
    ctx->stats->premise_cache_used = true;
    ctx->stats->premise_cache_hit = ctx->prepared_from_cache;
    return SearchCounterexample(query.n, premises.masks(), *query.goal,
                                ctx->budgets.max_decisions, ctx->stop, &ctx->stats->solver,
                                ctx->uncovered_witnesses);
  }
};

constinit const SatProcedure kSatProcedureInstance{};
constinit const DecisionProcedureImpl& kSatProcedure = kSatProcedureInstance;

}  // namespace diffc
