#include "engine/procedures/procedure.h"

namespace diffc {

/// Exhaustive lattice containment (Theorem 3.5 checked by enumerating
/// L(X, Y)): the fallback of last resort when the SAT budget ran out and
/// the free-attribute count admits enumeration. `Applicability::kFallback`
/// makes the planner run it only after a prior procedure returned
/// ResourceExhausted.
class ExhaustiveProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kExhaustive; }
  const char* name() const override { return "exhaustive"; }

  Applicability CanDecide(const PreparedPremises& /*premises*/,
                          const ProcedureQuery& /*query*/) const override {
    // The free-attribute bound is an EngineOptions knob: `Decide` passes it
    // to CheckImplicationExhaustive, which enforces it.
    return Applicability::kFallback;
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                    const ProcedureQuery& query,
                                    ProcedureContext* ctx) const override {
    return CheckImplicationExhaustive(query.n, premises.masks().Materialize(), *query.goal,
                                      ctx->options->exhaustive_max_free_bits, ctx->stop);
  }
};

constinit const ExhaustiveProcedure kExhaustiveProcedureInstance{};
constinit const DecisionProcedureImpl& kExhaustiveProcedure = kExhaustiveProcedureInstance;

}  // namespace diffc
