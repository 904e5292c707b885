#include <algorithm>

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
    // The free-attribute bound is an EngineOptions knob, applied by the
    // planner (which owns the options); the procedure itself re-checks it
    // inside CheckImplicationExhaustive.
    return Applicability::kFallback;
  }

  double EstimateCost(const PreparedPremises& premises,
                      const ProcedureQuery& query) const override {
    const int free_bits =
        std::min(query.n - query.goal->lhs().size(), 62);
    return static_cast<double>(std::uint64_t{1} << std::max(free_bits, 0)) *
           (1.0 + static_cast<double>(premises.constraints().size()));
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                    const ProcedureQuery& query,
                                    ProcedureContext* ctx) const override {
    return CheckImplicationExhaustive(query.n, premises.constraints(), *query.goal,
                                      ctx->options->exhaustive_max_free_bits, ctx->stop);
  }
};

constinit const ExhaustiveProcedure kExhaustiveProcedureInstance{};
constinit const DecisionProcedureImpl& kExhaustiveProcedure = kExhaustiveProcedureInstance;

}  // namespace diffc
