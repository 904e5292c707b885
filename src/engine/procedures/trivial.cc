#include "engine/procedures/procedure.h"

namespace diffc {

/// Triviality (Definition 3.1): `L(X, Y) = ∅`, every function satisfies
/// the goal. Zero-cost, so the planner runs it before the first deadline
/// sample — an O(1) certain answer beats a DeadlineExceeded even when the
/// batch is already over budget.
class TrivialProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kTrivial; }
  const char* name() const override { return "trivial"; }

  Applicability CanDecide(const PreparedPremises& /*premises*/,
                          const ProcedureQuery& query) const override {
    return query.goal->IsTrivial() ? Applicability::kYes : Applicability::kNo;
  }

  double EstimateCost(const PreparedPremises& /*premises*/,
                      const ProcedureQuery& /*query*/) const override {
    return 0.0;
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& /*premises*/,
                                    const ProcedureQuery& /*query*/,
                                    ProcedureContext* /*ctx*/) const override {
    ImplicationOutcome out;
    out.SetImplied();
    return out;
  }
};

constinit const TrivialProcedure kTrivialProcedureInstance{};
constinit const DecisionProcedureImpl& kTrivialProcedure = kTrivialProcedureInstance;

}  // namespace diffc
