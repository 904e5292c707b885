#include "engine/procedures/procedure.h"

namespace diffc {

/// Triviality (Definition 3.1): `L(X, Y) = ∅`, every function satisfies
/// the goal. O(1), so `ExecutePlan` runs it before its deadline sample — a
/// certain answer beats a DeadlineExceeded even when the batch is already
/// over budget.
class TrivialProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kTrivial; }
  const char* name() const override { return "trivial"; }

  Applicability CanDecide(const PreparedPremises& /*premises*/,
                          const ProcedureQuery& query) const override {
    return query.goal->IsTrivial() ? Applicability::kYes : Applicability::kNo;
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
