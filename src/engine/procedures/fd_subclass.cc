#include "engine/procedures/procedure.h"

namespace diffc {

/// The polynomial FD subclass (singleton right-hand sides): attribute-set
/// closure over the prepared `FdPremiseIndex`, O(|C|^2) set operations.
/// Complete on its subclass, so the planner treats its answer as terminal.
class FdSubclassProcedure : public DecisionProcedureImpl {
 public:
  DecisionProcedure id() const override { return DecisionProcedure::kFdSubclass; }
  const char* name() const override { return "fd-subclass"; }

  Applicability CanDecide(const PreparedPremises& premises,
                          const ProcedureQuery& query) const override {
    return premises.fd_index().eligible && query.goal->rhs().size() == 1
               ? Applicability::kYes
               : Applicability::kNo;
  }

  Result<ImplicationOutcome> Decide(const PreparedPremises& premises,
                                    const ProcedureQuery& query,
                                    ProcedureContext* /*ctx*/) const override {
    return CheckImplicationFdIndexed(query.n, premises.fd_index(), *query.goal);
  }
};

constinit const FdSubclassProcedure kFdSubclassProcedureInstance{};
constinit const DecisionProcedureImpl& kFdSubclassProcedure = kFdSubclassProcedureInstance;

}  // namespace diffc
