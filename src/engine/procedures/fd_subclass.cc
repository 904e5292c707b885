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

  double EstimateCost(const PreparedPremises& premises,
                      const ProcedureQuery& /*query*/) const override {
    // Closure is at worst |C| passes over |C| premises. The base constant
    // pins the cross-procedure tier (after trivial, before interval-cover)
    // for any realistic premise count; the size term orders instances
    // within the tier.
    const double c = static_cast<double>(premises.constraints().size());
    return 1.0 + 1e-6 * c * c;
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
