#include "engine/procedures/procedure.h"

namespace diffc {

ProcedureRegistry& ProcedureRegistry::Global() {
  static ProcedureRegistry registry;
  return registry;
}

std::vector<const DecisionProcedureImpl*> ProcedureRegistry::Snapshot() const {
  return {&kTrivialProcedure, &kFdSubclassProcedure, &kIntervalCoverProcedure, &kSatProcedure,
          &kExhaustiveProcedure};
}

}  // namespace diffc
