//===- constraints/ConstraintSystem.cpp - Generated system ----------------===//

#include "constraints/ConstraintSystem.h"

using namespace seldon;
using namespace seldon::constraints;

solver::CompiledObjective
ConstraintSystem::makeCompiledObjective(double Lambda,
                                        ThreadPool *Pool) const {
  solver::CompiledObjective Obj(Vars.numVars(), Constraints, Lambda, Pool);
  for (const auto &[Var, Value] : Pinned)
    Obj.pin(Var, Value);
  return Obj;
}
