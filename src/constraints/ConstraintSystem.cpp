//===- constraints/ConstraintSystem.cpp - Generated system ----------------===//

#include "constraints/ConstraintSystem.h"

#include <stdexcept>

using namespace seldon;
using namespace seldon::constraints;

EventOptions::EventOptions(
    std::initializer_list<std::initializer_list<RepId>> Lists) {
  for (std::initializer_list<RepId> List : Lists) {
    for (RepId Id : List)
      push(Id);
    close();
  }
}

void EventOptions::close() {
  if (Options.size() > UINT32_MAX)
    throw std::length_error("event options exceed 2^32 - 1 entries");
  if (Begin.empty())
    Begin.push_back(0);
  Begin.push_back(static_cast<uint32_t>(Options.size()));
}

void EventOptions::reserve(size_t NumEntries, size_t NumOptions) {
  Begin.reserve(size() + NumEntries + 1);
  Options.reserve(Options.size() + NumOptions);
}

solver::CompiledObjective
ConstraintSystem::makeCompiledObjective(double Lambda,
                                        ThreadPool *Pool) const {
  solver::CompiledObjective Obj(Vars.numVars(), Constraints, Lambda, Pool);
  for (const auto &[Var, Value] : Pinned)
    Obj.pin(Var, Value);
  return Obj;
}
