//===- constraints/ConstraintSystem.h - Generated system ---------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of constraint generation: the soft information-flow
/// constraints (paper §4.2/§4.3), the variable table, the pinned seed
/// variables (§4.1), and per-event candidate bookkeeping used by the
/// evaluation (Tab. 1 statistics and precision sampling).
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
#define SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H

#include "constraints/VarTable.h"
#include "solver/CompiledObjective.h"
#include "support/IndexIterator.h"

#include <initializer_list>
#include <span>
#include <vector>

namespace seldon {
namespace constraints {

/// Each event's surviving backoff options Reps(v), flat: entry E is
/// Options[Begin[E] .. Begin[E + 1]), ids most to least specific. Reading
/// yields spans, which stay valid until the next push() or close().
class EventOptions {
public:
  EventOptions() = default;
  /// One entry per inner list, in order (hand-built systems and tests).
  EventOptions(std::initializer_list<std::initializer_list<RepId>> Lists);

  size_t size() const { return Begin.size() - !Begin.empty(); }

  std::span<const RepId> operator[](size_t E) const {
    return {Options.data() + Begin[E], Options.data() + Begin[E + 1]};
  }

  /// Yields each entry's span, by value, in entry order.
  using const_iterator = IndexIterator<EventOptions, std::span<const RepId>>;
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Writing, one entry at a time: push() its options, then close() it.
  void push(RepId Id) { Options.push_back(Id); }
  void close();
  /// Makes room for \p NumEntries more entries holding \p NumOptions more
  /// options.
  void reserve(size_t NumEntries, size_t NumOptions);

private:
  /// Where each entry starts, then where the next one will. Empty until
  /// the first entry closes.
  std::vector<uint32_t> Begin;
  std::vector<RepId> Options;
};

/// A generated constraint system ready for the solver.
struct ConstraintSystem {
  /// Soft constraints (Σ Lhs ≤ Σ Rhs + C form), flat.
  solver::ConstraintRows Constraints;
  /// (rep, role) -> variable mapping.
  VarTable Vars;
  /// Seed pins: (variable, value in {0, 1}).
  std::vector<std::pair<VarId, double>> Pinned;

  /// Per-event surviving backoff options Reps(v) (after the frequency
  /// cutoff and the blacklist); empty entries mean the event is ignored.
  EventOptions EventReps;

  /// Number of events with a non-empty backoff set (Tab. 1 "# Candidates").
  size_t NumCandidates = 0;
  /// Mean |Reps(v)| over candidates (Tab. 1 "Average # backoff options").
  double AvgBackoffOptions = 0.0;

  /// Compiles the solver objective (hinge relaxation + L1, Eq. 9) with
  /// the regularization strength \p Lambda and the seed pins applied, on
  /// \p Pool when set (which then also runs the sweeps); see
  /// solver/CompiledObjective.h.
  solver::CompiledObjective
  makeCompiledObjective(double Lambda, ThreadPool *Pool = nullptr) const;
};

} // namespace constraints
} // namespace seldon

#endif // SELDON_CONSTRAINTS_CONSTRAINTSYSTEM_H
