//===- solver/Problem.h - Relaxed constraint-system problem ------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relaxed linear optimization problem of paper §4.4, Eq. (9):
///
///   min  Σ_i max(L_i − R_i, 0)  +  λ · Σ_v x_v
///   s.t. 0 ≤ x_v ≤ 1            (Eq. 10, enforced by projection)
///        x_v = c_v for pinned v (Eq. 11, the seed specification)
///
/// Each soft constraint states Σ lhs ≤ Σ rhs + C; its violation
/// max(Σ lhs − Σ rhs − C, 0) is hinge-shaped, so the objective is convex
/// and a subgradient method converges. This header holds the problem's
/// input (the constraint rows) and the optimizer's knobs and results; the
/// evaluator is solver::CompiledObjective.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SOLVER_PROBLEM_H
#define SELDON_SOLVER_PROBLEM_H

#include "support/IndexIterator.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace seldon {
namespace solver {

/// One weighted variable occurrence.
struct Term {
  uint32_t Var = 0;
  float Coef = 1.0f;
};

/// A soft constraint, Σ Lhs ≤ Σ Rhs + C, as a view into the
/// ConstraintRows that holds it.
struct LinearConstraint {
  std::span<const Term> Lhs;
  std::span<const Term> Rhs;
  double C = 0.0;
};

/// The rows of a constraint system, flat: one 16-byte record per row
/// (where its terms begin, where its Rhs begins, and its C), a closing
/// record, and one Term array holding every row's Lhs then Rhs, row after
/// row. A store of N rows is N + 1 records and one term array, so copying
/// or freeing it is a few array operations however many rows it holds.
///
/// Reading yields LinearConstraint views. A view stays valid until the
/// store is next appended to (add, closeRow, appendMapped, reserve), which
/// may move the term array; never hold one across an append, and never
/// pass a store's own view back to its add().
///
/// Offsets are 32-bit: an append that would take the store past 2^32 - 1
/// terms throws std::length_error.
class ConstraintRows {
public:
  size_t size() const { return Records.size() - !Records.empty(); }
  bool empty() const { return size() == 0; }
  size_t numTerms() const { return Terms.size(); }

  /// Row \p R (R < size()).
  LinearConstraint operator[](size_t R) const {
    const Term *T = Terms.data();
    const Record &Row = Records[R];
    return {{T + Row.Begin, T + Row.RhsBegin},
            {T + Row.RhsBegin, T + Records[R + 1].Begin},
            Row.C};
  }
  LinearConstraint front() const { return (*this)[0]; }
  /// Every term of row \p R, its Lhs then its Rhs.
  std::span<const Term> terms(size_t R) const {
    return {Terms.data() + Records[R].Begin,
            Terms.data() + Records[R + 1].Begin};
  }

  /// Hints the cache to load row \p R's record, for walks that visit
  /// scattered rows.
  void prefetch(size_t R) const { __builtin_prefetch(Records.data() + R); }

  /// Yields each row's view, by value, in row order.
  using const_iterator = IndexIterator<ConstraintRows, LinearConstraint>;
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Appends the row Σ \p Lhs ≤ Σ \p Rhs + \p C.
  void add(std::span<const Term> Lhs, std::span<const Term> Rhs, double C);
  void add(std::initializer_list<Term> Lhs, std::initializer_list<Term> Rhs,
           double C) {
    add(std::span<const Term>(Lhs.begin(), Lhs.size()),
        std::span<const Term>(Rhs.begin(), Rhs.size()), C);
  }

  /// The incremental form of add(), for a writer that produces a row's
  /// terms one run at a time: push the Lhs terms, closeLhs(), push the Rhs
  /// terms, then closeRow(C), which appends the row.
  void push(std::span<const Term> Run) {
    Terms.insert(Terms.end(), Run.begin(), Run.end());
  }
  void closeLhs() { openRecord().RhsBegin = offset(); }
  void closeRow(double C);

  /// Appends every row of \p Other, mapping each variable V to Map[V].
  /// Neither store may have a row open.
  void appendMapped(const ConstraintRows &Other,
                    std::span<const uint32_t> Map);

  /// Makes room for \p NumRows more rows holding \p NumTerms more terms.
  void reserve(size_t NumRows, size_t NumTerms);

private:
  struct Record {
    uint32_t Begin = 0;    ///< The row's first term.
    uint32_t RhsBegin = 0; ///< The row's first Rhs term (Lhs end).
    double C = 0.0;
  };
  static_assert(sizeof(Record) == 16, "one row's record is 16 bytes");

  /// Terms.size() as an offset; throws std::length_error past 32 bits.
  uint32_t offset() const;
  /// The record of the row being written: the closing record, created
  /// with the store's first row.
  Record &openRecord() {
    if (Records.empty())
      Records.emplace_back();
    return Records.back();
  }

  /// Records[R] for each row R, then the closing record, whose Begin is
  /// where the next row's terms start. Empty until the first row.
  std::vector<Record> Records;
  std::vector<Term> Terms;
};

/// Which evaluator a solve runs on. One kernel remains: the compiled CSR
/// objective with its blocked scalar/AVX2/AVX-512 sweep. The enumerator
/// keeps the value 1 it had when four backends existed, because seldond's
/// journal stores it as a byte.
enum class SolverBackend : uint8_t {
  Compiled = 1, ///< solver::CompiledObjective.
};

/// CLI/wire name of \p Backend: "compiled".
inline const char *solverBackendName(SolverBackend) { return "compiled"; }

/// What a backend flag or field accepts, for error messages.
inline constexpr const char *SolverBackendChoices =
    "compiled (legacy, simd and simd-f32 were merged into compiled)";

/// Parses a CLI/wire backend name; returns false on any name but
/// "compiled" without touching \p Out.
inline bool parseSolverBackend(const std::string &Name, SolverBackend &Out) {
  if (Name != "compiled")
    return false;
  Out = SolverBackend::Compiled;
  return true;
}

/// The optimizer's knobs and results.
struct SolveOptions {
  int MaxIterations = 500;
  double LearningRate = 0.05;
  /// Convergence threshold: Adam stops when a plain projected step would
  /// move no coordinate by this much.
  double Tolerance = 1e-7;
  /// The one stop condition, polled once per iteration (callers wire
  /// their deadline in here). Returning true stops the loop and returns
  /// the best iterate so far with DeadlineExpired set — partial and
  /// flagged, never a hang.
  std::function<bool()> ShouldStop;
  /// Invoked after every completed iteration with (iteration, current
  /// objective value). Called from the optimizing thread; must not mutate
  /// the objective. Never invoked with a non-finite objective value —
  /// poisoned evaluations are rolled back before any callback fires.
  std::function<void(int Iteration, double Objective)> OnIteration;
  /// Evaluator Session::solve builds for the run.
  SolverBackend Backend = SolverBackend::Compiled;
};

struct SolveResult {
  std::vector<double> X;
  double FinalObjective = 0.0;
  int Iterations = 0;
  bool Converged = false;

  /// Evaluations whose objective value or gradient came back non-finite
  /// (NaN/Inf). Zero on a healthy run — the guards never change the
  /// trajectory of a finite solve.
  int NonFiniteSteps = 0;
  /// Recovery-ladder rungs taken (revert + moment reset + step backoff)
  /// that produced a finite re-evaluation.
  int Recoveries = 0;
  /// The ladder ran dry: the result is the best finite iterate seen (or
  /// the projected initial point when nothing ever evaluated finite).
  bool FellBack = false;
  /// ShouldStop ended the loop before convergence.
  bool DeadlineExpired = false;
};

} // namespace solver
} // namespace seldon

#endif // SELDON_SOLVER_PROBLEM_H
