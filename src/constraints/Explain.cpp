//===- constraints/Explain.cpp - Constraint-level explanations ------------===//

#include "constraints/Explain.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

using namespace seldon;
using namespace seldon::constraints;
using namespace seldon::propgraph;

namespace {

void renderTerms(const ConstraintSystem &Sys, const RepTable &Reps,
                 const std::vector<solver::Term> &Terms, std::string &Out) {
  if (Terms.empty()) {
    Out += "0";
    return;
  }
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (I)
      Out += " + ";
    if (Terms[I].Coef != 1.0f) {
      appendDouble(Out, Terms[I].Coef, std::chars_format::general, 3);
      Out += '*';
    }
    Out += Reps.repString(Sys.Vars.repOf(Terms[I].Var));
    Out += '^';
    Out += roleName(Sys.Vars.roleOf(Terms[I].Var));
  }
}

double evalSide(const std::vector<solver::Term> &Terms,
                const std::vector<double> &X) {
  double Sum = 0.0;
  for (const solver::Term &T : Terms)
    Sum += T.Coef * X[T.Var];
  return Sum;
}

bool mentions(const std::vector<solver::Term> &Terms, VarId V) {
  for (const solver::Term &T : Terms)
    if (T.Var == V)
      return true;
  return false;
}

} // namespace

std::string
seldon::constraints::renderConstraint(const ConstraintSystem &Sys,
                                      const RepTable &Reps,
                                      const solver::LinearConstraint &C) {
  std::string Out;
  renderTerms(Sys, Reps, C.Lhs, Out);
  Out += " <= ";
  renderTerms(Sys, Reps, C.Rhs, Out);
  Out += " + ";
  appendDouble(Out, C.C, std::chars_format::fixed, 2);
  return Out;
}

RowIndex seldon::constraints::buildRowIndex(const ConstraintSystem &Sys) {
  const size_t NumVars = Sys.Vars.numVars();
  const size_t NumRows = Sys.Constraints.size();
  if (NumRows >= UINT32_MAX)
    throw std::length_error("constraint system has too many rows to index");
  // LastRow[V] is the last row that listed V, so a variable repeated in a
  // row, or on both of its sides, is listed once for that row.
  std::vector<uint32_t> LastRow(NumVars, UINT32_MAX);
  auto ForEachMention = [&](auto &&Visit) {
    for (uint32_t Row = 0; Row < NumRows; ++Row) {
      const solver::LinearConstraint &C = Sys.Constraints[Row];
      for (const std::vector<solver::Term> *Side : {&C.Lhs, &C.Rhs})
        for (const solver::Term &T : *Side) {
          assert(T.Var < NumVars && "row mentions an unknown variable");
          if (LastRow[T.Var] != Row) {
            LastRow[T.Var] = Row;
            Visit(T.Var, Row);
          }
        }
    }
  };

  // Counting pass: Begin[V + 1] counts V's rows (at most NumRows, so it
  // cannot wrap), then a prefix sum turns the counts into offsets.
  RowIndex Index;
  Index.Begin.assign(NumVars + 1, 0);
  ForEachMention([&](VarId V, uint32_t) { ++Index.Begin[V + 1]; });
  uint64_t Total = 0;
  for (size_t V = 0; V < NumVars; ++V) {
    Total += Index.Begin[V + 1];
    if (Total > UINT32_MAX)
      throw std::length_error(
          "constraint system has too many terms to index");
    Index.Begin[V + 1] = static_cast<uint32_t>(Total);
  }

  // Fill pass: rows are visited in ascending order, so each variable's
  // list comes out sorted.
  Index.Rows.resize(Total);
  std::vector<uint32_t> Next(Index.Begin.begin(), Index.Begin.end() - 1);
  std::fill(LastRow.begin(), LastRow.end(), UINT32_MAX);
  ForEachMention([&](VarId V, uint32_t Row) { Index.Rows[Next[V]++] = Row; });
  return Index;
}

Explanation seldon::constraints::explainRep(const ConstraintSystem &Sys,
                                            const RepTable &Reps,
                                            const std::string &Rep, Role R,
                                            const std::vector<double> &X,
                                            const RowIndex *Index) {
  Explanation Out;
  RepId Id;
  if (!Reps.lookup(Rep, Id))
    return Out;
  VarId V;
  if (!Sys.Vars.lookup(Id, R, V))
    return Out;
  Out.Found = true;
  Out.Score = V < X.size() ? X[V] : 0.0;
  for (const auto &[PinnedVar, Value] : Sys.Pinned)
    if (PinnedVar == V) {
      Out.Pinned = true;
      Out.PinnedValue = Value;
    }

  auto Explain = [&](const solver::LinearConstraint &C, bool Lhs) {
    ExplainedConstraint EC;
    EC.Text = renderConstraint(Sys, Reps, C);
    EC.Residual = X.empty() ? 0.0
                            : evalSide(C.Lhs, X) - evalSide(C.Rhs, X) - C.C;
    EC.OnLhs = Lhs;
    Out.Constraints.push_back(std::move(EC));
  };
  if (Index) {
    assert(Index->Begin.size() == Sys.Vars.numVars() + 1 &&
           "row index built from another system");
    std::span<const uint32_t> Rows = Index->rowsOf(V);
    Out.Constraints.reserve(Rows.size());
    for (uint32_t Row : Rows) {
      const solver::LinearConstraint &C = Sys.Constraints[Row];
      Explain(C, mentions(C.Lhs, V));
    }
    return Out;
  }
  for (const solver::LinearConstraint &C : Sys.Constraints) {
    bool Lhs = mentions(C.Lhs, V);
    if (Lhs || mentions(C.Rhs, V))
      Explain(C, Lhs);
  }
  return Out;
}
