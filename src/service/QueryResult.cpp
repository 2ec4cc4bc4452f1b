//===- service/QueryResult.cpp - Point-query results ----------------------===//

#include "service/QueryResult.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>

using namespace seldon;
using namespace seldon::service;

bool seldon::service::roleFromName(const std::string &Name,
                                   propgraph::Role &Out) {
  if (Name == "source")
    Out = propgraph::Role::Source;
  else if (Name == "sanitizer")
    Out = propgraph::Role::Sanitizer;
  else if (Name == "sink")
    Out = propgraph::Role::Sink;
  else
    return false;
  return true;
}

namespace {

bool mentions(std::span<const solver::Term> Terms, constraints::VarId V) {
  return std::any_of(Terms.begin(), Terms.end(),
                     [V](const solver::Term &T) { return T.Var == V; });
}

/// A memoized text: Pool[Begin, Begin + Size). Size 0 marks an empty
/// slot; every memoized text is non-empty.
struct Slice {
  size_t Begin = 0;
  size_t Size = 0;
};

/// Number texts by bit pattern, in a direct-mapped table: a miss renders
/// the number once into the pool and takes its slot. Coefficients come
/// from the 1/n averaging and the slack C is shared by most rows, so
/// nearly every lookup hits.
class NumberMemo {
public:
  NumberMemo(std::chars_format Format, int Precision)
      : Format(Format), Precision(Precision) {}

  void append(double Value, std::string &Pool, std::string &Out) {
    uint64_t Bits = std::bit_cast<uint64_t>(Value);
    Entry &E = Slots[(Bits * 0x9e3779b97f4a7c15ull) >> 58];
    if (E.Text.Size == 0 || E.Bits != Bits) {
      E.Bits = Bits;
      E.Text.Begin = Pool.size();
      appendDouble(Pool, Value, Format, Precision);
      E.Text.Size = Pool.size() - E.Text.Begin;
    }
    Out.append(Pool, E.Text.Begin, E.Text.Size);
  }

private:
  struct Entry {
    uint64_t Bits = 0;
    Slice Text;
  };
  std::chars_format Format;
  int Precision;
  std::array<Entry, 64> Slots;
};

/// The one walk's row appender: renders each row it is given into the
/// answer's Text, records the row's end, residual and side, and renders a
/// variable's `rep^role` label and each number at most once per query.
class RowWriter {
public:
  RowWriter(const constraints::ConstraintSystem &Sys,
            const propgraph::RepTable &Reps, const std::vector<double> &X,
            constraints::VarId V, QueryResult &Q)
      : Sys(Sys), Reps(Reps), X(X), V(V), Q(Q),
        Labels(Sys.Vars.numVars()) {}

  void append(const solver::LinearConstraint &C) {
    double L = appendSide(C.Lhs);
    Q.Text += " <= ";
    double R = appendSide(C.Rhs);
    Q.Text += " + ";
    Constants.append(C.C, Pool, Q.Text);
    Q.Constraints.push_back(
        {Q.Text.size(), X.empty() ? 0.0 : L - R - C.C, mentions(C.Lhs, V)});
  }

private:
  /// Appends \p Terms, or `0` when there are none, and returns
  /// Σ Coef·X over them.
  double appendSide(std::span<const solver::Term> Terms) {
    if (Terms.empty()) {
      Q.Text += '0';
      return 0.0;
    }
    double Sum = 0.0;
    for (size_t I = 0; I < Terms.size(); ++I) {
      const solver::Term &T = Terms[I];
      if (I)
        Q.Text += " + ";
      if (T.Coef != 1.0f) {
        Coefficients.append(T.Coef, Pool, Q.Text);
        Q.Text += '*';
      }
      appendLabel(T.Var);
      if (!X.empty())
        Sum += T.Coef * X[T.Var];
    }
    return Sum;
  }

  void appendLabel(constraints::VarId Var) {
    Slice &L = Labels[Var];
    if (L.Size == 0) {
      const std::string &Rep = Reps.repString(Sys.Vars.repOf(Var));
      Q.TextNeedsEscape |= std::any_of(Rep.begin(), Rep.end(), [](char C) {
        return jsonNeedsEscape(static_cast<unsigned char>(C));
      });
      L.Begin = Pool.size();
      Pool += Rep;
      Pool += '^';
      Pool += propgraph::roleName(Sys.Vars.roleOf(Var));
      L.Size = Pool.size() - L.Begin;
    }
    Q.Text.append(Pool, L.Begin, L.Size);
  }

  const constraints::ConstraintSystem &Sys;
  const propgraph::RepTable &Reps;
  const std::vector<double> &X;
  const constraints::VarId V;
  QueryResult &Q;
  /// Every memoized text, labels and numbers alike.
  std::string Pool;
  /// Each variable's label, by VarId.
  std::vector<Slice> Labels;
  NumberMemo Coefficients{std::chars_format::general, 3};
  NumberMemo Constants{std::chars_format::fixed, 2};
};

} // namespace

QueryResult
seldon::service::queryRep(const constraints::ConstraintSystem &System,
                          const propgraph::RepTable &Reps,
                          const std::string &Rep, propgraph::Role Role,
                          const std::vector<double> &X,
                          const constraints::RowIndex *Index) {
  QueryResult Q;
  Q.Rep = Rep;
  Q.Role = Role;
  propgraph::RepId Id;
  constraints::VarId V;
  if (!Reps.lookup(Rep, Id) || !System.Vars.lookup(Id, Role, V))
    return Q;
  Q.Found = true;
  Q.Score = V < X.size() ? X[V] : 0.0;
  for (const auto &[PinnedVar, Value] : System.Pinned)
    if (PinnedVar == V) {
      Q.Pinned = true;
      Q.PinnedValue = Value;
    }

  RowWriter Writer(System, Reps, X, V, Q);
  const solver::ConstraintRows &Rows = System.Constraints;
  if (!Index) {
    // The scan reads rows in order, so the hardware prefetcher keeps up.
    for (size_t R = 0; R < Rows.size(); ++R)
      if (mentions(Rows.terms(R), V))
        Writer.append(Rows[R]);
    return Q;
  }

  assert(Index->Begin.size() == System.Vars.numVars() + 1 &&
         "row index built from another system");
  // One variable's rows sit scattered through the system, and each costs
  // dependent misses: first the row's record, then its terms. Fetch the
  // record RowAhead rows early and, once it is in, the terms TermsAhead
  // rows early, as CompiledObjective's row compile does for its hash
  // table.
  constexpr size_t RowAhead = 16;
  constexpr size_t TermsAhead = 8;
  std::span<const uint32_t> Ids = Index->rowsOf(V);
  Q.Constraints.reserve(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I) {
    if (I + RowAhead < Ids.size())
      Rows.prefetch(Ids[I + RowAhead]);
    if (I + TermsAhead < Ids.size()) {
      const solver::LinearConstraint &Next = Rows[Ids[I + TermsAhead]];
      __builtin_prefetch(Next.Lhs.data());
      __builtin_prefetch(Next.Rhs.data());
    }
    Writer.append(Rows[Ids[I]]);
  }
  return Q;
}

namespace {

/// Room for a rendering of \p Q: its texts plus an allowance for the rest.
size_t renderedSize(const QueryResult &Q) {
  return Q.Rep.size() + 128 + Q.Text.size() + 64 * Q.Constraints.size();
}

} // namespace

std::string seldon::service::renderQueryJson(const QueryResult &Q) {
  std::string Out;
  Out.reserve(renderedSize(Q));
  Out += "{\"rep\":\"";
  appendJsonEscaped(Out, Q.Rep);
  Out += "\",\"role\":\"";
  Out += propgraph::roleName(Q.Role);
  Out += Q.Found ? "\",\"found\":true" : "\",\"found\":false";
  Out += ",\"score\":";
  appendDouble(Out, Q.Score, std::chars_format::fixed, 6);
  Out += Q.Pinned ? ",\"pinned\":true" : ",\"pinned\":false";
  Out += ",\"pinned_value\":";
  appendDouble(Out, Q.PinnedValue, std::chars_format::fixed, 6);
  Out += ",\"constraints\":[";
  for (size_t I = 0; I < Q.Constraints.size(); ++I) {
    const QueryConstraint &C = Q.Constraints[I];
    if (I)
      Out += ',';
    Out += C.Caps ? "{\"kind\":\"caps\",\"residual\":"
                  : "{\"kind\":\"demands\",\"residual\":";
    appendDouble(Out, C.Residual, std::chars_format::fixed, 6);
    Out += ",\"text\":\"";
    if (Q.TextNeedsEscape)
      appendJsonEscaped(Out, Q.text(I));
    else
      Out += Q.text(I);
    Out += "\"}";
  }
  Out += "]}";
  return Out;
}

std::string seldon::service::renderQueryText(const QueryResult &Q) {
  std::string Out;
  Out.reserve(renderedSize(Q));
  Out += Q.Rep;
  Out += " as ";
  Out += propgraph::roleName(Q.Role);
  Out += ": score ";
  appendDouble(Out, Q.Score, std::chars_format::fixed, 3);
  if (Q.Pinned) {
    Out += " (pinned to ";
    appendDouble(Out, Q.PinnedValue, std::chars_format::fixed, 0);
    Out += " by the seed)";
  }
  Out += '\n';
  Out += std::to_string(Q.Constraints.size());
  Out += " constraint(s) mention it:\n";
  for (size_t I = 0; I < Q.Constraints.size(); ++I) {
    const QueryConstraint &C = Q.Constraints[I];
    Out += C.Caps ? "  [caps it, residual " : "  [demands it, residual ";
    // printf's '+' flag: a sign on every value, '-' only when the sign
    // bit is set (so -0.0 keeps its '-').
    if (!std::signbit(C.Residual))
      Out += '+';
    appendDouble(Out, C.Residual, std::chars_format::fixed, 3);
    Out += "] ";
    Out += Q.text(I);
    Out += '\n';
  }
  return Out;
}
