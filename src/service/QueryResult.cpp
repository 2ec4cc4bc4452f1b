//===- service/QueryResult.cpp - Point-query results ----------------------===//

#include "service/QueryResult.h"

#include "constraints/Explain.h"
#include "support/StrUtil.h"

#include <cmath>

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

QueryResult
seldon::service::queryRep(const constraints::ConstraintSystem &System,
                          const propgraph::RepTable &Reps,
                          const std::string &Rep, propgraph::Role Role,
                          const std::vector<double> &X,
                          const constraints::RowIndex *Index) {
  QueryResult Q;
  Q.Rep = Rep;
  Q.Role = Role;
  constraints::Explanation E =
      constraints::explainRep(System, Reps, Rep, Role, X, Index);
  Q.Found = E.Found;
  if (!E.Found)
    return Q;
  Q.Score = E.Score;
  Q.Pinned = E.Pinned;
  Q.PinnedValue = E.PinnedValue;
  Q.Constraints.reserve(E.Constraints.size());
  for (constraints::ExplainedConstraint &C : E.Constraints)
    Q.Constraints.push_back({std::move(C.Text), C.Residual, C.OnLhs});
  return Q;
}

namespace {

/// Room for a rendering of \p Q: its texts plus an allowance for the rest.
size_t renderedSize(const QueryResult &Q) {
  size_t Size = Q.Rep.size() + 128;
  for (const QueryConstraint &C : Q.Constraints)
    Size += C.Text.size() + 64;
  return Size;
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
    appendJsonEscaped(Out, C.Text);
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
  for (const QueryConstraint &C : Q.Constraints) {
    Out += C.Caps ? "  [caps it, residual " : "  [demands it, residual ";
    // printf's '+' flag: a sign on every value, '-' only when the sign
    // bit is set (so -0.0 keeps its '-').
    if (!std::signbit(C.Residual))
      Out += '+';
    appendDouble(Out, C.Residual, std::chars_format::fixed, 3);
    Out += "] ";
    Out += C.Text;
    Out += '\n';
  }
  return Out;
}
