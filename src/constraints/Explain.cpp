//===- constraints/Explain.cpp - The var->rows index ----------------------===//

#include "constraints/Explain.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

using namespace seldon;
using namespace seldon::constraints;

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
      for (const solver::Term &T : Sys.Constraints.terms(Row)) {
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
