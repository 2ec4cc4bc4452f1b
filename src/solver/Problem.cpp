//===- solver/Problem.cpp - Constraint rows -------------------------------===//

#include "solver/Problem.h"

#include <cassert>
#include <stdexcept>

using namespace seldon;
using namespace seldon::solver;

uint32_t ConstraintRows::offset() const {
  if (Terms.size() > UINT32_MAX)
    throw std::length_error("constraint rows exceed 2^32 - 1 terms");
  return static_cast<uint32_t>(Terms.size());
}

void ConstraintRows::add(std::span<const Term> Lhs, std::span<const Term> Rhs,
                         double C) {
  push(Lhs);
  closeLhs();
  push(Rhs);
  closeRow(C);
}

void ConstraintRows::closeRow(double C) {
  openRecord().C = C;
  const uint32_t End = offset();
  Records.push_back({End, End, 0.0});
}

void ConstraintRows::appendMapped(const ConstraintRows &Other,
                                  std::span<const uint32_t> Map) {
  if (Other.Records.empty())
    return;
  assert(Other.Records.back().Begin == Other.Terms.size() &&
         (Records.empty() ? Terms.empty()
                          : Records.back().Begin == Terms.size()) &&
         "appendMapped with a row open");
  const size_t Base = Terms.size();
  if (Base + Other.Terms.size() > UINT32_MAX)
    throw std::length_error("constraint rows exceed 2^32 - 1 terms");
  for (const Term &T : Other.Terms)
    Terms.push_back({Map[T.Var], T.Coef});
  // Other's closing record replaces this store's, so Other's rows start
  // where this store's next row would have.
  if (!Records.empty())
    Records.pop_back();
  const uint32_t Shift = static_cast<uint32_t>(Base);
  for (const Record &R : Other.Records)
    Records.push_back({R.Begin + Shift, R.RhsBegin + Shift, R.C});
}

void ConstraintRows::reserve(size_t NumRows, size_t NumTerms) {
  Records.reserve(size() + NumRows + 1);
  Terms.reserve(Terms.size() + NumTerms);
}
