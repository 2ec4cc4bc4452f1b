//===- support/IndexIterator.h - Iterate a store by index --------*- C++ -*-===//
//
// Part of seldon-cpp, a reproduction of "Scalable Taint Specification
// Inference with Big Code" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The iterator of a flat store whose accessor builds each element as a
/// view, by value (solver::ConstraintRows, constraints::EventOptions,
/// propgraph::PropagationGraph): it holds the store and an index and yields
/// (Store.*Get)(Index), Store[Index] by default, so a range-for over the
/// store reads like one over a vector of the views.
///
//===----------------------------------------------------------------------===//

#ifndef SELDON_SUPPORT_INDEXITERATOR_H
#define SELDON_SUPPORT_INDEXITERATOR_H

#include <cstddef>
#include <iterator>

namespace seldon {

template <class Store, class View, auto Get = &Store::operator[]>
class IndexIterator {
public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = View;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = View;

  IndexIterator() = default;
  IndexIterator(const Store *Of, size_t Index) : Of(Of), Index(Index) {}

  View operator*() const { return (Of->*Get)(Index); }
  IndexIterator &operator++() {
    ++Index;
    return *this;
  }
  IndexIterator operator++(int) {
    IndexIterator Old = *this;
    ++Index;
    return Old;
  }
  bool operator==(const IndexIterator &) const = default;

private:
  const Store *Of = nullptr;
  size_t Index = 0;
};

} // namespace seldon

#endif // SELDON_SUPPORT_INDEXITERATOR_H
