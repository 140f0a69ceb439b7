// Sorted-vector tid-list algebra: the reference the tid-set tests check
// TidSet's sparse and dense operations against. Nothing in the library
// uses it; TidSet is the miners' representation.
#ifndef PFCI_TESTS_TIDLIST_REFERENCE_H_
#define PFCI_TESTS_TIDLIST_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "src/data/tidlist.h"

namespace pfci {

/// Intersection of two sorted tid-lists.
inline TidList IntersectTids(const TidList& a, const TidList& b) {
  TidList out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Size of the intersection without materializing it.
inline std::size_t IntersectTidsSize(const TidList& a, const TidList& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

/// Elements of `a` not present in `b` (a \ b).
inline TidList DifferenceTids(const TidList& a, const TidList& b) {
  TidList out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

/// Whether `a` is a subset of `b`.
inline bool TidsSubset(const TidList& a, const TidList& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace pfci

#endif  // PFCI_TESTS_TIDLIST_REFERENCE_H_
