// Sorted transaction-id lists.
//
// The miners use an Eclat-style vertical representation: each itemset X is
// carried through the search together with Tids(X), the transactions
// possibly containing X (a TidSet). TidList is the plain sorted form those
// sets are built from and exported to.
#ifndef PFCI_DATA_TIDLIST_H_
#define PFCI_DATA_TIDLIST_H_

#include <vector>

#include "src/data/item.h"

namespace pfci {

/// Sorted, duplicate-free list of transaction ids.
using TidList = std::vector<Tid>;

}  // namespace pfci

#endif  // PFCI_DATA_TIDLIST_H_
