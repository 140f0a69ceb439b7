// Borrow-or-build handle for the per-run VerticalIndex.
//
// Standalone Mine() calls build a fresh index per run; a MiningSession
// prepares one adaptive index at Open() and shares it through
// ExecutionContext::shared_index. The handle borrows the shared index
// when it covers the request (same database object, same tid-set mode)
// and falls back to an owned build otherwise (a session request that
// forces another mode), so miners are oblivious to which serving mode
// they run under. Either way the index's resident
// bytes are charged to the run's memory budget (`exec.runtime`, which
// must be set) for the handle's lifetime — a borrowed index is still
// resident while the run uses it.
#ifndef PFCI_CORE_INDEX_HANDLE_H_
#define PFCI_CORE_INDEX_HANDLE_H_

#include <optional>

#include "src/core/execution.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"

namespace pfci {

class IndexHandle {
 public:
  IndexHandle(const UncertainDatabase& db, TidSetMode mode,
              const ExecutionContext& exec)
      : runtime_(*exec.runtime) {
    const VerticalIndex* shared = exec.shared_index;
    if (shared != nullptr && &shared->db() == &db &&
        shared->mode() == mode) {
      index_ = shared;
    } else {
      owned_.emplace(db, mode);
      index_ = &*owned_;
    }
    charged_ = index_->MemoryBytes();
    runtime_.ChargeBytes(charged_);
  }

  ~IndexHandle() { runtime_.ReleaseBytes(charged_); }

  IndexHandle(const IndexHandle&) = delete;
  IndexHandle& operator=(const IndexHandle&) = delete;

  const VerticalIndex& get() const { return *index_; }
  const VerticalIndex& operator*() const { return *index_; }
  const VerticalIndex* operator->() const { return index_; }

  bool borrowed() const { return !owned_.has_value(); }

 private:
  std::optional<VerticalIndex> owned_;
  const VerticalIndex* index_ = nullptr;
  RunController& runtime_;
  std::uint64_t charged_ = 0;
};

}  // namespace pfci

#endif  // PFCI_CORE_INDEX_HANDLE_H_
