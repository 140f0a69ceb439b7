#include "src/core/execution.h"

#include "src/util/thread_pool.h"

namespace pfci {

std::size_t ResolveNumThreads(const ExecutionPolicy& policy) {
  if (policy.num_threads == 0) return ThreadPool::DefaultThreads();
  return policy.num_threads;
}

}  // namespace pfci
