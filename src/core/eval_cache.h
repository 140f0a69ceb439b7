// Cross-request evaluation cache for the serving layer (DESIGN.md §11).
//
// A MiningSession answers many requests over one fixed database, and the
// dominant cost of every request is re-deriving the same per-tidset
// quantities: mu = sum of existence probabilities (expected support) and
// the truncated Poisson-binomial tail PrF (Definition 3.4). Both are pure
// functions of the tidset contents, so they are safe to memoize across
// requests — unlike sampled FCP values, which stay seed-derived per run
// and are never cached.
//
// EvalCache stores, per canonical tidset, the cached mu plus a tail TABLE
// computed by PoissonBinomialTailTable at the largest threshold seen so
// far: table[t] is bit-identical to a direct DP run at threshold t, so
// one stored DP answers every min_sup <= table_threshold without
// re-running the DP (monotonicity-aware reuse). Entries are keyed by a
// 64-bit fingerprint of the tid contents and verified by exact tid
// comparison — a fingerprint collision degrades to a miss, never to a
// wrong answer. Both work on 64-bit words: the fingerprint hashes the
// (word index, word) pairs of the set's bitmap image, and the stored key
// is a TidSet copy in the probe's representation, so a dense key costs
// |universe| / 8 bytes and compares in |universe| / 64 word compares
// (127 for Mushroom-like 8124). The cache is sharded (one mutex + LRU
// list per shard) and bounded by a byte budget with least-recently-used
// eviction; an evicted table is recomputed by its next reader, which
// moves work, not results.
//
// The cache is the session's only cross-request reuse store: a later
// request at an equal or lower min_sup answers from an entry's table, and
// one at a higher min_sup upgrades the entry with a larger table.
#ifndef PFCI_CORE_EVAL_CACHE_H_
#define PFCI_CORE_EVAL_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/data/tidset.h"

namespace pfci {

/// Sharded, byte-bounded cache of per-tidset evaluation results shared by
/// every run of one MiningSession. Thread-safe; all methods may be called
/// concurrently from worker threads of one or several runs.
class EvalCache {
 public:
  struct Options {
    /// Byte budget across all shards; least-recently-used entries are
    /// evicted when an insert pushes past it. 0 is clamped to 1 (a
    /// budget nothing fits in: every insert is rejected, the cache
    /// degrades to all-miss).
    std::size_t max_bytes = std::size_t{64} << 20;

    /// Lock shards. More shards, less contention; 0 is clamped to 1.
    std::size_t shards = 8;
  };

  /// Result of one cache probe. All fields are copies: they stay valid
  /// after the entry is evicted.
  struct Lookup {
    bool found = false;      ///< An entry with exactly these tids exists.
    bool has_table = false;  ///< Its tail table covers the threshold.
    double mu = 0.0;         ///< Cached expected support (when found).
    double tail = 0.0;       ///< PrF at `threshold` (when has_table).
    /// The run id that stored the entry's table (when has_table); 0 for
    /// an insert that named no run.
    std::uint64_t table_run = 0;
  };

  explicit EvalCache(const Options& options);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Looks up `tids`. On found, `mu` is always usable; `has_table`/`tail`
  /// are set when the stored table reaches `threshold` (table[threshold]
  /// is bit-identical to a direct DP run there).
  Lookup Probe(const TidSet& tids, std::size_t threshold) const;

  /// Stores (or upgrades) the entry for `tids`. `table` must be the
  /// PoissonBinomialTailTable output of size table_threshold + 1; pass
  /// table_threshold 0 (table {1.0}) to cache mu alone. An existing entry
  /// with a larger table is kept as-is (it answers strictly more). An
  /// entry (or upgrade) that would alone exceed max_bytes is rejected —
  /// counted in rejections(), existing entries untouched — so the cache
  /// never admits something it would have to evict everything for.
  /// `run` (from NewRunId, or 0) is recorded as the stored table's
  /// origin; an upgrade records the upgrading run.
  void Insert(const TidSet& tids, double mu, std::size_t table_threshold,
              std::vector<double> table, std::uint64_t run = 0);

  /// A fresh, non-zero id for one run's inserts, so that its probes can
  /// tell its own tables from tables another run stored.
  std::uint64_t NewRunId() {
    return next_run_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Current resident bytes across all shards (tids + tables + entry
  /// overhead; the value MiningStats reports as cache_bytes).
  std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  std::size_t max_bytes() const { return options_.max_bytes; }

  /// Lifetime counters (across every run served by this cache).
  std::uint64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Inserts refused because the entry alone would exceed max_bytes.
  std::uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    TidSet tids;                ///< Exact key (collision guard).
    double mu = 0.0;            ///< Sum of probs, ascending tid order.
    std::size_t table_threshold = 0;
    std::uint64_t table_run = 0;  ///< The run that stored `table`.
    std::vector<double> table;    ///< table[t] = PrF at threshold t.

    std::size_t Bytes() const;
  };

  /// LRU list (front = most recent) plus fingerprint -> node map.
  struct Shard {
    mutable std::mutex mutex;
    std::list<std::pair<std::uint64_t, Entry>> lru;
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t, Entry>>::iterator>
        map;
  };

  Shard& ShardFor(std::uint64_t fingerprint) const {
    return shards_[static_cast<std::size_t>(fingerprint % shards_.size())];
  }

  /// Evicts this shard's least-recent entries while the global byte count
  /// exceeds the budget. Caller holds the shard mutex.
  void EvictLocked(Shard& shard);

  Options options_;
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> rejections_{0};
  std::atomic<std::uint64_t> next_run_id_{0};
};

/// Content fingerprint of a tidset: the sum, mod 2^64, of a 64-bit mix
/// of each (word index, word) pair of its non-zero bitmap words
/// (TidSet::ForEachWord). Representation-independent: sparse and dense
/// sets with equal contents hash equal.
std::uint64_t TidSetFingerprint(const TidSet& tids);

}  // namespace pfci

#endif  // PFCI_CORE_EVAL_CACHE_H_
