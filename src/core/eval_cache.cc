#include "src/core/eval_cache.h"

#include <iterator>
#include <utility>

#include "src/util/check.h"

namespace pfci {

namespace {

/// Fixed per-entry overhead charged on top of the payload vectors: the
/// LRU node, the map slot, and the Entry struct itself. An estimate —
/// the budget bounds the order of magnitude, not malloc's exact ledger.
constexpr std::size_t kEntryOverheadBytes = 128;

/// 2^64 / golden ratio, odd: spreads consecutive word indices apart.
constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
/// reaches every output bit.
std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t TidSetFingerprint(const TidSet& tids) {
  // A sum of independently mixed (word index, word) pairs: no pair waits
  // on the one before, so a dense key's ~127 mixes pipeline instead of
  // forming one multiply chain. The index enters each mix, so moving a
  // word's contents to another index changes the sum.
  std::uint64_t h = 0;
  tids.ForEachWord([&h](std::size_t w, std::uint64_t bits) {
    h += Mix64(bits ^ (static_cast<std::uint64_t>(w) * kGoldenGamma));
  });
  return h;
}

std::size_t EvalCache::Entry::Bytes() const {
  return kEntryOverheadBytes + tids.MemoryBytes() +
         table.capacity() * sizeof(double);
}

EvalCache::EvalCache(const Options& options) : options_(options) {
  // Degenerate budgets are clamped, not aborted on: a cache is an
  // optimization, so "shards = 0" means "one shard" and "max_bytes = 0"
  // means "a budget no entry fits in" (every insert is rejected below).
  if (options_.shards == 0) options_.shards = 1;
  if (options_.max_bytes == 0) options_.max_bytes = 1;
  shards_ = std::vector<Shard>(options_.shards);
}

EvalCache::Lookup EvalCache::Probe(const TidSet& tids,
                                   std::size_t threshold) const {
  const std::uint64_t fp = TidSetFingerprint(tids);
  Shard& shard = ShardFor(fp);
  Lookup lookup;
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(fp);
  if (it == shard.map.end()) return lookup;
  const Entry& entry = it->second->second;
  // A fingerprint collision is treated as a miss: correctness never
  // depends on the hash.
  if (!(tids == entry.tids)) return lookup;
  lookup.found = true;
  lookup.mu = entry.mu;
  if (entry.table_threshold >= threshold) {
    lookup.has_table = true;
    lookup.tail = entry.table[threshold];
    lookup.table_run = entry.table_run;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // Touch.
  return lookup;
}

void EvalCache::Insert(const TidSet& tids, double mu,
                       std::size_t table_threshold,
                       std::vector<double> table, std::uint64_t run) {
  PFCI_DCHECK(table.size() == table_threshold + 1);
  const std::uint64_t fp = TidSetFingerprint(tids);
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(fp);
  if (it != shard.map.end()) {
    Entry& entry = it->second->second;
    if (tids == entry.tids) {
      // Upgrade in place only when the new table answers more thresholds
      // AND the upgraded entry still fits the budget on its own; an
      // over-budget upgrade is rejected and the smaller entry kept (it
      // keeps answering what it already answered).
      if (table_threshold > entry.table_threshold) {
        const std::size_t upgraded_bytes =
            kEntryOverheadBytes + entry.tids.MemoryBytes() +
            table.capacity() * sizeof(double);
        if (upgraded_bytes > options_.max_bytes) {
          rejections_.fetch_add(1, std::memory_order_relaxed);
        } else {
          bytes_.fetch_sub(entry.Bytes(), std::memory_order_relaxed);
          entry.table_threshold = table_threshold;
          entry.table_run = run;
          entry.table = std::move(table);
          bytes_.fetch_add(entry.Bytes(), std::memory_order_relaxed);
        }
      }
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      EvictLocked(shard);
      return;
    }
  }
  Entry entry;
  entry.tids = tids;
  entry.mu = mu;
  entry.table_threshold = table_threshold;
  entry.table_run = run;
  entry.table = std::move(table);
  // An entry that alone exceeds the whole budget can never become
  // resident; admitting it would evict the entire shard and still leave
  // the cache over budget (the historical evict-everything-then-stay-
  // over-budget inconsistency). Reject it as a stats event instead,
  // before any existing entry is disturbed.
  if (entry.Bytes() > options_.max_bytes) {
    rejections_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (it != shard.map.end()) {
    // Fingerprint collision with different contents: drop the old entry
    // (the slot can only hold one) — rare, and only a perf event.
    bytes_.fetch_sub(it->second->second.Bytes(), std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  bytes_.fetch_add(entry.Bytes(), std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.emplace_front(fp, std::move(entry));
  shard.map[fp] = shard.lru.begin();
  EvictLocked(shard);
}

void EvalCache::EvictLocked(Shard& shard) {
  // Global budget, shard-local eviction: each shard sheds its own LRU
  // tail while the aggregate is over budget. Never evicts the entry just
  // touched (front): it is the one the caller is actively using, and
  // over-budget pressure from other shards should not starve this one.
  while (bytes_.load(std::memory_order_relaxed) > options_.max_bytes &&
         shard.lru.size() > 1) {
    auto victim = std::prev(shard.lru.end());
    bytes_.fetch_sub(victim->second.Bytes(), std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.map.erase(victim->first);
    shard.lru.erase(victim);
  }
}

}  // namespace pfci
