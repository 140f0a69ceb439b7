// Adaptive transaction-id set: the columnar tid-set layer.
//
// Every vertical-mining operation (count(X) of Definition 4.2, the
// tid-list intersection that extends an itemset, Lemma 4.2's superset
// check) runs over sets of transaction ids drawn from one fixed universe
// [0, |db|). A TidSet stores such a set either as a sorted Tid vector
// (sparse) or as a word-aligned bitmap (dense), and picks the
// representation adaptively by density: dense sets get popcount-based
// counting and word-parallel intersect/subset and a∖b walks, sparse sets
// get merge intersection with a galloping (exponential-search) fallback
// when one side is much shorter than the other.
//
// Determinism: the representation affects memory layout only, never the
// set contents, iteration order (always ascending tid), or any derived
// floating-point value — forcing sparse-only or dense-only via
// TidSetMode yields bit-identical mining results (asserted by
// tests/parallel_determinism_test.cc).
#ifndef PFCI_DATA_TIDSET_H_
#define PFCI_DATA_TIDSET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/data/item.h"
#include "src/data/tidlist.h"

namespace pfci {

/// Representation choice shared by all TidSets of one index. The adaptive
/// rule picks the bitmap when size * 16 >= universe (a bitmap of u bits
/// costs u/64 words; a sparse set of s 32-bit tids costs ~s/2 words, so
/// the bitmap is smaller from s >= u/32 on and its word-parallel
/// operations win a little earlier), but never for universes below 256,
/// where a short merge beats any fixed setup cost.
enum class TidSetMode : std::uint8_t {
  kAdaptive = 0,  ///< Per-set density rule (default).
  kSparse = 1,    ///< Force sorted-vector representation everywhere.
  kDense = 2,     ///< Force bitmap representation everywhere.
};

/// Display name ("adaptive", "sparse", "dense").
const char* TidSetModeName(TidSetMode mode);

/// Parses "adaptive" | "sparse" | "dense"; returns false on anything else.
bool ParseTidSetMode(const std::string& text, TidSetMode* mode);

namespace tidset_internal {

/// Size skew from which the sparse kernels switch from linear merge to
/// galloping: per-element exponential search costs ~2 log2(skew)
/// comparisons, which beats the merge's O(na + nb) scan when the long
/// side is a few dozen times the short side.
constexpr std::size_t kGallopSkewRatio = 32;

/// Sparse intersection kernel: appends a ∩ b to `out` (when non-null) and
/// returns |a ∩ b|. Exposed so the unit tests can exercise the merge and
/// galloping paths directly on either side of the crossover.
std::size_t IntersectSorted(const Tid* a, std::size_t na, const Tid* b,
                            std::size_t nb, TidList* out);

/// First index in [lo, nb) with b[index] >= key, found by exponential
/// search from `lo` (doubling steps, then binary search in the bracketed
/// range). O(log(result - lo)) — the whole point of galloping.
std::size_t GallopLowerBound(const Tid* b, std::size_t lo, std::size_t nb,
                             Tid key);

/// Invokes `fn(Tid)` on the set bits of `bits`, ascending, as tids of word
/// `w`; stops and returns false as soon as `fn` does.
template <typename Fn>
bool ForEachBit(std::uint64_t bits, std::size_t w, Fn& fn) {
  while (bits != 0) {
    if (!fn(static_cast<Tid>(w * 64 +
                             static_cast<unsigned>(std::countr_zero(bits))))) {
      return false;
    }
    bits &= bits - 1;
  }
  return true;
}

}  // namespace tidset_internal

/// A set of transaction ids over the universe [0, universe()).
///
/// Value type: copyable, movable. All operations keep the invariant that
/// iteration yields strictly increasing tids regardless of representation.
class TidSet {
 public:
  /// Empty set over an empty universe.
  TidSet() = default;

  /// Builds from a sorted, duplicate-free tid list; every tid must lie in
  /// [0, universe).
  TidSet(TidList sorted_tids, std::size_t universe,
         TidSetMode mode = TidSetMode::kAdaptive);

  /// The full set {0, ..., universe - 1}.
  static TidSet All(std::size_t universe,
                    TidSetMode mode = TidSetMode::kAdaptive);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t universe() const { return universe_; }
  bool dense() const { return dense_; }

  /// Membership test: O(1) dense, O(log size) sparse.
  bool Contains(Tid tid) const {
    if (tid >= universe_) return false;
    if (dense_) return (words_[tid / 64] >> (tid % 64)) & 1;
    return std::binary_search(sparse_.begin(), sparse_.end(), tid);
  }

  /// Invokes `fn(Tid)` for every member in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (!dense_) {
      for (Tid tid : sparse_) fn(tid);
      return;
    }
    const auto visit = [&fn](Tid tid) {
      fn(tid);
      return true;
    };
    for (std::size_t w = 0; w < words_.size(); ++w) {
      tidset_internal::ForEachBit(words_[w], w, visit);
    }
  }

  /// Materializes the members as a sorted tid list.
  TidList ToTidList() const;

  /// Heap bytes held by this set's representation (the resource the
  /// RunBudget memory limit accounts; see src/util/runtime.h).
  std::size_t MemoryBytes() const {
    return sparse_.capacity() * sizeof(Tid) +
           words_.capacity() * sizeof(std::uint64_t);
  }

  friend TidSet Intersect(const TidSet& a, const TidSet& b);
  friend std::size_t IntersectSize(const TidSet& a, const TidSet& b);
  template <typename Fn>
  friend bool ForEachInDifference(const TidSet& a, const TidSet& b, Fn&& fn);
  friend bool operator==(const TidSet& a, const TidSet& b);

 private:
  /// Converts a sparse set to the bitmap when the mode prescribes it for
  /// size(). No operation ever builds a bitmap that must turn sparse.
  void Normalize();

  std::size_t universe_ = 0;
  std::size_t size_ = 0;
  bool dense_ = false;
  TidSetMode mode_ = TidSetMode::kAdaptive;
  TidList sparse_;                    ///< Sorted members (sparse rep).
  std::vector<std::uint64_t> words_;  ///< Bitmap (dense rep).
};

/// a ∩ b. The operands must share a universe (an empty set of any universe
/// is also accepted); the result carries `a`'s mode.
TidSet Intersect(const TidSet& a, const TidSet& b);

/// |a ∩ b| without materializing the intersection.
std::size_t IntersectSize(const TidSet& a, const TidSet& b);

/// Whether a ⊆ b.
bool IsSubsetOf(const TidSet& a, const TidSet& b);

/// Content equality (representation-independent).
bool operator==(const TidSet& a, const TidSet& b);

/// Convenience for tests: compares contents against a sorted tid list.
bool operator==(const TidSet& a, const TidList& b);

/// Walks a \ b without materializing it: invokes `fn(Tid)` on each member
/// in ascending tid order until `fn` returns false. Returns whether the
/// walk reached the end. Allocates nothing, in every representation
/// pairing; a sparse `a` much shorter than a sparse `b` gallops through
/// `b` under the kGallopSkewRatio rule.
template <typename Fn>
bool ForEachInDifference(const TidSet& a, const TidSet& b, Fn&& fn) {
  const Tid* bt = b.sparse_.data();
  const std::size_t nb = b.size_;
  const bool b_dense = b.dense_ && nb != 0;
  if (a.dense_) {
    std::size_t j = 0;  // Next tid of a sparse `b`.
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      std::uint64_t bits = a.words_[w];
      if (b_dense) {
        bits &= ~b.words_[w];
      } else {
        for (; j < nb && bt[j] < (w + 1) * 64; ++j) {
          bits &= ~(std::uint64_t{1} << (bt[j] % 64));
        }
      }
      if (!tidset_internal::ForEachBit(bits, w, fn)) return false;
    }
    return true;
  }
  const bool gallop =
      !b_dense && a.size_ * tidset_internal::kGallopSkewRatio <= nb;
  std::size_t j = 0;
  for (const Tid tid : a.sparse_) {
    if (b_dense) {
      if ((b.words_[tid / 64] >> (tid % 64)) & 1) continue;
    } else {
      if (gallop) {
        j = tidset_internal::GallopLowerBound(bt, j, nb, tid);
      } else {
        while (j < nb && bt[j] < tid) ++j;
      }
      if (j < nb && bt[j] == tid) continue;
    }
    if (!fn(tid)) return false;
  }
  return true;
}

}  // namespace pfci

#endif  // PFCI_DATA_TIDSET_H_
