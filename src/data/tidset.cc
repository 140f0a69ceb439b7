#include "src/data/tidset.h"

#include <algorithm>

#include "src/util/check.h"

namespace pfci {

namespace tidset_internal {

namespace {

/// First index in [lo, nb) with b[index] >= key, found by exponential
/// search from `lo` (doubling steps, then binary search in the bracketed
/// range). O(log(result - lo)) — the whole point of galloping.
std::size_t GallopLowerBound(const Tid* b, std::size_t lo, std::size_t nb,
                             Tid key) {
  std::size_t step = 1;
  std::size_t hi = lo;
  while (hi < nb && b[hi] < key) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  if (hi > nb) hi = nb;
  return static_cast<std::size_t>(
      std::lower_bound(b + lo, b + hi, key) - b);
}

}  // namespace

std::size_t IntersectSorted(const Tid* a, std::size_t na, const Tid* b,
                            std::size_t nb, TidList* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  std::size_t count = 0;
  if (na == 0) return 0;
  if (na * kGallopSkewRatio <= nb) {
    // Galloping: each element of the short side is located in the long
    // side by exponential search resuming from the previous position.
    std::size_t pos = 0;
    for (std::size_t i = 0; i < na; ++i) {
      pos = GallopLowerBound(b, pos, nb, a[i]);
      if (pos == nb) break;
      if (b[pos] == a[i]) {
        ++count;
        if (out != nullptr) out->push_back(a[i]);
        ++pos;
      }
    }
    return count;
  }
  // Linear merge.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      if (out != nullptr) out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return count;
}

bool SubsetSorted(const Tid* a, std::size_t na, const Tid* b,
                  std::size_t nb) {
  if (na > nb) return false;
  if (na == 0) return true;
  if (na * kGallopSkewRatio <= nb) {
    std::size_t pos = 0;
    for (std::size_t i = 0; i < na; ++i) {
      pos = GallopLowerBound(b, pos, nb, a[i]);
      if (pos == nb || b[pos] != a[i]) return false;
      ++pos;
    }
    return true;
  }
  return std::includes(b, b + nb, a, a + na);
}

}  // namespace tidset_internal

namespace {

constexpr std::size_t kWordBits = 64;

/// The adaptive rule (TidSetMode::kAdaptive): dense iff size * kDenseDivisor >=
/// universe, and never below kMinDenseUniverse.
constexpr std::size_t kDenseDivisor = 16;
constexpr std::size_t kMinDenseUniverse = 256;

std::size_t NumWords(std::size_t universe) {
  return (universe + kWordBits - 1) / kWordBits;
}

bool ShouldBeDense(std::size_t size, std::size_t universe,
                   TidSetMode mode) {
  switch (mode) {
    case TidSetMode::kSparse:
      return false;
    case TidSetMode::kDense:
      return true;
    case TidSetMode::kAdaptive:
      return universe >= kMinDenseUniverse &&
             size * kDenseDivisor >= universe;
  }
  return false;
}

/// Universes must agree, except that empty sets (including
/// default-constructed placeholders with universe 0) combine with
/// anything.
std::size_t CombinedUniverse(const TidSet& a, const TidSet& b) {
  PFCI_DCHECK(a.universe() == b.universe() || a.empty() || b.empty());
  return std::max(a.universe(), b.universe());
}

}  // namespace

const char* TidSetModeName(TidSetMode mode) {
  switch (mode) {
    case TidSetMode::kAdaptive:
      return "adaptive";
    case TidSetMode::kSparse:
      return "sparse";
    case TidSetMode::kDense:
      return "dense";
  }
  return "unknown";
}

bool ParseTidSetMode(const std::string& text, TidSetMode* mode) {
  if (text == "adaptive") {
    *mode = TidSetMode::kAdaptive;
  } else if (text == "sparse") {
    *mode = TidSetMode::kSparse;
  } else if (text == "dense") {
    *mode = TidSetMode::kDense;
  } else {
    return false;
  }
  return true;
}

TidSet::TidSet(TidList sorted_tids, std::size_t universe,
               TidSetMode mode)
    : universe_(universe),
      size_(sorted_tids.size()),
      mode_(mode),
      sparse_(std::move(sorted_tids)) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < sparse_.size(); ++i) {
    PFCI_DCHECK(sparse_[i] < universe_);
    PFCI_DCHECK(i == 0 || sparse_[i - 1] < sparse_[i]);
  }
#endif
  Normalize();
}

TidSet TidSet::All(std::size_t universe, TidSetMode mode) {
  TidSet set;
  set.universe_ = universe;
  set.size_ = universe;
  set.mode_ = mode;
  if (ShouldBeDense(universe, universe, mode)) {
    set.dense_ = true;
    set.words_.assign(NumWords(universe), ~std::uint64_t{0});
    if (universe % kWordBits != 0 && !set.words_.empty()) {
      set.words_.back() =
          (std::uint64_t{1} << (universe % kWordBits)) - 1;
    }
  } else {
    set.sparse_.resize(universe);
    for (std::size_t tid = 0; tid < universe; ++tid) {
      set.sparse_[tid] = static_cast<Tid>(tid);
    }
  }
  return set;
}

bool TidSet::Contains(Tid tid) const {
  if (tid >= universe_) return false;
  if (dense_) {
    return (words_[tid / kWordBits] >> (tid % kWordBits)) & 1;
  }
  return std::binary_search(sparse_.begin(), sparse_.end(), tid);
}

TidList TidSet::ToTidList() const {
  if (!dense_) return sparse_;
  TidList out;
  out.reserve(size_);
  ForEach([&out](Tid tid) { out.push_back(tid); });
  return out;
}

void TidSet::Normalize() {
  const bool want_dense = ShouldBeDense(size_, universe_, mode_);
  if (want_dense && !dense_) {
    ToDense();
  } else if (!want_dense && dense_) {
    ToSparse();
  }
}

void TidSet::ToDense() {
  words_.assign(NumWords(universe_), 0);
  for (Tid tid : sparse_) {
    words_[tid / kWordBits] |= std::uint64_t{1} << (tid % kWordBits);
  }
  sparse_.clear();
  sparse_.shrink_to_fit();
  dense_ = true;
}

void TidSet::ToSparse() {
  sparse_.clear();
  sparse_.reserve(size_);
  ForEach([this](Tid tid) { sparse_.push_back(tid); });
  words_.clear();
  words_.shrink_to_fit();
  dense_ = false;
}

TidSet Intersect(const TidSet& a, const TidSet& b) {
  TidSet out;
  out.universe_ = CombinedUniverse(a, b);
  out.mode_ = a.mode_;
  if (a.empty() || b.empty()) {
    out.Normalize();
    return out;
  }
  if (a.dense_ && b.dense_) {
    out.words_.resize(a.words_.size());
    std::size_t count = 0;
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      const std::uint64_t word = a.words_[w] & b.words_[w];
      out.words_[w] = word;
      count += static_cast<std::size_t>(std::popcount(word));
    }
    out.size_ = count;
    out.dense_ = true;
  } else if (a.dense_ != b.dense_) {
    const TidSet& sparse = a.dense_ ? b : a;
    const TidSet& dense = a.dense_ ? a : b;
    out.sparse_.reserve(sparse.size_);
    for (Tid tid : sparse.sparse_) {
      if (dense.Contains(tid)) out.sparse_.push_back(tid);
    }
    out.size_ = out.sparse_.size();
  } else {
    out.sparse_.reserve(std::min(a.size_, b.size_));
    tidset_internal::IntersectSorted(a.sparse_.data(), a.size_,
                                     b.sparse_.data(), b.size_,
                                     &out.sparse_);
    out.size_ = out.sparse_.size();
  }
  out.Normalize();
  return out;
}

std::size_t IntersectSize(const TidSet& a, const TidSet& b) {
  CombinedUniverse(a, b);  // Universe agreement DCHECK.
  if (a.empty() || b.empty()) return 0;
  if (a.dense_ && b.dense_) {
    std::size_t count = 0;
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      count +=
          static_cast<std::size_t>(std::popcount(a.words_[w] & b.words_[w]));
    }
    return count;
  }
  if (a.dense_ != b.dense_) {
    const TidSet& sparse = a.dense_ ? b : a;
    const TidSet& dense = a.dense_ ? a : b;
    std::size_t count = 0;
    for (Tid tid : sparse.sparse_) {
      if (dense.Contains(tid)) ++count;
    }
    return count;
  }
  return tidset_internal::IntersectSorted(a.sparse_.data(), a.size_,
                                          b.sparse_.data(), b.size_, nullptr);
}

TidSet Difference(const TidSet& a, const TidSet& b) {
  TidSet out;
  out.universe_ = CombinedUniverse(a, b);
  out.mode_ = a.mode_;
  if (a.empty() || b.empty()) {
    out.size_ = a.size_;
    out.dense_ = a.dense_;
    out.sparse_ = a.sparse_;
    out.words_ = a.words_;
    out.Normalize();
    return out;
  }
  if (a.dense_ && b.dense_) {
    out.words_.resize(a.words_.size());
    std::size_t count = 0;
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      const std::uint64_t word = a.words_[w] & ~b.words_[w];
      out.words_[w] = word;
      count += static_cast<std::size_t>(std::popcount(word));
    }
    out.size_ = count;
    out.dense_ = true;
  } else if (a.dense_) {
    // Dense minus sparse: copy the bitmap, clear the subtrahend's bits.
    out.words_ = a.words_;
    out.size_ = a.size_;
    out.dense_ = true;
    for (Tid tid : b.sparse_) {
      if (tid >= out.universe_) continue;
      std::uint64_t& word = out.words_[tid / kWordBits];
      const std::uint64_t bit = std::uint64_t{1} << (tid % kWordBits);
      if (word & bit) {
        word &= ~bit;
        --out.size_;
      }
    }
  } else if (b.dense_) {
    out.sparse_.reserve(a.size_);
    for (Tid tid : a.sparse_) {
      if (!b.Contains(tid)) out.sparse_.push_back(tid);
    }
    out.size_ = out.sparse_.size();
  } else {
    out.sparse_.reserve(a.size_);
    std::set_difference(a.sparse_.begin(), a.sparse_.end(),
                        b.sparse_.begin(), b.sparse_.end(),
                        std::back_inserter(out.sparse_));
    out.size_ = out.sparse_.size();
  }
  out.Normalize();
  return out;
}

bool IsSubsetOf(const TidSet& a, const TidSet& b) {
  CombinedUniverse(a, b);  // Universe agreement DCHECK.
  if (a.size_ > b.size_) return false;
  if (a.empty()) return true;
  if (a.dense_ && b.dense_) {
    for (std::size_t w = 0; w < a.words_.size(); ++w) {
      if ((a.words_[w] & ~b.words_[w]) != 0) return false;
    }
    return true;
  }
  if (!a.dense_ && b.dense_) {
    for (Tid tid : a.sparse_) {
      if (!b.Contains(tid)) return false;
    }
    return true;
  }
  if (a.dense_ && !b.dense_) {
    // Rare mixed case (only under hand-built sets): check each member.
    bool subset = true;
    a.ForEach([&](Tid tid) {
      if (subset && !std::binary_search(b.sparse_.begin(), b.sparse_.end(),
                                        tid)) {
        subset = false;
      }
    });
    return subset;
  }
  return tidset_internal::SubsetSorted(a.sparse_.data(), a.size_,
                                       b.sparse_.data(), b.size_);
}

bool operator==(const TidSet& a, const TidSet& b) {
  if (a.size_ != b.size_) return false;
  if (!a.dense_ && !b.dense_) return a.sparse_ == b.sparse_;
  if (a.dense_ && b.dense_ && a.words_.size() == b.words_.size()) {
    return a.words_ == b.words_;
  }
  return a.ToTidList() == b.ToTidList();
}

bool operator==(const TidSet& a, const TidList& b) {
  if (a.size() != b.size()) return false;
  return a.ToTidList() == b;
}

}  // namespace pfci
