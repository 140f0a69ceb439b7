#include "src/data/tidset.h"

#include <algorithm>

#include "src/util/check.h"

namespace pfci {

namespace tidset_internal {

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

}  // namespace tidset_internal

namespace {

constexpr std::size_t kWordBits = 64;

/// The adaptive rule (TidSetMode::kAdaptive): dense iff size * kDenseDivisor >=
/// universe, and never below kMinDenseUniverse.
constexpr std::size_t kDenseDivisor = 16;
constexpr std::size_t kMinDenseUniverse = 256;

/// |a ∩ b| over two bitmaps of `n` words. The x86-64 baseline ISA has no
/// POPCNT, so there std::popcount is a libgcc call per word; IntersectSize
/// runs the POPCNT build when the CPU has one, picked on first use (not
/// through an ifunc: see src/prob/poisson_binomial.cc).
[[gnu::always_inline]] inline std::size_t CountAnd(const std::uint64_t* a,
                                                   const std::uint64_t* b,
                                                   std::size_t n) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < n; ++w) {
    count += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

#if defined(__x86_64__)
[[gnu::target("popcnt")]] std::size_t CountAndPopcnt(const std::uint64_t* a,
                                                     const std::uint64_t* b,
                                                     std::size_t n) {
  return CountAnd(a, b, n);
}
#endif

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

TidList TidSet::ToTidList() const {
  if (!dense_) return sparse_;
  TidList out;
  out.reserve(size_);
  ForEach([&out](Tid tid) { out.push_back(tid); });
  return out;
}

void TidSet::Normalize() {
  if (dense_ || !ShouldBeDense(size_, universe_, mode_)) return;
  words_.assign(NumWords(universe_), 0);
  for (Tid tid : sparse_) {
    words_[tid / kWordBits] |= std::uint64_t{1} << (tid % kWordBits);
  }
  sparse_.clear();
  sparse_.shrink_to_fit();
  dense_ = true;
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
    // Count first, then write the result straight into the representation
    // its size calls for: no bitmap is built only to be converted.
    const std::size_t num_words = a.words_.size();
    out.size_ = IntersectSize(a, b);
    if (ShouldBeDense(out.size_, out.universe_, out.mode_)) {
      out.words_.resize(num_words);
      for (std::size_t w = 0; w < num_words; ++w) {
        out.words_[w] = a.words_[w] & b.words_[w];
      }
      out.dense_ = true;
    } else {
      out.sparse_.reserve(out.size_);
      const auto append = [&out](Tid tid) {
        out.sparse_.push_back(tid);
        return true;
      };
      for (std::size_t w = 0; w < num_words; ++w) {
        tidset_internal::ForEachBit(a.words_[w] & b.words_[w], w, append);
      }
    }
    return out;
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
    const std::size_t n = a.words_.size();
#if defined(__x86_64__)
    static const bool has_popcnt =
        (__builtin_cpu_init(), __builtin_cpu_supports("popcnt"));
    if (has_popcnt) return CountAndPopcnt(a.words_.data(), b.words_.data(), n);
#endif
    return CountAnd(a.words_.data(), b.words_.data(), n);
  }
  if (a.dense_ != b.dense_) {
    const TidSet& sparse = a.dense_ ? b : a;
    const TidSet& dense = a.dense_ ? a : b;
    std::size_t count = 0;
    for (Tid tid : sparse.sparse_) count += dense.Contains(tid);
    return count;
  }
  return tidset_internal::IntersectSorted(a.sparse_.data(), a.size_,
                                          b.sparse_.data(), b.size_, nullptr);
}

bool IsSubsetOf(const TidSet& a, const TidSet& b) {
  CombinedUniverse(a, b);  // Universe agreement DCHECK.
  // a ⊆ b iff the a \ b walk stops at nothing.
  return a.size() <= b.size() &&
         ForEachInDifference(a, b, [](Tid) { return false; });
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
