#include "src/core/fcp_sampler.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/prob/conditional_sampler.h"
#include "src/prob/karp_luby.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"
#include "src/util/thread_pool.h"

namespace pfci {

namespace {

/// Fixed number of sample batches. Independent of the thread count by
/// design: the batch split defines the RNG streams, so it must be a
/// constant for results to be reproducible on any machine. 32 keeps
/// per-batch work large (required sample counts are in the thousands)
/// while oversubscribing typical core counts for stealing.
constexpr std::size_t kDeterministicBatches = 32;

/// Bitmask over the dense positions of Tids(X).
class PositionMask {
 public:
  explicit PositionMask(std::size_t num_positions)
      : blocks_((num_positions + 63) / 64, 0) {}

  void Set(std::size_t pos) {
    blocks_[pos / 64] |= std::uint64_t{1} << (pos % 64);
  }

  /// Whether every set bit of `other` is also set here.
  bool Covers(const PositionMask& other) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if ((other.blocks_[b] & ~blocks_[b]) != 0) return false;
    }
    return true;
  }

  void Clear() { std::fill(blocks_.begin(), blocks_.end(), 0); }

 private:
  std::vector<std::uint64_t> blocks_;
};

}  // namespace

ApproxFcpResult ApproxFcp(double pr_f, const ExtensionEventSet& events,
                          double epsilon, double delta, Rng& rng,
                          ThreadPool* pool, RunController* runtime) {
  // A standalone call runs under a local unlimited controller.
  RunController unlimited;
  RunController& rt = runtime != nullptr ? *runtime : unlimited;
  ApproxFcpResult result;
  const std::size_t m = events.size();
  if (m == 0) {
    // No superset can co-occur with X: PrFC == PrF exactly.
    result.fcp = pr_f;
    return result;
  }

  // The sampler's per-sample loops index tids by dense position, so the
  // tid-sets are materialized as sorted vectors once per call — a few
  // allocations amortized over thousands of samples.
  const TidList x_tids = events.x_tids().ToTidList();
  const VerticalIndex& index = events.index();
  const std::size_t min_sup = events.min_sup();

  // Dense position of a tid within the sorted Tids(X).
  const auto position_of = [&x_tids](Tid tid) {
    return static_cast<std::size_t>(
        std::lower_bound(x_tids.begin(), x_tids.end(), tid) - x_tids.begin());
  };

  std::vector<TidList> event_tids;
  event_tids.reserve(m);
  for (const ExtensionEvent& event : events.events()) {
    event_tids.push_back(event.tids.ToTidList());
  }

  // Per-event membership masks over the positions of Tids(X); a sampled
  // world ω (also a mask) lies in C_j iff mask_j covers ω (all present
  // transactions contain e_j; the support condition then follows from the
  // conditioning, which guarantees >= min_sup present transactions).
  std::vector<PositionMask> event_mask;
  event_mask.reserve(m);
  for (const TidList& tids : event_tids) {
    PositionMask mask(x_tids.size());
    for (Tid tid : tids) mask.Set(position_of(tid));
    event_mask.push_back(std::move(mask));
  }

  // Conditional world samplers, built lazily per event: an event that is
  // never drawn never pays the O(|tids| * min_sup) table construction.
  // Shared across batches (construction is deterministic and does not
  // consume randomness); call_once makes the lazy build race-free.
  std::vector<std::unique_ptr<ConditionalBernoulliSampler>> samplers(m);
  std::unique_ptr<std::once_flag[]> sampler_once(new std::once_flag[m]);
  const auto sampler_of = [&](std::size_t i)
      -> const ConditionalBernoulliSampler& {
    std::call_once(sampler_once[i], [&] {
      const ExtensionEvent& event = events.events()[i];
      samplers[i] = std::make_unique<ConditionalBernoulliSampler>(
          index.ProbsOf(event.tids), min_sup);
      PFCI_CHECK(samplers[i]->Feasible());
    });
    return *samplers[i];
  };

  std::vector<double> event_probs;
  event_probs.reserve(m);
  for (const ExtensionEvent& event : events.events()) {
    event_probs.push_back(event.prob);
  }

  const std::uint64_t num_samples = KarpLubyRequiredSamples(m, epsilon, delta);

  // Batch split: one base value from the caller's rng defines every
  // batch's stream; the split itself depends only on the sample count,
  // never on the thread count.
  const std::uint64_t base_seed = rng();
  const std::size_t num_batches = static_cast<std::size_t>(
      std::min<std::uint64_t>(kDeterministicBatches,
                              std::max<std::uint64_t>(1, num_samples)));

  std::vector<KarpLubyResult> batch(num_batches);
  std::atomic<bool> aborted{false};
  const auto run_batch = [&](std::size_t b) {
    // Sample-batch checkpoint: a cancelled/expired run abandons its
    // remaining batches; the whole estimate is then discarded (aborted).
    PFCI_FAILPOINT("sampler/batch");
    if (rt.Checkpoint()) {
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t batch_samples =
        num_samples / num_batches + (b < num_samples % num_batches ? 1 : 0);
    Rng batch_rng(DeriveSeed(base_seed, b));
    // Per-batch scratch: one world mask and indicator buffer, reused
    // across the batch's samples.
    PositionMask world(x_tids.size());
    std::vector<std::uint8_t> indicator;
    const auto sample_is_canonical = [&](std::size_t i, Rng& sample_rng) {
      const TidList& tids = event_tids[i];
      // Conditional world given C_i: transactions of Tids(X) \ Tids(X+e_i)
      // are forced absent, the Tids(X+e_i) indicators are drawn
      // conditioned on reaching min_sup.
      sampler_of(i).Sample(sample_rng, &indicator);
      world.Clear();
      for (std::size_t k = 0; k < tids.size(); ++k) {
        if (indicator[k]) world.Set(position_of(tids[k]));
      }
      // Canonical iff no earlier event also covers the world.
      for (std::size_t j = 0; j < i; ++j) {
        if (event_probs[j] > 0.0 && event_mask[j].Covers(world)) return false;
      }
      return true;
    };
    batch[b] = KarpLubyUnionEstimate(event_probs, batch_samples, batch_rng,
                                     sample_is_canonical);
  };
  ParallelFor(pool, num_batches, run_batch);

  // Reduce in batch order (fixed regardless of which thread ran what).
  // Each batch estimate is z * successes_b / samples_b, so the combined
  // estimate z * Σ successes / Σ samples is the samples-weighted mean.
  double weighted = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t successes = 0;
  for (const KarpLubyResult& kl : batch) {
    weighted += kl.estimate * static_cast<double>(kl.samples);
    samples += kl.samples;
    successes += kl.successes;
  }
  const double estimate =
      samples == 0 ? 0.0 : weighted / static_cast<double>(samples);

  result.fnc = estimate;
  result.samples = samples;
  result.successes = successes;
  result.fcp = std::clamp(pr_f - estimate, 0.0, 1.0);
  result.aborted = aborted.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pfci
