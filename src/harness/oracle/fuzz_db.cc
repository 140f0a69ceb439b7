#include "src/harness/oracle/fuzz_db.h"

#include <algorithm>
#include <vector>

#include "src/util/random.h"

namespace pfci {

namespace {

/// Draws one transaction existence probability from a mix of atoms: the
/// exact upper edge p == 1 (certain tuples drive the event machinery's
/// log(1-p) = -inf branches), a near-zero atom (mu ~ 0 stresses the
/// Chernoff/DP corner documented by Bernecker et al.), and two
/// continuous regimes.
double DrawProb(Rng& rng) {
  const double pick = rng.NextDouble();
  if (pick < 0.15) return 1.0;
  if (pick < 0.25) return 1e-12;
  if (pick < 0.40) return 0.9 + 0.1 * rng.NextDouble();
  return 0.05 + 0.95 * rng.NextDouble();
}

/// Items drawn with per-item inclusion probability `density[i]`; a row
/// never comes out empty (empty transactions are not representable in
/// the .utd format, and the loader rejects them).
Itemset DrawRow(Rng& rng, const std::vector<Item>& universe,
                const std::vector<double>& density) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (rng.NextBernoulli(density[i])) items.push_back(universe[i]);
  }
  if (items.empty()) {
    items.push_back(universe[rng.NextBelow(universe.size())]);
  }
  return Itemset(std::move(items));
}

/// The item universe: usually contiguous 0..k-1, sometimes gapped ids
/// (dense per-item arrays sized by MaxItemPlusOne must tolerate holes).
std::vector<Item> DrawUniverse(Rng& rng, std::size_t count) {
  std::vector<Item> universe;
  if (rng.NextBernoulli(0.25)) {
    Item next = 0;
    for (std::size_t i = 0; i < count; ++i) {
      next = static_cast<Item>(next + 1 + rng.NextBelow(7));
      universe.push_back(next);
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      universe.push_back(static_cast<Item>(i));
    }
  }
  return universe;
}

struct Shape {
  const char* name;
  void (*fill)(Rng& rng, UncertainDatabase* db);
};

void FillUniform(Rng& rng, UncertainDatabase* db) {
  const std::size_t n = 1 + rng.NextBelow(11);
  const std::vector<Item> universe = DrawUniverse(rng, 2 + rng.NextBelow(5));
  const double base = 0.25 + 0.6 * rng.NextDouble();
  const std::vector<double> density(universe.size(), base);
  for (std::size_t t = 0; t < n; ++t) {
    db->Add(DrawRow(rng, universe, density), DrawProb(rng));
  }
}

void FillSkewed(Rng& rng, UncertainDatabase* db) {
  // Zipf-ish per-item densities: the first items are near-certain to
  // appear, the tail is rare — the regime where frequency-ordered
  // candidate builders and their tie-breaks earn their keep.
  const std::size_t n = 2 + rng.NextBelow(10);
  const std::vector<Item> universe = DrawUniverse(rng, 3 + rng.NextBelow(4));
  std::vector<double> density(universe.size());
  for (std::size_t i = 0; i < density.size(); ++i) {
    density[i] = 0.95 / static_cast<double>(i + 1);
  }
  for (std::size_t t = 0; t < n; ++t) {
    db->Add(DrawRow(rng, universe, density), DrawProb(rng));
  }
}

void FillDuplicates(Rng& rng, UncertainDatabase* db) {
  // A few distinct rows, each repeated: duplicate transactions create
  // same-count supersets and tied supports everywhere.
  const std::size_t distinct = 1 + rng.NextBelow(3);
  const std::vector<Item> universe = DrawUniverse(rng, 2 + rng.NextBelow(4));
  const std::vector<double> density(universe.size(), 0.6);
  std::vector<Itemset> rows;
  for (std::size_t r = 0; r < distinct; ++r) {
    rows.push_back(DrawRow(rng, universe, density));
  }
  const std::size_t n = distinct + rng.NextBelow(9);
  for (std::size_t t = 0; t < n; ++t) {
    db->Add(rows[t % rows.size()], DrawProb(rng));
  }
}

void FillCertain(Rng& rng, UncertainDatabase* db) {
  // Every tuple exists with probability exactly 1: the database is
  // deterministic, so PrF and PrFC collapse to {0, 1} and every
  // tail-bound comparison sits on a boundary.
  const std::size_t n = 1 + rng.NextBelow(10);
  const std::vector<Item> universe = DrawUniverse(rng, 2 + rng.NextBelow(4));
  const std::vector<double> density(universe.size(), 0.55);
  for (std::size_t t = 0; t < n; ++t) {
    db->Add(DrawRow(rng, universe, density), 1.0);
  }
}

void FillSingletons(Rng& rng, UncertainDatabase* db) {
  // Mostly single-item rows plus one wide row: itemset lattices of
  // depth one with a single deep branch.
  const std::vector<Item> universe = DrawUniverse(rng, 2 + rng.NextBelow(5));
  const std::size_t n = 2 + rng.NextBelow(9);
  for (std::size_t t = 0; t < n; ++t) {
    const Item item = universe[rng.NextBelow(universe.size())];
    db->Add(Itemset{item}, DrawProb(rng));
  }
  std::vector<Item> all(universe.begin(), universe.end());
  db->Add(Itemset(std::move(all)), DrawProb(rng));
}

void FillNearZero(Rng& rng, UncertainDatabase* db) {
  // All existence probabilities at the near-zero atom except a couple of
  // anchors: mu barely above 0, every upper tail ~ 0.
  const std::size_t n = 2 + rng.NextBelow(8);
  const std::vector<Item> universe = DrawUniverse(rng, 2 + rng.NextBelow(4));
  const std::vector<double> density(universe.size(), 0.7);
  for (std::size_t t = 0; t < n; ++t) {
    const double prob = t < 2 ? 0.9 : 1e-12;
    db->Add(DrawRow(rng, universe, density), prob);
  }
}

void FillWide(Rng& rng, UncertainDatabase* db) {
  // Larger than the possible-world limit: cross-algorithm and
  // metamorphic checks only, no brute-force ground truth.
  const std::size_t n = 16 + rng.NextBelow(12);
  const std::vector<Item> universe = DrawUniverse(rng, 4 + rng.NextBelow(5));
  const double base = 0.2 + 0.5 * rng.NextDouble();
  const std::vector<double> density(universe.size(), base);
  for (std::size_t t = 0; t < n; ++t) {
    db->Add(DrawRow(rng, universe, density), DrawProb(rng));
  }
}

constexpr Shape kShapes[] = {
    {"uniform", FillUniform},       {"skewed", FillSkewed},
    {"duplicates", FillDuplicates}, {"certain", FillCertain},
    {"singletons", FillSingletons}, {"near-zero", FillNearZero},
    {"wide", FillWide},
};

}  // namespace

FuzzCase MakeFuzzCase(std::uint64_t seed) {
  FuzzCase fuzz;
  Rng rng(DeriveSeed(0xfca11ed5eedULL, seed));
  const Shape& shape = kShapes[seed % std::size(kShapes)];
  fuzz.shape = shape.name;
  shape.fill(rng, &fuzz.db);

  // Thresholds: min_sup spans 1..n+2 (past the database edge included),
  // pfct mixes the open-interval edges with interior draws.
  const std::size_t n = fuzz.db.size();
  fuzz.params.min_sup = 1 + rng.NextBelow(n + 2);
  const double pfct_pick = rng.NextDouble();
  if (pfct_pick < 0.15) {
    fuzz.params.pfct = 0.0;
  } else if (pfct_pick < 0.3) {
    fuzz.params.pfct = 0.99;
  } else {
    fuzz.params.pfct = 0.05 + 0.9 * rng.NextDouble();
  }
  // Exact inclusion-exclusion everywhere the event count permits: the
  // metamorphic invariants (permutation, pfct monotonicity) compare runs
  // whose sampling streams would otherwise legitimately differ.
  fuzz.params.exact_event_limit = 32;
  fuzz.params.seed = DeriveSeed(seed, 0x0bac1e);
  return fuzz;
}

}  // namespace pfci
