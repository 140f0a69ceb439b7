// Unit tests for the extension events C_i and their intersection
// probabilities (the DNF factorization of Sec. IV.B.1).
#include "src/core/extension_events.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "src/core/brute_force.h"
#include "src/data/world_enumerator.h"
#include "src/harness/dataset_factory.h"
#include "src/util/random.h"
#include "tests/tidlist_reference.h"

namespace pfci {
namespace {

/// Exact Pr(C_i for all i in S) by world enumeration: every present
/// transaction containing X also contains all of S's items, and the
/// support of X ∪ S reaches min_sup.
double BruteForceIntersection(const UncertainDatabase& db, const Itemset& x,
                              const std::vector<Item>& extension,
                              std::size_t min_sup) {
  double total = 0.0;
  Itemset extended = x;
  for (Item e : extension) extended = extended.WithItem(e);
  EnumerateWorlds(db, [&](const PossibleWorld& world, double prob) {
    // Every present transaction containing X must contain the extension.
    for (Tid tid = 0; tid < db.size(); ++tid) {
      if (!world.IsPresent(tid)) continue;
      const Itemset& t = db.transaction(tid).items;
      if (x.IsSubsetOf(t) && !extended.IsSubsetOf(t)) return;
    }
    if (world.Support(db, extended) >= min_sup) total += prob;
  });
  return total;
}

TEST(ExtensionEvents, PaperExampleEventOfAbc) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  const Itemset abc{0, 1, 2};
  const TidSet tids = index.TidsOf(abc);
  const ExtensionEventSet events(index, freq, abc, tids);
  // Only item d (=3) can extend abc.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.events()[0].item, 3u);
  // Pr(C_d) = (1-.6)(1-.7) * Pr{PB(.9,.9) >= 2} = .12 * .81 = .0972.
  EXPECT_NEAR(events.PrSingle(0), 0.0972, 1e-12);
  EXPECT_FALSE(events.HasSameCountExtension());
}

TEST(ExtensionEvents, SameCountExtensionDetected) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 2);
  // {a,b}: item c occurs in every transaction containing ab.
  const Itemset ab{0, 1};
  const TidSet tids = index.TidsOf(ab);
  const ExtensionEventSet events(index, freq, ab, tids);
  EXPECT_TRUE(events.HasSameCountExtension());
}

TEST(ExtensionEvents, CertainTransactionKillsEvent) {
  // A p=1 transaction containing X but not X+e makes C_e impossible.
  UncertainDatabase db;
  db.Add(Itemset{0, 1}, 0.5);
  db.Add(Itemset{0}, 1.0);  // Contains X={a} but never e=b, and is certain.
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 1);
  const Itemset a{0};
  const TidSet tids = index.TidsOf(a);
  const ExtensionEventSet events(index, freq, a, tids);
  EXPECT_EQ(events.size(), 0u);  // The b-event is impossible.
}

TEST(ExtensionEvents, CountBelowMinSupSkipsEvent) {
  const UncertainDatabase db = MakePaperExampleDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 3);
  // {abc} with min_sup=3: the d-extension has count 2 < 3, impossible.
  const Itemset abc{0, 1, 2};
  const TidSet tids = index.TidsOf(abc);
  const ExtensionEventSet events(index, freq, abc, tids);
  EXPECT_EQ(events.size(), 0u);
}

TEST(ExtensionEvents, IntersectionMatchesBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    UncertainDatabase db;
    const std::size_t n = 5 + rng.NextBelow(5);
    for (std::size_t t = 0; t < n; ++t) {
      std::vector<Item> items;
      for (Item i = 0; i < 5; ++i) {
        if (rng.NextBernoulli(0.6)) items.push_back(i);
      }
      if (items.empty()) items.push_back(0);
      db.Add(Itemset(std::move(items)), 0.1 + 0.9 * rng.NextDouble());
    }
    const std::size_t min_sup = 1 + rng.NextBelow(3);
    const VerticalIndex index(db);
    const FrequentProbability freq(index, min_sup);
    const Itemset x{0};
    const TidSet tids = index.TidsOf(x);
    if (tids.empty()) continue;
    const ExtensionEventSet events(index, freq, x, tids);

    // Singles.
    for (std::size_t i = 0; i < events.size(); ++i) {
      const double truth = BruteForceIntersection(
          db, x, {events.events()[i].item}, min_sup);
      EXPECT_NEAR(events.PrSingle(i), truth, 1e-9)
          << "trial=" << trial << " i=" << i;
      EXPECT_NEAR(events.PrIntersection({i}), truth, 1e-9);
    }
    // Pairs.
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        const double truth = BruteForceIntersection(
            db, x, {events.events()[i].item, events.events()[j].item},
            min_sup);
        EXPECT_NEAR(events.PrIntersection({i, j}), truth, 1e-9)
            << "trial=" << trial;
      }
    }
    // The pairwise matrix agrees with the individual calls.
    const PairwiseProbabilities pairs = events.BuildPairwise();
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_DOUBLE_EQ(pairs.Get(i, i), events.PrSingle(i));
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        EXPECT_DOUBLE_EQ(pairs.Get(i, j), events.PrIntersection({i, j}));
      }
    }
  }
}

// ---------------------------------------------------------------------
// The miss term against the materializing reference: the events and
// their intersections computed with a materialized Tids(X) \ Tids(X∪S)
// and a log1p per tid, as the miss term was defined before the walk.
// ---------------------------------------------------------------------

/// log Π (1 - p_T) over `miss`, in tid order; -infinity on a p = 1 tid.
double ReferenceLogMiss(const UncertainDatabase& db, const TidList& miss) {
  double log_miss = 0.0;
  for (const Tid tid : miss) {
    if (db.prob(tid) >= 1.0) return -std::numeric_limits<double>::infinity();
    log_miss += std::log1p(-db.prob(tid));
  }
  return log_miss;
}

/// Pr(∩ C_i) over the events whose tid lists are `event_tids`.
double ReferenceIntersection(const UncertainDatabase& db,
                             const FrequentProbability& freq,
                             const TidList& x_tids,
                             const std::vector<TidList>& event_tids) {
  TidList tids = event_tids[0];
  for (std::size_t k = 1; k < event_tids.size(); ++k) {
    tids = IntersectTids(tids, event_tids[k]);
  }
  if (tids.size() < freq.min_sup()) return 0.0;
  const double log_miss =
      ReferenceLogMiss(db, DifferenceTids(x_tids, tids));
  if (!std::isfinite(log_miss)) return 0.0;
  return std::exp(log_miss) *
         freq.PrF(TidSet(tids, db.size(), TidSetMode::kSparse));
}

struct ReferenceEvent {
  Item item;
  TidList tids;
  double log_miss;
  double pr_freq;
  double prob;
};

std::vector<ReferenceEvent> ReferenceEvents(const UncertainDatabase& db,
                                            const VerticalIndex& index,
                                            const FrequentProbability& freq,
                                            const Itemset& x) {
  const TidList x_tids = index.TidsOf(x).ToTidList();
  std::vector<ReferenceEvent> events;
  for (const Item item : index.occurring_items()) {
    if (x.Contains(item)) continue;
    ReferenceEvent event;
    event.item = item;
    event.tids = IntersectTids(x_tids, index.TidsOfItem(item).ToTidList());
    if (event.tids.size() < freq.min_sup()) continue;
    event.log_miss = ReferenceLogMiss(db, DifferenceTids(x_tids, event.tids));
    if (!std::isfinite(event.log_miss)) continue;
    event.pr_freq =
        freq.PrF(TidSet(event.tids, db.size(), TidSetMode::kSparse));
    event.prob = std::exp(event.log_miss) * event.pr_freq;
    if (event.prob > 0.0) events.push_back(event);
  }
  return events;
}

/// X = {0} over 1,100 filler transactions {0, ...} at p = 0.5 around a
/// core of five p = 0.9 transactions and one certain one. log(1 - 0.5)
/// ≈ -0.693, so a miss of 1,077 or more fillers crosses the dead-miss
/// cutoff (-746) partway through the walk. Each item e is the core plus a
/// block of fillers; its miss is the fillers outside the block:
///   1: none       miss 1100  dead partway through the walk
///   2: [0, 26)    miss 1074  alive, exp(log_miss) subnormal
///   3: [0, 24)    miss 1076  just above the cutoff: the walk completes,
///                            exp underflows to 0 and the event drops
///   4: [0, 22)    miss 1078  dead
///   5: all fillers, not the certain core tid: miss {that tid}, p = 1
///   6: all        miss 0
///   7: [0, 600)   miss 500
///   8: [600, 1100) miss 600; 7 ∩ 8 is the core alone, a dead pair
UncertainDatabase MakeDeadMissDb() {
  const std::size_t kFillers = 1100;
  const auto filler_items = [](std::size_t f) {
    std::vector<Item> items = {0};
    if (f < 26) items.push_back(2);
    if (f < 24) items.push_back(3);
    if (f < 22) items.push_back(4);
    items.push_back(5);
    items.push_back(6);
    items.push_back(f < 600 ? 7 : 8);
    return Itemset(std::move(items));
  };
  UncertainDatabase db;
  for (std::size_t f = 0; f < kFillers; ++f) {
    if (f == kFillers / 2) {
      // The core sits mid-database, so the p = 1 tid lands partway
      // through item 5's walk.
      for (int k = 0; k < 5; ++k) db.Add(Itemset{0, 1, 2, 3, 4, 5, 6, 7, 8}, 0.9);
      db.Add(Itemset{0, 1, 2, 3, 4, 6, 7, 8}, 1.0);
    }
    db.Add(filler_items(f), 0.5);
  }
  return db;
}

TEST(ExtensionEvents, DeadMissCutoffMatchesTheMaterializedReference) {
  const UncertainDatabase db = MakeDeadMissDb();
  for (const TidSetMode mode :
       {TidSetMode::kAdaptive, TidSetMode::kSparse, TidSetMode::kDense}) {
    SCOPED_TRACE(TidSetModeName(mode));
    const VerticalIndex index(db, mode);
    const FrequentProbability freq(index, 3);
    const Itemset x{0};
    const TidSet x_tids = index.TidsOf(x);
    const ExtensionEventSet events(index, freq, x, x_tids);
    const std::vector<ReferenceEvent> ref = ReferenceEvents(db, index, freq, x);

    // Items 1, 3, 4 and 5 drop; 2 survives with a subnormal miss factor.
    ASSERT_EQ(events.size(), ref.size());
    std::vector<Item> items;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const ExtensionEvent& event = events.events()[i];
      items.push_back(event.item);
      EXPECT_EQ(event.item, ref[i].item);
      EXPECT_EQ(event.tids, ref[i].tids);
      EXPECT_EQ(event.log_miss, ref[i].log_miss);
      EXPECT_EQ(event.pr_freq, ref[i].pr_freq);
      EXPECT_EQ(event.prob, ref[i].prob);
      EXPECT_EQ(events.PrSingle(i), ref[i].prob);
      EXPECT_EQ(events.PrIntersection({i}), ref[i].prob);
    }
    EXPECT_EQ(items, (std::vector<Item>{2, 6, 7, 8}));
    EXPECT_LT(ref[0].prob, std::numeric_limits<double>::min());
    EXPECT_GT(ref[0].prob, 0.0);

    // Every pair and the triples, bit for bit; 7 ∩ 8 (and any set with
    // both) is dead.
    const TidList x_list = x_tids.ToTidList();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      for (std::size_t j = i + 1; j < ref.size(); ++j) {
        EXPECT_EQ(events.PrIntersection({i, j}),
                  ReferenceIntersection(db, freq, x_list,
                                        {ref[i].tids, ref[j].tids}))
            << "pair " << ref[i].item << "," << ref[j].item;
        for (std::size_t k = j + 1; k < ref.size(); ++k) {
          EXPECT_EQ(events.PrIntersection({i, j, k}),
                    ReferenceIntersection(
                        db, freq, x_list,
                        {ref[i].tids, ref[j].tids, ref[k].tids}));
        }
      }
    }
    EXPECT_EQ(events.PrIntersection({2, 3}), 0.0);
    EXPECT_GT(events.PrIntersection({0, 2}), 0.0);
  }
}

TEST(ExtensionEvents, CertainTransactionInsideALongMissKillsEvent) {
  // Item 5's miss is the one certain tid: log(1 - 1) = -infinity kills
  // the event although every other term is finite.
  const UncertainDatabase db = MakeDeadMissDb();
  const VerticalIndex index(db);
  const FrequentProbability freq(index, 3);
  const Itemset x{0};
  const TidSet x_tids = index.TidsOf(x);
  const ExtensionEventSet events(index, freq, x, x_tids);
  EXPECT_GE(IntersectSize(x_tids, index.TidsOfItem(5)), 3u);
  for (const ExtensionEvent& event : events.events()) {
    EXPECT_NE(event.item, 5u);
  }
  EXPECT_EQ(index.LogAbsent(static_cast<Tid>(1100 / 2 + 5)),
            -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace pfci
