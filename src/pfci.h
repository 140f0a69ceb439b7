// Umbrella header for the pfci library.
//
// pfci reproduces "Discovering Threshold-based Frequent Closed Itemsets
// over Probabilistic Data" (Tong, Chen, Ding — ICDE 2012). A transaction
// database under the tuple-uncertainty model encodes 2^n possible worlds;
// the library mines the itemsets whose probability of being a *frequent
// closed* itemset across those worlds exceeds a threshold, a #P-hard
// quantity tamed by pruning, analytic bounds and an FPRAS sampler.
//
// Typical usage:
//
//   #include "src/pfci.h"
//
//   pfci::UncertainDatabase db;
//   db.Add(pfci::Itemset{0, 1, 2}, 0.9);   // tuple exists w.p. 0.9
//   ...
//   pfci::MiningRequest request;
//   request.params.min_sup = 2;
//   request.params.pfct = 0.8;
//   request.execution.num_threads = 4;   // 0 = library default
//   pfci::MiningResult result = pfci::Mine(db, request);
//
// Entry points by task:
//  * Mining:     Mine, the one front door: every algorithm (MPFCI, BFS,
//                Naive, top-k, PFI, expected support, the brute-force
//                oracle, the item-level miners) is an Algorithm value of
//                a MiningRequest. MinePsupClosed, an experiment building
//                block no Algorithm reaches, stays callable on raw
//                parameters.
//  * Serving:    MiningSession (repeated requests over one database:
//                shared index, cross-request evaluation caches; Mine,
//                Submit, and MineBatch — a threshold sweep is a batch of
//                requests differing only in min_sup; DESIGN.md §11/§15).
//  * Per-itemset probabilities: FcpEngine, FrequentProbability,
//                ExactClosedProbability / ApproxClosedProbability.
//  * Oracles:    BruteForceItemsetProbabilities, BruteForceAllFcp
//                (possible-world enumeration, small inputs).
//  * Exact data: FpGrowth, MineClosedItemsets, CharmMineClosedItemsets,
//                AprioriMine.
//  * Data:       GenerateQuest, GenerateMushroomLike,
//                AssignGaussianProbabilities, Load/SaveUncertainDatabase.
//  * Fail-soft:  CancelToken + MiningRequest::budget (RunBudget) bound a
//                run by deadline, node/sample count, or resident bytes;
//                MiningResult::outcome() reports how the run ended and a
//                non-complete run still returns a verified partial.
#ifndef PFCI_PFCI_H_
#define PFCI_PFCI_H_

#include "src/core/brute_force.h"
#include "src/core/closed_probability.h"
#include "src/core/eval_cache.h"
#include "src/core/fcp_engine.h"
#include "src/core/item_uncertain_miners.h"
#include "src/core/mdnf_reduction.h"
#include "src/core/mine.h"
#include "src/core/mining_params.h"
#include "src/core/mining_result.h"
#include "src/core/probabilistic_support.h"
#include "src/core/stream_miner.h"
#include "src/data/database_io.h"
#include "src/data/database_stats.h"
#include "src/data/item_uncertain_database.h"
#include "src/data/itemset.h"
#include "src/data/possible_world.h"
#include "src/data/tidset.h"
#include "src/data/uncertain_database.h"
#include "src/data/vertical_index.h"
#include "src/data/world_enumerator.h"
#include "src/datagen/mushroom_generator.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/exact/apriori.h"
#include "src/exact/charm_miner.h"
#include "src/exact/closed_miner.h"
#include "src/exact/fp_growth.h"
#include "src/exact/transaction_database.h"
#include "src/serve/mining_session.h"
#include "src/util/failpoint.h"
#include "src/util/runtime.h"

#endif  // PFCI_PFCI_H_
