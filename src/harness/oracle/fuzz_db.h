// Seeded adversarial database generator for the differential oracle.
//
// Golden scenarios only pin behavior on hand-picked inputs; this
// generator produces the inputs nobody hand-picks: skewed item
// densities, probability atoms at the representable extremes (exactly
// 1.0 and near-zero), duplicated transactions, singleton rows,
// sparse/gapped item universes, and thresholds at or past the window
// edge (min_sup > |db|). Every case is a pure function of its seed, so
// a failing seed IS the repro.
#ifndef PFCI_HARNESS_ORACLE_FUZZ_DB_H_
#define PFCI_HARNESS_ORACLE_FUZZ_DB_H_

#include <cstdint>
#include <string>

#include "src/core/mining_params.h"
#include "src/data/uncertain_database.h"

namespace pfci {

/// One generated oracle input: a database, the mining parameters to probe
/// it with, and a human-readable shape label for diagnostics.
struct FuzzCase {
  UncertainDatabase db;
  MiningParams params;
  std::string shape;
};

/// Deterministically derives a case from `seed`: the shape rotates with
/// the seed and every quantity (sizes, densities, probability atoms,
/// thresholds) is drawn from an Rng seeded by it. Databases stay small
/// enough that a full metamorphic sweep per case is cheap; roughly one
/// case in three is small enough for possible-world ground truth.
FuzzCase MakeFuzzCase(std::uint64_t seed);

}  // namespace pfci

#endif  // PFCI_HARNESS_ORACLE_FUZZ_DB_H_
