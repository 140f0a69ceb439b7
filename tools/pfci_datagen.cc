// Dataset generation tool: writes Quest-style or Mushroom-like synthetic
// data as exact baskets (.dat) or as an uncertain database (.utd) with
// Gaussian tuple probabilities.
//
//   $ pfci_datagen quest OUT.utd --transactions=30000 --avg-len=20
//         --pattern-len=10 --items=40 --mean=0.8 --spread=0.1 --seed=42
//     (one command line, wrapped here)
//   $ pfci_datagen mushroom OUT.dat --exact --transactions=8124
#include <cstdio>
#include <cstring>
#include <string>

#include "src/data/database_io.h"
#include "src/data/database_stats.h"
#include "src/datagen/mushroom_generator.h"
#include "src/datagen/probability_assigner.h"
#include "src/datagen/quest_generator.h"
#include "src/util/string_util.h"

namespace {

struct Options {
  std::string kind;
  std::string path;
  bool exact = false;
  std::size_t transactions = 0;  // 0 = generator default.
  double avg_len = 0.0;
  double pattern_len = 0.0;
  std::size_t items = 0;
  std::size_t attributes = 0;
  std::size_t species = 0;
  double mean = 0.5;
  double spread = 0.25;
  std::uint64_t seed = 42;
};

bool ParseValueFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* binary) {
  std::fprintf(
      stderr,
      "usage: %s quest|mushroom OUT.{utd|dat} [--exact]\n"
      "  common:   --transactions=N --seed=S --mean=M --spread=V\n"
      "  quest:    --avg-len=T --pattern-len=I --items=N\n"
      "  mushroom: --attributes=A --values=K --species=C\n",
      binary);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfci;
  if (argc < 3) return Usage(argv[0]);
  Options opt;
  opt.kind = argv[1];
  opt.path = argv[2];
  std::size_t values_per_attribute = 0;
  for (int i = 3; i < argc; ++i) {
    std::string value;
    unsigned int u = 0;
    if (std::strcmp(argv[i], "--exact") == 0) {
      opt.exact = true;
    } else if (ParseValueFlag(argv[i], "--transactions", &value) &&
               ParseUint32(value, &u)) {
      opt.transactions = u;
    } else if (ParseValueFlag(argv[i], "--avg-len", &value)) {
      ParseDouble(value, &opt.avg_len);
    } else if (ParseValueFlag(argv[i], "--pattern-len", &value)) {
      ParseDouble(value, &opt.pattern_len);
    } else if (ParseValueFlag(argv[i], "--items", &value) &&
               ParseUint32(value, &u)) {
      opt.items = u;
    } else if (ParseValueFlag(argv[i], "--attributes", &value) &&
               ParseUint32(value, &u)) {
      opt.attributes = u;
    } else if (ParseValueFlag(argv[i], "--values", &value) &&
               ParseUint32(value, &u)) {
      values_per_attribute = u;
    } else if (ParseValueFlag(argv[i], "--species", &value) &&
               ParseUint32(value, &u)) {
      opt.species = u;
    } else if (ParseValueFlag(argv[i], "--mean", &value)) {
      ParseDouble(value, &opt.mean);
    } else if (ParseValueFlag(argv[i], "--spread", &value)) {
      ParseDouble(value, &opt.spread);
    } else if (ParseValueFlag(argv[i], "--seed", &value) &&
               ParseUint32(value, &u)) {
      opt.seed = u;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  TransactionDatabase exact;
  if (opt.kind == "quest") {
    QuestParams params;
    if (opt.transactions) params.num_transactions = opt.transactions;
    if (opt.avg_len > 0) params.avg_transaction_length = opt.avg_len;
    if (opt.pattern_len > 0) params.avg_pattern_length = opt.pattern_len;
    if (opt.items) {
      params.num_items = opt.items;
      params.num_patterns = opt.items;
    }
    params.seed = opt.seed;
    exact = GenerateQuest(params);
  } else if (opt.kind == "mushroom") {
    MushroomParams params;
    if (opt.transactions) params.num_transactions = opt.transactions;
    if (opt.attributes) params.num_attributes = opt.attributes;
    if (values_per_attribute) {
      params.values_per_attribute = values_per_attribute;
    }
    if (opt.species) params.num_species = opt.species;
    params.seed = opt.seed;
    exact = GenerateMushroomLike(params);
  } else {
    return Usage(argv[0]);
  }

  if (opt.exact) {
    if (!SaveExactTransactions(exact.transactions(), opt.path)) {
      std::fprintf(stderr, "failed to write %s\n", opt.path.c_str());
      return 1;
    }
    std::printf("wrote %zu exact transactions to %s\n", exact.size(),
                opt.path.c_str());
    return 0;
  }

  GaussianAssignerParams assign;
  assign.mean = opt.mean;
  assign.spread = opt.spread;
  assign.seed = opt.seed + 1;
  const UncertainDatabase db = AssignGaussianProbabilities(exact, assign);
  if (!SaveUncertainDatabase(db, opt.path)) {
    std::fprintf(stderr, "failed to write %s\n", opt.path.c_str());
    return 1;
  }
  std::printf("wrote %s: %s\n", opt.path.c_str(),
              ComputeStats(db).ToString().c_str());
  return 0;
}
