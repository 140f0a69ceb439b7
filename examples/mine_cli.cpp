// Command-line miner: discover probabilistic frequent closed itemsets in
// a `.utd` file (one transaction per line: `prob item item ...`).
//
//   $ ./mine_cli DATA.utd MIN_SUP [PFCT=0.8]
//                [--algo=NAME]   (any AlgorithmName; see --algo=help)
//                [--request=FILE]   (key=value request wire file)
//                [--sweep=min_sup:A,B,C]   (MiningSession threshold batch)
//                [--threads=N] [--progress] [--top-k=K]
//                [--epsilon=0.1] [--delta=0.1] [--csv=OUT.csv]
//                [--tidset=adaptive|sparse|dense] [--stats-json]
//                [--trace=OUT.jsonl] [--deadline-ms=N] [--max-nodes=N]
//                [--max-samples=N] [--snapshot=FILE] [--resume=FILE]
//                [--max-inflight=N]
//
// With no positional arguments, mines the paper's Table II database as a
// self-demonstration (flags still apply).
//
// --request loads a serialized MiningRequest (the shared key=value wire
// format of src/core/request_io.h — the same dialect the oracle's
// `.request` repro sidecars use, whose `check` line is ignored). The
// file is applied as a base: explicit positionals and flags override its
// fields, and MIN_SUP becomes optional when the file provides one.
//
// --sweep serves one request per threshold as a single MineBatch on one
// MiningSession (the batch runs highest threshold first and the lower
// steps reuse its DP tail tables) and prints each threshold's result
// count in the ascending order given.
// It writes no CSV and binds no snapshot, so it cannot be combined with
// --csv, --snapshot or --resume.
//
// --snapshot writes a crash-consistent resume snapshot when the run stops
// early (deadline/budget); --resume continues a suspended run from such a
// file, bit-identically to an uninterrupted run. --max-inflight caps the
// sweep session's concurrent runs (admission control; excess requests are
// rejected with outcome `rejected`).
//
// Exit codes mirror the run outcome so scripts can tell a complete run
// from a fail-soft partial: 0 complete, 2 invalid request, 3 budget
// exhausted, 4 deadline exceeded, 5 cancelled, 6 rejected by admission
// control (1 stays the generic usage/I-O error). Invalid requests caught
// before the run — e.g. a --sweep list with duplicate or non-ascending
// thresholds, or --sweep combined with --csv/--snapshot/--resume — also
// exit 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mine.h"
#include "src/core/mining_result.h"
#include "src/core/request_io.h"
#include "src/serve/mining_session.h"
#include "src/data/database_io.h"
#include "src/data/database_stats.h"
#include "src/harness/dataset_factory.h"
#include "src/util/csv_writer.h"
#include "src/util/runtime.h"
#include "src/util/string_util.h"
#include "src/util/trace.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// "mpfci|bfs|naive|..." — every algorithm name, straight off the
/// library's own table, so CLI help can never drift from the enum.
std::string AlgorithmChoices() {
  std::string choices;
  for (pfci::Algorithm algorithm : pfci::AllAlgorithms()) {
    if (!choices.empty()) choices += '|';
    choices += pfci::AlgorithmName(algorithm);
  }
  return choices;
}

/// Parses "--sweep=min_sup:A,B,C" into a list of thresholds. Returns 0
/// on success, 1 on a syntax error (generic usage error), 2 when the
/// thresholds are duplicated or non-ascending — the sweep contract is
/// strictly increasing, and the error names the offending position so
/// a long list is debuggable. The caller exits with the returned code
/// (2 is the documented invalid-request exit).
int ParseSweep(const std::string& value, std::vector<std::size_t>* out) {
  const std::string prefix = "min_sup:";
  if (value.compare(0, prefix.size(), prefix) != 0) {
    std::fprintf(stderr, "bad --sweep '%s' (expected min_sup:A,B,C)\n",
                 value.c_str());
    return 1;
  }
  std::size_t start = prefix.size();
  while (start < value.size()) {
    std::size_t end = value.find(',', start);
    if (end == std::string::npos) end = value.size();
    const std::string token = value.substr(start, end - start);
    unsigned int threshold = 0;
    if (!pfci::ParseUint32(token, &threshold) || threshold == 0) {
      std::fprintf(stderr,
                   "bad --sweep threshold '%s' at position %zu (expected a "
                   "positive integer)\n",
                   token.c_str(), out->size() + 1);
      return 1;
    }
    if (!out->empty() && threshold <= out->back()) {
      std::fprintf(stderr,
                   "bad --sweep: threshold %u at position %zu %s previous "
                   "value %zu (thresholds must be strictly ascending)\n",
                   threshold, out->size() + 1,
                   threshold == out->back() ? "duplicates" : "is below",
                   out->back());
      return 2;
    }
    out->push_back(threshold);
    start = end + 1;
  }
  if (out->empty()) {
    std::fprintf(stderr, "bad --sweep '%s' (no thresholds given)\n",
                 value.c_str());
    return 1;
  }
  return 0;
}

/// Distinct non-zero exit code per fail-soft outcome (documented above).
int ExitCodeFor(pfci::Outcome outcome) {
  switch (outcome) {
    case pfci::Outcome::kComplete:
      return 0;
    case pfci::Outcome::kBudgetExhausted:
      return 3;
    case pfci::Outcome::kDeadlineExceeded:
      return 4;
    case pfci::Outcome::kCancelled:
      return 5;
    case pfci::Outcome::kInvalidRequest:
      return 2;
    case pfci::Outcome::kRejected:
      return 6;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfci;

  std::string path;
  MiningRequest request;
  request.params.pfct = 0.8;
  std::vector<std::size_t> sweep_thresholds;
  bool show_progress = false;
  bool stats_json = false;
  std::string csv_path;
  std::string trace_path;
  SessionOptions session_options;

  // --request is applied before the positional/flag pass so everything
  // explicit on the command line overrides the file's fields.
  std::string request_file;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--request", &value)) request_file = value;
  }
  bool request_file_loaded = false;
  if (!request_file.empty()) {
    std::string error;
    if (!LoadRequestFile(request_file, &request, &error)) {
      std::fprintf(stderr, "failed to load --request file: %s\n",
                   error.c_str());
      return 1;
    }
    request_file_loaded = true;
  }

  // Demo mode: no positional arguments (flags alone are accepted and
  // applied to the paper's Table II example).
  const bool demo = argc < 2 || argv[1][0] == '-';
  int position = 1;
  if (demo) {
    std::printf(
        "usage: %s DATA.utd MIN_SUP [PFCT]"
        " [--algo=%s]\n"
        "       [--request=FILE] [--sweep=min_sup:A,B,C] [--threads=N]"
        " [--progress]\n"
        "       [--top-k=K] [--epsilon=E] [--delta=D] [--csv=OUT.csv]\n"
        "       [--tidset=adaptive|sparse|dense] [--stats-json]"
        " [--trace=OUT.jsonl]\n"
        "       [--deadline-ms=N] [--max-nodes=N] [--max-samples=N]\n"
        "       [--snapshot=FILE] [--resume=FILE] [--max-inflight=N]\n"
        "no input given — demonstrating on the paper's Table II.\n\n",
        argv[0], AlgorithmChoices().c_str());
    if (!request_file_loaded) request.params.min_sup = 2;
  } else {
    path = argv[1];
    position = 2;
    if (argc > position && argv[position][0] != '-') {
      unsigned int min_sup = 0;
      if (!ParseUint32(argv[position], &min_sup) || min_sup == 0) {
        std::fprintf(stderr, "bad MIN_SUP '%s'\n", argv[position]);
        return 1;
      }
      request.params.min_sup = min_sup;
      ++position;
      if (argc > position && argv[position][0] != '-') {
        double pfct = 0.0;
        if (!ParseDouble(argv[position], &pfct) || pfct < 0.0 || pfct >= 1.0) {
          std::fprintf(stderr, "bad PFCT '%s'\n", argv[position]);
          return 1;
        }
        request.params.pfct = pfct;
        ++position;
      }
    } else if (!request_file_loaded) {
      std::fprintf(stderr,
                   "missing MIN_SUP (run with no arguments for usage)\n");
      return 1;
    }
  }
  {
    for (; position < argc; ++position) {
      std::string value;
      if (ParseFlag(argv[position], "--algo", &value)) {
        // One lookup table serves parsing, help, and display: the flag
        // round-trips through AlgorithmName().
        if (value == "help") {
          std::printf("available algorithms: %s\n",
                      AlgorithmChoices().c_str());
          return 0;
        }
        if (!ParseAlgorithm(value, &request.algorithm)) {
          std::fprintf(stderr, "unknown --algo '%s' (choices: %s)\n",
                       value.c_str(), AlgorithmChoices().c_str());
          return 1;
        }
      } else if (ParseFlag(argv[position], "--request", &value)) {
        // Already applied in the pre-pass (so later flags override it).
      } else if (ParseFlag(argv[position], "--sweep", &value)) {
        const int sweep_error = ParseSweep(value, &sweep_thresholds);
        if (sweep_error != 0) return sweep_error;
      } else if (ParseFlag(argv[position], "--threads", &value)) {
        unsigned int threads = 0;
        if (!ParseUint32(value, &threads)) {
          std::fprintf(stderr, "bad --threads '%s'\n", value.c_str());
          return 1;
        }
        request.execution.num_threads = threads;
      } else if (ParseFlag(argv[position], "--top-k", &value)) {
        unsigned int top_k = 0;
        if (!ParseUint32(value, &top_k) || top_k == 0) {
          std::fprintf(stderr, "bad --top-k '%s'\n", value.c_str());
          return 1;
        }
        request.top_k = top_k;
      } else if (ParseFlag(argv[position], "--tidset", &value)) {
        if (!ParseTidSetMode(value.c_str(), &request.params.tidset_mode)) {
          std::fprintf(stderr, "unknown --tidset '%s'\n", value.c_str());
          return 1;
        }
      } else if (std::strcmp(argv[position], "--progress") == 0) {
        show_progress = true;
      } else if (std::strcmp(argv[position], "--stats-json") == 0) {
        stats_json = true;
      } else if (ParseFlag(argv[position], "--epsilon", &value)) {
        if (!ParseDouble(value, &request.params.epsilon)) return 1;
      } else if (ParseFlag(argv[position], "--delta", &value)) {
        if (!ParseDouble(value, &request.params.delta)) return 1;
      } else if (ParseFlag(argv[position], "--csv", &value)) {
        csv_path = value;
      } else if (ParseFlag(argv[position], "--trace", &value)) {
        trace_path = value;
      } else if (ParseFlag(argv[position], "--deadline-ms", &value)) {
        unsigned int deadline_ms = 0;
        if (!ParseUint32(value, &deadline_ms) || deadline_ms == 0) {
          std::fprintf(stderr, "bad --deadline-ms '%s'\n", value.c_str());
          return 1;
        }
        request.budget.deadline_seconds = deadline_ms / 1000.0;
      } else if (ParseFlag(argv[position], "--max-nodes", &value)) {
        unsigned int max_nodes = 0;
        if (!ParseUint32(value, &max_nodes) || max_nodes == 0) {
          std::fprintf(stderr, "bad --max-nodes '%s'\n", value.c_str());
          return 1;
        }
        request.budget.max_nodes = max_nodes;
      } else if (ParseFlag(argv[position], "--max-samples", &value)) {
        unsigned int max_samples = 0;
        if (!ParseUint32(value, &max_samples) || max_samples == 0) {
          std::fprintf(stderr, "bad --max-samples '%s'\n", value.c_str());
          return 1;
        }
        request.budget.max_samples = max_samples;
      } else if (ParseFlag(argv[position], "--snapshot", &value)) {
        if (value.empty()) {
          std::fprintf(stderr, "bad --snapshot (empty path)\n");
          return 1;
        }
        request.snapshot.save_path = value;
      } else if (ParseFlag(argv[position], "--resume", &value)) {
        if (value.empty()) {
          std::fprintf(stderr, "bad --resume (empty path)\n");
          return 1;
        }
        request.snapshot.resume_path = value;
      } else if (ParseFlag(argv[position], "--max-inflight", &value)) {
        unsigned int max_inflight = 0;
        if (!ParseUint32(value, &max_inflight) || max_inflight == 0) {
          std::fprintf(stderr, "bad --max-inflight '%s'\n", value.c_str());
          return 1;
        }
        session_options.max_inflight = max_inflight;
      } else {
        std::fprintf(stderr, "unknown argument '%s'\n", argv[position]);
        return 1;
      }
    }
  }

  // A sweep prints per-threshold counts only: it has no single result to
  // write as CSV, and one snapshot path cannot serve several runs (each
  // step would overwrite it, and its fingerprint covers min_sup).
  if (!sweep_thresholds.empty()) {
    const char* conflict = nullptr;
    if (!csv_path.empty()) conflict = "--csv";
    if (!request.snapshot.save_path.empty()) conflict = "--snapshot";
    if (!request.snapshot.resume_path.empty()) conflict = "--resume";
    if (conflict != nullptr) {
      std::fprintf(stderr, "--sweep cannot be combined with %s\n", conflict);
      return 2;
    }
  }

  // top_k stays 0 (meaning "unused") unless the topk algorithm runs; a
  // topk run without an explicit --top-k gets the historical default.
  if (request.algorithm == Algorithm::kTopK && request.top_k == 0) {
    request.top_k = 10;
  }

  std::unique_ptr<JsonLinesTraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<JsonLinesTraceSink>(trace_path);
    if (!trace_sink->ok()) {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path.c_str());
      return 1;
    }
    request.trace = trace_sink.get();
  }

  if (show_progress) {
    request.progress_interval = 1024;
    request.progress = [](const MiningProgress& progress) {
      std::fprintf(stderr, "\r%llu nodes, %llu itemsets",
                   static_cast<unsigned long long>(progress.nodes_visited),
                   static_cast<unsigned long long>(progress.itemsets_found));
    };
  }

  UncertainDatabase db;
  if (demo) {
    db = MakePaperExampleDb();
    path = "the paper's Table II";
  } else {
    std::string error;
    if (!LoadUncertainDatabase(path, &db, &error)) {
      std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
  }
  std::printf("loaded %s: %s\n", path.c_str(),
              ComputeStats(db).ToString().c_str());
  const std::string threads_label =
      request.execution.num_threads == 0
          ? "auto"
          : std::to_string(request.execution.num_threads);
  std::printf("mining with %s, min_sup=%zu, pfct=%g, threads=%s\n",
              AlgorithmName(request.algorithm), request.params.min_sup,
              request.params.pfct, threads_label.c_str());

  if (!sweep_thresholds.empty()) {
    // Threshold sweep: one request per min_sup, served as one batch on a
    // warm MiningSession, so the index and DP tail tables are paid for
    // once.
    std::vector<MiningRequest> steps(sweep_thresholds.size(), request);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      steps[i].params.min_sup = sweep_thresholds[i];
    }
    MiningSession session = MiningSession::Open(db, session_options);
    const std::vector<MiningResult> sweep = session.MineBatch(steps);
    int exit_code = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const MiningResult& result = sweep[i];
      std::printf("\nmin_sup=%zu: %zu itemsets\n", sweep_thresholds[i],
                  result.itemsets.size());
      if (!result.ok()) {
        std::fprintf(stderr, "run did not complete (%s): %s\n",
                     OutcomeName(result.outcome()),
                     result.status_message.c_str());
        if (exit_code == 0) exit_code = ExitCodeFor(result.outcome());
      }
      std::printf("stats: %s\n", result.stats.ToString().c_str());
      if (stats_json) std::printf("%s\n", result.stats.ToJson().c_str());
    }
    return exit_code;
  }

  const MiningResult result = Mine(db, request);
  if (show_progress) std::fprintf(stderr, "\n");
  if (!result.ok()) {
    std::fprintf(stderr, "run did not complete (%s): %s\n",
                 OutcomeName(result.outcome()),
                 result.status_message.c_str());
    if (result.stats.snapshot_bytes > 0) {
      std::fprintf(stderr, "wrote resume snapshot %s (%llu bytes)\n",
                   request.snapshot.save_path.c_str(),
                   static_cast<unsigned long long>(
                       result.stats.snapshot_bytes));
    }
  }
  std::printf("\n%zu probabilistic frequent closed itemsets:\n",
              result.itemsets.size());
  std::printf("%s", result.ToString().c_str());
  std::printf("stats: %s\n", result.stats.ToString().c_str());
  if (stats_json) std::printf("%s\n", result.stats.ToJson().c_str());
  if (trace_sink != nullptr) {
    trace_sink->Flush();
    std::printf("wrote trace %s\n", trace_path.c_str());
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path);
    if (!csv.Ok()) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    csv.WriteRow({"itemset", "fcp", "pr_f", "method"});
    for (const PfciEntry& entry : result.itemsets) {
      csv.WriteRow({entry.items.ToString(), FormatDouble(entry.fcp, 10),
                    FormatDouble(entry.pr_f, 10),
                    FcpMethodName(entry.method)});
    }
    std::printf("wrote %s (%d rows)\n", csv_path.c_str(), csv.rows_written());
  }

  return ExitCodeFor(result.outcome());
}
