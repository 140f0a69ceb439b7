#include "src/core/search/run_snapshot.h"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "src/util/failpoint.h"
#include "src/util/string_util.h"

namespace pfci {
namespace {

constexpr char kHeader[] = "pfci-snapshot v1";
constexpr char kFooter[] = "end pfci-snapshot v1";

// The deterministic work counters of MiningStats (kStatsCounters rows
// with a snapshot slot), in slot order. Cache counters, wall-clock
// fields, and outcome are not snapshot state.
void GatherBase(const MiningStats& s,
                std::uint64_t out[kNumSnapshotCounters]) {
  for (const StatsCounter& row : kStatsCounters) {
    if (row.snapshot_slot >= 0) out[row.snapshot_slot] = s.*row.member;
  }
}

void ScatterBase(const std::uint64_t in[kNumSnapshotCounters],
                 MiningStats* s) {
  for (const StatsCounter& row : kStatsCounters) {
    if (row.snapshot_slot >= 0) s->*row.member = in[row.snapshot_slot];
  }
}

bool ParseU64(std::string_view text, std::uint64_t* value) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *value = v;
  return true;
}

void AppendItemset(const Itemset& items, std::ostringstream* out) {
  *out << ' ' << items.size();
  for (Item item : items.items()) *out << ' ' << item;
}

/// Shared line cursor over the serialized text.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Next non-empty line (whitespace-stripped); false at end of input.
  bool Next(std::string_view* line) {
    while (pos_ < text_.size()) {
      std::size_t end = text_.find('\n', pos_);
      if (end == std::string_view::npos) end = text_.size();
      std::string_view raw = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      ++lineno_;
      std::string_view stripped = StripWhitespace(raw);
      if (!stripped.empty()) {
        *line = stripped;
        return true;
      }
    }
    return false;
  }

  int lineno() const { return lineno_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int lineno_ = 0;
};

bool Fail(std::string* error, int lineno, const std::string& what) {
  *error = "snapshot parse error (line " + std::to_string(lineno) + "): " +
           what;
  return false;
}

/// Parses "<k> <item>*k" from tokens[start...]; advances *start.
bool ParseItems(const std::vector<std::string>& tokens, std::size_t* start,
                Itemset* items) {
  unsigned int count = 0;
  if (*start >= tokens.size() || !ParseUint32(tokens[*start], &count)) {
    return false;
  }
  ++*start;
  std::vector<Item> raw;
  raw.reserve(count);
  for (unsigned int i = 0; i < count; ++i) {
    unsigned int item = 0;
    if (*start >= tokens.size() || !ParseUint32(tokens[*start], &item)) {
      return false;
    }
    raw.push_back(static_cast<Item>(item));
    ++*start;
  }
  *items = Itemset(std::move(raw));
  return true;
}

bool ParseDoubleAt(const std::vector<std::string>& tokens, std::size_t* start,
                   double* value) {
  if (*start >= tokens.size() || !ParseDouble(tokens[*start], value)) {
    return false;
  }
  ++*start;
  return true;
}

/// RAII stdio handle: closes on destruction, removes the temp file unless
/// committed. Keeps SaveRunSnapshotAtomic exception-safe under throwing
/// failpoint actions.
class TempFile {
 public:
  TempFile(std::string path) : path_(std::move(path)) {}

  ~TempFile() {
    if (file_ != nullptr) std::fclose(file_);
    if (!committed_ && opened_) std::remove(path_.c_str());
  }

  bool Open() {
    file_ = std::fopen(path_.c_str(), "wb");
    opened_ = file_ != nullptr;
    return opened_;
  }

  std::FILE* get() { return file_; }
  const std::string& path() const { return path_; }

  bool Close() {
    std::FILE* f = file_;
    file_ = nullptr;
    return std::fclose(f) == 0;
  }

  void Commit() { committed_ = true; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool opened_ = false;
  bool committed_ = false;
};

}  // namespace

void AddBaseStats(const MiningStats& base, MiningStats* stats) {
  for (const StatsCounter& row : kStatsCounters) {
    if (row.snapshot_slot >= 0) stats->*row.member += base.*row.member;
  }
}

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffULL;
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t FnvMixString(std::uint64_t hash, std::string_view text) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  hash = FnvMix(hash, text.size());
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t FnvMixDouble(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(hash, bits);
}

std::uint64_t FingerprintDatabase(const UncertainDatabase& db) {
  std::uint64_t hash = FnvMix(kFnvOffsetBasis, db.size());
  for (const UncertainTransaction& t : db.transactions()) {
    hash = FnvMix(hash, t.items.size());
    for (Item item : t.items.items()) hash = FnvMix(hash, item);
    hash = FnvMixDouble(hash, t.prob);
  }
  return hash;
}

std::string SerializeRunSnapshot(const RunSnapshot& snapshot) {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "algorithm " << snapshot.algorithm << '\n';
  out << "fingerprint " << snapshot.fingerprint << '\n';
  out << "has_frontier " << (snapshot.has_frontier ? 1 : 0) << '\n';
  std::uint64_t base[kNumSnapshotCounters];
  GatherBase(snapshot.base, base);
  out << "stats";
  for (const std::uint64_t value : base) out << ' ' << value;
  out << '\n';
  out << "cursor " << snapshot.cursor << '\n';
  out << "rng " << (snapshot.has_rng ? 1 : 0);
  if (snapshot.has_rng) {
    for (int i = 0; i < 4; ++i) out << ' ' << snapshot.rng.s[i];
    out << ' ' << (snapshot.rng.has_gaussian_spare ? 1 : 0) << ' '
        << FormatDoubleRoundTrip(snapshot.rng.gaussian_spare);
  }
  out << '\n';
  out << "entries " << snapshot.entries.size() << '\n';
  for (const PfciEntry& e : snapshot.entries) {
    out << 'e';
    AppendItemset(e.items, &out);
    out << ' ' << FormatDoubleRoundTrip(e.fcp) << ' '
        << FormatDoubleRoundTrip(e.pr_f) << ' '
        << FormatDoubleRoundTrip(e.fcp_lower) << ' '
        << FormatDoubleRoundTrip(e.fcp_upper) << ' '
        << static_cast<int>(e.method) << '\n';
  }
  out << "frontier " << snapshot.frontier.size() << '\n';
  for (const WeightedItemset& f : snapshot.frontier) {
    out << 'f';
    AppendItemset(f.items, &out);
    out << ' ' << FormatDoubleRoundTrip(f.weight) << '\n';
  }
  out << "done ";
  if (snapshot.done.empty()) {
    out << '-';
  } else {
    for (std::uint8_t bit : snapshot.done) out << (bit != 0 ? '1' : '0');
  }
  out << '\n';
  out << kFooter << '\n';
  return out.str();
}

bool ParseRunSnapshot(std::string_view text, RunSnapshot* snapshot,
                      std::string* error) {
  *snapshot = RunSnapshot();
  LineReader reader(text);
  std::string_view line;

  if (!reader.Next(&line) || line != kHeader) {
    return Fail(error, reader.lineno(),
                "missing '" + std::string(kHeader) + "' header");
  }

  auto next_fields = [&](const char* key,
                         std::vector<std::string>* tokens) -> bool {
    if (!reader.Next(&line)) return false;
    *tokens = SplitTokens(line);
    return !tokens->empty() && (*tokens)[0] == key;
  };

  std::vector<std::string> tokens;
  if (!next_fields("algorithm", &tokens) || tokens.size() != 2) {
    return Fail(error, reader.lineno(), "expected 'algorithm <name>'");
  }
  snapshot->algorithm = tokens[1];

  if (!next_fields("fingerprint", &tokens) || tokens.size() != 2 ||
      !ParseU64(tokens[1], &snapshot->fingerprint)) {
    return Fail(error, reader.lineno(), "expected 'fingerprint <u64>'");
  }

  std::uint64_t flag = 0;
  if (!next_fields("has_frontier", &tokens) || tokens.size() != 2 ||
      !ParseU64(tokens[1], &flag) || flag > 1) {
    return Fail(error, reader.lineno(), "expected 'has_frontier <0|1>'");
  }
  snapshot->has_frontier = flag == 1;

  if (!next_fields("stats", &tokens) ||
      tokens.size() != 1 + kNumSnapshotCounters) {
    return Fail(error, reader.lineno(),
                "expected 'stats' with " +
                    std::to_string(kNumSnapshotCounters) + " counters");
  }
  std::uint64_t base[kNumSnapshotCounters];
  for (std::size_t i = 0; i < kNumSnapshotCounters; ++i) {
    if (!ParseU64(tokens[1 + i], &base[i])) {
      return Fail(error, reader.lineno(), "bad stats counter " + tokens[1 + i]);
    }
  }
  ScatterBase(base, &snapshot->base);

  if (!next_fields("cursor", &tokens) || tokens.size() != 2 ||
      !ParseU64(tokens[1], &snapshot->cursor)) {
    return Fail(error, reader.lineno(), "expected 'cursor <u64>'");
  }

  if (!next_fields("rng", &tokens) || tokens.size() < 2 ||
      !ParseU64(tokens[1], &flag) || flag > 1) {
    return Fail(error, reader.lineno(), "expected 'rng <0|1> ...'");
  }
  snapshot->has_rng = flag == 1;
  if (snapshot->has_rng) {
    if (tokens.size() != 8) {
      return Fail(error, reader.lineno(), "rng line needs 6 state fields");
    }
    for (int i = 0; i < 4; ++i) {
      if (!ParseU64(tokens[2 + i], &snapshot->rng.s[i])) {
        return Fail(error, reader.lineno(), "bad rng word " + tokens[2 + i]);
      }
    }
    std::uint64_t spare_flag = 0;
    if (!ParseU64(tokens[6], &spare_flag) || spare_flag > 1 ||
        !ParseDouble(tokens[7], &snapshot->rng.gaussian_spare)) {
      return Fail(error, reader.lineno(), "bad rng gaussian spare");
    }
    snapshot->rng.has_gaussian_spare = spare_flag == 1;
  } else if (tokens.size() != 2) {
    return Fail(error, reader.lineno(), "rng 0 takes no state fields");
  }

  std::uint64_t count = 0;
  if (!next_fields("entries", &tokens) || tokens.size() != 2 ||
      !ParseU64(tokens[1], &count)) {
    return Fail(error, reader.lineno(), "expected 'entries <n>'");
  }
  snapshot->entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.Next(&line)) {
      return Fail(error, reader.lineno(), "truncated entry list");
    }
    tokens = SplitTokens(line);
    if (tokens.empty() || tokens[0] != "e") {
      return Fail(error, reader.lineno(), "expected entry line 'e ...'");
    }
    PfciEntry entry;
    std::size_t pos = 1;
    unsigned int method = 0;
    if (!ParseItems(tokens, &pos, &entry.items) ||
        !ParseDoubleAt(tokens, &pos, &entry.fcp) ||
        !ParseDoubleAt(tokens, &pos, &entry.pr_f) ||
        !ParseDoubleAt(tokens, &pos, &entry.fcp_lower) ||
        !ParseDoubleAt(tokens, &pos, &entry.fcp_upper) ||
        pos + 1 != tokens.size() || !ParseUint32(tokens[pos], &method) ||
        method > static_cast<unsigned int>(FcpMethod::kSampled)) {
      return Fail(error, reader.lineno(), "malformed entry line");
    }
    entry.method = static_cast<FcpMethod>(method);
    snapshot->entries.push_back(std::move(entry));
  }

  if (!next_fields("frontier", &tokens) || tokens.size() != 2 ||
      !ParseU64(tokens[1], &count)) {
    return Fail(error, reader.lineno(), "expected 'frontier <n>'");
  }
  snapshot->frontier.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!reader.Next(&line)) {
      return Fail(error, reader.lineno(), "truncated frontier list");
    }
    tokens = SplitTokens(line);
    if (tokens.empty() || tokens[0] != "f") {
      return Fail(error, reader.lineno(), "expected frontier line 'f ...'");
    }
    WeightedItemset element;
    std::size_t pos = 1;
    if (!ParseItems(tokens, &pos, &element.items) ||
        !ParseDoubleAt(tokens, &pos, &element.weight) ||
        pos != tokens.size()) {
      return Fail(error, reader.lineno(), "malformed frontier line");
    }
    // No policy writes an empty frontier itemset, and a resume would
    // index its first item.
    if (element.items.empty()) {
      return Fail(error, reader.lineno(), "empty frontier itemset");
    }
    snapshot->frontier.push_back(std::move(element));
  }

  if (!next_fields("done", &tokens) || tokens.size() != 2) {
    return Fail(error, reader.lineno(), "expected 'done <bits|->'");
  }
  if (tokens[1] != "-") {
    if (tokens[1].size() != snapshot->frontier.size()) {
      return Fail(error, reader.lineno(),
                  "done bits do not match frontier size");
    }
    snapshot->done.reserve(tokens[1].size());
    for (char c : tokens[1]) {
      if (c != '0' && c != '1') {
        return Fail(error, reader.lineno(), "done bits must be 0/1");
      }
      snapshot->done.push_back(c == '1' ? 1 : 0);
    }
  }

  if (!reader.Next(&line) || line != kFooter) {
    return Fail(error, reader.lineno(),
                "missing completeness marker (torn snapshot?)");
  }
  if (reader.Next(&line)) {
    return Fail(error, reader.lineno(), "trailing content after end marker");
  }
  return true;
}

std::string SaveRunSnapshotAtomic(const RunSnapshot& snapshot,
                                  const std::string& path) {
  const std::string payload = SerializeRunSnapshot(snapshot);
  TempFile temp(path + ".tmp");
  try {
    PFCI_FAILPOINT("snapshot/open");
    if (!temp.Open()) {
      return "snapshot: cannot open temp file " + temp.path();
    }
    // Two half-writes with the failpoint between them: a kill here leaves
    // a genuinely torn temp file, which the rename discipline must (and
    // does) keep away from `path`.
    const std::size_t half = payload.size() / 2;
    if (half > 0 &&
        std::fwrite(payload.data(), 1, half, temp.get()) != half) {
      return "snapshot: short write to " + temp.path();
    }
    PFCI_FAILPOINT("snapshot/write");
    const std::size_t rest = payload.size() - half;
    if (rest > 0 &&
        std::fwrite(payload.data() + half, 1, rest, temp.get()) != rest) {
      return "snapshot: short write to " + temp.path();
    }
    PFCI_FAILPOINT("snapshot/flush");
    if (std::fflush(temp.get()) != 0 || fsync(fileno(temp.get())) != 0) {
      return "snapshot: flush failed for " + temp.path();
    }
    if (!temp.Close()) {
      return "snapshot: close failed for " + temp.path();
    }
    PFCI_FAILPOINT("snapshot/rename");
    if (std::rename(temp.path().c_str(), path.c_str()) != 0) {
      return "snapshot: rename to " + path + " failed";
    }
    temp.Commit();
  } catch (const std::exception& e) {
    return std::string("snapshot: fault during save: ") + e.what();
  } catch (...) {
    return "snapshot: fault during save";
  }
  return "";
}

std::string LoadRunSnapshot(const std::string& path, RunSnapshot* snapshot) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return "snapshot: cannot open " + path;
  }
  std::string text;
  char buffer[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return "snapshot: read error on " + path;
  }
  std::string error;
  if (!ParseRunSnapshot(text, snapshot, &error)) {
    return error + " [" + path + "]";
  }
  return "";
}

}  // namespace pfci
