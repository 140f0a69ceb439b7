// Crash-consistency kill matrix for SaveRunSnapshotAtomic (DESIGN.md
// §14): a child process is killed (raw _exit from the armed failpoint —
// no flush, no atexit) at EVERY snapshot failpoint site mid-save, and
// the parent proves the on-disk snapshot is the old complete file or
// the new complete file, never torn. Also pins torn-file detection,
// throwing failpoint actions failing the save cleanly, and the
// RetryWithBackoff composition recovering from transient faults.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/search/run_snapshot.h"
#include "src/util/failpoint.h"
#include "src/util/retry.h"

namespace pfci {
namespace {

const char* const kSites[] = {"snapshot/open", "snapshot/write",
                              "snapshot/flush", "snapshot/rename"};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "pfci_crash_" + name + "_" +
         std::to_string(::getpid()) + ".snapshot";
}

struct PathCleaner {
  std::string path;
  ~PathCleaner() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

RunSnapshot MakeSnapshot(std::uint64_t tag) {
  RunSnapshot snapshot;
  snapshot.algorithm = "mpfci";
  snapshot.fingerprint = tag;
  snapshot.has_frontier = true;
  snapshot.base.nodes_visited = tag * 3;
  snapshot.base.intersections = tag + 1;
  PfciEntry entry;
  entry.items = Itemset({0, static_cast<Item>(tag % 5 + 1)});
  entry.fcp = 1.0 / static_cast<double>(tag + 2);
  entry.pr_f = 1.0;
  entry.method = FcpMethod::kExact;
  snapshot.entries.push_back(entry);
  WeightedItemset element;
  element.items = Itemset({static_cast<Item>(tag % 7)});
  element.weight = 1e-12 * static_cast<double>(tag + 1);
  snapshot.frontier.push_back(element);
  snapshot.done = {0};
  return snapshot;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return "";
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(SnapshotCrash, KillAtEveryFailpointLeavesOldOrNewCompleteFile) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const RunSnapshot old_snapshot = MakeSnapshot(1);
  const RunSnapshot new_snapshot = MakeSnapshot(2);
  const std::string old_text = SerializeRunSnapshot(old_snapshot);
  const std::string new_text = SerializeRunSnapshot(new_snapshot);

  for (const char* site : kSites) {
    const std::string path = TempPath(std::string("kill_") +
                                      (site + sizeof("snapshot/") - 1));
    PathCleaner cleaner{path};
    ASSERT_EQ(SaveRunSnapshotAtomic(old_snapshot, path), "") << site;

    const pid_t child = fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
      // Child: die at the site with no flushing — the closest userspace
      // stand-in for a crash mid-save.
      failpoint::Arm(site, [] { ::_exit(42); });
      (void)SaveRunSnapshotAtomic(new_snapshot, path);
      ::_exit(0);  // Site not hit (would be a matrix bug, caught below).
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << site;
    ASSERT_EQ(WEXITSTATUS(status), 42)
        << site << " was never hit — the kill matrix lost a site";

    // The contract: the target is the old complete snapshot or the new
    // complete snapshot. Never missing, never torn.
    const std::string on_disk = ReadFileOrEmpty(path);
    EXPECT_TRUE(on_disk == old_text || on_disk == new_text)
        << site << ": torn or unexpected snapshot content:\n"
        << on_disk;
    RunSnapshot loaded;
    EXPECT_EQ(LoadRunSnapshot(path, &loaded), "")
        << site << ": on-disk snapshot does not parse";

    // A later save must succeed despite any leftover temp file.
    failpoint::DisarmAll();
    ASSERT_EQ(SaveRunSnapshotAtomic(new_snapshot, path), "") << site;
    EXPECT_EQ(ReadFileOrEmpty(path), new_text) << site;
  }
}

TEST(SnapshotCrash, ThrowingFailpointFailsTheSaveAndKeepsTheOldFile) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const RunSnapshot old_snapshot = MakeSnapshot(3);
  const RunSnapshot new_snapshot = MakeSnapshot(4);
  const std::string old_text = SerializeRunSnapshot(old_snapshot);
  for (const char* site : kSites) {
    const std::string path = TempPath(std::string("throw_") +
                                      (site + sizeof("snapshot/") - 1));
    PathCleaner cleaner{path};
    ASSERT_EQ(SaveRunSnapshotAtomic(old_snapshot, path), "") << site;
    failpoint::Arm(site, [site] {
      throw std::runtime_error(std::string("injected fault at ") + site);
    });
    const std::string error = SaveRunSnapshotAtomic(new_snapshot, path);
    failpoint::DisarmAll();
    EXPECT_NE(error, "") << site << ": injected fault must fail the save";
    EXPECT_NE(error.find("injected fault"), std::string::npos) << error;
    EXPECT_EQ(ReadFileOrEmpty(path), old_text)
        << site << ": failed save must leave the old snapshot intact";
    // The temp file never survives a failed save.
    std::ifstream temp(path + ".tmp");
    EXPECT_FALSE(temp.good()) << site;
  }
}

TEST(SnapshotCrash, RetryWithBackoffRecoversFromTransientFaults) {
  if (!failpoint::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const RunSnapshot snapshot = MakeSnapshot(5);
  const std::string path = TempPath("retry");
  PathCleaner cleaner{path};
  // First two attempts hit an injected fault; the third goes through.
  int hits = 0;
  failpoint::Arm("snapshot/flush", [&hits] {
    if (++hits <= 2) throw std::runtime_error("transient flush fault");
  });
  RetryPolicy policy;
  policy.max_attempts = 4;
  const RetryResult result = RetryWithBackoff(
      policy,
      [&] { return SaveRunSnapshotAtomic(snapshot, path); },
      [](double) {});  // No real sleeping in tests.
  failpoint::DisarmAll();
  EXPECT_TRUE(result.succeeded) << result.last_error;
  EXPECT_EQ(result.attempts, 3);
  RunSnapshot loaded;
  EXPECT_EQ(LoadRunSnapshot(path, &loaded), "");
  EXPECT_EQ(loaded.fingerprint, snapshot.fingerprint);
}

TEST(SnapshotCrash, TornFilesAreDetectedNotResumed) {
  const RunSnapshot snapshot = MakeSnapshot(6);
  const std::string text = SerializeRunSnapshot(snapshot);
  // Any prefix that cuts into or before the end marker must fail to
  // parse: the marker is the completeness proof. (Losing only the final
  // newline keeps every byte of data and still parses — that file is
  // complete, not torn.)
  RunSnapshot parsed;
  std::string error;
  ASSERT_TRUE(ParseRunSnapshot(text, &parsed, &error)) << error;
  for (const std::size_t cut :
       {text.size() - 2, text.size() / 2, std::size_t{1}, std::size_t{0}}) {
    EXPECT_FALSE(ParseRunSnapshot(text.substr(0, cut), &parsed, &error))
        << "a torn snapshot (cut at " << cut << ") must not parse";
  }
  // Trailing garbage after the end marker is equally corrupt.
  EXPECT_FALSE(ParseRunSnapshot(text + "trailing", &parsed, &error));

  // And through the file loader: a truncated file on disk is refused.
  const std::string path = TempPath("torn");
  PathCleaner cleaner{path};
  {
    std::ofstream file(path, std::ios::binary);
    file << text.substr(0, text.size() * 2 / 3);
  }
  EXPECT_NE(LoadRunSnapshot(path, &parsed), "");
}

TEST(SnapshotCrash, EmptyFrontierItemsetIsRejected) {
  // A well-formed file whose frontier element has no items: resuming it
  // would index the element's first item, so the parser must refuse it
  // with a line-numbered error.
  const std::string text = SerializeRunSnapshot(MakeSnapshot(6));
  const std::string frontier_line = "\nf 1 6 ";
  const std::size_t at = text.find(frontier_line);
  ASSERT_NE(at, std::string::npos) << text;
  std::string corrupt = text;
  corrupt.replace(at, frontier_line.size(), "\nf 0 ");
  RunSnapshot parsed;
  std::string error;
  EXPECT_FALSE(ParseRunSnapshot(corrupt, &parsed, &error));
  EXPECT_NE(error.find("(line "), std::string::npos) << error;
  EXPECT_NE(error.find("empty frontier itemset"), std::string::npos) << error;
}

}  // namespace
}  // namespace pfci
