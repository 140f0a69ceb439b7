#!/usr/bin/env python3
"""Enforce the layer dependency order of src/ from the #include graph.

The library is layered (DESIGN.md §12): each directory may include
headers only from its own layer or layers below it.

    util < prob < data < exact < datagen < core < {serve, harness}

`src/core/search/` is part of `core` but is additionally the *kernel*
underneath the miner entry points: it must not include the miner facade
headers (mine.h, pfi_miner.h, ...) or anything from serve/, or the
"miners are thin compositions over the kernel" inversion would silently
rot back into a cycle.

Mine() dispatches straight to the kernel's frontier policies, so the
per-algorithm facades that once sat between them (mpfci_miner.h,
bfs_miner.h, naive_miner.h, topk_miner.h) must not come back, nor the
search kernel's pass-through closure_operator.h: neither the files nor
an include of them anywhere in the source tree.

`src/harness/oracle/` is the differential-testing leaf: library code
must never include it (only tests/ and tools/ consume it).

Usage: check_layering.py [repo_root]

Exits 0 when the graph is clean, 1 with one line per violation otherwise.
No dependencies beyond the Python standard library.
"""

import os
import re
import sys

# Directory -> rank. A file in layer L may include src/<d>/... only when
# rank(d) <= rank(L). serve and harness share the top rank: neither may
# include the other (enforced separately below since equal ranks would
# otherwise allow it).
LAYER_RANK = {
    "util": 0,
    "prob": 1,
    "data": 2,
    "exact": 3,
    "datagen": 4,
    "core": 5,
    "serve": 6,
    "harness": 6,
}

# The top rank is shared by independent leaf layers; they must not
# include each other.
PEER_LAYERS = {"serve", "harness"}

# src/harness/oracle/ is the differential-testing leaf of the harness
# layer: it may depend on everything below it, but no library code
# outside it may depend back on the oracle. Only tests/ and tools/
# (outside src/, not layer-checked) consume it — a production miner or
# bench harness that reaches into its own test oracle would make the
# oracle circular with what it checks.
ORACLE_PREFIX = "src/harness/oracle/"

# Miner facade headers that sit *above* the search kernel. The kernel
# (src/core/search/) composes upward into these, never the reverse.
FACADE_HEADERS = {
    "src/core/mine.h",
    "src/core/pfi_miner.h",
    "src/core/stream_miner.h",
    "src/core/brute_force.h",
    "src/core/expected_support_miner.h",
    "src/core/item_uncertain_miners.h",
}

# Files removed on purpose, each with what replaced it. Each stem is
# checked as both a header and a source file, and as an include target
# in every source directory (library, tests, benches, examples, tools,
# and the repository benchmark).
REMOVED_STEMS = {
    # Per-algorithm facades folded into Mine()'s direct dispatch to the
    # frontier policies (src/core/search/frontier_policies.h).
    "src/core/mpfci_miner": "Mine() dispatches to the frontier policies "
                            "directly; use src/core/mine.h",
    "src/core/bfs_miner": "Mine() dispatches to the frontier policies "
                          "directly; use src/core/mine.h",
    "src/core/naive_miner": "Mine() dispatches to the frontier policies "
                            "directly; use src/core/mine.h",
    "src/core/topk_miner": "Mine() dispatches to the frontier policies "
                           "directly; use src/core/mine.h",
    # A pass-through over FcpEngine::EvaluateAt; the search kernel calls
    # the engine itself.
    "src/core/search/closure_operator": "the search kernel calls "
                                        "FcpEngine::EvaluateAt directly; "
                                        "use src/core/fcp_engine.h",
    # One caller and no state: a stable sort plus a max, inlined into the
    # batch planner.
    "src/core/search/threshold_ladder": "PlanBatch orders each group "
                                        "itself; see "
                                        "src/serve/batch_planner.cc",
}
REMOVED_HEADERS = {stem + ".h": stem for stem in REMOVED_STEMS}
INCLUDE_SCAN_DIRS = ("src", "tests", "bench", "examples", "tools",
                     "perfbench")

# The serving layer's batch/async building blocks (the planner that
# groups requests and the handle that carries an async result) compose
# over the unified request vocabulary (src/core/mine.h) only. Reaching
# into a per-algorithm miner facade from these files would re-couple
# scheduling policy to individual miners — dispatch stays behind
# Mine()/MineStep, never in the planner.
SERVE_BATCH_PREFIXES = ("src/serve/batch_planner", "src/serve/run_handle")
SERVE_BATCH_ALLOWED_FACADE = {"src/core/mine.h"}

# The retry helper is the single audited backoff implementation: every
# sleep in the library goes through RetryWithBackoff's injectable
# sleep_fn (src/util/retry.h). A raw sleep anywhere else — most
# tempting in serve/ admission or snapshot code — would bypass the
# deterministic, testable schedule, so the serve -> util/retry edge is
# enforced here at the primitive level.
SLEEP_RE = re.compile(
    r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\(|\bnanosleep\s*\(")
SLEEP_ALLOWED = {"src/util/retry.cc"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+)"')
SOURCE_EXTS = (".h", ".cc", ".cpp")


UMBRELLA = "<umbrella>"  # files directly under src/ (the pfci.h facade)


def layer_of(rel_path):
    """Top-level src/ directory of a repo-relative path, or None."""
    parts = rel_path.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    if len(parts) == 2 and parts[0] == "src":
        return UMBRELLA
    return None


def iter_sources(src_root):
    for dirpath, _, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def check_removed_files(repo_root):
    """Violations for any removed file or include that came back."""
    violations = []
    for stem, reason in REMOVED_STEMS.items():
        for ext in (".h", ".cc"):
            if os.path.exists(os.path.join(repo_root, stem + ext)):
                violations.append(
                    f"{stem}{ext}: removed file exists again ({reason})")
    for top in INCLUDE_SCAN_DIRS:
        root = os.path.join(repo_root, top)
        if not os.path.isdir(root):
            continue
        for path in iter_sources(root):
            rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    m = INCLUDE_RE.match(line)
                    if m and m.group(1) in REMOVED_HEADERS:
                        reason = REMOVED_STEMS[REMOVED_HEADERS[m.group(1)]]
                        violations.append(
                            f"{rel}:{lineno}: includes removed header "
                            f"'{m.group(1)}' ({reason})")
    return violations


def check(repo_root):
    src_root = os.path.join(repo_root, "src")
    if not os.path.isdir(src_root):
        print(f"check_layering: no src/ under {repo_root}", file=sys.stderr)
        return 2

    violations = []
    files = 0
    for path in iter_sources(src_root):
        files += 1
        rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
        from_layer = layer_of(rel)
        if from_layer == UMBRELLA:
            continue  # the facade header may include every layer
        if from_layer not in LAYER_RANK:
            violations.append(f"{rel}: unknown layer directory "
                              f"'{from_layer}' (add it to LAYER_RANK)")
            continue
        in_kernel = rel.startswith("src/core/search/")
        in_serve_batch = rel.startswith(SERVE_BATCH_PREFIXES)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if SLEEP_RE.search(line) and rel not in SLEEP_ALLOWED:
                    violations.append(
                        f"{rel}:{lineno}: raw sleep primitive outside "
                        f"src/util/retry.cc (route backoff through "
                        f"RetryWithBackoff so the schedule stays "
                        f"deterministic and testable)")
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                inc = m.group(1)
                to_layer = layer_of(inc)
                if to_layer not in LAYER_RANK:
                    violations.append(
                        f"{rel}:{lineno}: includes '{inc}' from unknown "
                        f"layer '{to_layer}'")
                    continue
                if LAYER_RANK[to_layer] > LAYER_RANK[from_layer]:
                    violations.append(
                        f"{rel}:{lineno}: layer '{from_layer}' "
                        f"(rank {LAYER_RANK[from_layer]}) includes '{inc}' "
                        f"from higher layer '{to_layer}' "
                        f"(rank {LAYER_RANK[to_layer]})")
                elif (from_layer != to_layer
                      and from_layer in PEER_LAYERS
                      and to_layer in PEER_LAYERS):
                    violations.append(
                        f"{rel}:{lineno}: peer leaf layers must stay "
                        f"independent: '{from_layer}' includes '{inc}'")
                if (inc.startswith(ORACLE_PREFIX)
                        and not rel.startswith(ORACLE_PREFIX)):
                    violations.append(
                        f"{rel}:{lineno}: library code includes the "
                        f"differential-oracle leaf '{inc}' (only tests/ "
                        f"and tools/ may depend on src/harness/oracle)")
                if in_kernel:
                    if inc in FACADE_HEADERS:
                        violations.append(
                            f"{rel}:{lineno}: search kernel includes miner "
                            f"facade header '{inc}' (the facade composes "
                            f"over the kernel, not the reverse)")
                    elif inc.startswith("src/serve/"):
                        violations.append(
                            f"{rel}:{lineno}: search kernel includes "
                            f"serving-layer header '{inc}'")
                if (in_serve_batch
                        and inc in FACADE_HEADERS
                        and inc not in SERVE_BATCH_ALLOWED_FACADE):
                    violations.append(
                        f"{rel}:{lineno}: serve batch/handle file includes "
                        f"per-algorithm miner facade '{inc}' (the planner "
                        f"and handle see only src/core/mine.h and the "
                        f"search kernel; miner dispatch stays behind "
                        f"Mine())")

    violations.extend(check_removed_files(repo_root))
    for v in violations:
        print(v)
    if violations:
        print(f"check_layering: {len(violations)} violation(s) "
              f"across {files} files")
        return 1
    print(f"check_layering: OK ({files} files, layers "
          + " < ".join(sorted(LAYER_RANK, key=LAYER_RANK.get)) + ")")
    return 0


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    sys.exit(check(root))
