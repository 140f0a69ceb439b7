#!/usr/bin/env python3
"""Schema check for serving-layer bench JSON outputs.

Covers BENCH_session.json (bench/session_reuse) and BENCH_batch.json
(bench/batch_throughput); the two are told apart by the optional "kind"
key ("batch" selects the batch schema, anything else the session one).
Python-stdlib only. Usage:

    python3 tools/check_bench_session.py [path/to/BENCH_session.json]

Exits 0 when the file parses and matches schema 1 of its kind, 1
otherwise with a diagnostic per violation. Checks structure and internal
consistency (strictly increasing sweep grid, aggregate-vs-workload
timing sums), and it fails any "identical": false flag of either kind,
and a session sweep whose warm batch ran a DP (a "warm_dp_free": false
flag or a non-zero "warm_dp_runs") — both are deterministic, unlike
wall-clock time. Wall-clock ratios are recorded, not checked.
"""

import json
import sys


def fail(errors):
    for error in errors:
        print(f"check_bench_session: {error}", file=sys.stderr)
    return 1


def require(obj, key, types, errors, where):
    if key not in obj:
        errors.append(f"{where}: missing key '{key}'")
        return None
    value = obj[key]
    if not isinstance(value, types):
        errors.append(
            f"{where}: '{key}' has type {type(value).__name__}, "
            f"expected {types}"
        )
        return None
    return value


def check_threshold(entry, where, errors):
    for key in ("min_sup", "itemsets", "cold_dp_runs", "first_dp_runs",
                "warm_dp_runs", "cache_hits", "dp_reused"):
        value = require(entry, key, int, errors, where)
        if value is not None and value < 0:
            errors.append(f"{where}: '{key}' is negative")
    if entry.get("warm_dp_runs", 0) != 0:
        errors.append(f"{where}: the warm batch ran "
                      f"{entry['warm_dp_runs']} DPs")
    for key in ("cold_seconds", "first_seconds", "warm_seconds"):
        value = require(entry, key, (int, float), errors, where)
        if value is not None and value < 0:
            errors.append(f"{where}: '{key}' is negative")


def check_workload(workload, index, errors):
    where = f"workloads[{index}]"
    require(workload, "algorithm", str, errors, where)
    require(workload, "cold_seconds", (int, float), errors, where)
    require(workload, "first_seconds", (int, float), errors, where)
    require(workload, "warm_seconds", (int, float), errors, where)
    if require(workload, "identical", bool, errors, where) is False:
        errors.append(
            f"{where}: identical is false (warm session results diverged "
            f"from cold runs)"
        )
    if require(workload, "warm_dp_free", bool, errors, where) is False:
        errors.append(f"{where}: warm_dp_free is false")

    cache = require(workload, "cache", dict, errors, where)
    if cache is not None:
        for key in ("bytes", "entries", "evictions"):
            require(cache, key, int, errors, f"{where}.cache")

    thresholds = require(workload, "per_threshold", list, errors, where)
    if thresholds is None:
        return
    if not thresholds:
        errors.append(f"{where}: per_threshold is empty")
    grid = []
    for i, entry in enumerate(thresholds):
        entry_where = f"{where}.per_threshold[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{entry_where}: not an object")
            continue
        check_threshold(entry, entry_where, errors)
        if isinstance(entry.get("min_sup"), int):
            grid.append(entry["min_sup"])
    if grid != sorted(set(grid)):
        errors.append(f"{where}: min_sup grid is not strictly increasing")


def check_batch_request(entry, where, errors):
    require(entry, "algorithm", str, errors, where)
    for key in ("min_sup", "itemsets", "shared_dp_hits", "queued_micros"):
        value = require(entry, key, int, errors, where)
        if value is not None and value < 0:
            errors.append(f"{where}: '{key}' is negative")
    for key in ("sequential_seconds", "batch_seconds"):
        value = require(entry, key, (int, float), errors, where)
        if value is not None and value < 0:
            errors.append(f"{where}: '{key}' is negative")


def check_batch(doc, path, errors):
    schema = require(doc, "schema", int, errors, path)
    if schema is not None and schema != 1:
        errors.append(f"{path}: schema {schema}, expected 1")
    require(doc, "dataset", str, errors, path)
    require(doc, "transactions", int, errors, path)
    requests = require(doc, "requests", int, errors, path)
    groups = require(doc, "groups", int, errors, path)
    require(doc, "sequential_seconds", (int, float), errors, path)
    require(doc, "batch_seconds", (int, float), errors, path)
    require(doc, "speedup", (int, float), errors, path)
    identical = require(doc, "identical", bool, errors, path)
    if identical is False:
        # Bit-identity is deterministic (unlike the wall-clock gate), so
        # the schema checker enforces it.
        errors.append(
            f"{path}: identical is false (batch results diverged from "
            f"standalone runs)"
        )

    per_request = require(doc, "per_request", list, errors, path)
    if per_request is None:
        return 0
    if not per_request:
        errors.append(f"{path}: per_request is empty")
    for i, entry in enumerate(per_request):
        where = f"per_request[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        check_batch_request(entry, where, errors)
    if requests is not None and requests != len(per_request):
        errors.append(
            f"{path}: requests {requests} != per_request length "
            f"{len(per_request)}"
        )
    if groups is not None and requests is not None:
        if groups < 1 or groups > max(requests, 1):
            errors.append(
                f"{path}: groups {groups} outside [1, requests={requests}]"
            )
    return len(per_request)


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_session.json"
    errors = []
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return fail([f"{path}: {exc}"])

    if not isinstance(doc, dict):
        return fail([f"{path}: top level is not an object"])

    if doc.get("kind") == "batch":
        count = check_batch(doc, path, errors)
        if errors:
            return fail(errors)
        print(f"check_bench_session: {path} OK (batch, {count} requests)")
        return 0

    schema = require(doc, "schema", int, errors, path)
    if schema is not None and schema != 1:
        errors.append(f"{path}: schema {schema}, expected 1")
    require(doc, "dataset", str, errors, path)
    require(doc, "transactions", int, errors, path)
    cold = require(doc, "cold_seconds", (int, float), errors, path)
    warm = require(doc, "warm_seconds", (int, float), errors, path)
    require(doc, "speedup", (int, float), errors, path)
    if require(doc, "identical", bool, errors, path) is False:
        errors.append(
            f"{path}: identical is false (warm session results diverged "
            f"from cold runs)"
        )
    if require(doc, "warm_dp_free", bool, errors, path) is False:
        errors.append(f"{path}: warm_dp_free is false (a warm batch member "
                      f"ran a DP)")

    workloads = require(doc, "workloads", list, errors, path)
    if workloads is not None:
        if not workloads:
            errors.append(f"{path}: workloads is empty")
        for i, workload in enumerate(workloads):
            if not isinstance(workload, dict):
                errors.append(f"workloads[{i}]: not an object")
                continue
            check_workload(workload, i, errors)
        # Aggregates must equal the workload sums (within float noise).
        if cold is not None and warm is not None and all(
            isinstance(w, dict) for w in workloads
        ):
            cold_sum = sum(
                w.get("cold_seconds", 0)
                for w in workloads
                if isinstance(w.get("cold_seconds"), (int, float))
            )
            warm_sum = sum(
                w.get("warm_seconds", 0)
                for w in workloads
                if isinstance(w.get("warm_seconds"), (int, float))
            )
            if abs(cold_sum - cold) > 1e-6 + 1e-3 * abs(cold):
                errors.append(
                    f"{path}: cold_seconds {cold} != workload sum {cold_sum}"
                )
            if abs(warm_sum - warm) > 1e-6 + 1e-3 * abs(warm):
                errors.append(
                    f"{path}: warm_seconds {warm} != workload sum {warm_sum}"
                )

    if errors:
        return fail(errors)
    print(f"check_bench_session: {path} OK "
          f"({len(workloads or [])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
