#!/usr/bin/env python3
"""CI regression gate over the BENCH_*.json artifacts.

Compares a fresh bench run against the checked-in snapshots in
bench/baseline/ and fails (exit 1) when:

  1. `engine-planned` (or `cost-based`) division is more than RATIO_LIMIT
     (1.5x) slower than direct `hash-division` at the largest measured n —
     the ROADMAP's "regressions in engine-planned vs hash-division should
     fail loudly" gate. A small absolute slack absorbs the constant
     planning overhead on sub-millisecond cells.
  2. Any tracked column regresses more than REGRESSION_LIMIT (+30%)
     against the baseline. Absolute milliseconds are not comparable
     across machines, so the comparison is on *normalized* times: each
     column is divided by the same run's reference column
     (`hash-division` / `canonical-hash` / `inverted-index`), which
     cancels the hardware factor and keeps the check meaningful both
     locally and on CI runners.
  3. A planner stops picking the expected algorithm at scale:
     `chosen_division` must be hash-division and `chosen_equality` must
     be canonical-hash at the largest n (the paper's headline: direct
     hash algorithms win at scale), and `planned_division`, the kernel
     the unpriced `engine-planned` run routed to, must be sort-merge —
     its dividend is stored R, read sorted and in place, so its groups
     are merged with no table and no copy.
  4. `batched` division is more than BATCHED_RATIO_LIMIT (1.1x) slower
     than `engine-planned` at the largest n. Both cells run the engine's
     one pipelined executor on the same plan, `batched` with the default
     batch size set explicitly through EngineOptions::WithBatchSize, so
     the two must stay within noise of each other.
  5. `parallel` division is slower than PARALLEL_RATIO_LIMIT (1.0x) the
     serial `batched` run at the largest n — the partitioned executor
     must actually win at scale. Skipped (loudly) when the run's
     `hardware_threads` field reports fewer than 2 hardware threads,
     where a worker pool cannot win.
  6. Any expected column is missing from the current JSON. Silent skips
     hid real coverage loss (a bench dropping a tracked column looked
     green); a missing expected column is now an error, and every check
     prints exactly which table/column/sizes it compared.
  7. `prepared` division (the plan-cache hot path: Prepare once, run the
     handle) exceeds PREPARED_RATIO_LIMIT (1.0x) the replanning
     `engine-planned` run at the largest n — caching the plan must never
     cost anything — or the per-call planning path served from the warm
     cache (`prepared_planning_ms`) is less than PLANNING_SPEEDUP (2x)
     faster than fresh planning (`planning_ms`).
  8. `result-cached` division (the whole-result hot path: a warm hit in
     the invalidation-aware result cache) is not at least
     RESULT_CACHED_SPEEDUP (2x) faster than the uncached `engine-planned`
     run at the largest n, or its recorded outcome is not "result-hit" —
     serving a stored relation must beat re-executing the plan by a wide
     margin, and must actually come from the cache.
  9. The self-tuning invariant on the skewed-containment table
     (`calibrated_ms` in BENCH_setjoin.json) breaks at the largest
     group count: the trace-calibrated cost model's chosen kernel must
     run at least as fast as the uncalibrated model's choice
     (CALIBRATED_RATIO_LIMIT, 1.0x, plus the usual sub-millisecond
     slack) — histogram-aware costing exists to beat the uniform
     assumption under skew, so losing to it is a regression.
  10. The worst-case-optimal invariants on the skewed-triangle table
     (`multiway_ms` in BENCH_setjoin.json) break at the largest n: the
     cost model must route the chain to the multiway operator
     (`chosen_join` starts with "multiway"), the multiway run's max
     intermediate must stay within the recorded AGM bound, and it must be
     at most MULTIWAY_INTERMEDIATE_FRACTION (0.5x) of the binary plan's
     max intermediate — the operator's whole point is refusing to
     materialize the blown-up binary intermediate.
  11. The in-place key-range path stops engaging: the `parallel` cell
     in `containment_ms` (the containment plan with a worker pool, its
     left side a scan of stored R) must record
     `parallel_skipped_passes >= 1` at the largest group count — a
     stored relation is sorted on column 1, so it is cut into key ranges
     in place, and zero skips means the scan is drained and re-sorted.
  12. The write path goes superlinear again: in the `write_path_ms`
     table of BENCH_division.json (the n=16000 dividend R), computing R's
     statistics (`stats`) or normalizing R after an 8-row edit
     (`edit_normalize`) must take at most WRITE_PATH_RATIO_LIMIT (3x)
     the same run's `scan` (copy R and normalize it). Same-run ratios,
     so runner speed cancels out and no baseline is involved.
  13. The engine overhead of the set joins grows: at the largest group
     count, the `batched` cell (the hand-built set-join plan run by the
     engine, scans and grouping included) must take at most
     SETJOIN_OVERHEAD_LIMIT (1.5x) the same run's raw kernel cell on
     pre-grouped input — `canonical-hash` in `equality_ms`,
     `inverted-index` in `containment_ms` — with the sub-millisecond
     slack of gates 4 and 5. The engine reads stored relations in place
     and groups sorted rows in one pass, so a breach means a copy, a
     sort or a regrouping crept back between storage and the kernel.
     Same-run ratios, so no baseline is involved.
  14. The fan-out width rule breaks: in the division (`runtime_ms`),
     containment (`containment_ms`) and equality (`equality_ms`) tables
     the `parallel` cell must record `partitions == 0` at the smallest
     size — an input under two engine::kMinPartitionRows floors stays
     serial however wide the pool — and `partitions == threads` (the
     cell's pool width) at the largest, where the input fans out
     pool-wide. It compares counts, not times, so it is armed on every
     runner and involves no baseline.

Whenever a gate disarms (skips) instead of judging, the skip message
prints the runner fingerprint — hardware_threads and git_sha — of the
JSON(s) involved, so a stale or wrong-class baseline is attributable at
a glance.

The parallel *drift* gate (the baseline comparison of the `parallel`
column) arms itself from the baseline: it runs only when the baseline
JSON records `hardware_threads >= 2`, i.e. when the snapshot was taken on
a runner class where the parallel timings are meaningful. A baseline
regenerated on a single-core box disarms the drift comparison (loudly)
instead of gating against oversubscription-inflated ratios — the PR 4
stale-baseline footgun.

Regenerate the baseline after an intentional perf change with:
    python3 bench/check_regression.py --update \
        --current build/bench --baseline bench/baseline
"""

import argparse
import json
import os
import shutil
import sys

RATIO_LIMIT = 1.5          # engine-planned vs hash-division at max n.
BATCHED_RATIO_LIMIT = 1.1  # batched vs engine-planned at max n.
PARALLEL_RATIO_LIMIT = 1.0  # parallel vs batched at max n (>= 2 hw threads).
PREPARED_RATIO_LIMIT = 1.0  # prepared vs engine-planned at max n.
# Timer-noise allowance for the prepared gate: both cells run the *same
# executor work* (the hit path only replaces lowering with a hash lookup),
# so they land within a few percent of each other on ~2ms cells; a real
# regression here (every run silently recomputing statistics or
# replanning) costs an order of magnitude more than this slack.
PREPARED_ABS_SLACK_MS = 0.25
PLANNING_SPEEDUP = 2.0      # Warm-cache planning vs fresh planning at max n.
RESULT_CACHED_SPEEDUP = 2.0  # engine-planned vs a warm result-cache hit.
REGRESSION_LIMIT = 1.30    # Normalized column vs baseline.
ABS_SLACK_MS = 1.0         # Ignore sub-millisecond jitter in ratio checks.
# Calibrated vs uncalibrated containment choice at max groups: the
# histogram-informed pick must never lose to the uniform-assumption pick
# on the skewed workload built to separate them.
CALIBRATED_RATIO_LIMIT = 1.0
# Multiway max intermediate vs the binary plan's at max n: the skewed
# triangle's binary intermediate is n²/d tuples, the multiway operator's
# footprint is output-bounded, so 0.5x is generous — a breach means the
# operator started materializing something binary-shaped.
MULTIWAY_INTERMEDIATE_FRACTION = 0.5
# Statistics and edit-normalize vs a plain copy-and-normalize of the same
# relation: all three are linear passes over sorted storage, so a breach
# means a sort (or hash pass) crept back onto the write path.
WRITE_PATH_RATIO_LIMIT = 3.0
# Set-join engine run vs the raw kernel on pre-grouped input at max groups
# (table -> kernel column). Grouping sorted storage is one pass, so the
# engine should add little beyond the kernel itself.
SETJOIN_OVERHEAD_LIMIT = 1.5
SETJOIN_OVERHEAD_KERNELS = {
    "equality_ms": "canonical-hash",
    "containment_ms": "inverted-index",
}

FILES = {
    "BENCH_division.json": ("runtime_ms",),
    "BENCH_setjoin.json": ("containment_ms", "equality_ms", "multiway_ms",
                           "calibrated_ms"),
}

# table key -> (row axis key, reference column, tracked columns)
TRACKED = {
    "runtime_ms": (
        "n",
        "hash-division",
        ["sort-merge", "aggregate", "engine-planned", "cost-based", "batched",
         "parallel", "prepared", "result-cached"],
    ),
    "containment_ms": (
        "groups",
        "inverted-index",
        ["signature-nested-loop", "partitioned", "cost-based", "batched",
         "parallel", "prepared"],
    ),
    "equality_ms": ("groups", "canonical-hash",
                    ["cost-based", "batched", "parallel", "prepared"]),
    "multiway_ms": ("n", "binary", ["multiway"]),
    "calibrated_ms": ("groups", "uncalibrated", ["calibrated"]),
}

# Columns whose timings are only meaningful on multi-core runners: their
# baseline drift comparison arms itself from the baseline snapshot's own
# hardware_threads field (see check_against_baseline).
MULTICORE_COLUMNS = {"parallel"}

EXPECTED_CHOICES = {
    "runtime_ms": [("chosen_division", "hash-division"),
                   ("planned_division", "sort-merge")],
    "equality_ms": [("chosen_equality", "canonical-hash")],
}


def load(path):
    with open(path) as f:
        return json.load(f)


def runner_info(data):
    """The JSON's runner fingerprint, printed whenever a gate disarms."""
    return (f"hardware_threads={data.get('hardware_threads')!r}, "
            f"git_sha={data.get('git_sha', 'unknown')!r}")


def max_row(rows, axis):
    return max(rows, key=lambda r: r[axis])


def check_ratio(errors, data):
    """Gate 1: engine-planned / cost-based vs hash-division at max n."""
    rows = data.get("runtime_ms", [])
    if not rows:
        errors.append("runtime_ms table missing from BENCH_division.json")
        return
    row = max_row(rows, "n")
    hash_ms = row["hash-division"]
    limit = max(RATIO_LIMIT * hash_ms, hash_ms + ABS_SLACK_MS)
    for column in ("engine-planned", "cost-based"):
        ms = row.get(column)
        if ms is None:
            errors.append(f"column '{column}' missing at n={row['n']}")
        elif ms > limit:
            errors.append(
                f"{column} at n={row['n']} is {ms:.3f}ms vs hash-division "
                f"{hash_ms:.3f}ms ({ms / hash_ms:.2f}x > {RATIO_LIMIT}x limit)"
            )
        else:
            print(
                f"  ok: {column} {ms:.3f}ms <= {RATIO_LIMIT}x hash-division "
                f"({hash_ms:.3f}ms) at n={row['n']}"
            )


def check_parallel_ratio(errors, data):
    """Gate 5: parallel vs the serial batched run at max n (multi-core only)."""
    rows = data.get("runtime_ms", [])
    if not rows:
        return  # Gate 1 already reported the missing table.
    row = max_row(rows, "n")
    batched_ms = row.get("batched")
    parallel_ms = row.get("parallel")
    if batched_ms is None or parallel_ms is None:
        errors.append(
            f"column 'batched' or 'parallel' missing at n={row['n']}"
        )
        return
    hardware_threads = data.get("hardware_threads")
    if hardware_threads is None:
        errors.append(
            "hardware_threads missing from BENCH_division.json — cannot tell "
            "whether the parallel-vs-batched gate is meaningful on this runner"
        )
        return
    if hardware_threads < 2:
        print(
            f"  SKIPPED: parallel-vs-batched gate needs >= 2 hardware threads "
            f"(current run: {runner_info(data)}); parallel was "
            f"{parallel_ms:.3f}ms vs batched {batched_ms:.3f}ms at n={row['n']}"
        )
        return
    # Absolute slack only shields jitter-dominated sub-millisecond cells.
    limit = PARALLEL_RATIO_LIMIT * batched_ms
    if batched_ms < ABS_SLACK_MS:
        limit = max(limit, batched_ms + ABS_SLACK_MS)
    if parallel_ms > limit:
        errors.append(
            f"parallel at n={row['n']} is {parallel_ms:.3f}ms vs batched "
            f"{batched_ms:.3f}ms ({parallel_ms / batched_ms:.2f}x > "
            f"{PARALLEL_RATIO_LIMIT}x limit, threads={row.get('threads')}, "
            f"partitions={row.get('partitions')})"
        )
    else:
        print(
            f"  ok: parallel {parallel_ms:.3f}ms <= {PARALLEL_RATIO_LIMIT}x "
            f"batched ({batched_ms:.3f}ms) at n={row['n']} "
            f"(threads={row.get('threads')}, partitions={row.get('partitions')})"
        )


def check_batched_ratio(errors, data):
    """Gate 4: batched (explicit default batch size) vs engine-planned at max n."""
    rows = data.get("runtime_ms", [])
    if not rows:
        return  # Gate 1 already reported the missing table.
    row = max_row(rows, "n")
    planned_ms = row.get("engine-planned")
    batched_ms = row.get("batched")
    if planned_ms is None or batched_ms is None:
        errors.append(
            f"column 'engine-planned' or 'batched' missing at n={row['n']}"
        )
        return
    # Absolute slack only shields jitter-dominated sub-millisecond cells;
    # at real timings the advertised 1.1x ratio is the binding limit.
    limit = BATCHED_RATIO_LIMIT * planned_ms
    if planned_ms < ABS_SLACK_MS:
        limit = max(limit, planned_ms + ABS_SLACK_MS)
    if batched_ms > limit:
        errors.append(
            f"batched at n={row['n']} is {batched_ms:.3f}ms vs engine-planned "
            f"{planned_ms:.3f}ms ({batched_ms / planned_ms:.2f}x > "
            f"{BATCHED_RATIO_LIMIT}x limit)"
        )
    else:
        print(
            f"  ok: batched {batched_ms:.3f}ms <= {BATCHED_RATIO_LIMIT}x "
            f"engine-planned ({planned_ms:.3f}ms) at n={row['n']}"
        )


def check_prepared_ratio(errors, data):
    """Gate 7: the plan-cache hot path vs replanning every call."""
    rows = data.get("runtime_ms", [])
    if not rows:
        return  # Gate 1 already reported the missing table.
    row = max_row(rows, "n")
    planned_ms = row.get("engine-planned")
    prepared_ms = row.get("prepared")
    if planned_ms is None or prepared_ms is None:
        errors.append(
            f"column 'engine-planned' or 'prepared' missing at n={row['n']}"
        )
        return
    outcome = row.get("prepared_outcome")
    if outcome != "hit":
        errors.append(
            f"prepared cell at n={row['n']} reported cache outcome "
            f"'{outcome}', expected 'hit' — the hot path silently fell back "
            f"to replanning"
        )
    limit = max(PREPARED_RATIO_LIMIT * planned_ms,
                planned_ms + PREPARED_ABS_SLACK_MS)
    if prepared_ms > limit:
        errors.append(
            f"prepared at n={row['n']} is {prepared_ms:.3f}ms vs "
            f"engine-planned {planned_ms:.3f}ms "
            f"({prepared_ms / planned_ms:.2f}x > {PREPARED_RATIO_LIMIT}x limit)"
        )
    else:
        print(
            f"  ok: prepared {prepared_ms:.3f}ms <= {PREPARED_RATIO_LIMIT}x "
            f"engine-planned ({planned_ms:.3f}ms) at n={row['n']} "
            f"(outcome={outcome})"
        )
    # The planning path itself (per-call, loop-amortized): a warm cache
    # acquisition must beat fresh planning by at least PLANNING_SPEEDUP.
    planning = row.get("planning_ms")
    warm = row.get("prepared_planning_ms")
    if planning is None or warm is None:
        errors.append(
            f"'planning_ms' or 'prepared_planning_ms' missing at n={row['n']}"
        )
        return
    if warm <= 0 or planning <= 0:
        errors.append(
            f"non-positive planning timings at n={row['n']}: "
            f"planning_ms={planning}, prepared_planning_ms={warm}"
        )
        return
    speedup = planning / warm
    if speedup < PLANNING_SPEEDUP:
        errors.append(
            f"warm-cache planning at n={row['n']} is only {speedup:.2f}x "
            f"faster than fresh planning ({warm * 1000:.2f}us vs "
            f"{planning * 1000:.2f}us per call; need >= {PLANNING_SPEEDUP}x)"
        )
    else:
        print(
            f"  ok: warm-cache planning {warm * 1000:.2f}us/call is "
            f"{speedup:.1f}x faster than fresh planning "
            f"({planning * 1000:.2f}us/call) at n={row['n']}"
        )


def check_result_cached_ratio(errors, data):
    """Gate 8: a warm result-cache hit vs the uncached engine-planned run."""
    rows = data.get("runtime_ms", [])
    if not rows:
        return  # Gate 1 already reported the missing table.
    row = max_row(rows, "n")
    planned_ms = row.get("engine-planned")
    cached_ms = row.get("result-cached")
    if planned_ms is None or cached_ms is None:
        errors.append(
            f"column 'engine-planned' or 'result-cached' missing at n={row['n']}"
        )
        return
    outcome = row.get("result_cache_outcome")
    if outcome != "result-hit":
        errors.append(
            f"result-cached cell at n={row['n']} reported cache outcome "
            f"'{outcome}', expected 'result-hit' — the hot path silently "
            f"fell back to executing the plan"
        )
    if cached_ms <= 0 or planned_ms <= 0:
        errors.append(
            f"non-positive timings at n={row['n']}: "
            f"engine-planned={planned_ms}, result-cached={cached_ms}"
        )
        return
    speedup = planned_ms / cached_ms
    if speedup < RESULT_CACHED_SPEEDUP:
        errors.append(
            f"result-cached at n={row['n']} is {cached_ms:.3f}ms vs "
            f"engine-planned {planned_ms:.3f}ms (only {speedup:.2f}x faster; "
            f"need >= {RESULT_CACHED_SPEEDUP}x)"
        )
    else:
        print(
            f"  ok: result-cached {cached_ms:.3f}ms is {speedup:.1f}x faster "
            f"than engine-planned ({planned_ms:.3f}ms) at n={row['n']} "
            f"(outcome={outcome})"
        )


def check_calibrated_ratio(errors, data):
    """Gate 9: the trace-calibrated pick vs the fixed model's pick."""
    rows = data.get("calibrated_ms", [])
    if not rows:
        errors.append("calibrated_ms table missing from BENCH_setjoin.json")
        return
    row = max_row(rows, "groups")
    groups = row["groups"]
    uncal_ms = row.get("uncalibrated")
    cal_ms = row.get("calibrated")
    if uncal_ms is None or cal_ms is None:
        errors.append(
            f"column 'uncalibrated' or 'calibrated' missing from "
            f"calibrated_ms at groups={groups}"
        )
        return
    if uncal_ms <= 0 or cal_ms <= 0:
        errors.append(
            f"non-positive timings in calibrated_ms at groups={groups}: "
            f"uncalibrated={uncal_ms}, calibrated={cal_ms}"
        )
        return
    # Absolute slack only shields jitter-dominated sub-millisecond cells;
    # on the skewed workload both cells run tens of milliseconds.
    limit = CALIBRATED_RATIO_LIMIT * uncal_ms
    if uncal_ms < ABS_SLACK_MS:
        limit = max(limit, uncal_ms + ABS_SLACK_MS)
    if cal_ms > limit:
        errors.append(
            f"calibrated containment at groups={groups} is {cal_ms:.3f}ms vs "
            f"uncalibrated {uncal_ms:.3f}ms ({cal_ms / uncal_ms:.2f}x > "
            f"{CALIBRATED_RATIO_LIMIT}x limit; choices: "
            f"{row.get('calibrated_choice')} vs {row.get('uncalibrated_choice')}) "
            f"— the histogram-informed model lost to the uniform assumption"
        )
    else:
        print(
            f"  ok: calibrated {cal_ms:.3f}ms "
            f"({row.get('calibrated_choice')}) <= {CALIBRATED_RATIO_LIMIT}x "
            f"uncalibrated {uncal_ms:.3f}ms ({row.get('uncalibrated_choice')}) "
            f"at groups={groups}"
        )


def check_parallel_skip(errors, data):
    """Gate 11: the parallel run must read its stored scan in place.

    The `parallel` cell executes the containment plan with a worker pool;
    its left side scans stored R, which is sorted on column 1, so the
    executor cuts it into key ranges in place and records the skipped
    partition pass. Zero means the key-range path silently stopped
    engaging — a plan-shape property, so this gate is machine-independent
    and always armed.
    """
    rows = data.get("containment_ms", [])
    if not rows:
        errors.append("containment_ms table missing from BENCH_setjoin.json")
        return
    row = max_row(rows, "groups")
    groups = row["groups"]
    skipped = row.get("parallel_skipped_passes")
    if skipped is None:
        errors.append(
            f"'parallel_skipped_passes' missing from containment_ms at "
            f"groups={groups}"
        )
        return
    if skipped < 1:
        errors.append(
            f"parallel containment at groups={groups} skipped {skipped} "
            f"partition passes, expected >= 1 — the stored scan is no longer "
            f"cut into key ranges in place"
        )
    else:
        print(
            f"  ok: parallel containment skipped {skipped} partition pass(es) "
            f"at groups={groups} (parallel={row.get('parallel')}ms)"
        )


def check_setjoin_overhead(errors, data):
    """Gate 13: the engine's set-join run vs the raw kernel at max groups."""
    for table, kernel in SETJOIN_OVERHEAD_KERNELS.items():
        rows = data.get(table, [])
        if not rows:
            errors.append(f"{table} table missing from BENCH_setjoin.json")
            continue
        row = max_row(rows, "groups")
        groups = row["groups"]
        kernel_ms = row.get(kernel)
        batched_ms = row.get("batched")
        if kernel_ms is None or batched_ms is None:
            errors.append(
                f"column '{kernel}' or 'batched' missing from {table} at "
                f"groups={groups}"
            )
            continue
        # Absolute slack only shields jitter-dominated sub-millisecond cells.
        limit = SETJOIN_OVERHEAD_LIMIT * kernel_ms
        if kernel_ms < ABS_SLACK_MS:
            limit = max(limit, kernel_ms + ABS_SLACK_MS)
        ratio = batched_ms / kernel_ms if kernel_ms > 0 else float("inf")
        if batched_ms > limit:
            errors.append(
                f"{table} batched at groups={groups} is {batched_ms:.3f}ms vs "
                f"{kernel} {kernel_ms:.3f}ms ({ratio:.2f}x > "
                f"{SETJOIN_OVERHEAD_LIMIT}x limit) — the engine adds more than "
                f"the kernel between storage and the set join"
            )
        else:
            print(
                f"  ok: {table} batched {batched_ms:.3f}ms is {ratio:.2f}x "
                f"{kernel} ({kernel_ms:.3f}ms) at groups={groups} "
                f"(limit {SETJOIN_OVERHEAD_LIMIT}x)"
            )


# Tables whose `parallel` cell gate 14 reads, with their row axis.
FANOUT_WIDTH_TABLES = {
    "runtime_ms": "n",
    "containment_ms": "groups",
    "equality_ms": "groups",
}


def check_fanout_width(errors, data, tables):
    """Gate 14: smallest parallel cell serial, largest pool-wide."""
    for table in tables:
        axis = FANOUT_WIDTH_TABLES[table]
        rows = data.get(table, [])
        if not rows:
            errors.append(f"{table} table missing for the fan-out width gate")
            continue
        smallest = min(rows, key=lambda row: row[axis])
        largest = max_row(rows, axis)
        for row, want_key in ((smallest, "zero"), (largest, "threads")):
            partitions = row.get("partitions")
            threads = row.get("threads")
            if partitions is None or threads is None:
                errors.append(
                    f"'partitions' or 'threads' missing from {table} at "
                    f"{axis}={row[axis]}"
                )
                continue
            want = 0 if want_key == "zero" else threads
            if partitions != want:
                reason = (
                    "an input under the partition floor must stay serial"
                    if want_key == "zero"
                    else "a large input must fan out pool-wide"
                )
                errors.append(
                    f"{table} parallel at {axis}={row[axis]} recorded "
                    f"{partitions} partitions, expected {want} ({threads} "
                    f"threads) — {reason}"
                )
            else:
                print(
                    f"  ok: {table} parallel at {axis}={row[axis]} recorded "
                    f"{partitions} partitions ({threads} threads)"
                )


def check_multiway_bound(errors, data):
    """Gate 10: worst-case-optimal invariants on the skewed triangle."""
    rows = data.get("multiway_ms", [])
    if not rows:
        errors.append("multiway_ms table missing from BENCH_setjoin.json")
        return
    row = max_row(rows, "n")
    n = row["n"]
    missing = [key for key in ("chosen_join", "agm_bound",
                               "multiway_max_intermediate",
                               "binary_max_intermediate") if key not in row]
    if missing:
        errors.append(
            f"multiway_ms at n={n} is missing field(s) {missing}"
        )
        return
    chosen = row["chosen_join"]
    agm = row["agm_bound"]
    multiway_int = row["multiway_max_intermediate"]
    binary_int = row["binary_max_intermediate"]
    if not str(chosen).startswith("multiway"):
        errors.append(
            f"cost model picked '{chosen}' (chosen_join) at n={n}, expected "
            f"a multiway routing — the skewed triangle must route to the "
            f"worst-case-optimal operator"
        )
    if agm <= 0:
        errors.append(f"non-positive agm_bound {agm} in multiway_ms at n={n}")
        return
    if multiway_int > agm:
        errors.append(
            f"multiway max intermediate {multiway_int} exceeds the AGM bound "
            f"{agm:.0f} at n={n} — the operator is no longer "
            f"worst-case-optimal"
        )
    else:
        print(
            f"  ok: multiway max intermediate {multiway_int} <= AGM bound "
            f"{agm:.0f} at n={n}"
        )
    limit = MULTIWAY_INTERMEDIATE_FRACTION * binary_int
    if multiway_int > limit:
        errors.append(
            f"multiway max intermediate {multiway_int} is more than "
            f"{MULTIWAY_INTERMEDIATE_FRACTION}x the binary plan's "
            f"{binary_int} at n={n} — the skew advantage collapsed"
        )
    else:
        print(
            f"  ok: multiway max intermediate {multiway_int} <= "
            f"{MULTIWAY_INTERMEDIATE_FRACTION}x binary ({binary_int}) at n={n} "
            f"(chosen_join={chosen})"
        )


def check_write_path(errors, data):
    """Gate 12: write-path costs on R stay within a factor of one scan."""
    rows = data.get("write_path_ms", [])
    if not rows:
        errors.append("write_path_ms table missing from BENCH_division.json")
        return
    row = max_row(rows, "n")
    n = row["n"]
    missing = [key for key in ("scan", "stats", "edit_normalize")
               if key not in row]
    if missing:
        errors.append(f"write_path_ms at n={n} is missing column(s) {missing}")
        return
    scan_ms = row["scan"]
    if scan_ms <= 0:
        errors.append(f"non-positive scan time {scan_ms} in write_path_ms at n={n}")
        return
    for column in ("stats", "edit_normalize"):
        ms = row[column]
        ratio = ms / scan_ms
        if ratio > WRITE_PATH_RATIO_LIMIT:
            errors.append(
                f"write_path_ms/{column} at n={n} is {ms:.3f}ms, {ratio:.1f}x "
                f"scan ({scan_ms:.3f}ms) > {WRITE_PATH_RATIO_LIMIT}x limit — "
                f"the write path is no longer linear in |R|"
            )
        else:
            print(
                f"  ok: write_path_ms/{column} {ms:.3f}ms is {ratio:.2f}x scan "
                f"({scan_ms:.3f}ms) <= {WRITE_PATH_RATIO_LIMIT}x at n={n}"
            )


def check_choices(errors, data, table):
    expectations = EXPECTED_CHOICES.get(table)
    rows = data.get(table, [])
    if expectations is None or not rows:
        return
    axis = TRACKED[table][0]
    row = max_row(rows, axis)
    for key, expected in expectations:
        actual = row.get(key)
        if actual != expected:
            errors.append(
                f"planner picked '{actual}' ({key}) at {axis}={row[axis]}, "
                f"expected '{expected}'"
            )
        else:
            print(f"  ok: {key}={actual} at {axis}={row[axis]}")


def check_against_baseline(errors, current, baseline, table):
    """Every row present in both current and baseline is checked.

    A tracked column absent from the *current* JSON is an error — a bench
    silently dropping a column (as a rename or a lost emit would) must
    fail CI, not shrink coverage. A column absent only from the *baseline*
    is a newly-added column: it is reported and skipped until the
    baseline is regenerated.

    Multi-core-only columns (MULTICORE_COLUMNS) are compared only when
    the *baseline itself* records hardware_threads >= 2: a snapshot taken
    on a single-core runner carries oversubscription-inflated parallel
    ratios that would mis-gate every multi-core run (and vice versa), so
    the drift gate arms automatically with the baseline's runner class
    instead of relying on a human to remember.
    """
    axis, reference, columns = TRACKED[table]
    base_hw = baseline.get("hardware_threads")
    multicore_armed = base_hw is not None and base_hw >= 2
    if not multicore_armed and any(c in MULTICORE_COLUMNS for c in columns):
        print(
            f"  DISARMED: multi-core drift columns "
            f"{sorted(set(columns) & MULTICORE_COLUMNS)} "
            f"in '{table}' skipped — baseline: {runner_info(baseline)}; "
            f"current: {runner_info(current)}; regenerate bench/baseline on "
            f"a multi-core runner to arm them"
        )
    cur_rows = current.get(table, [])
    base_rows = baseline.get(table, [])
    if not cur_rows or not base_rows:
        errors.append(f"table '{table}' missing from current or baseline JSON")
        return
    for cur in cur_rows:
        for column in [reference] + columns:
            if column not in cur:
                errors.append(
                    f"expected column '{column}' missing from current "
                    f"'{table}' at {axis}={cur[axis]}"
                )
    base_by_axis = {r[axis]: r for r in base_rows}
    compared = 0
    compared_columns = {}  # column -> list of axis sizes actually compared
    skipped = []           # (column, axis value, reason)
    for cur in cur_rows:
        base = base_by_axis.get(cur[axis])
        if base is None:
            skipped.append(("<row>", cur[axis], "no baseline row"))
            continue
        cur_ref, base_ref = cur.get(reference), base.get(reference)
        if cur_ref is None or base_ref is None:
            continue  # Reported as a missing expected column above.
        if cur_ref <= 0 or base_ref <= 0:
            errors.append(
                f"non-positive reference '{reference}' time in '{table}' at "
                f"{axis}={cur[axis]}"
            )
            continue
        compared += 1
        for column in columns:
            if column not in cur:
                continue  # Reported as an error above.
            if column in MULTICORE_COLUMNS and not multicore_armed:
                skipped.append((column, cur[axis], "baseline not multi-core"))
                continue
            if column not in base:
                skipped.append((column, cur[axis], "no baseline column"))
                continue
            cur_norm = cur[column] / cur_ref
            base_norm = base[column] / base_ref
            # Sub-slack cells are jitter-dominated; skip them.
            if cur[column] < ABS_SLACK_MS and base[column] < ABS_SLACK_MS:
                skipped.append((column, cur[axis], "sub-slack timing"))
                continue
            compared_columns.setdefault(column, []).append(cur[axis])
            if cur_norm > REGRESSION_LIMIT * base_norm:
                errors.append(
                    f"{table}/{column} at {axis}={cur[axis]} regressed: "
                    f"{cur_norm:.2f}x {reference} now vs {base_norm:.2f}x in "
                    f"baseline (> +{(REGRESSION_LIMIT - 1) * 100:.0f}%)"
                )
            else:
                print(
                    f"  ok: {table}/{column} at {axis}={cur[axis]} "
                    f"{cur_norm:.2f}x {reference} (baseline {base_norm:.2f}x)"
                )
    if compared == 0:
        errors.append(f"no comparable rows between current and baseline in '{table}'")
    print(f"  compared in '{table}' (normalized by {reference}):")
    for column in columns:
        sizes = compared_columns.get(column, [])
        print(f"    {column}: {axis}={sizes if sizes else '(nothing compared)'}")
    for column, value, reason in skipped:
        print(f"  skipped: {table}/{column} at {axis}={value} ({reason})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", default="build/bench",
                        help="directory with the fresh BENCH_*.json")
    parser.add_argument("--baseline", default="bench/baseline",
                        help="directory with the checked-in snapshots")
    parser.add_argument("--update", action="store_true",
                        help="copy current JSONs over the baseline and exit")
    args = parser.parse_args()

    if args.update:
        os.makedirs(args.baseline, exist_ok=True)
        for name in FILES:
            shutil.copy(os.path.join(args.current, name),
                        os.path.join(args.baseline, name))
            print(f"baseline updated: {os.path.join(args.baseline, name)}")
        return 0

    errors = []
    for name, tables in FILES.items():
        cur_path = os.path.join(args.current, name)
        base_path = os.path.join(args.baseline, name)
        if not os.path.exists(cur_path):
            errors.append(f"missing current artifact {cur_path}")
            continue
        if not os.path.exists(base_path):
            errors.append(f"missing baseline snapshot {base_path}")
            continue
        print(f"== {name} ==")
        current, baseline = load(cur_path), load(base_path)
        if name == "BENCH_division.json":
            check_ratio(errors, current)
            check_batched_ratio(errors, current)
            check_parallel_ratio(errors, current)
            check_prepared_ratio(errors, current)
            check_result_cached_ratio(errors, current)
            check_write_path(errors, current)
            check_fanout_width(errors, current, ("runtime_ms",))
        if name == "BENCH_setjoin.json":
            check_calibrated_ratio(errors, current)
            check_multiway_bound(errors, current)
            check_parallel_skip(errors, current)
            check_setjoin_overhead(errors, current)
            check_fanout_width(errors, current, ("containment_ms", "equality_ms"))
        for table in tables:
            check_choices(errors, current, table)
            check_against_baseline(errors, current, baseline, table)

    if errors:
        print("\nBENCH REGRESSION GATE FAILED:", file=sys.stderr)
        for error in errors:
            print(f"  FAIL: {error}", file=sys.stderr)
        return 1
    print("\nbench regression gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
