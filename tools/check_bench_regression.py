#!/usr/bin/env python3
"""Compares a --json benchmark run against the checked-in baseline.

Usage:
    build/bench/bench_kernels --json kernels.json
    build/bench/bench_optimizations --json opts.json
    build/bench/bench_index_micro --json micro.json
    tools/check_bench_regression.py BENCH_BASELINE.json \
        kernels.json opts.json micro.json

Several current files are merged by benchmark name before the comparison
(the baseline covers more than one bench binary).

Gating policy (docs/PERF.md):
  * Deterministic counters (avg_io, cand_eval) are hard-gated: the run FAILS
    when the current value exceeds baseline by more than --tolerance
    (default 25%). These depend only on algorithm + dataset seed, not on
    machine speed, so CI can gate on them reliably.
  * `speedup` counters (scalar time / kernel time, measured back-to-back in
    one process) are hard-gated on the absolute floor --min-speedup
    (default 3): the kernel must beat the scalar path by that factor on
    any machine. Drift relative to the baseline's ratio only warns — the
    exact ratio depends on the host's divide/popcount throughput.
  * `cache_speedup` counters (node access with the decoded-node cache off /
    on, measured back-to-back in one process) are gated the same way on
    --min-cache-speedup (default 2): repeated traversals must be at least
    2x faster with the cache (docs/STORAGE.md "Node cache").
  * `decode_speedup` counters (full-tree node decode timed v1-buffered vs
    v2-mapped, back-to-back in one process) are gated the same way on
    --min-decode-speedup (default 1.3): the compact v2 records served from
    the mapping must decode at least 1.3x faster than v1 through the
    buffer pool (docs/STORAGE.md "v2 node format & mmap").
  * `v2_size_ratio` counters (v2 file bytes / v1 file bytes for the same
    dataset) are hard-capped at --max-v2-size-ratio (default 0.75): the
    compact format must stay at least 25%% smaller. The ratio depends only
    on dataset + format, so it is also drift-gated like avg_io.
  * `trace_overhead` counters (same why-not workload timed with a
    full-capacity TraceRecorder attached / with options.trace = nullptr,
    back-to-back in one process) are hard-capped at --max-trace-overhead
    (default 1.5): enabling tracing may never cost more than 50% on any
    machine (docs/OBSERVABILITY.md). The cap applies to every
    trace_overhead counter in the *current* run, whether or not the
    baseline has the benchmark yet.
  * `sampling_overhead` counters (the same saturated service workload with
    the telemetry hub at its shipped defaults / disabled, back-to-back in
    one process) are hard-capped at --max-sampling-overhead (default
    1.05): always-on sampled profiling, rolling windows, and slow
    classification may never cost more than 5%% on any machine
    (docs/OBSERVABILITY.md "Continuous telemetry"). Like trace_overhead,
    the cap applies to every sampling_overhead counter in the *current*
    run, whether or not the baseline has the benchmark yet.
  * `shards_pruned` counters on the service/shards/n:N series are floored
    absolutely for every N > 1: the clustered workload must skip at least
    one shard over the run, whether or not the baseline has the series
    (docs/SHARDING.md).
  * The service/batch/n:N batched-execution series is floored absolutely
    for every N >= 8 on max(batch_speedup, decode_amortization) >=
    --min-batch-speedup (default 1.5): batching must either beat solo
    wall-clock by that factor or amortize the equivalent fraction of node
    decodes across the batch. decode_amortization ((expanded + shared) /
    expanded) depends only on workload + batch formation, not machine
    speed, which is what makes this an absolute gate; wall-clock
    batch_speedup can satisfy it too on multi-core hosts
    (docs/BATCHING.md).
  * Wall-clock metrics (ns_per_op, avg_ms, scalar_ns, kernel_ns) vary with
    the machine; they only WARN unless --strict-time is given.
  * A benchmark present in the baseline but missing from the current run
    FAILS (lost coverage); extra benchmarks in the current run are fine.
  * Mismatched dataset-scale context (objects / queries_per_point) FAILS
    unless --ignore-context: counters are only comparable at equal scale.

Refreshing the baseline after an intentional change: re-run the benches at
the scale documented in docs/PERF.md, overwrite BENCH_BASELINE.json, and
commit it together with the change. In CI the perf-smoke job is skipped for
pull requests carrying the `perf-baseline-override` label.

Exit status: 0 clean (warnings allowed), 1 on any failure.
"""

import argparse
import json
import operator
import sys

HARD_LOWER_IS_BETTER = ("avg_io", "cand_eval", "v2_size_ratio")
TIME_METRICS = (
    "ns_per_op",
    "avg_ms",
    "scalar_ns",
    "kernel_ns",
    "cache_on_ns",
    "cache_off_ns",
    "untraced_ms",
    "traced_ms",
    "disabled_ms",
    "enabled_ms",
    "v1_decode_ns",
    "v2_decode_ns",
    "v2_mmap_decode_ns",
)

# Absolute gates: facts of the current build, not drifts from the baseline,
# so each applies to every current benchmark that reports its counter,
# whether or not the baseline has it yet. Each row is
# (counters, op, limit, reason, series, min_n):
#   * the gated value is the largest of `counters` the benchmark reports;
#   * the run fails when op(value, limit) holds, the limit being the value
#     of the flag named by `limit`, or `limit` itself when it is a number;
#   * `series` restricts the gate to benchmarks whose name (less a trailing
#     /iterations:1) starts with it and ends in ":N" with N >= min_n;
#   * the failure reads "<name>: <first counter> <reason>", the reason
#     formatted with the value, the limit, the headroom 1 - limit, N, and
#     each counter's value by name (0 when absent).
ABSOLUTE_GATES = (
    # Tracing must stay cheap (docs/OBSERVABILITY.md).
    (
        ("trace_overhead",),
        operator.gt,
        "max_trace_overhead",
        "{value:.2f}x exceeds the cap {limit:.2f}x (tracing must stay cheap)",
        "",
        0,
    ),
    # The always-on telemetry pipeline at its shipped defaults stays within
    # a few percent of a telemetry-less service on any machine
    # (docs/OBSERVABILITY.md "Continuous telemetry").
    (
        ("sampling_overhead",),
        operator.gt,
        "max_sampling_overhead",
        "{value:.3f}x exceeds the cap {limit:.2f}x (always-on telemetry "
        "must stay affordable)",
        "",
        0,
    ),
    # The v2 node format's two acceptance properties (docs/STORAGE.md
    # "v2 node format & mmap").
    (
        ("decode_speedup",),
        operator.lt,
        "min_decode_speedup",
        "{value:.2f}x below the absolute floor {limit:.2f}x (v2+mmap must "
        "beat v1 decode)",
        "",
        0,
    ),
    (
        ("v2_size_ratio",),
        operator.gt,
        "max_v2_size_ratio",
        "{value:.3f} exceeds the cap {limit:.2f} (v2 must stay at least "
        "{headroom:.0%} smaller than v1)",
        "",
        0,
    ),
    # Cross-shard bound pruning must actually fire: on the clustered
    # service/shards workload every multi-shard topology has to skip at
    # least one shard over the whole run (docs/SHARDING.md).
    (
        ("shards_pruned",),
        operator.le,
        0,
        "= 0 with {n} shards — the cross-shard bound never pruned on the "
        "clustered workload",
        "service/shards/n:",
        2,
    ),
    # Batched execution must actually amortize: at batch size >= 8 the
    # service/batch series has to beat solo by the floor either in wall
    # clock (batch_speedup) or in node decodes (decode_amortization, the
    # machine-independent witness of the same reduction)
    # (docs/BATCHING.md).
    (
        ("batch_speedup", "decode_amortization"),
        operator.lt,
        "min_batch_speedup",
        "{batch_speedup:.2f}x and decode_amortization "
        "{decode_amortization:.2f}x both below the absolute floor "
        "{limit:.2f}x at batch size {n}",
        "service/batch/n:",
        8,
    ),
)


def series_size(name, series):
    """N of a `<series>...:N` benchmark name, or None when it is not one."""
    name = name.removesuffix("/iterations:1")
    if not name.startswith(series):
        return None
    try:
        return int(name.rpartition(":")[2])
    except ValueError:
        return None


def load(path):
    with open(path) as f:
        data = json.load(f)
    benchmarks = {b["name"]: b for b in data.get("benchmarks", [])}
    return data.get("context", {}), benchmarks


def metric_values(bench):
    """Flattens one benchmark entry into {metric_name: value}."""
    values = {"ns_per_op": bench.get("ns_per_op")}
    values.update(bench.get("counters", {}))
    return {k: v for k, v in values.items() if isinstance(v, (int, float))}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative worsening vs baseline (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="absolute floor for every `speedup` counter (default 3)",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=2.0,
        help="absolute floor for every `cache_speedup` counter (default 2)",
    )
    parser.add_argument(
        "--min-decode-speedup",
        type=float,
        default=1.3,
        help="absolute floor for every `decode_speedup` counter (default 1.3)",
    )
    parser.add_argument(
        "--max-v2-size-ratio",
        type=float,
        default=0.75,
        help="absolute cap for every `v2_size_ratio` counter (default 0.75)",
    )
    parser.add_argument(
        "--max-trace-overhead",
        type=float,
        default=1.5,
        help="absolute cap for every `trace_overhead` counter (default 1.5)",
    )
    parser.add_argument(
        "--max-sampling-overhead",
        type=float,
        default=1.05,
        help="absolute cap for every `sampling_overhead` counter "
        "(default 1.05)",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=1.5,
        help="absolute floor for max(batch_speedup, decode_amortization) "
        "on service/batch/n:N series with N >= 8 (default 1.5)",
    )
    parser.add_argument(
        "--strict-time",
        action="store_true",
        help="treat wall-clock regressions as failures, not warnings",
    )
    parser.add_argument(
        "--ignore-context",
        action="store_true",
        help="skip the dataset-scale context comparison",
    )
    args = parser.parse_args()

    base_ctx, base = load(args.baseline)
    cur = {}
    failures = []
    warnings = []
    for path in args.current:
        cur_ctx, cur_part = load(path)
        cur.update(cur_part)
        if not args.ignore_context and base_ctx != cur_ctx:
            failures.append(
                f"{path}: context mismatch: baseline {base_ctx} vs "
                f"{cur_ctx} (set WSK_BENCH_OBJECTS / WSK_BENCH_QUERIES to "
                "the baseline's scale, or pass --ignore-context)"
            )

    for name, base_bench in sorted(base.items()):
        if name not in cur:
            failures.append(f"{name}: present in baseline but not in current run")
            continue
        base_vals = metric_values(base_bench)
        cur_vals = metric_values(cur[name])
        for metric, base_val in sorted(base_vals.items()):
            if metric not in cur_vals:
                failures.append(f"{name}: counter `{metric}` disappeared")
                continue
            cur_val = cur_vals[metric]
            if metric in ("speedup", "cache_speedup", "decode_speedup"):
                min_ratio = {
                    "speedup": args.min_speedup,
                    "cache_speedup": args.min_cache_speedup,
                    "decode_speedup": args.min_decode_speedup,
                }[metric]
                floor = base_val / (1.0 + args.tolerance)
                if cur_val < min_ratio:
                    failures.append(
                        f"{name}: {metric} {cur_val:.2f}x below the absolute "
                        f"floor {min_ratio:.2f}x"
                    )
                elif cur_val < floor:
                    warnings.append(
                        f"{name}: {metric} fell {cur_val:.2f}x < {floor:.2f}x "
                        f"(baseline {base_val:.2f}x - {args.tolerance:.0%}; "
                        "machine-dependent ratio)"
                    )
            elif metric in HARD_LOWER_IS_BETTER:
                ceiling = base_val * (1.0 + args.tolerance)
                if cur_val > ceiling and cur_val - base_val > 1e-9:
                    failures.append(
                        f"{name}: {metric} regressed {base_val:g} -> {cur_val:g} "
                        f"(> {args.tolerance:.0%} over baseline)"
                    )
            elif metric in TIME_METRICS:
                ceiling = base_val * (1.0 + args.tolerance)
                if cur_val > ceiling:
                    msg = (
                        f"{name}: {metric} {base_val:g} -> {cur_val:g} "
                        f"(> {args.tolerance:.0%} over baseline; wall-clock)"
                    )
                    (failures if args.strict_time else warnings).append(msg)

    for counters, fails, limit, reason, series, min_n in ABSOLUTE_GATES:
        if isinstance(limit, str):
            limit = getattr(args, limit)
        for name, bench in sorted(cur.items()):
            n = series_size(name, series) if series else None
            if series and (n is None or n < min_n):
                continue
            vals = metric_values(bench)
            present = [vals[c] for c in counters if c in vals]
            if not present or not fails(max(present), limit):
                continue
            fields = {c: vals.get(c) or 0 for c in counters}
            failures.append(
                f"{name}: {counters[0]} "
                + reason.format(
                    value=max(present),
                    limit=limit,
                    headroom=1 - limit,
                    n=n,
                    **fields,
                )
            )

    for msg in warnings:
        print(f"WARN  {msg}")
    for msg in failures:
        print(f"FAIL  {msg}")
    if not failures:
        print(
            f"OK    {len(base)} baseline benchmarks within tolerance "
            f"({len(warnings)} warnings)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
