#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) into .bench_build/perfbench on first use, runs one workload in a
fresh wsk_perfbench process, checks its outputs and workload guards, prints
every metric by name with its unit and sample count, and ends with one JSON
line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). Exits non-zero, without the JSON line, when the
build, a check or a guard fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CHILD_TIMEOUT_S = 170

# Budgets the shipped engine configuration gives each index (bytes).
BUFFER_POOL_BYTES = 4 << 20  # per index file
NODE_CACHE_BYTES = 8 << 20   # per engine

KINDS = ("topk", "adv", "kcr", "write")
WINDOWS = 20

# Which request class each workload reports as `primary` and `secondary`,
# with the request-kind name each alias stands for in reports.
CLASSES = {
    "whynot-frozen": (("adv", "whynot_adv"), ("kcr", "whynot_kcr")),
    "topk-euro": (("topk", "topk"), ("topk_executed", "topk_executed")),
    "live-sharded": (("topk", "topk"), ("write", "write")),
}


def log(line=""):
    print(line, flush=True)


def build():
    """Configures (once) and builds wsk_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: library sources (src/) not found under %s"
                         % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                raise SystemExit("run.py: build step failed: %s"
                                 % " ".join(cmd))
    return BUILD / "wsk_perfbench"


def run_child(binary, args, work):
    out = work / "raw.json"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work-dir", str(work), "--out", str(out)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        header, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise SystemExit("run.py: wsk_perfbench timed out")
    sys.stdout.write(header)
    if child.returncode != 0:
        raise SystemExit("run.py: wsk_perfbench exited with %d"
                         % child.returncode)
    with open(out) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Metrics. Each entry: name -> (value, unit, note); the note states the
# sample count or the ratio's base.


def in_completion_order(tally, key):
    pairs = sorted(zip(tally["done_s"][key], tally["latency_ms"][key]))
    return [ms for _, ms in pairs]


def end_to_end(raw):
    """Timed-phase metrics. Latency percentiles and throughput are taken
    per window (up to WINDOWS of them) and reported as the trimmed mean
    over the windows (stats.trimmed_mean)."""
    t = raw["timed"]
    ok = stats.Ratio(t["attempted"] - t["failed"], t["attempted"])
    done = [x for k in KINDS for x in t["done_s"][k]]
    out = {
        "setup_s": (stats.median(raw["setup_s"]), "s",
                    "median of %d builds" % len(raw["setup_s"])),
        "ops_per_s": (
            stats.trimmed_mean(
                stats.window_rates(done, raw["wall_s"], WINDOWS)),
            "1/s", "n=%d in %.3f s, %d windows"
            % (t["attempted"], raw["wall_s"], WINDOWS)),
        "ok_ratio": (ok.value, "ratio", "failed_ratio=%.6g; %s"
                     % (1.0 - ok.value, ok)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", "n=1"),
        "index_bytes_per_object": (
            raw["index_bytes"] / raw["live_objects"], "B",
            "%d B over %d live objects" % (raw["index_bytes"],
                                           raw["live_objects"])),
    }
    for role, (key, alias) in zip(("primary", "secondary"),
                                  CLASSES[raw["workload"]]):
        samples = in_completion_order(t, key)
        for q in (50, 95):
            per_window = stats.window_percentiles(samples, q, WINDOWS)
            out["%s_p%d_ms" % (role, q)] = (
                stats.trimmed_mean(per_window), "ms",
                "%s_p%d_ms, n=%d, %d windows" % (alias, q, len(samples),
                                                  len(per_window)))
    return out


def per_call(part, calls):
    return part / calls if calls else 0.0


def per_layer(raw):
    layers = raw["layers"]
    traced = raw["traced"]
    both = [raw["untraced"], raw["traced"]]
    reads = [layers[k] for k in ("topk", "adv", "kcr")]
    read_calls = sum(k["calls"] for k in reads)

    def read_counter(name):
        return sum(k["counters"][name] for k in reads)

    def read_stage(name):
        return sum(k["stage_ms"][name] for k in reads)

    whynot = [layers["adv"], layers["kcr"]]
    whynot_calls = sum(k["calls"] for k in whynot)

    def whynot_counter(name):
        return sum(k["counters"][name] for k in whynot)

    topk, adv, kcr, write = (layers[k] for k in ("topk", "adv", "kcr",
                                                  "write"))
    topk_requests = sum(t["requests"]["topk"] for t in both)
    topk_hits = sum(t["topk_hits"] for t in both)
    attempted = sum(t["attempted"] for t in both)
    executed = (topk_requests - topk_hits +
                sum(t["requests"]["adv"] + t["requests"]["kcr"] for t in both))
    io, seg, shard, cache = raw["io"], raw["segment"], raw["shard"], raw["cache"]
    client_ms = sum(traced["client_ms"].values())
    backend_ms = sum(layers[k]["call_ms"] for k in layers)
    enumerated = whynot_counter("candidates_enumerated")

    ratios = {
        "service.hit_ratio": stats.Ratio(topk_hits, topk_requests),
        "service.stale_ratio": stats.Ratio(cache["stale"],
                                           cache["hits"] + cache["misses"]),
        "service.rejected_ratio": stats.Ratio(
            sum(t["rejected"] for t in both), attempted),
        "shard.pruned_ratio": stats.Ratio(shard["pruned"],
                                          shard["visited"] + shard["pruned"]),
        "core.prune_ratio": stats.Ratio(
            whynot_counter("candidates_pruned_early_stop") +
            whynot_counter("candidates_pruned_dominator"), enumerated),
        "index.node_prune_ratio": stats.Ratio(read_counter("nodes_pruned"),
                                              read_counter("nodes_seen")),
        "storage.node_cache_hit_ratio": stats.Ratio(
            io["node_cache_hits"],
            io["node_cache_hits"] + io["node_cache_misses"]),
    }
    n_traced = "n=%d traced calls"
    out = {name: (r.value, "ratio", str(r)) for name, r in ratios.items()}
    out.update({
        "service.self_ms": (
            per_call(client_ms - backend_ms, traced["attempted"]), "ms",
            "n=%d traced requests" % traced["attempted"]),
        "shard.visited_per_query": (
            per_call(shard["visited"], shard["queries"]), "count",
            "n=%d scatter queries" % shard["queries"]),
        "shard.scatter_ms": (
            per_call(shard["scatter_busy_us"] / 1e3, shard["queries"]), "ms",
            "n=%d scatter queries" % shard["queries"]),
        "segment.delta_scan_ms": (
            per_call(topk["stage_ms"]["delta_scan"], topk["calls"]), "ms",
            n_traced % topk["calls"]),
        "segment.delta_objects_per_query": (
            per_call(topk["counters"]["delta_objects_scanned"],
                     topk["calls"]), "count", n_traced % topk["calls"]),
        "segment.segments_per_query": (
            per_call(topk["counters"]["segments_visited"], topk["calls"]),
            "count", n_traced % topk["calls"]),
        "segment.write_ms": (per_call(write["call_ms"], write["calls"]), "ms",
                             n_traced % write["calls"]),
        "segment.merges": (seg["merges"], "count", "whole pass"),
        "segment.merge_busy_s": (seg["merge_busy_us"] / 1e6, "s",
                                 "%d merges" % seg["merges"]),
        "segment.tombstones_replayed": (seg["tombstones_replayed"], "count",
                                        "whole pass"),
        "core.adv_answer_ms": (per_call(adv["call_ms"], adv["calls"]), "ms",
                               n_traced % adv["calls"]),
        "core.kcr_answer_ms": (per_call(kcr["call_ms"], kcr["calls"]), "ms",
                               n_traced % kcr["calls"]),
        "core.candidates_per_query": (per_call(enumerated, whynot_calls),
                                      "count", n_traced % whynot_calls),
        "core.evaluated_per_query": (
            per_call(whynot_counter("candidates_kept"), whynot_calls),
            "count", n_traced % whynot_calls),
        "core.initial_rank_ms": (
            per_call(adv["stage_ms"]["initial_rank"], adv["calls"]), "ms",
            n_traced % adv["calls"]),
        "core.enumeration_ms": (
            per_call(adv["stage_ms"]["enumeration"], adv["calls"]), "ms",
            n_traced % adv["calls"]),
        "core.candidate_eval_ms": (
            per_call(adv["stage_ms"]["candidate_eval"], adv["calls"]), "ms",
            n_traced % adv["calls"]),
        "core.kcr_batch_ms": (
            per_call(kcr["stage_ms"]["batch"], kcr["calls"]), "ms",
            n_traced % kcr["calls"]),
        "core.bound_tightening_ms": (
            per_call(kcr["stage_ms"]["bound_tightening"], kcr["calls"]), "ms",
            n_traced % kcr["calls"]),
        "index.topk_ms": (per_call(topk["stage_ms"]["topk"], topk["calls"]),
                          "ms", n_traced % topk["calls"]),
        "index.nodes_visited_per_query": (
            per_call(read_counter("nodes_visited"), read_calls), "count",
            n_traced % read_calls),
        "index.objects_scored_per_query": (
            per_call(read_counter("leaf_objects_scored"), read_calls),
            "count", n_traced % read_calls),
        "index.rank_query_ms": (
            per_call(adv["stage_ms"]["rank_query"], adv["calls"]), "ms",
            n_traced % adv["calls"]),
        "storage.physical_reads_per_query": (
            per_call(io["physical"], executed), "count",
            "n=%d executed reads" % executed),
        "storage.logical_reads_per_query": (
            per_call(io["logical"], executed), "count",
            "n=%d executed reads" % executed),
        "storage.mapped_reads_per_query": (
            per_call(io["mapped"], executed), "count",
            "n=%d executed reads" % executed),
        "text.kernel_calls_per_query": (
            per_call(read_counter("kernel_invocations"), read_calls), "count",
            n_traced % read_calls),
        "text.leaf_scoring_ms": (per_call(read_stage("leaf_scoring"),
                                          read_calls), "ms",
                                 n_traced % read_calls),
    })
    untraced_rate = raw["untraced"]["attempted"] / raw["untraced_s"]
    traced_rate = traced["attempted"] / raw["traced_s"]
    out["trace.overhead"] = (untraced_rate / traced_rate, "ratio",
                             "%.6g / %.6g ops/s untraced / traced"
                             % (untraced_rate, traced_rate))
    wall_ms = raw["clients"] * raw["traced_s"] * 1e3
    out["trace.coverage"] = (client_ms / wall_ms, "ratio",
                             "%.6g of %.6g client-ms in traced spans"
                             % (client_ms, wall_ms))
    return out


# --------------------------------------------------------------------------
# Guards: the property each workload exists for.


def guards(raw):
    tallies = [raw[k] for k in ("timed", "untraced", "traced") if k in raw]
    attempted = sum(t["attempted"] for t in tallies)
    topk = sum(t["requests"]["topk"] for t in tallies)
    writes = sum(t["requests"]["write"] for t in tallies)
    hits = stats.Ratio(sum(t["topk_hits"] for t in tallies), topk)
    io = raw["io"]
    node_cache = stats.Ratio(io["node_cache_hits"],
                             io["node_cache_hits"] + io["node_cache_misses"])
    name = raw["workload"]
    checks = []
    if name == "whynot-frozen":
        checks.append(("storage.node_cache_hit_ratio >= 0.99 (%s)"
                       % node_cache, node_cache.value >= 0.99))
    elif name == "topk-euro":
        budget = 2 * BUFFER_POOL_BYTES + NODE_CACHE_BYTES
        checks.append(("index %d B > buffer pools + node cache %d B"
                       % (raw["index_bytes_built"], budget),
                       raw["index_bytes_built"] > budget))
        checks.append(("service.hit_ratio in [0.15, 0.40] (%s)" % hits,
                       0.15 <= hits.value <= 0.40))
    elif name == "live-sharded":
        share = stats.Ratio(writes, attempted)
        checks.append(("segment.merges >= 2 (%d)" % raw["segment"]["merges"],
                       raw["segment"]["merges"] >= 2))
        checks.append(("write share in [0.4, 0.6] (%s)" % share,
                       0.4 <= share.value <= 0.6))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("run.py: unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        if not (stats.valid_name(m["name"]) and stats.valid_unit(m["unit"])):
            raise SystemExit("run.py: bad metric name or unit: %r" % m)

    binary = build()
    work = ROOT / ".bench_build" / "work" / ("%s-%d" % (args.workload,
                                                        os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.monotonic()
        raw = run_child(binary, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log("# checks: %d answers compared bit-exactly in %.2f s: ok"
        % (raw["checked_answers"], raw["check_s"]))
    all_ok = True
    for text, ok in guards(raw):
        log("# guard: %s: %s" % (text, "ok" if ok else "FAILED"))
        all_ok = all_ok and ok
    if not all_ok:
        raise SystemExit("run.py: workload guard failed")

    try:
        computed = per_layer(raw) if args.trace else end_to_end(raw)
    except stats.NotEnoughSamples as e:
        raise SystemExit("run.py: %s" % e)
    metrics = {}
    for m in wanted:
        value, unit, note = computed[m["name"]]
        if unit != m["unit"]:
            raise SystemExit("run.py: %s has unit %s, BENCHMARK.json says %s"
                             % (m["name"], unit, m["unit"]))
        log("%-34s %14.6g %-6s %s" % (m["name"], value, unit, note))
        metrics[m["name"]] = {"value": value, "unit": unit}
    log("# run took %.1f s" % (time.monotonic() - started))

    tally_keys = ["timed"] if not args.trace else ["untraced", "traced"]
    attempted = sum(raw[k]["attempted"] for k in tally_keys)
    failed = sum(raw[k]["failed"] for k in tally_keys)
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
