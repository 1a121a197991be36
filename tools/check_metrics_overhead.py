#!/usr/bin/env python3
"""Gates the cost of enabled metrics on the single-query hot path.

Usage: check_metrics_overhead.py BENCH.json [--max-overhead-pct 3.0]

Reads google-benchmark JSON produced by bench/perf_smoke, run with
repetitions interleaved at random so the two variants see the same stretch
of host time:

    MBI_OVERLOAD_OUT= ./build/bench/perf_smoke \\
        --benchmark_filter='BM_SingleQuery_Metrics' \\
        --benchmark_repetitions=100 \\
        --benchmark_enable_random_interleaving=true \\
        --benchmark_out=metrics_overhead.json

Repetition i of BM_SingleQuery_MetricsOn is paired with repetition i of
BM_SingleQuery_MetricsOff (by `repetition_index`); both time the same query
mix on one warm engine. The gate is the upper one-sided confidence bound
(Student t) of the mean paired relative difference on/off - 1: a noisy host
widens the bound rather than deciding the gate by chance, as comparing two
medians of sequential 6-21% cv runs did. On a shared 4-vCPU host the paired
difference has an sd of about 12%, so 100 pairs put the bound about 2%
above the measured mean. Fails when the upper bound reaches
--max-overhead-pct.

The same file also carries the metric-derived counters the MetricsOn
benchmark exported (metric_queries, metric_pages_read, ...); this script
sanity-checks that metric_queries is ~1 per iteration, which proves the
registry actually observed the benchmark rather than sitting disconnected.
"""

import argparse
import json
import math
import statistics
import sys

OFF = "BM_SingleQuery_MetricsOff"
ON = "BM_SingleQuery_MetricsOn"

CONFIDENCE = 0.95

# One-sided Student t quantiles t_{0.95, df} for df = 1..30.
_T_QUANTILES = (6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
                1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
                1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
                1.701, 1.699, 1.697)


def t_quantile(df):
    """One-sided 95% Student t quantile; Cornish-Fisher expansion past df
    30."""
    if df <= len(_T_QUANTILES):
        return _T_QUANTILES[df - 1]
    z = statistics.NormalDist().inv_cdf(CONFIDENCE)
    return (z + (z ** 3 + z) / (4 * df) +
            (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96 * df ** 2))


def times_by_repetition(benchmarks, name):
    """{repetition_index: real_time} over the per-repetition entries of
    `name` (whatever argument suffix, e.g. "/iterations:512", it carries)."""
    return {b.get("repetition_index", 0): b["real_time"] for b in benchmarks
            if b["name"].split("/")[0] == name and
            b.get("run_type", "iteration") == "iteration"}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("--max-overhead-pct", type=float, default=3.0)
    args = parser.parse_args(argv[1:])

    with open(args.bench_json, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    benchmarks = doc.get("benchmarks", [])

    off = times_by_repetition(benchmarks, OFF)
    on = times_by_repetition(benchmarks, ON)
    if not off or not on:
        print(f"error: {OFF}/On not found in {args.bench_json}",
              file=sys.stderr)
        return 2
    pairs = sorted(set(off) & set(on))
    if len(pairs) < 2:
        print("error: the gate needs at least 2 paired repetitions; run "
              "perf_smoke with --benchmark_repetitions=N (N >= 2) and "
              "--benchmark_enable_random_interleaving=true", file=sys.stderr)
        return 2

    diffs = [on[i] / off[i] - 1.0 for i in pairs]
    n = len(diffs)
    mean = statistics.fmean(diffs)
    sd = statistics.stdev(diffs)
    upper = mean + t_quantile(n - 1) * sd / math.sqrt(n)
    print(f"single-query k-NN, {n} paired repetitions: metrics off median "
          f"{statistics.median(off[i] for i in pairs):.1f} us, on median "
          f"{statistics.median(on[i] for i in pairs):.1f} us; paired "
          f"overhead mean {100 * mean:+.2f}% (sd {100 * sd:.2f}%), "
          f"{100 * CONFIDENCE:.0f}% upper bound {100 * upper:+.2f}% "
          f"(gate < {args.max_overhead_pct:.1f}%)")

    # The MetricsOn benchmark exports registry-derived counters; one query
    # per iteration means the registry really was wired into the hot path.
    queries_per_iter = None
    for bench in benchmarks:
        if bench["name"].startswith(ON) and "metric_queries" in bench:
            queries_per_iter = bench["metric_queries"]
            break
    if queries_per_iter is None:
        print(f"error: {ON} exported no metric_queries counter",
              file=sys.stderr)
        return 2
    if not 0.99 <= queries_per_iter <= 1.01:
        print(f"error: metric_queries per iteration is {queries_per_iter}, "
              "expected ~1 (registry not observing the benchmark?)",
              file=sys.stderr)
        return 1

    if 100 * upper >= args.max_overhead_pct:
        print(f"error: the metrics overhead upper bound {100 * upper:.2f}% "
              f"reaches the {args.max_overhead_pct:.1f}% budget",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
