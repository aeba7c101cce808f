#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the command of BENCHMARK.json once per seed on each workload and
reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile distance as a share of the median) against the metric's
bound; for peak_rss_mb, which is bimodal on some workloads, also the
largest distance of a single run from the median. With --traced, also runs
each workload once traced and reports the tracing overhead on the p50
latencies and the split of the operation wall between the layers. With
--json, writes every value; with --against, compares the medians with
those of an earlier --json file.

    python3 perfbench/steadiness.py --seeds 101-110 --json perfbench/out/a.json
    python3 perfbench/steadiness.py --seeds 201-210 --against perfbench/out/a.json

Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        fields = open("/proc/stat").readline().split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return ticks[7], sum(ticks)


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start, ticks = time.monotonic(), cpu_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    after = cpu_ticks()
    # Share of CPU time the hypervisor gave to other guests during the run.
    steal = (after[0] - ticks[0]) / max(1, after[1] - ticks[1]) if ticks and after else 0.0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall, steal


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def split(m):
    """The split of an operation between the layers, from traced metrics."""
    wall = m["query.eval_ms"] / m["query.eval_share"] if m["query.eval_share"] else 0.0
    compute = m["dtree.compile_ms"] + m["core.count_ms"]
    backend = m["engine.backend_ms"]
    return (f"Layer split per operation (traced): query.eval_ms {m['query.eval_ms']:.4g} "
            f"(share {m['query.eval_share']:.1%}), engine.batch_ms {m['engine.batch_ms']:.4g}, "
            f"engine.backend_ms {backend:.4g}, dtree.compile_ms + core.count_ms {compute:.4g} "
            f"= {compute / backend if backend else float('inf'):.0%} of the backend wall and "
            f"{compute / wall if wall else 0:.1%} of the operation wall ({wall:.4g} ms; on "
            f"serve_mixed the query share is of the update wall).")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default=None, help="comma list; default all")
    ap.add_argument("--traced", action="store_true", help="also run traced once")
    ap.add_argument("--out", default=None, help="write the report here too")
    ap.add_argument("--json", default=None, help="write every value here")
    ap.add_argument("--against", default=None, help="--json file of an earlier set")
    args = ap.parse_args()
    earlier = json.load(open(args.against)) if args.against else {}
    dump = {}

    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = [f"# Steadiness: seeds {args.seeds}, run_seconds {spec['run_seconds']}", ""]
    worst, worst_at = 0.0, None
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls, steals, attempted = [], [], 0
        for seed in seeds:
            result, wall, steal = run(spec, workload, seed, 0)
            steals.append(steal)
            assert result["correct"] and result["failed"] == 0, result
            attempted += result["attempted"]
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s steal {steal:.1%} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        report += [f"## {workload}", "",
                   f"{len(seeds)} runs, {attempted} operations, all verified, "
                   f"wall per run {min(walls):.0f}-{max(walls):.0f} s, CPU steal per run "
                   f"{min(steals):.1%}-{max(steals):.1%}.", "",
                   "| seed | " + " | ".join(bounds) + " | steal |",
                   "|---|" + "---|" * (len(bounds) + 1)]
        for i, seed in enumerate(seeds):
            report.append(f"| {seed} | " + " | ".join(f"{values[n][i]:.4g}" for n in bounds)
                          + f" | {steals[i]:.1%} |")
        dump[workload] = values
        before = earlier.get(workload)
        report += ["",
                   "| metric | median | q1 | q3 | spread | bound | spread / bound"
                   + (" | earlier median | change |" if before else " |"),
                   "|---|---|---|---|---|---|---|" + ("---|---|" if before else "")]
        for name, bound in bounds.items():
            q1, q2, q3, s = spread(values[name])
            checks = [(s, f"{workload} {name} spread")]
            row = (f"| {name} | {q2:.5g} | {q1:.5g} | {q3:.5g} | {s:.3f} | {bound} "
                   f"| {s / bound:.2f} |")
            if before:
                old = statistics.median(before[name])
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (q2 / old - 1) if better == "lower" else (old / q2 - 1)
                checks.append((worse, f"{workload} {name} median change"))
                row += f" {old:.5g} | {q2 / old - 1:+.1%} |"
            report.append(row)
            for value, what in checks:
                if value / bound > worst:
                    worst, worst_at = value / bound, what
        rss = values["peak_rss_mb"]
        far = max(abs(v / statistics.median(rss) - 1) for v in rss)
        if far / bounds["peak_rss_mb"] > worst:
            worst, worst_at = far / bounds["peak_rss_mb"], f"{workload} peak_rss_mb single run"
        report += ["", f"peak_rss_mb: the run farthest from the median is {far:.1%} away "
                   f"(bound {bounds['peak_rss_mb']:.0%})."]
        if args.traced:
            traced, _, _ = run(spec, workload, seeds[0], 1)
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            report.append("")
            for key, e2e in (("trace.p50_ms", "p50_ms"), ("trace.update_p50_ms", "update_p50_ms")):
                base = statistics.median(values[e2e])
                report.append(f"Tracing overhead on {e2e}: traced {m[key]:.5g} vs "
                              f"untraced median {base:.5g} ({m[key] / base - 1:+.1%}).")
            report += ["", split(m)]
        report.append("")
    report.append(f"Largest spread, single-run peak RSS distance or median change against its "
                  f"bound: {worst:.2f} ({worst_at}).")
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        json.dump(dump, open(args.json, "w"))
    text = "\n".join(report) + "\n"
    print(text)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        open(args.out, "w").write(text)


if __name__ == "__main__":
    main()
