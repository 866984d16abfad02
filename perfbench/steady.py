"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--seconds 10] [--trace]

For every workload, runs ``run.py`` once per seed, one process at a time,
and prints for each end-to-end metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
It also checks that the share of failed operations is the same in every
run.  The first seed is then run a second time, untraced, to check that the
report digest repeats.  With ``--trace`` that repeat is bracketed by two
traced runs of the same seed, to check that the per-round work counts
repeat and to measure the tracing overhead: the traced busy time per
operation over the untraced one, minus 1.
Results are written to ``perfbench/out/steady-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("witness_line", "rotation_grid", "norm_stream")


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary_path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    return result, summary


def per_op_seconds(summary: dict) -> float:
    return summary["busy_s"] / (summary["rounds"] * summary["ops_per_round"])


def spread_table(results: list) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                       "unit": results[0]["metrics"][name]["unit"], "values": values}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")

    report = {}
    ok = True
    for workload in workloads:
        results, summaries = [], []
        for seed in seeds:
            result, summary = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            summaries.append(summary)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_ok = len({f / a for f, a in shares}) == 1 and all(r["correct"] for r in results)
        # traced runs bracket the untraced repeat in time, so drift cancels in part
        traced = [run_once(workload, seeds[0], args.seconds, 1)[1]] if args.trace else []
        _, again = run_once(workload, seeds[0], args.seconds, 0)
        if args.trace:
            traced.append(run_once(workload, seeds[0], args.seconds, 1)[1])
        digest_ok = again["reports_digest"] == summaries[0]["reports_digest"]
        entry = {"seeds": seeds, "metrics": spread_table(results), "failed_attempted": sorted(shares),
                 "share_ok": share_ok, "reports_digest_repeats": digest_ok}
        ok &= share_ok and digest_ok
        if args.trace:
            work_ok = traced[0]["work_digest"] == traced[1]["work_digest"]
            traced_per_op = statistics.fmean(per_op_seconds(s) for s in traced)
            entry.update({"work_digest_repeats": work_ok,
                          "tracing_overhead": traced_per_op / per_op_seconds(again) - 1.0,
                          "traced_metrics": traced[0]["metrics"]})
            ok &= work_ok
        report[workload] = entry

        print(f"\n{workload}: failed/attempted {sorted(shares)} same share: {share_ok}; "
              f"report digest repeats: {digest_ok}"
              + (f"; work digest repeats: {entry['work_digest_repeats']}; tracing overhead "
                 f"{entry['tracing_overhead']:+.1%}" if args.trace else ""))
        print("| metric | unit | median | q1 | q3 | spread |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, row in entry["metrics"].items():
            print(f"| {name} | {row['unit']} | {row['median']:.4g} | {row['q1']:.4g} | "
                  f"{row['q3']:.4g} | {row['spread']:.3f} |")
        print(flush=True)

    out = HERE / "out" / f"steady-{'-'.join(workloads)}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
