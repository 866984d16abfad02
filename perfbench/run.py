"""Benchmark of lpalg: one workload per process, checked outputs, JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is compiled from ``src/lpalg``
next to this directory.  BLAS is pinned to one thread before numpy loads.
The run is a closed loop with one client: it sets up, then runs whole
rounds of the workload's operations until at least S seconds have passed,
timing each operation (the lpalg call plus ``canonical_json`` of its
report) and checking its output outside the timed region.

Every time reported is scaled by the host speed that :mod:`hostspeed`
measures between operations, so that it reads as seconds on the reference
host; the raw times are kept in the run summary.  With ``--trace 0`` the
last line of stdout holds the end-to-end metrics; with ``--trace 1`` the
library is wrapped by :mod:`layertrace` and it holds the per-layer metrics
instead.  Details of every run (per-operation times, failures, digests, and
for traced runs all spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import hashlib
import importlib
import importlib.abc
import importlib.machinery
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from layertrace import Tracer, patch
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 15  # counted set-ups per run; setup_s is their median
LAYERS = ("lpnorm", "opspace", "groups", "crossed", "nuclearity", "partition", "serialize")


class SourceCache(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """The lpalg package, compiled once and executed afresh on every import.

    Reading and compiling the sources costs what the file system and the
    bytecode cache of the checkout make it cost, so it is done once, before
    any timing.  Each set-up then executes the compiled module bodies into
    new module objects, which is the part of an import that lpalg's own code
    decides.
    """

    def __init__(self, package_dir: Path):
        self.codes = {}
        for path in sorted(package_dir.glob("*.py")):
            if path.stem == "__main__":
                continue
            name = "lpalg" if path.stem == "__init__" else f"lpalg.{path.stem}"
            source = path.read_text(encoding="utf-8")
            self.codes[name] = (compile(source, str(path), "exec"), str(path))

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self.codes:
            return None
        spec = importlib.machinery.ModuleSpec(
            fullname, self, origin=self.codes[fullname][1], is_package=fullname == "lpalg"
        )
        spec.has_location = True
        return spec

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        exec(self.codes[module.__name__][0], module.__dict__)

    def import_lpalg(self) -> dict:
        """Drop every loaded lpalg module and import the package again."""
        for name in [m for m in sys.modules if m == "lpalg" or m.startswith("lpalg.")]:
            del sys.modules[name]
        importlib.import_module("lpalg")
        return {f"lpalg.{name}": importlib.import_module(f"lpalg.{name}") for name in LAYERS}


class Lp:
    """The lpalg modules by short name (lp.lpnorm, lp.nuclearity, ...)."""

    def __init__(self, modules: dict):
        for full, module in modules.items():
            setattr(self, full.split(".", 1)[1], module)


def set_up(cache, workload, inputs) -> tuple:
    """Import lpalg, build the round and warm up."""
    modules = cache.import_lpalg()
    lp = Lp(modules)
    ops = workload.build(lp, inputs)
    workload.warm_up(lp, inputs)
    return modules, lp, ops


def install_ticks(modules: dict, clock):
    """Let the host clock take readings inside long operations: it may read
    at the start of every pnorm_estimate call, which all workloads make
    every few milliseconds."""

    def make(_name, fn):
        @functools.wraps(fn)
        def ticking(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)

        return ticking

    patch(modules, "lpalg.lpnorm", "pnorm_estimate", make)


def run_op(op, lp, tracer, clock) -> dict:
    clock.tick()
    start = clock.now()
    try:
        report, extra = op.call()
        text = lp.serialize.canonical_json(report)
    except Exception as exc:  # a refused or crashed claim is a failed operation
        report, text = None, repr(exc)
    end = clock.now()
    if tracer is not None:
        tracer.enabled = False
    try:
        problems = [f"raised {text}"] if report is None else op.check(report, extra)
    except Exception as exc:  # a check that cannot run counts the operation as failed
        problems = [f"check raised {exc!r}"]
    if tracer is not None:
        tracer.enabled = True
    return {"label": op.label, "start": start, "end": end, "problems": problems,
            "known_fault": op.known_fault, "digest": hashlib.sha256(text.encode()).hexdigest()}


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lpalg" / "__init__.py").is_file():
        print(f"error: no lpalg sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    cache = SourceCache(SRC / "lpalg")
    sys.meta_path.insert(0, cache)
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)

    # the first set-up fills numpy's lazy state and the kernel's caches; not counted
    hostspeed.reading()
    set_up(cache, workload, inputs)
    clock = hostspeed.HostClock()
    setups = []
    for _ in range(SETUPS):
        start = clock.now()
        modules, lp, ops = set_up(cache, workload, inputs)
        setups.append((start, clock.now()))
        clock.read()  # a set-up is short: read the host speed around each one
    # the operations use the objects of the last set-up, whose modules are loaded
    tracer = Tracer(clock.now).install(modules) if args.trace else None
    install_ticks(modules, clock)

    rounds, work = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append([run_op(op, lp, tracer, clock) for op in ops])
        if tracer is not None:
            work.append(tracer.work_vector())
    clock.read()
    records = [r for one in rounds for r in one]
    for r in records:
        r["seconds"] = r["end"] - r["start"]
        r["scaled"] = clock.scaled(r["start"], r["end"])
    setup_raw = [b - a for a, b in setups]
    setup_scaled = [clock.scaled(a, b) for a, b in setups]

    failed = [r for r in records if r["problems"]]
    unexpected = [r for r in failed if not r["known_fault"]]
    report_digests = [[r["digest"] for r in one] for one in rounds]
    repeat_ok = all(d == report_digests[0] for d in report_digests)
    per_round_work = [
        {k: v - (work[i - 1].get(k, 0) if i and not k.endswith("rep_dim_max") else 0) for k, v in w.items()}
        for i, w in enumerate(work)
    ]
    work_ok = all(w == per_round_work[0] for w in per_round_work)
    correct = not unexpected and repeat_ok and work_ok

    # a failed operation misses any latency limit: it ranks above every success
    times = sorted(r["scaled"] if not r["problems"] else math.inf for r in records)
    busy_raw = sum(r["seconds"] for r in records)
    busy = sum(r["scaled"] for r in records)
    setup_s = statistics.median(setup_scaled)
    if args.trace:
        layer = tracer.layer_metrics(len(records), busy / busy_raw)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {
            "ops_per_s": {"value": (len(records) - len(failed)) / busy, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "busy_s": busy,
        "busy_raw_s": busy_raw,
        "setup_s": setup_scaled,
        "setup_raw_s": setup_raw,
        "host_readings_s": clock.readings,
        "host_reading_gaps_s": [b - a for a, b in zip(clock.bounds, clock.bounds[1:])],
        "reports_digest": digest(report_digests[0]),
        "work_digest": digest(per_round_work[0]) if work else None,
        "work_per_round": per_round_work[0] if work else None,
        "repeat_ok": repeat_ok,
        "work_repeat_ok": work_ok,
        "failures": [{"label": r["label"], "known_fault": r["known_fault"], "problems": r["problems"]}
                     for r in failed[: 2 * len(ops)]],
        "op_seconds": [[r["label"], r["scaled"], r["seconds"]] for r in rounds[0]],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl", {"workload": args.workload, "seed": args.seed,
                                                   "ops": len(records)})

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(ops)} "
          f"operations, {busy:.3f} s busy ({busy_raw:.3f} s raw), setup {setup_s:.4f} s")
    print(f"digests: reports {summary['reports_digest']} work {summary['work_digest']}")
    for r in unexpected[:5]:
        print(f"FAILED {r['label']}: {'; '.join(r['problems'])}")
    if failed and not unexpected:
        print(f"{len(failed)} operation(s) failed on a known fault: {failed[0]['known_fault']}")
    if not repeat_ok or not work_ok:
        print("rounds did not repeat: reports or work counts differ between rounds")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
