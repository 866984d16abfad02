#!/usr/bin/env bash
# The checks of .github/workflows/tier1.yml, runnable offline.  The
# workflow's steps call this script, so the two cannot drift apart.  It
# stops at the first failure.
#
#   bash tools/ci_local.sh                  all checks, in the order below
#   bash tools/ci_local.sh tests            tier-1 tests
#   bash tools/ci_local.sh suite            the acceptance suite under two hash seeds, its md5 and numpy's build
#   bash tools/ci_local.sh smoke WORKLOAD   plain and traced benchmark smoke runs, their gates and equal report digests
#   bash tools/ci_local.sh scale            the Z witness at epsilon 0.001 and a rotation model: cost and claims
#   bash tools/ci_local.sh lines            the size of src/lpalg, per module too, and the CLI's option count, printed and not gated
#   bash tools/ci_local.sh imports          the import time of lpalg, printed and not gated
#
# Needs python3 with numpy (and pytest and hypothesis for the tests).
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# gate FILE EXPR: fail unless EXPR holds on the result on the last line of
# FILE, read as JSON into r; m(name) is the value of one of its metrics
gate() {
    tail -n 1 "$1" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
seen = {}
def m(name):
    seen[name] = r["metrics"][name]["value"]
    return seen[name]
ok = eval(sys.argv[1])
print("gate", sys.argv[1], *(f"[{k} = {v}]" for k, v in seen.items()), "ok" if ok else "FAILED")
sys.exit(0 if ok else 1)' "$2"
}

tests() {
    echo "== tier-1 tests"
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors --durations=10
}

# exits 1 on any failed criterion; the md5 is logged, not pinned, because
# BLAS bits can differ between hosts, and so can numpy's complex loops, on
# whose multiply the restarted kernel's division-free step relies: numpy's
# version and its runtime summary (SIMD extensions, BLAS library) are
# printed next to the md5, not gated, so a differing md5 can be traced.  A
# second process with another hash seed must write the same bytes:
# criterion 13 repeats its payload within one process only
suite() {
    echo "== acceptance suite"
    for seed in 1 2; do
        PYTHONHASHSEED=$seed PYTHONPATH=src python3 -W error::RuntimeWarning -m lpalg suite --format json --seed 0 \
            > "$out/suite$seed.json"
    done
    (cd "$out" && md5sum suite1.json suite2.json)
    python3 -c '
import numpy
print("numpy", numpy.__version__)
numpy.show_runtime()  # names the BLAS library in use only where threadpoolctl is installed
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print("numpy was built against BLAS", blas.get("name"), blas.get("version"))'
    cmp "$out/suite1.json" "$out/suite2.json"
}

smoke() {
    local workload=$1
    echo "== benchmark smoke runs: $workload"
    # a run that is correct may still have failed operations on a known
    # fault; the smoke run also requires none to fail
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | tee "$out/smoke.out"
    gate "$out/smoke.out" 'r.get("correct") is True and r.get("failed") == 0'
    # the tracer wraps lpalg functions by name, so a renamed or deleted
    # function breaks only traced runs
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 | tee "$out/trace.out"
    gate "$out/trace.out" 'r.get("correct") is True and r.get("failed") == 0'
    # tracing must not change a report: the tracer wraps pnorm_estimate and
    # others, so a path that behaves otherwise under a wrapper fails here
    python3 - "$workload" <<'PY'
import json, sys
digests = [json.load(open(f"perfbench/out/{sys.argv[1]}-seed1-trace{t}.json"))["reports_digest"] for t in (0, 1)]
ok = digests[0] == digests[1]
print(f"gate plain reports_digest {digests[0]} == traced {digests[1]}", "ok" if ok else "FAILED")
sys.exit(0 if ok else 1)
PY
    case $workload in
    witness_line)
        # the positive route closes every window form's bracket; only the
        # one phase-cycled form on the restarted kernel may end unconverged
        gate "$out/trace.out" 'm("lpnorm.unconverged") <= 0.25'
        # one estimate per element and one per round trip whose Folner
        # ratios differ (9 + 3 per round of 4 operations): a round trip whose
        # ratios agree reads its error off the reduced norm
        gate "$out/trace.out" 'm("lpnorm.estimate_calls") <= 3.0'
        # single terms and the three defects, each a single term, are
        # estimated on their coefficients: only the 4 elements with two
        # terms build an integrated form per round of 4 operations
        gate "$out/trace.out" 'm("crossed.integrated_calls") <= 1.0'
        ;;
    rotation_grid)
        # u and z are single terms, estimated on their n x n coefficients,
        # and every defect is zero on F = G: no integrated form is built
        gate "$out/trace.out" 'm("crossed.integrated_calls") == 0'
        ;;
    norm_stream)
        # each operation is exactly one pnorm_estimate call on a given
        # matrix: no crossed-product form is built
        gate "$out/trace.out" 'm("lpnorm.estimate_calls") == 1.0 and m("crossed.integrated_calls") == 0'
        ;;
    esac
}

# the witness for delta_1 on Z at epsilon 0.001 (|F| = 6001, a window of
# 12005 positions) must finish within 10 s and 100 MB of peak RSS: its
# certificates are read off |F|, and a single term's norm off its
# coefficient, so nothing of the window's size is listed or built.  Its
# report must pass with every certificate level exactly 1.0: the Folner
# pair's levels are theorems, so no rounding may move them.  The rotation
# model at n = 12, k = 5, p = 3 must pass with every witness, point
# evaluation and blend level exactly 1.0 as well: "<= 1" is decided with
# no tolerance on either path.  Both reports must also be, byte for byte,
# the text json.dumps(sort_keys=True, indent=2) writes for their parsed
# values, so any drift of lpalg's own JSON writer fails here
scale() {
    echo "== witness at scale: delta_1 on Z, epsilon 0.001"
    echo '{"group": {"type": "z_window", "radius": 1}, "coeffs": [{"s": 1, "matrix": {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}}]}' \
        > "$out/delta1.json"
    PYTHONPATH=src python3 - "$out/delta1.json" <<'PY'
import json, resource, subprocess, sys, time
argv = ["timeout", "10", sys.executable, "-m", "lpalg", "witness", "--elements", sys.argv[1], "--epsilon", "0.001"]
start = time.perf_counter()
run = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
wall = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KB on Linux
ok = run.returncode == 0 and peak_mb <= 100
print(f"gate exit {run.returncode} == 0 (in {wall:.2f} s) and child peak RSS {peak_mb:.1f} MB <= 100",
      "ok" if ok else "FAILED")
report = json.loads(run.stdout) if run.returncode == 0 else {}
levels = [value for c in report.get("certificates", []) for _, value in c["levels"]]
claims = report.get("passed") is True and bool(levels) and all(v == 1.0 for v in levels)
print(f"gate passed {report.get('passed')} and certificate levels {levels} all exactly 1.0",
      "ok" if claims else "FAILED")
same = bool(report) and run.stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"
print("gate witness report is the text json.dumps writes", "ok" if same else "FAILED")
sys.exit(0 if ok and claims and same else 1)
PY
    echo "== rotation model: n 12, k 5, p 3"
    PYTHONPATH=src python3 -m lpalg rotation --n 12 --k 5 --p 3 > "$out/rotation.json"
    python3 - "$out/rotation.json" <<'PY'
import json, sys
text = open(sys.argv[1]).read()
report = json.loads(text)
part = report["partition"]
levels = [value for c in report["witness"]["certificates"] for _, value in c["levels"]]
levels += [value for key in ("point_eval_levels", "blend_levels") for _, value in part[key]]
ok = report["passed"] is True and bool(levels) and all(v == 1.0 for v in levels)
print(f"gate passed {report['passed']} and witness, point evaluation and blend levels {levels} all exactly 1.0",
      "ok" if ok else "FAILED")
same = text == json.dumps(report, sort_keys=True, indent=2) + "\n"
print("gate rotation report is the text json.dumps writes", "ok" if same else "FAILED")
sys.exit(0 if ok and same else 1)
PY
}

# the two sizes of src/lpalg: every line (wc -l), and the code lines, those
# holding a token that is not a comment, a docstring or layout, of each
# module and in all; then the options each subcommand of the command line
# accepts (--help aside), and their total
lines() {
    echo "== size of src/lpalg"
    wc -l src/lpalg/*.py | tail -n 1
    python3 - src/lpalg <<'PY'
import ast, io, sys, tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
counts = {}
for path in sorted(Path(sys.argv[1]).glob("*.py")):
    src = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in LAYOUT:
            code.update(set(range(tok.start[0], tok.end[0] + 1)) - docs)
    counts[path.name] = len(code)
print("code lines per module:", ", ".join(f"{name} {n}" for name, n in counts.items()))
print(f"{sum(counts.values())} code lines (tokenizer count, without blank lines, comments and docstrings)")
PY
    PYTHONPATH=src python3 - <<'PY'
import argparse
from lpalg.cli import _build_parser
(sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in cmd._actions) for name, cmd in sub.choices.items()}
print("options:", ", ".join(f"{name} {n}" for name, n in counts.items()), f"({sum(counts.values())} in all)")
PY
}

# lpalg's own import time: the cumulative time of `import lpalg` less that of
# numpy, which lpalg imports, from python's -X importtime log.  It includes
# compiling the sources when no bytecode cache is written.  Not gated:
# tests/test_records.py checks that the import generates no code for records
imports() {
    echo "== import time of lpalg"
    PYTHONPATH=src python3 -X importtime -c "import lpalg" 2>&1 >/dev/null | python3 -c '
import sys
cumulative = {}
for line in sys.stdin:
    fields = line.removeprefix("import time:").split("|")
    if len(fields) == 3 and fields[1].strip().isdigit():
        cumulative[fields[2].strip()] = int(fields[1])
total, numpy = cumulative["lpalg"] / 1e3, cumulative.get("numpy", 0) / 1e3
print(f"import lpalg: {total:.1f} ms, of which numpy {numpy:.1f} ms and lpalg its own {total - numpy:.1f} ms")'
}

case ${1:-all} in
tests) tests ;;
suite) suite ;;
smoke) smoke "${2:?name a workload}" ;;
scale) scale ;;
lines) lines ;;
imports) imports ;;
all)
    tests
    suite
    for workload in witness_line rotation_grid norm_stream; do smoke "$workload"; done
    scale
    lines
    imports
    echo "== all checks passed"
    ;;
*)
    echo "usage: $0 [tests | suite | smoke WORKLOAD | scale | lines | imports]" >&2
    exit 2
    ;;
esac
