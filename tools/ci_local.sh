#!/usr/bin/env bash
# The checks of .github/workflows/tier1.yml, runnable offline.  The
# workflow's steps call this script, so the two cannot drift apart.  It
# stops at the first failure.
#
#   bash tools/ci_local.sh                  all checks, in the order below
#   bash tools/ci_local.sh tests            tier-1 tests
#   bash tools/ci_local.sh suite            the acceptance suite under two hash seeds, its md5 and numpy's build
#   bash tools/ci_local.sh criteria         the wall time of each acceptance criterion, printed and not gated
#   bash tools/ci_local.sh smoke WORKLOAD   plain and traced benchmark smoke runs, their gates and equal report digests
#   bash tools/ci_local.sh scale            the Z witness at epsilon 0.001, at scales 2^-40 and 2^1023, Folner budgets at the
#                                           bottom of the float range, and a rotation model: cost and claims; and crossed
#                                           and folner on Z/2^40 and rotation at n 200000, input errors under a 2 GB limit
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

# each acceptance criterion at seed 0, one after another in one process,
# with its wall time; printed and not gated, and no report is written.
# Criterion 6 samples its levels as stacks of p-norm estimates, so it shows
# what stacked calls cost
criteria() {
    echo "== wall time per acceptance criterion"
    PYTHONPATH=src python3 - <<'PY'
import time
from lpalg.suite import CRITERIA, run_criterion
for number, label, _ in CRITERIA:
    start = time.perf_counter()
    passed = run_criterion(number, 0)["passed"]
    print(f"criterion {number:2d}: {time.perf_counter() - start:7.3f} s [{'PASS' if passed else 'FAIL'}] {label}")
PY
}

smoke() {
    local workload=$1
    echo "== benchmark smoke runs: $workload"
    # a run that is correct may still have failed operations on a known
    # fault; the smoke run also requires none to fail.  Both runs turn
    # RuntimeWarnings into errors, as the tests and the suite do, so a stray
    # overflow or 0 * inf on the benchmark's path fails an operation here
    python3 -W error::RuntimeWarning perfbench/run.py --workload "$workload" --seed 1 --seconds 1 | tee "$out/smoke.out"
    gate "$out/smoke.out" 'r.get("correct") is True and r.get("failed") == 0'
    # the tracer wraps lpalg functions by name, so a renamed or deleted
    # function breaks only traced runs
    python3 -W error::RuntimeWarning perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        | tee "$out/trace.out"
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
    # the witness scales exactly: 2^-40 delta_1 at epsilon 0.3 2^-40, and
    # 2^1023 delta_1 at 0.3 2^1023, at the top of the float range, must each
    # pick the 21 members of delta_1 at 0.3 and pass, its error exactly 2^k
    # times that at scale 1, since F depends on epsilon / M alone
    echo "== witness scale covariance: 2^k delta_1 on Z, epsilon 0.3 2^k, k = -40 and 1023"
    PYTHONPATH=src python3 - "$out" <<'PY'
import json, subprocess, sys
reports = {}
for k in (0, -40, 1023):
    c = 2.0**k
    path = f"{sys.argv[1]}/delta1-scale{k}.json"
    with open(path, "w") as fh:
        json.dump({"group": {"type": "z_window", "radius": 1},
                   "coeffs": [{"s": 1, "matrix": {"rows": 1, "cols": 1, "entries": [[c, 0.0]]}}]}, fh)
    run = subprocess.run([sys.executable, "-m", "lpalg", "witness", "--elements", path, "--epsilon", repr(0.3 * c)],
                         stdout=subprocess.PIPE, text=True)
    reports[k] = json.loads(run.stdout) if run.returncode == 0 else {}
unit = reports[0]["elements"][0]["roundtrip_error"] if reports[0] else None
ok = unit is not None
for k in (-40, 1023):
    report = reports[k]
    members = len(report.get("folner", {}).get("members", []))
    error = report["elements"][0]["roundtrip_error"] if report else None
    good = members == 21 and report.get("passed") is True and unit is not None and error == unit * 2.0**k
    print(f"gate 2^{k}: |F| {members} == 21, passed {report.get('passed')} and error {error} == 2^{k} * {unit}",
          "ok" if good else "FAILED")
    ok = ok and good
sys.exit(0 if ok else 1)
PY
    # a Folner budget at the bottom of the float range: 1e300 delta_1 at
    # epsilon 1e-300, where epsilon / (3 M) underflows to 0, must pass on
    # Z/3 (F = G, error and budget exactly 0.0) and be an input error that
    # names epsilon on Z, where no window meets it; a subnormal delta is an
    # input error of the Folner search alone
    echo "== Folner budgets at the bottom of the float range"
    PYTHONPATH=src python3 - "$out" <<'PY'
import json, subprocess, sys
def run(*argv):
    return subprocess.run([sys.executable, "-m", "lpalg", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
paths = {}
for name, group in (("z3", {"type": "cyclic", "n": 3}), ("z", {"type": "z_window", "radius": 1})):
    paths[name] = f"{sys.argv[1]}/delta1-1e300-{name}.json"
    with open(paths[name], "w") as fh:
        json.dump({"group": group, "coeffs": [{"s": 1, "matrix": {"rows": 1, "cols": 1, "entries": [[1e300, 0.0]]}}]}, fh)
finite = run("witness", "--elements", paths["z3"], "--epsilon", "1e-300")
report = json.loads(finite.stdout) if finite.returncode == 0 else {}
error = report["elements"][0]["roundtrip_error"] if report else None
ok = finite.returncode == 0 and report.get("passed") is True and error == 0.0
print(f"gate Z/3: exit {finite.returncode} == 0, passed {report.get('passed')} and error {error} == 0.0",
      "ok" if ok else "FAILED")
line = run("witness", "--elements", paths["z"], "--epsilon", "1e-300")
good = line.returncode == 2 and line.stderr.startswith("input error: ") and "epsilon" in line.stderr
print(f"gate Z: exit {line.returncode} == 2 with an input error that names epsilon [{line.stderr.strip()}]",
      "ok" if good else "FAILED")
ok = ok and good
search = run("folner", "--group", "z", "--shifts", "1", "--delta", "1e-320")
good = search.returncode == 2 and search.stderr.startswith("input error: ")
print(f"gate folner at delta 1e-320: exit {search.returncode} == 2 [{search.stderr.strip()}]", "ok" if good else "FAILED")
sys.exit(0 if ok and good else 1)
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
    # a size above a cap is an input error, refused before anything of its
    # size is allocated: an element file and a Folner search over Z/2^40,
    # above the cyclic order cap, and a rotation at n 200000, whose shift is
    # above the dense budget, each exit 2 under a 2 GB address-space limit,
    # where allocating what they ask for would end in a MemoryError
    echo "== sizes above a cap under a 2 GB address-space limit"
    echo '{"group": {"type": "cyclic", "n": 1099511627776}, "coeffs": [{"s": 1, "matrix": {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}}]}' \
        > "$out/cyclic40.json"
    local argv status err refused=0
    for argv in "crossed --elements $out/cyclic40.json" "folner --group cyclic:1099511627776 --shifts 1 --delta 0.1" \
        "rotation --n 200000 --k 1"; do
        status=0
        # $argv unquoted: each string is split into one command line
        (ulimit -v 2000000 && PYTHONPATH=src exec python3 -m lpalg $argv > /dev/null 2> "$out/refused.err") || status=$?
        err=$(cat "$out/refused.err")
        if [[ $status == 2 && $err == "input error: "* ]]; then
            echo "gate lpalg $argv: exit $status == 2 with an input error [$err] ok"
        else
            echo "gate lpalg $argv: exit $status == 2 with an input error [$err] FAILED"
            refused=1
        fi
    done
    [[ $refused == 0 ]]
}

# the two sizes of src/lpalg: every line (wc -l), and the code lines, those
# holding a token that is not a comment, a docstring or layout, of each
# module and in all; the public names of each module (the entries of its
# __all__) and their total, so that a name added or removed shows; then the
# options each subcommand of the command line accepts (--help aside), and
# their total
lines() {
    echo "== size of src/lpalg"
    wc -l src/lpalg/*.py | tail -n 1
    python3 - src/lpalg <<'PY'
import ast, io, sys, tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
counts, public = {}, {}
for path in sorted(Path(sys.argv[1]).glob("*.py")):
    src = path.read_text()
    tree = ast.parse(src)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            public[path.stem] = len(ast.literal_eval(node.value))
    docs = set()
    for node in ast.walk(tree):
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
print("public names per module:", ", ".join(f"{name} {n}" for name, n in public.items()),
      f"({sum(public.values())} in all; no __all__ in", ", ".join(sorted({p.stem for p in Path(sys.argv[1]).glob('*.py')} - set(public))) + ")")
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
criteria) criteria ;;
smoke) smoke "${2:?name a workload}" ;;
scale) scale ;;
lines) lines ;;
imports) imports ;;
all)
    tests
    suite
    criteria
    for workload in witness_line rotation_grid norm_stream; do smoke "$workload"; done
    scale
    lines
    imports
    echo "== all checks passed"
    ;;
*)
    echo "usage: $0 [tests | suite | criteria | smoke WORKLOAD | scale | lines | imports]" >&2
    exit 2
    ;;
esac
