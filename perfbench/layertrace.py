"""Per-layer tracing of lpalg, done from outside the package.

:class:`Tracer` replaces public functions of the ``lpalg`` modules with
timing wrappers.  A function imported into several modules with
``from .x import name`` is replaced in every module that holds it, so calls
made inside the package are seen as well.  Two kinds of wrapper exist:

* spans, for calls at a layer boundary: each call records
  ``(id, parent id, name, start, end)`` and adds its duration to the
  parent's child time, so self time = duration - time covered by children;
* hot counters, for the tiny calls made hundreds of thousands of times per
  operation (``IsometricAction.apply``, ``LinearMap.apply``): only a call
  count and a total time are kept, and they are not spans.

Work counts (matrix entries given to the estimator, blocks assembled, the
Folner size chosen, report bytes) are computed from the arguments and
results at the same boundaries.  Everything stays in memory until
:meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict

# (module, name) of every span; "Class.method" patches the class attribute.
SPANS = (
    ("lpalg.lpnorm", "pnorm_estimate"),
    ("lpalg.opspace", "cb_norm_lower"),
    ("lpalg.opspace", "apply_amplified"),
    ("lpalg.crossed", "CovariantRep.integrated"),
    ("lpalg.groups", "folner_search"),
    ("lpalg.nuclearity", "crossed_nuclearity_witness"),
    ("lpalg.nuclearity", "rotation_demo"),
    ("lpalg.nuclearity", "folner_phi"),
    ("lpalg.nuclearity", "folner_psi"),
    ("lpalg.nuclearity", "compose_factorizations"),
    ("lpalg.nuclearity", "measure_roundtrip"),
    ("lpalg.partition", "cx_phi_cb_certificate"),
    ("lpalg.partition", "cx_psi_cb_certificate"),
    ("lpalg.serialize", "canonical_json"),
)

HOT = (
    ("lpalg.crossed", "IsometricAction.apply"),
    ("lpalg.opspace", "LinearMap.apply"),
)

# The F-compression is applied through the LinearMap that folner_phi_map
# returns; its apply function is timed as the span "folner_phi".
PHI_MAP = ("lpalg.nuclearity", "folner_phi_map")

# Work counts; together with the call counts they must repeat exactly.
WORK_COUNTS = (
    "entries",
    "unconverged",
    "cb_estimates",
    "blocks",
    "rep_dim_max",
    "folner_size",
    "report_bytes",
)


def patch(modules: dict, modname: str, qualname: str, make_wrapper):
    """Replace ``modname.qualname`` by ``make_wrapper(qualname, original)``.

    A function is replaced in every loaded lpalg module that holds it, which
    covers copies made by ``from .x import name``; "Class.method" replaces
    the class attribute and its aliases.  The replacement lasts for the rest
    of the process.
    """
    module = modules[modname]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        wrapper = make_wrapper(qualname, original)
        # aliases such as LinearMap.__call__ = apply share the function
        for key, value in list(cls.__dict__.items()):
            if value is original:
                setattr(cls, key, wrapper)
        return
    original = getattr(module, qualname)
    wrapper = make_wrapper(qualname, original)
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("lpalg"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Spans, self times, hot-call counters and work counts for one run.

    ``clock()`` gives the time that spans are measured in.
    """

    def __init__(self, clock):
        self.clock = clock
        self.enabled = True
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.recert_s = 0.0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._open: Counter = Counter()
        self._next_id = 0

    # -- installing ---------------------------------------------------------

    def install(self, modules: dict) -> "Tracer":
        """Wrap every traced name; ``modules`` maps "lpalg.x" to the module."""
        for modname, qualname in SPANS:
            patch(modules, modname, qualname, self._span_wrapper)
        for modname, qualname in HOT:
            patch(modules, modname, qualname, self._hot_wrapper)
        patch(modules, *PHI_MAP, self._phi_map_wrapper)
        return self

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._before(name, args)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, name, tracer.clock(), 0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer._open[name] -= 1
                duration = end - frame[2]
                tracer.spans.append((sid, parent, name, frame[2], end))
                tracer.calls[name] += 1
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[3]
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                if name == "cb_norm_lower" and tracer._open["compose_factorizations"]:
                    tracer.recert_s += duration
            tracer._after(name, args, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = tracer.clock()
            result = fn(*args, **kwargs)
            tracer.total[name] += tracer.clock() - start
            tracer.calls[name] += 1
            return result

        return wrapper

    def _phi_map_wrapper(self, name, fn):
        span = self._span_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phi = fn(*args, **kwargs)
            phi._apply_fn = span("folner_phi", phi._apply_fn)
            return phi

        return wrapper

    # -- work counts --------------------------------------------------------

    def _before(self, name, args):
        if name == "pnorm_estimate":
            shape = getattr(args[0], "shape", None)
            if shape is not None and len(shape) == 2:
                self.counts["entries"] += int(shape[0]) * int(shape[1])
            if self._open["cb_norm_lower"]:
                self.counts["cb_estimates"] += 1
        elif name == "CovariantRep.integrated":
            rep, f = args[0], args[1]
            self.counts["blocks"] += len(f.support) * len(rep.positions)
            self.counts["rep_dim_max"] = max(self.counts["rep_dim_max"], rep.dimension)

    def _after(self, name, args, result):
        if name == "pnorm_estimate":
            if not result.converged:
                self.counts["unconverged"] += 1
        elif name == "folner_search":
            self.counts["folner_size"] += result.size
        elif name == "canonical_json":
            self.counts["report_bytes"] += len(result)

    # -- results ------------------------------------------------------------

    def work_vector(self) -> dict:
        """Every call count and work count; these repeat exactly per round."""
        out = {f"calls.{k}": int(v) for k, v in sorted(self.calls.items())}
        out.update({f"work.{k}": int(self.counts[k]) for k in WORK_COUNTS})
        return out

    def layer_metrics(self, ops: int, time_scale: float) -> dict:
        """Per-operation layer metrics as (value, unit) pairs.

        Times are multiplied by ``time_scale``, the run's ratio of reference
        seconds to raw seconds (see :mod:`hostspeed`).
        """
        c, t, s = self.calls, self.total, self.self_time
        searches = c["folner_search"]
        rows = {
            "lpnorm.estimate_calls": (c["pnorm_estimate"] / ops, "count"),
            "lpnorm.estimate_s": (t["pnorm_estimate"] / ops, "s"),
            "lpnorm.estimate_entries": (self.counts["entries"] / ops, "count"),
            "lpnorm.unconverged": (self.counts["unconverged"] / ops, "count"),
            "opspace.cb_calls": (c["cb_norm_lower"] / ops, "count"),
            "opspace.cb_self_s": (s["cb_norm_lower"] / ops, "s"),
            "opspace.cb_estimates": (self.counts["cb_estimates"] / ops, "count"),
            "opspace.amplify_self_s": (s["apply_amplified"] / ops, "s"),
            "opspace.map_apply_calls": (c["LinearMap.apply"] / ops, "count"),
            "crossed.integrated_calls": (c["CovariantRep.integrated"] / ops, "count"),
            "crossed.integrated_self_s": (s["CovariantRep.integrated"] / ops, "s"),
            "crossed.integrated_blocks": (self.counts["blocks"] / ops, "count"),
            "crossed.action_apply_calls": (c["IsometricAction.apply"] / ops, "count"),
            "crossed.action_apply_s": (t["IsometricAction.apply"] / ops, "s"),
            "crossed.rep_dim_max": (self.counts["rep_dim_max"], "count"),
            "groups.folner_size": (self.counts["folner_size"] / searches if searches else 0.0, "count"),
            "groups.folner_s": (t["folner_search"] / ops, "s"),
            "nuclearity.witness_s": (t["crossed_nuclearity_witness"] / ops, "s"),
            "nuclearity.folner_phi_self_s": (s["folner_phi"] / ops, "s"),
            "nuclearity.folner_psi_calls": (c["folner_psi"] / ops, "count"),
            "nuclearity.folner_psi_self_s": (s["folner_psi"] / ops, "s"),
            "nuclearity.compose_s": (t["compose_factorizations"] / ops, "s"),
            "nuclearity.recert_s": (self.recert_s / ops, "s"),
            "nuclearity.roundtrip_s": (t["measure_roundtrip"] / ops, "s"),
            "partition.cert_s": (
                (t["cx_phi_cb_certificate"] + t["cx_psi_cb_certificate"]) / ops,
                "s",
            ),
            "serialize.json_s": (t["canonical_json"] / ops, "s"),
            "serialize.report_bytes": (self.counts["report_bytes"] / ops, "count"),
        }
        return {name: (value * time_scale if unit == "s" else value, unit)
                for name, (value, unit) in rows.items()}

    def dump(self, path, extra: dict):
        """Write the summary, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            summary = {
                **extra,
                "calls": dict(self.calls),
                "total_s": dict(self.total),
                "self_s": dict(self.self_time),
                "counts": dict(self.counts),
                "recert_s": self.recert_s,
                "span_fields": ["id", "parent", "name", "start", "end"],
            }
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
