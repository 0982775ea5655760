"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces every public function in the ``quatalg``
module namespaces with a wrapper that records a span (name, start, end,
parent span, job id). Functions imported by name into another module
(``drazin`` takes ``cdet`` and ``rdet`` from ``ncdet``) are replaced there
too, by the same wrapper, so a call is recorded whichever namespace it
goes through. ``QMatrix.__mul__`` and ``QMatrix.from_json`` are traced as
spans as well; ``QMatrix.principal`` and the quaternion ``*``, ``+`` and
``-`` only bump counters. ``uninstall`` puts every original back.

Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
figures and ``dump`` writes them out once a run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from statistics import median
from typing import Dict, List

import quatalg
from quatalg import cli, cramer, drazin, ncdet, oracle, qmat, quat

MODULES = (quatalg, cli, cramer, drazin, ncdet, oracle, qmat, quat)

DETS = ("ncdet.rdet", "ncdet.cdet")
SOLVES = ("cramer.solve_ax", "cramer.solve_xa", "cramer.solve_axb")
BORDERED = ("drazin.bordered_cdet_sum", "drazin.bordered_rdet_sum")
MAX_ORDER = 8

# name, start, end, parent index (-1 for a root), job id, tag. The tag is
# the matrix order for rdet/cdet and "zero" for a herm_det that returned 0.
Span = tuple


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: List[int] = []
        self._saved: list = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, tag_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tag = tag_of(args, result) if tag_of else None
                spans[index] = (name, start, end, parent, self.job, tag)

        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _matmul(self, fn):
        traced = self._span("qmat.matmul", fn)

        def mul(self_, other):
            if isinstance(other, qmat.QMatrix):
                return traced(self_, other)
            return fn(self_, other)

        return mul

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the program's public functions and counted methods."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in MODULES:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("quatalg.")):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._span(name, obj, _TAGS.get(name))
                self._set(module, attr, wrappers[obj])
        qm, q = qmat.QMatrix, quat.Quaternion
        self._set(qm, "__mul__", self._matmul(qm.__dict__["__mul__"]))
        self._set(qm, "principal", self._counter("qmat.principal", qm.__dict__["principal"]))
        from_json = qm.__dict__["from_json"].__func__
        self._set(qm, "from_json", classmethod(self._span("qmat.from_json", from_json)))
        self._set(q, "__mul__", self._counter("quat.mul", q.__dict__["__mul__"]))
        for attr in ("__add__", "__radd__", "__sub__"):
            self._set(q, attr, self._counter("quat.addsub", q.__dict__[attr]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _det_order(args, result):
    return args[0].rows


def _herm_zero(args, result):
    return "zero" if result == 0 else None


_TAGS = {"ncdet.rdet": _det_order, "ncdet.cdet": _det_order,
         "ncdet.herm_det": _herm_zero}


# -- reduction to per-layer metrics --------------------------------------------

def layer_metrics(spans: List[Span], counts: Counter, commands: Dict[int, str],
                  wall: float) -> Dict[str, float]:
    """Per-layer figures for one traced pass.

    ``commands`` maps job id to CLI command; ``wall`` is the pass's traced
    wall time in seconds. Times are in ms and inclusive unless named self.
    """
    n = len(spans)
    child_time = [0.0] * n
    det_child_time = [0.0] * n
    under_solve = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent < 0:
            continue
        child_time[parent] += end - start
        if name in DETS:
            det_child_time[parent] += end - start
        under_solve[i] = under_solve[parent] or spans[parent][0] in SOLVES

    m: Dict[str, float] = {}
    calls: Counter = Counter()
    ms: Counter = Counter()
    self_ms: Counter = Counter()
    total_self = bordered_self = solve_self = 0.0
    det_by_order_calls = Counter()
    det_by_order_ms = Counter()
    herm_zero = nested_drazin = meta_dets = 0
    for i, (name, start, end, parent, job, tag) in enumerate(spans):
        dur = (end - start) * 1e3
        calls[name] += 1
        ms[name] += dur
        own = dur - child_time[i] * 1e3
        total_self += own
        self_ms[name.split(".", 1)[0]] += own
        if name in SOLVES:
            solve_self += own
        if name in DETS:
            det_by_order_calls[tag] += 1
            det_by_order_ms[tag] += dur
            if not under_solve[i] and commands.get(job, "").startswith("solve-"):
                meta_dets += 1
        elif name in BORDERED:
            bordered_self += dur - det_child_time[i] * 1e3
        elif name == "ncdet.herm_det" and tag == "zero":
            herm_zero += 1
        elif name == "drazin.drazin_inverse" and under_solve[i]:
            nested_drazin += 1

    for order in range(1, MAX_ORDER + 1):
        m[f"ncdet.det_calls.o{order}"] = det_by_order_calls[order]
        m[f"ncdet.det_ms.o{order}"] = det_by_order_ms[order]
    m["ncdet.det_calls"] = sum(det_by_order_calls.values())
    m["ncdet.det_ms"] = sum(det_by_order_ms.values())
    herm_calls = calls["ncdet.herm_det"]
    m["ncdet.herm_det_calls"] = herm_calls
    m["ncdet.herm_det_zero_frac"] = herm_zero / herm_calls if herm_calls else 0.0
    m["ncdet.rank_calls"] = calls["ncdet.rank_by_minors"]
    m["ncdet.rank_ms"] = ms["ncdet.rank_by_minors"]
    m["ncdet.minor_sum_calls"] = calls["ncdet.principal_minor_sum"]
    m["ncdet.minor_sum_ms"] = ms["ncdet.principal_minor_sum"]
    m["drazin.bordered_calls"] = sum(calls[b] for b in BORDERED)
    m["drazin.bordered_ms"] = sum(ms[b] for b in BORDERED)
    m["drazin.bordered_self_ms"] = bordered_self
    m["drazin.inverse_calls"] = calls["drazin.drazin_inverse"]
    m["drazin.inverse_ms"] = ms["drazin.drazin_inverse"]
    m["cramer.solve_calls"] = sum(calls[s] for s in SOLVES)
    m["cramer.solve_self_ms"] = solve_self
    m["cramer.nested_drazin_calls"] = nested_drazin
    m["cli.self_ms"] = self_ms["cli"]
    m["cli.render_ms"] = ms["cli.render"]
    m["cli.meta_det_calls"] = meta_dets
    m["qmat.matmul_calls"] = calls["qmat.matmul"]
    m["qmat.matmul_ms"] = ms["qmat.matmul"]
    m["qmat.principal_calls"] = counts["qmat.principal"]
    m["qmat.from_json_ms"] = ms["qmat.from_json"]
    m["quat.mul_calls"] = counts["quat.mul"]
    m["quat.addsub_calls"] = counts["quat.addsub"]
    m["oracle.verify_calls"] = calls["oracle.verify_drazin_axioms"]
    m["oracle.verify_ms"] = ms["oracle.verify_drazin_axioms"]
    m["trace.self_coverage"] = total_self / (wall * 1e3)
    return m


def is_count(name: str) -> bool:
    """Count metrics repeat exactly for a seed; time metrics do not."""
    return not name.startswith("trace.") and ("_calls" in name or name.endswith("_frac"))


def combine(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Counts from the first traced pass, times as the median over passes."""
    return {name: passes[0][name] if is_count(name)
            else median(p[name] for p in passes)
            for name in passes[0]}


def unit(name: str) -> str:
    if "_calls" in name:
        return "count"
    return "ms" if "_ms" in name else "ratio"


def dump(tracers: List[Tracer], path: str):
    """Write every span as a JSON line: pass, name, start, end, parent, job,
    tag. Parent indices count from the first span of the same pass."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, tracer in enumerate(tracers):
            for span in tracer.spans:
                handle.write(json.dumps([number, *span]) + "\n")
