"""Span and counter recorder for the traced benchmark run.

The recorder wraps public functions and operator methods of each gwp1 layer
from the outside; no source under ``src/`` knows about it.  Spans are kept in
flat arrays while the pass runs and written out when it ends.  Each span has a
name, a start, an end, its parent span and the op id that was running; a
layer's self time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

# metric key -> the callables recorded under it, as (module, attribute) for
# functions and (module, class, attribute) for methods.  Operator aliases such
# as ``__radd__ = __add__`` are patched separately, since Python looks the
# reflected name up on its own.
WRAPPED = {
    "ring.poly_mul": [("gwp1.ring.poly", "MultiPoly", "__mul__"),
                      ("gwp1.ring.poly", "MultiPoly", "__rmul__")],
    "ring.poly_add": [("gwp1.ring.poly", "MultiPoly", "__add__"),
                      ("gwp1.ring.poly", "MultiPoly", "__radd__")],
    "ring.poly_subs": [("gwp1.ring.poly", "MultiPoly", "subs_poly"),
                       ("gwp1.ring.poly", "MultiPoly", "subs_shift")],
    "ring.series_mul": [("gwp1.ring.series", "MultiSeries", "__mul__")],
    "ring.series_other": [("gwp1.ring.series", "MultiSeries", name) for name in (
        "__add__", "__sub__", "__neg__", "__pow__", "scale", "shift", "inverse",
        "mul_monomial", "truncate", "map_coefficients")],
    "ring.ratfun": [("gwp1.ring.ratfun", "FactoredRatFun", name)
                    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "reduce")],
    "resolvent.closed_form": [("gwp1.resolvent", "closed_form_M")],
    "resolvent.recursion": [("gwp1.resolvent", "recursion_resolvent")],
    "resolvent.cross_check": [("gwp1.resolvent", "cross_check_routes")],
    "resolvent.residuals": [("gwp1.resolvent", "scalar_difference_residual"),
                            ("gwp1.resolvent", "matrix_difference_residual"),
                            ("gwp1.resolvent", "ResolventSeries", "det_series"),
                            ("gwp1.resolvent", "WFormalSeries", "det_residual"),
                            ("gwp1.resolvent", "WFormalSeries", "shift_residuals")],
    "resolvent.difference_eq": [("gwp1.resolvent", "alpha_from_difference_equation")],
    "resolvent.formal_W": [("gwp1.resolvent", "formal_W")],
    "correlators.extract": [("gwp1.correlators", "extract_invariant")],
    "correlators.polar_coeff": [("gwp1.correlators", "f_k_polar_coefficient")],
    "correlators.fk_series": [("gwp1.correlators", "f_k_series")],
    "correlators.substitute": [("gwp1.correlators", "substitute_shifted")],
    "correlators.one_point": [("gwp1.correlators", "one_point_series")],
    "correlators.one_point_oracles": [("gwp1.correlators", "one_point_series_oracle"),
                                      ("gwp1.correlators", "one_point_qseries_oracle"),
                                      ("gwp1.correlators", "one_point_digamma_form")],
    "analytic.hyper_G": [("gwp1.analytic", "hyper_G")],
    "analytic.hyper_Gt": [("gwp1.analytic", "hyper_Gt")],
    "analytic.bessel": [("gwp1.analytic", "bessel_j_mod")],
    "analytic.matrix_B": [("gwp1.analytic", "matrix_B")],
    "analytic.kernel_D": [("gwp1.analytic", "kernel_D"), ("gwp1.analytic", "kernel_Dstar")],
    "analytic.h_k": [("gwp1.analytic", "h_k"), ("gwp1.analytic", "h_2_difference_form")],
    "analytic.h_1": [("gwp1.analytic", "h_1"), ("gwp1.analytic", "h_1_star")],
    "asymptotics.expand": [("gwp1.asymptotics", "expand_q0"),
                           ("gwp1.asymptotics", "expand_eps_inf"),
                           ("gwp1.asymptotics", "eps0_series_coefficients")],
    "asymptotics.table_entry": [("gwp1.asymptotics", "q0_table_entry"),
                                ("gwp1.asymptotics", "einf_table_entry")],
    "asymptotics.consistency": [("gwp1.asymptotics", "q0_einf_consistency"),
                                ("gwp1.asymptotics", "eps0_q0_bridge")],
    "exprtree.box_series": [("gwp1.exprtree", "eval_box_series")],
    "exprtree.numeric": [("gwp1.exprtree", "eval_numeric")],
}

# series evaluations whose first argument is the PrecisionContext: their
# working bits are summed into analytic.working_bits.sum
_BITS_KEYS = {"analytic.hyper_G", "analytic.hyper_Gt", "analytic.bessel",
              "analytic.kernel_D", "analytic.h_1"}

JOB_SPAN = "cli.job"

# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = (
    [("ring.poly_mul.calls", "count", "lower"), ("ring.poly_mul.self_s", "s", "lower"),
     ("ring.poly_mul.term_pairs", "count", "lower"),
     ("ring.poly_add.calls", "count", "lower"), ("ring.poly_add.self_s", "s", "lower"),
     ("ring.poly_subs.calls", "count", "lower"), ("ring.poly_subs.self_s", "s", "lower"),
     ("ring.series_mul.calls", "count", "lower"), ("ring.series_mul.self_s", "s", "lower"),
     ("ring.series_other.self_s", "s", "lower"),
     ("ring.ratfun.calls", "count", "lower"), ("ring.ratfun.self_s", "s", "lower")]
    + [(f"{k}.{m}", u, "lower")
       for k in WRAPPED if not k.startswith("ring.")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("correlators.entries_memo.hits", "count", "higher"),
       ("correlators.entries_memo.misses", "count", "lower"),
       ("analytic.working_bits.sum", "bits", "lower"),
       ("cli.job.self_s", "s", "lower"),
       ("cli.cache.hits", "count", "higher"), ("cli.cache.misses", "count", "lower"),
       ("cli.cache.hit_ratio", "ratio", "higher"),
       ("cli.cache.bytes_written", "bytes", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


class Recorder:
    """In-memory span store plus named counters; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, fn, metric: str):
        nid = self.name_id(metric)
        hook = _HOOKS.get(metric)
        rec = self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(rec, args)
            sid = rec._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(sid)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", metric)
        return traced

    def install(self):
        """Wrap every entry of WRAPPED in every loaded gwp1 module namespace
        that holds it (``from x import f`` copies the name, so patching the
        defining module alone would miss those callers)."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "gwp1" or n.startswith("gwp1.")]
        for metric, targets in WRAPPED.items():
            for target in targets:
                owner = sys.modules.get(target[0])
                if owner is None:
                    continue
                if len(target) == 3:
                    cls = getattr(owner, target[1])
                    orig = cls.__dict__[target[2]]
                    self._set(cls, target[2], self._wrap(orig, metric), orig)
                    continue
                orig = getattr(owner, target[1])
                wrapped = self._wrap(orig, metric)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped, orig)
        cli = sys.modules.get("gwp1.cli")
        if cli is not None:
            orig_write = cli._cache_write
            rec = self

            def counted_write(cache_dir, key, payload):
                orig_write(cache_dir, key, payload)
                rec.count("cli.cache.bytes_written",
                          os.path.getsize(os.path.join(cache_dir, key + ".json")))

            self._set(cli, "_cache_write", counted_write, orig_write)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path: str):
        """Spans as one JSON object: the span names, and one list per column
        (name id, start, end, parent span, op id)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "parent": self.parent.tolist(), "op": self.op.tolist()}, fh)


def _poly_mul_hook(rec, args):
    a, b = args[0], args[1]
    nb = len(b.terms) if hasattr(b, "terms") else 1
    rec.count("ring.poly_mul.term_pairs", len(a.terms) * nb)


def _bits_hook(rec, args):
    rec.count("analytic.working_bits.sum", args[0].bits)


_HOOKS = {"ring.poly_mul": _poly_mul_hook, **{k: _bits_hook for k in _BITS_KEYS}}


def self_times(rec: Recorder):
    """Per-span self time: duration minus the durations of direct children.

    Children of one span never overlap (one thread), so the sum of their
    durations is the part of the parent's interval they cover."""
    n = len(rec.start)
    own = array("d", (rec.end[i] - rec.start[i] for i in range(n)))
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            own[p] -= rec.end[i] - rec.start[i]
    return own


def layer_metrics(rec: Recorder, memo_delta: tuple[int, int]) -> dict:
    """Aggregate spans and counters into the PER_LAYER metric values."""
    own = self_times(rec)
    calls = {name: 0 for name in rec.names}
    selfs = {name: 0.0 for name in rec.names}
    job_nid = rec._name_ids.get(JOB_SPAN)
    has_child = set()
    for i in range(len(own)):
        name = rec.names[rec.name[i]]
        calls[name] += 1
        selfs[name] += own[i]
        p = rec.parent[i]
        if p >= 0 and rec.name[p] == job_nid:
            has_child.add(p)
    out = {}
    for metric, _unit, _better in PER_LAYER:
        key, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls.get(key, 0)
        elif field == "self_s":
            out[metric] = selfs.get(key, 0.0)
        else:
            out[metric] = rec.counters.get(metric, 0)
    jobs = calls.get(JOB_SPAN, 0)
    misses = len(has_child)
    out["cli.cache.hits"] = jobs - misses
    out["cli.cache.misses"] = misses
    out["cli.cache.hit_ratio"] = (jobs - misses) / jobs if jobs else 0.0
    out["correlators.entries_memo.hits"], out["correlators.entries_memo.misses"] = memo_delta
    return out


def memo_counts() -> tuple[int, int]:
    """(hits, misses) summed over the two lru_cache entry maps of correlators."""
    mod = sys.modules.get("gwp1.correlators")
    if mod is None:
        return (0, 0)
    infos = [mod._m_entries_in_lambda.cache_info(), mod._m_entries_x_capped.cache_info()]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos))


def read_spans(path: str) -> dict:
    """Inverse of Recorder.write, for inspecting a span file."""
    with open(path) as fh:
        return json.load(fh)
