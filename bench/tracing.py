"""Per-layer tracing from outside the program.

A Tracer replaces chosen functions and methods of the qtop modules with
timing wrappers, and patches each wrapper into every qtop module that
imported the same object, so calls are seen whichever module makes them.
Coarse boundaries (rt_closed, rho, twist_search, ...) record spans: name,
start, end, parent span and the benchmark operation they belong to.
Hot calls (ring and matrix products) are aggregated into call counts,
wall time and self time, which is wall time minus the time of wrapped
calls made inside.  Two very hot calls (CycElem.is_zero and
FiniteGroupTable.mul) are only counted; their time stays in the caller's
self time.  Spans and totals live in memory until the run writes them
out.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import sys
from time import perf_counter

SPAN, AGG, COUNT = "span", "agg", "count"

# (module, attribute path, key, kind)
TARGETS = (
    ("cyclotomic", "CycElem.__mul__", "cyclotomic.mul", AGG),
    ("cyclotomic", "CycElem.__rmul__", "cyclotomic.mul", AGG),
    ("cyclotomic", "CycElem.__add__", "cyclotomic.add", AGG),
    ("cyclotomic", "CycElem.__radd__", "cyclotomic.add", AGG),
    ("cyclotomic", "CycElem.is_zero", "cyclotomic.is_zero", COUNT),
    ("cyclotomic", "CycElem.inv", "cyclotomic.inv", AGG),
    ("cyclotomic", "CycElem.exact_div", "cyclotomic.exact_div", AGG),
    ("cyclotomic", "ResidueSpec.for_primes", "cyclotomic.residue_spec", AGG),
    ("cyclotomic", "ResidueSpec.reduce", "cyclotomic.reduce", AGG),
    ("cyclotomic", "CycIdeal.from_generators", "cyclotomic.ideal", AGG),
    ("cyclotomic", "CycIdeal.contains", "cyclotomic.ideal", AGG),
    ("cyclotomic", "CycIdeal.leq", "cyclotomic.ideal", AGG),
    ("cyclotomic", "CycIdeal.index", "cyclotomic.ideal", AGG),
    ("cyclotomic", "CycIdeal.is_full", "cyclotomic.ideal", AGG),
    ("skein", "theta", "skein.theta", AGG),
    ("skein", "tet", "skein.tet", AGG),
    ("pmatrix", "PMatrix.__mul__", "pmatrix.mul", AGG),
    ("pmatrix", "PMatrix.reduce", "pmatrix.reduce", AGG),
    ("linalg", "hnf", "linalg.hnf", AGG),
    ("linalg", "snf_diagonal", "linalg.snf", AGG),
    ("linalg", "fq_rref", "linalg.fq_rref", AGG),
    ("linalg", "ring_inverse", "linalg.ring_inverse", AGG),
    ("linalg", "bareiss_det", "linalg.bareiss_det", AGG),
    ("rep", "_twist_conjugators", "rep.conjugators", SPAN),
    ("rep", "rho", "rep.rho", SPAN),
    ("rep", "rho_mod", "rep.rho_mod", SPAN),
    ("rep", "fq_mat_mul", "rep.fq_mat_mul", AGG),
    ("mcg", "word_in_subgroup", "mcg.word_in_subgroup", AGG),
    ("mcg", "h1_action", "mcg.h1_action", AGG),
    ("mcg", "pi1_action", "mcg.pi1_action", AGG),
    ("manifolds", "rt_closed", "manifolds.rt_closed", SPAN),
    ("manifolds", "homology_of", "manifolds.homology", SPAN),
    ("manifolds", "hom_count", "manifolds.hom_count", SPAN),
    ("manifolds", "dw_invariant", "manifolds.dw_invariant", SPAN),
    ("groups", "FiniteGroupTable.mul", "groups.mul", COUNT),
    ("obstruct", "fkb_ideal_closed", "obstruct.fkb_ideal_closed", SPAN),
    ("obstruct", "twist_search", "obstruct.twist_search", SPAN),
    ("obstruct", "obstruct_embedding", "obstruct.obstruct_embedding", SPAN),
    ("obstruct", "rederive_report", "obstruct.rederive", SPAN),
    ("walks", "default_subgroup_walk", "walks.default_subgroup_walk", SPAN),
    ("walks", "montecarlo_vanishing", "walks.montecarlo", SPAN),
)

# lru caches whose hit ratios are reported: metric -> [(module, function)]
CACHES = {
    "rep.letter_cache.hit_ratio": [("rep", "_letter_matrix")],
    "rep.letter_mod_cache.hit_ratio": [("rep", "_letter_matrix_mod")],
    "skein.cache_hit_ratio": [
        ("skein", name)
        for name in (
            "colors", "spectral_color_order", "quantum_integer", "quantum_factorial",
            "_qfact_inv", "quantum_dim", "twist", "theta", "_theta_inv", "tet", "sixj",
            "t_matrix", "s_matrix", "kappa",
        )
    ],
}


def _count_fq_mul(tracer, args, out):
    n = len(args[0])
    tracer.counts["rep.fq_mat_mul.madds"] += n ** 3


def _count_search(tracer, args, out):
    tracer.counts["obstruct.search.samples"] += out.samples


def _count_walk(tracer, args, out):
    steps = out.trials * out.walk_length
    tracer.counts["walks.trial_steps"] += steps
    tracer.counts["walks.kernel.madds"] += steps * out.space_dim ** 3


POST = {
    "rep.fq_mat_mul": _count_fq_mul,
    "obstruct.twist_search": _count_search,
    "walks.montecarlo": _count_walk,
}


class Tracer:
    """Installs the wrappers on `modules` (name -> module) until stop()."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.totals: dict[str, list] = {}  # key -> [calls, wall_s, self_s, depth]
        self.counts = {
            "rep.fq_mat_mul.madds": 0,
            "obstruct.search.samples": 0,
            "walks.trial_steps": 0,
            "walks.kernel.madds": 0,
        }
        self.spans: list[tuple] = []  # (id, parent, name, op, start, end)
        self.op = None  # index of the benchmark operation in progress
        self._stack = [[0.0, None]]  # per active call: [child time, span id]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []
        self._cache_start = {
            metric: [self._cache_info(m, f) for m, f in funcs] for metric, funcs in CACHES.items()
        }
        for mod, path, key, kind in TARGETS:
            self._install(mod, path, key, kind)

    def _cache_info(self, mod, name):
        info = getattr(self.modules[mod], name).cache_info()
        return info.hits, info.misses

    def _install(self, mod, path, key, kind):
        owner = self.modules[mod]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if outer:
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(fn, key, kind)
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        fn = getattr(owner, attr)
        wrapper = self._wrap(fn, key, kind)
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, name, fn))
                    setattr(module, name, wrapper)

    def _wrap(self, fn, key, kind):
        rec = self.totals.setdefault(key, [0, 0.0, 0.0, 0])
        if kind == COUNT:
            def counted(*args, **kwargs):
                rec[0] += 1
                return fn(*args, **kwargs)

            return counted
        stack, spans, post, ids = self._stack, self.spans, POST.get(key), self._ids
        is_span = kind == SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if is_span else parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            rec[3] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[3] -= 1
                dt = t1 - t0
                rec[0] += 1
                rec[2] += dt - frame[0]
                if rec[3] == 0:
                    rec[1] += dt
                parent[0] += dt
                if is_span:
                    spans.append((sid, parent[1], key, self.op, t0, t1))
            if post is not None:
                post(self, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself (set-up, one operation)."""
        self.op = op
        parent = self._stack[-1]
        sid = next(self._ids)
        frame = [0.0, sid]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            parent[0] += t1 - t0
            self.spans.append((sid, parent[1], name, op, t0, t1))
            self.op = None

    def spans_json(self) -> list[dict]:
        fields = ("id", "parent", "name", "op", "start", "end")
        return [dict(zip(fields, span)) for span in self.spans]

    def stop(self):
        """Restore every patched attribute; the totals stay readable."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self._cache_end = {
            metric: [self._cache_info(m, f) for m, f in funcs]
            for metric, funcs in CACHES.items()
        }

    def metrics(self) -> dict[str, float]:
        """Every per-layer value this tracer can give, by metric name."""
        out: dict[str, float] = {}
        for key, (calls, wall, self_s, _depth) in self.totals.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.wall_s"] = wall
            out[f"{key}.self_s"] = self_s
        out.update(self.counts)
        for metric in CACHES:
            hits = misses = 0
            for (h0, m0), (h1, m1) in zip(self._cache_start[metric], self._cache_end[metric]):
                hits += h1 - h0
                misses += m1 - m0
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        return out


def qtop_modules() -> dict:
    """The loaded qtop modules by short name (the layers), and the package."""
    prefix = "qtop."
    modules = {
        name[len(prefix):]: module
        for name, module in sys.modules.items()
        if name.startswith(prefix) and module is not None
    }
    modules["qtop"] = sys.modules["qtop"]
    return modules
