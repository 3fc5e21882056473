"""Span tracer that wraps qpendulum's public functions at module boundaries.

Callers import with ``from .x import y``, so wrapping the defining
module alone would miss most calls. ``Tracer.install`` therefore
replaces every reference to a traced function in every loaded
``qpendulum`` namespace (the package, the defining module and each
importing module) with one wrapper. Calls into scipy/numpy eigensolvers
are wrapped the same way and counted when made inside a ``mathieu`` span.

A span is (name, start, end, parent); spans live in flat in-memory
lists and are written out by ``write_spans`` once the passes are over.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import OrderedDict
from pathlib import Path
from time import perf_counter

import numpy as np

# Traced functions per layer. A name a later version drops is skipped.
LAYERS = {
    "mathieu": ("characteristic_value", "a_value", "b_value", "ce_series",
                "se_series", "spectral_level", "fourier_coefficients"),
    "symmetry": ("sweep_characteristics", "pair_gap", "find_boundary",
                 "calibrate_epsilon", "classify_region"),
    "torsion": ("modulation_schedule",),
    "states": ("build_state", "velocity_expect", "velocity_sq_expect", "density",
               "density_maxima", "density_minima", "jump_at_boundary"),
    "series": ("inner_product", "series_derivative", "multiply_by_cos",
               "multiply_by_sin", "multiply_by_cos2phi", "eval_series"),
    "uncertainty": ("angular_moments", "local_variance_inequality"),
    "classical": ("trajectory",),
    "report": ("write_csv",),
}
SERIES_METHODS = ("__add__", "__sub__", "__mul__", "__rmul__", "conj", "norm")
EIGENSOLVERS = {
    "numpy.linalg": ("eig", "eigh", "eigvals", "eigvalsh"),
    "scipy.linalg": ("eig", "eigh", "eigvals", "eigvalsh", "eigh_tridiagonal",
                     "eigvalsh_tridiagonal", "eig_banded", "eigvals_banded"),
}
EIG = "eig"  # pseudo-layer of eigensolver spans
_LAYER_ID = {name: i for i, name in enumerate((*LAYERS, EIG, "other"))}
SOLVE_CACHE_SIZE = 16384  # maxsize of qpendulum.mathieu._solve's LRU cache

# Cache key (family, order, barrier) of each traced mathieu entry point.
_CE = ("a_value", "ce_series")
_SE = ("b_value", "se_series")


def _mathieu_key(name):
    if name in _CE or name in _SE:
        tag = "ce" if name in _CE else "se"
        return lambda a, k: (tag, int(a[0]), float(a[1]))
    return lambda a, k: ("ce" if a[0].is_cosine else "se", int(a[1]), float(a[2]))


def _eig_size(a, k):
    return int(np.shape(a[0])[-1]) if a else 0


def _safe(extract, args, kwargs):
    """An attribute of the call, or None when the arguments do not fit."""
    try:
        return extract(args, kwargs)
    except (IndexError, AttributeError, TypeError, ValueError, OSError):
        return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[int] = []  # layer id of each name
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_t0: list[float] = []
        self.span_t1: list[float] = []
        self.attrs: dict[int, object] = {}
        self.stack = [-1]

    def _wrap(self, fn, name, layer, attr=None, post=None):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(_LAYER_ID[layer])
        names, parents = self.span_name, self.span_parent
        t0s, t1s, attrs, stack = self.span_t0, self.span_t1, self.attrs, self.stack

        def wrapper(*args, **kwargs):
            idx = len(names)
            if attr is not None:
                attrs[idx] = _safe(attr, args, kwargs)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
                if post is not None:
                    attrs[idx] = _safe(post, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every traced function in every loaded qpendulum namespace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qpendulum" or n.startswith("qpendulum.")]
        wrappers = {}
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"qpendulum.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                attr = post = None
                if layer == "mathieu":
                    attr = _mathieu_key(name)
                elif name == "eval_series":
                    attr = lambda a, k: int(np.size(a[1])) * a[0].n_harmonics
                elif name == "trajectory":
                    attr = lambda a, k: int(np.size(a[1]))
                elif name == "write_csv":
                    post = lambda a, k: os.path.getsize(a[0])
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer, attr, post)
        for mod_name, names in EIGENSOLVERS.items():
            mod = sys.modules.get(mod_name) or __import__(mod_name, fromlist=["_"])
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, f"{mod_name}.{name}", EIG,
                                                  _eig_size)
                if fn is not None:
                    setattr(mod, name, wrappers[id(fn)])
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    setattr(mod, key, wrappers[id(value)])
        series_cls = getattr(sys.modules.get("qpendulum.series"), "TrigSeries", None)
        for name in SERIES_METHODS:
            fn = vars(series_cls).get(name) if series_cls else None
            if fn is not None:
                setattr(series_cls, name,
                        self._wrap(fn, f"series.TrigSeries.{name}", "series"))

    def mark(self) -> int:
        """Index of the next span; spans before it belong to earlier passes."""
        return len(self.span_name)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (nid, t0, t1, parent) in enumerate(zip(
                    self.span_name, self.span_t0, self.span_t1, self.span_parent)):
                fh.write(f"{i},{self.names[nid]},{t0!r},{t1!r},{parent}\n")

    def metrics(self, cold_end: int) -> dict:
        """Per-layer metrics of the cold pass (spans before ``cold_end``).

        Spans after it are the warm pass; they feed the cross-pass
        repeat shares and ``mathieu.warm_eig_calls`` only.
        """
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_t1) - np.asarray(self.span_t0)
        n = len(name)
        layer = np.asarray(self.layers, dtype=np.int64)[name]
        LID = _LAYER_ID
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child

        # Ancestor flags in one forward pass: a parent precedes its children.
        eff = layer.copy()  # eigensolver time counts to the layer that called it
        in_mathieu = np.zeros(n, dtype=bool)
        in_eig = np.zeros(n, dtype=bool)
        in_fb = np.zeros(n, dtype=bool)
        fb = self._nid("symmetry.find_boundary")
        for i in range(n):
            p = parent[i]
            if p >= 0:
                if layer[i] == LID[EIG]:
                    eff[i] = eff[p]
                in_mathieu[i] = in_mathieu[p] or layer[p] == LID["mathieu"]
                in_eig[i] = in_eig[p] or layer[p] == LID[EIG]
                in_fb[i] = in_fb[p] or name[p] == fb
            elif layer[i] == LID[EIG]:
                eff[i] = LID["other"]
        outer = ~has_parent.copy()
        outer[has_parent] = layer[parent[has_parent]] != layer[has_parent]
        cold = np.arange(n) < cold_end

        def by_name(*names):
            ids = [self._nid(x) for x in names]
            return np.isin(name, ids) & cold

        def self_s(mask):
            return float(self_t[mask].sum())

        def attr_sum(mask):
            return int(sum(self.attrs.get(i) or 0 for i in np.flatnonzero(mask)))

        eig = (layer == LID[EIG]) & in_mathieu & ~in_eig
        entries = outer & (layer == LID["mathieu"])
        keys = [self.attrs[i] for i in np.flatnonzero(entries)]
        n_cold = int((entries & cold).sum())
        cold_keys = keys[:n_cold]
        sizes = [self.attrs[i] or 0 for i in np.flatnonzero(eig & cold)]
        boundaries = int(by_name("symmetry.find_boundary").sum())
        gap_in_fb = int((by_name("symmetry.pair_gap") & in_fb).sum())
        eff_self = lambda lay: self_s((eff == LID[lay]) & cold)
        series_sel = (layer == LID["series"]) & cold

        return {
            "mathieu.calls": n_cold,
            "mathieu.distinct_keys": len(set(cold_keys)),
            "mathieu.repeat_share": _repeat_share(cold_keys),
            "mathieu.repeat_share_across_passes": _repeat_share(keys),
            "mathieu.lru_hit_share": _lru_hit_share(keys, SOLVE_CACHE_SIZE),
            "mathieu.eig_calls": int((eig & cold).sum()),
            "mathieu.warm_eig_calls": int((eig & ~cold).sum()),
            "mathieu.series_len_max": max(sizes, default=0),
            "mathieu.self_s": eff_self("mathieu"),
            "symmetry.self_s": eff_self("symmetry"),
            "symmetry.find_boundary.calls": boundaries,
            "symmetry.find_boundary.self_s": self_s(by_name("symmetry.find_boundary")),
            "symmetry.pair_gap.calls": int(by_name("symmetry.pair_gap").sum()),
            "symmetry.gap_evals_per_boundary": gap_in_fb / boundaries if boundaries else 0.0,
            "symmetry.calibrate_epsilon.total_s": float(
                dur[by_name("symmetry.calibrate_epsilon") & outer].sum()),
            "symmetry.calibrate_epsilon.self_s": self_s(by_name("symmetry.calibrate_epsilon")),
            "symmetry.classify_region.calls": int(by_name("symmetry.classify_region").sum()),
            "torsion.modulation_schedule.total_s": float(
                dur[by_name("torsion.modulation_schedule")].sum()),
            "torsion.modulation_schedule.self_s": self_s(by_name("torsion.modulation_schedule")),
            "states.self_s": eff_self("states"),
            "states.build_state.calls": int(by_name("states.build_state").sum()),
            "states.build_state.self_s": self_s(by_name("states.build_state")),
            "states.velocity.self_s": self_s(by_name("states.velocity_expect",
                                                     "states.velocity_sq_expect")),
            "states.density_extrema.self_s": self_s(by_name("states.density_maxima",
                                                            "states.density_minima")),
            "series.calls": int((series_sel & outer).sum()),
            "series.self_s": eff_self("series"),
            "series.eval_points": attr_sum(by_name("series.eval_series")),
            "uncertainty.self_s": eff_self("uncertainty"),
            "uncertainty.angular_moments.self_s": self_s(by_name("uncertainty.angular_moments")),
            "uncertainty.local_variance_inequality.self_s": self_s(
                by_name("uncertainty.local_variance_inequality")),
            "classical.trajectory.points": attr_sum(by_name("classical.trajectory")),
            "classical.trajectory.self_s": self_s(by_name("classical.trajectory")),
            "report.write_csv.bytes": attr_sum(by_name("report.write_csv")),
            "report.write_csv.self_s": self_s(by_name("report.write_csv")),
            "trace.spans": int(cold.sum()),
        }

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1


def _repeat_share(keys) -> float:
    """Share of calls whose key an earlier call in the stream already had."""
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def _lru_hit_share(keys, size: int) -> float:
    """Hit share of an LRU cache of ``size`` entries fed the key stream."""
    cache: OrderedDict = OrderedDict()
    hits = 0
    for key in keys:
        if key in cache:
            hits += 1
            cache.move_to_end(key)
        else:
            cache[key] = None
            if len(cache) > size:
                cache.popitem(last=False)
    return hits / len(keys) if keys else 0.0
