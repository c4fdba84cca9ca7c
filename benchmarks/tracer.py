"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and ring operators of the quadslice
modules from the outside; nothing under ``src/`` knows about it.  Several
modules import functions by name (``contfrac`` binds ``det_division_free``,
``f_n``, ``graded_div`` ..., ``heaps`` binds ``hankel_type_dets`` and
``expand``), and operator aliases such as ``__rmul__ = __mul__`` bind one
function twice, so a wrapped function is replaced at every module or class
attribute that holds it.  Leaving the ``with`` block restores every original.

Each span records its call count and its self time: the span's duration
minus the time covered by the spans it encloses.  Ring-kernel spans
(``MPoly``, ``Series``, ``RatFunc`` and ``Poly`` operators) nest inside the
module spans.  Spans are aggregated by name in memory, so the tracer's
footprint does not grow with the number of calls.

Importing this module does not import quadslice: ``run.py`` uses
``layer_metrics`` and ``LAYER_METRICS`` without loading the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> the functions it wraps, as "module:attribute" or "module:Class.method"
SPANS = {
    "exactalg.mpoly_mul": ("exactalg:MPoly.__mul__",),
    "exactalg.det": ("exactalg:det_division_free",),
    "ratfunc.op": tuple(
        f"ratfunc:RatFunc.{op}"
        for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "inverse")
    ),
    "ratfunc.gcd": ("ratfunc:Poly.gcd",),
    "ratfunc.divmod": ("ratfunc:Poly.divmod",),
    "series.mul": ("series:Series.__mul__",),
    "series.inv": ("series:Series.inv",),
    "series.divide": ("series:Series.divide",),
    "series.graded_div": ("series:graded_div",),
    "lattice_paths.z": ("lattice_paths:z_bicolored", "lattice_paths:z_context", "lattice_paths:z_elongated"),
    "lattice_paths.z_const": ("lattice_paths:z_const",),
    "slice_solver.solve": tuple(
        f"slice_solver:{fn}" for fn in ("solve_bw", "solve_pq", "solve_y", "solve_limit", "y1_series")
    ),
    "slice_solver.boundary": ("slice_solver:f_n", "slice_solver:j_n", "slice_solver:f_n_closed"),
    "slice_solver.conserved": tuple(
        f"slice_solver:{fn}"
        for fn in ("conserved_f", "conserved_j", "conserved_symbolic_display_check", "y1_two_routes")
    ),
    "contfrac.fraction": ("contfrac:expand", "contfrac:tilde_coeffs", "contfrac:finite_fraction_ratfunc"),
    "contfrac.stieltjes": ("contfrac:stieltjes_extract",),
    "contfrac.stieltjes_rungs": ("contfrac:stieltjes_rungs_from_solver",),
    "contfrac.hankel_type": ("contfrac:hankel_type_dets",),
    "contfrac.graded_ladder": ("contfrac:graded_ladder",),
    "contfrac.newtype_extract": ("contfrac:newtype_extract",),
    "contfrac.companion": (
        "contfrac:conjectured_tilde_j_graded",
        "contfrac:conjectured_tilde_j_rescaled_route",
    ),
    "contfrac.check": ("contfrac:finite_reflection_check", "contfrac:underdetermination_witness"),
    "closed_forms.check": tuple(
        f"closed_forms:{fn}"
        for fn in ("verify_recursion", "param_equivalence", "series_match", "section6_algebra",
                   "large_height_collapse")
    ),
    "heaps.h_ladder": ("heaps:h_ladder",),
    "heaps.check": tuple(
        f"heaps:{fn}"
        for fn in ("heaps_vs_fraction_check", "complementation_check", "linear_relation_check",
                   "linear_relation_specialized_check", "linear_relation_gprime_check",
                   "hh_closed_check", "ladder_stabilization_check")
    ),
    "maps_oracle.enumerate": ("maps_oracle:enumerate_quads", "maps_oracle:enumerate_bridgeless_maps"),
    "maps_oracle.weights": ("maps_oracle:bf_F", "maps_oracle:bf_J"),
    "maps_oracle.bijection": ("maps_oracle:bijection_check",),
    "cli.main": ("cli:main",),
}


def _terms_out(stat, args, result, missed):
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        stat.counters["terms_out"] = stat.counters.get("terms_out", 0) + len(terms)


def _max_n(stat, args, result, missed):
    stat.counters["max_n"] = max(stat.counters.get("max_n", 0), len(args[0]))


def _maps_out(stat, args, result, missed):
    if missed:
        stat.counters["maps_out"] = stat.counters.get("maps_out", 0) + len(result)


MEASURES = {
    "exactalg.mpoly_mul": _terms_out,
    "lattice_paths.z": _terms_out,
    "exactalg.det": _max_n,
    "maps_oracle.enumerate": _maps_out,
}


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = {}


def _resolve(binding):
    """The object a "module:attr" or "module:Class.attr" binding names."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module(f"quadslice.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def _containers():
    """Every quadslice module and every class defined in one."""
    modules = [m for n, m in sys.modules.items() if n == "quadslice" or n.startswith("quadslice.")]
    classes = {
        id(v): v
        for m in modules
        for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("quadslice")
    }
    return modules + list(classes.values())


class Tracer:
    """Context manager that wraps every function named in SPANS."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patched = []

    def __enter__(self):
        for module in ("cli", "closed_forms", "contfrac", "heaps", "maps_oracle"):
            importlib.import_module(f"quadslice.{module}")
        containers = _containers()
        for name, bindings in SPANS.items():
            for binding in bindings:
                orig = _resolve(binding)
                span = self._wrap(name, orig)
                for owner in containers:
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            setattr(owner, attr, span)
                            self._patched.append((owner, attr, orig))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
        return False

    def _wrap(self, name, orig):
        stat = self.stats.setdefault(name, Stat())
        measure = MEASURES.get(name)
        cached = hasattr(orig, "cache_info")
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def span(*args, **kwargs):
            misses = orig.cache_info().misses if cached else 0
            stack.append(0.0)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if measure is not None:
                measure(stat, args, result, cached and orig.cache_info().misses != misses)
            return result

        return span

    def export(self):
        return {
            name: {"calls": s.calls, "self_s": s.self_s, **s.counters}
            for name, s in self.stats.items()
        }


# ----------------------------------------------------------- per-layer metrics

_SOLVER_CACHES = ("solve_bw", "solve_pq", "solve_y", "solve_limit", "y1_series")
_ORACLE_CACHES = ("enumerate_quads", "enumerate_bridgeless_maps")


def _calls(span):
    return lambda spans, caches: spans.get(span, {}).get("calls", 0)


def _counter(span, key):
    return lambda spans, caches: spans.get(span, {}).get(key, 0)


def _self_s(span):
    return lambda spans, caches: spans.get(span, {}).get("self_s", 0.0)


def _cache(names, key):
    return lambda spans, caches: sum(caches[n][key] for n in names)


def _per(num, den):
    """A ratio with its base; 0 when the base is 0."""

    def value(spans, caches):
        base = den(spans, caches)
        return num(spans, caches) / base if base else 0.0

    return value


def _hit_ratio(names):
    return _per(_cache(names, "hits"), lambda s, c: sum(c[n]["hits"] + c[n]["misses"] for n in names))


# name -> (unit, value of one traced pass from its spans and cache counters)
LAYER_METRICS = {
    "exactalg.mpoly_mul.calls": ("count", _calls("exactalg.mpoly_mul")),
    "exactalg.mpoly_mul.terms_out": ("count", _counter("exactalg.mpoly_mul", "terms_out")),
    "exactalg.mpoly_mul.self_s": ("s", _self_s("exactalg.mpoly_mul")),
    "exactalg.det.calls": ("count", _calls("exactalg.det")),
    "exactalg.det.max_n": ("rows", _counter("exactalg.det", "max_n")),
    "exactalg.det.self_s": ("s", _self_s("exactalg.det")),
    "ratfunc.op.calls": ("count", _calls("ratfunc.op")),
    "ratfunc.op.self_s": ("s", _self_s("ratfunc.op")),
    "ratfunc.gcd.calls": ("count", _calls("ratfunc.gcd")),
    "ratfunc.gcd.self_s": ("s", _self_s("ratfunc.gcd")),
    "ratfunc.gcd_per_op": ("gcd/op", _per(_calls("ratfunc.gcd"), _calls("ratfunc.op"))),
    "ratfunc.divmod.calls": ("count", _calls("ratfunc.divmod")),
    "series.mul.calls": ("count", _calls("series.mul")),
    "series.mul.self_s": ("s", _self_s("series.mul")),
    "series.divide.calls": ("count", _calls("series.divide")),
    "series.graded_div.calls": ("count", _calls("series.graded_div")),
    "series.graded_div.self_s": ("s", _self_s("series.graded_div")),
    "lattice_paths.z.calls": ("count", _calls("lattice_paths.z")),
    "lattice_paths.z.terms_out": ("count", _counter("lattice_paths.z", "terms_out")),
    "lattice_paths.z.self_s": ("s", _self_s("lattice_paths.z")),
    "slice_solver.solve.calls": ("count", _calls("slice_solver.solve")),
    "slice_solver.solve.self_s": ("s", _self_s("slice_solver.solve")),
    "slice_solver.cache_hits": ("count", _cache(_SOLVER_CACHES, "hits")),
    "slice_solver.cache_misses": ("count", _cache(_SOLVER_CACHES, "misses")),
    "slice_solver.cache_hit_ratio": ("hit/call", _hit_ratio(_SOLVER_CACHES)),
    "contfrac.stieltjes.self_s": ("s", _self_s("contfrac.stieltjes")),
    "contfrac.stieltjes.extract_per_result": (
        "extract/result", _per(_calls("contfrac.stieltjes"), _calls("contfrac.stieltjes_rungs"))
    ),
    "contfrac.graded_ladder.self_s": ("s", _self_s("contfrac.graded_ladder")),
    "contfrac.newtype_extract.self_s": ("s", _self_s("contfrac.newtype_extract")),
    "contfrac.companion.self_s": ("s", _self_s("contfrac.companion")),
    "closed_forms.check.self_s": ("s", _self_s("closed_forms.check")),
    "heaps.h_ladder.self_s": ("s", _self_s("heaps.h_ladder")),
    "heaps.check.self_s": ("s", _self_s("heaps.check")),
    "maps_oracle.enumerate.maps_out": ("count", _counter("maps_oracle.enumerate", "maps_out")),
    "maps_oracle.enumerate.self_s": ("s", _self_s("maps_oracle.enumerate")),
    "maps_oracle.bijection.self_s": ("s", _self_s("maps_oracle.bijection")),
    "maps_oracle.cache_hits": ("count", _cache(_ORACLE_CACHES, "hits")),
    "maps_oracle.cache_misses": ("count", _cache(_ORACLE_CACHES, "misses")),
    "maps_oracle.cache_hit_ratio": ("hit/call", _hit_ratio(_ORACLE_CACHES)),
    "cli.main.self_s": ("s", _self_s("cli.main")),
}


def layer_metrics(spans, caches):
    """Per-layer metric values of one traced pass, by name."""
    return {name: value(spans, caches) for name, (unit, value) in LAYER_METRICS.items()}
