"""Span and counter recorder for the traced run.

``Tracer.install`` wraps the public functions of the logsine layers at every
module binding where they are looked up (``logsine.integrals.polygamma_real``
as well as ``logsine.numerics.polygamma_real`` and the package namespace),
plus ``SymbolicValue`` addition and multiplication.  Nothing under ``src/``
changes.  Spans stay in memory as parallel arrays and are reduced to
per-layer totals when the run ends: a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("symbolic", "bell", "binomderiv", "specialfn", "numerics", "integrals", "verify", "cli")

# public functions reported by name; every other public function of the
# layers is wrapped too, so self times exclude it
REPORTED = (
    "symbolic.mul", "symbolic.add", "symbolic.eval_numeric",
    "bell.complete_bell_exact", "bell.complete_bell_float",
    "binomderiv.central_binom_deriv", "binomderiv.shifted_binom_deriv",
    "specialfn.zeta_bar1_numeric", "specialfn.euler_sum_H", "specialfn.alt_euler_sum_H",
    "specialfn.harmonic",
    "numerics.polygamma_real", "numerics.tanh_sinh", "numerics.accelerate_alternating",
    "numerics.compensated_sum", "numerics.richardson_derivative",
    "integrals.log_sin_power_integral", "integrals.log_sine_integral",
    "integrals.log_sine_any_angle", "integrals.quadrature_value",
    "integrals.sine_power_moment_exact", "integrals.sine_power_moment_numeric",
    "verify.check", "cli.main",
)
COUNTERS = (
    "numerics.tanh_sinh.evals", "numerics.tanh_sinh.errors",
    "numerics.accelerate_alternating.terms", "numerics.accelerate_alternating.errors",
    "numerics.compensated_sum.terms", "verify.check.fails",
)
CACHES = ("binomderiv.xi_bar", "binomderiv.eta_bar", "binomderiv.rho", "numerics.zeta_numeric")
CLOSED_FORMS = ("integrals.log_sin_power_integral", "integrals.log_sine_integral")


def self_times(names, parents, starts, ends) -> dict[str, tuple[int, float, float]]:
    """Reduce spans to {name: (calls, total seconds, self seconds)}.

    Span i has name ``names[i]``, runs from ``starts[i]`` to ``ends[i]`` and
    was opened inside span ``parents[i]`` (-1 at top level); a parent always
    precedes its children.
    """
    child = [0.0] * len(names)
    for i in range(len(names)):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    out: dict[str, tuple[int, float, float]] = {}
    for i, name in enumerate(names):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        dur = ends[i] - starts[i]
        out[name] = (calls + 1, total + dur, own + dur - child[i])
    return out


class Tracer:
    """Records spans around the wrapped layer functions while enabled."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, prepare=None, on_result=None):
        """A wrapper of ``fn`` that opens a span while the tracer is enabled.

        ``prepare(args, kwargs)`` may substitute arguments (to count integrand
        evaluations); ``on_result(result)`` may count outcomes.
        """
        name_id = self._name_id(name)
        errors = name + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[errors] += 1
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counting(self, counter: str, fn):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions of the imported ``package`` (logsine)."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        replace: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or id(obj) in replace:
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if not (inspect.isfunction(target) and target.__module__ == mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if hasattr(obj, "cache_info"):
                    self._caches[name] = obj
                replace[id(obj)] = self._wrap_layer(name, obj)
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        value_cls = sys.modules[f"{package.__name__}.symbolic"].SymbolicValue
        for method, name in (("__mul__", "symbolic.mul"), ("__rmul__", "symbolic.mul"),
                             ("__add__", "symbolic.add"), ("__radd__", "symbolic.add")):
            setattr(value_cls, method, self.wrap(name, vars(value_cls)[method]))
        self._cache_base = {name: self._cache_counts(name) for name in self._caches}

    def _wrap_layer(self, name: str, fn):
        if name == "bell.complete_bell":
            exact = self.wrap("bell.complete_bell_exact", fn)
            floating = self.wrap("bell.complete_bell_float", fn)

            def complete_bell(seq, one=1):
                return (floating if isinstance(one, float) else exact)(seq, one)

            return complete_bell
        if name == "numerics.tanh_sinh_quadrature":
            def count_evals(args, kwargs):
                f = self._counting("numerics.tanh_sinh.evals", args[0])
                return (f,) + args[1:], kwargs

            return self.wrap("numerics.tanh_sinh", fn, prepare=count_evals)
        if name == "numerics.accelerate_alternating":
            def count_terms(args, kwargs):
                f = self._counting("numerics.accelerate_alternating.terms", args[0])
                return (f,) + args[1:], kwargs

            return self.wrap(name, fn, prepare=count_terms)
        if name == "numerics.compensated_sum":
            def count_sum_terms(args, kwargs):
                terms = list(args[0])
                self.counts["numerics.compensated_sum.terms"] += len(terms)
                return (terms,) + args[1:], kwargs

            return self.wrap(name, fn, prepare=count_sum_terms)
        if name in CLOSED_FORMS:
            def count_exact(result):
                self.counts["integrals.closed_forms"] += 1
                self.counts["integrals.exact_results"] += bool(result.exact)

            return self.wrap(name, fn, on_result=count_exact)
        return self.wrap(name, fn)

    def _cache_counts(self, name: str) -> tuple[int, int]:
        info = self._caches[name].cache_info()
        return info.hits, info.misses

    # -- reduction -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer totals: calls, self_ms, counters, cache hits and misses."""
        names = [self.names[i] for i in self.span_name]
        totals = self_times(names, self.span_parent, self.span_start, self.span_end)
        out: dict[str, float] = dict(self.counts)
        for name, (calls, _total, own) in totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = own * 1e3
        for name in CACHES:
            if name in self._caches:
                hits, misses = self._cache_counts(name)
                base_hits, base_misses = self._cache_base[name]
                out[f"{name}.hits"] = hits - base_hits
                out[f"{name}.misses"] = misses - base_misses
        return out


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics from summed ``Tracer.summary`` totals."""
    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = totals.get(f"{name}.calls", 0)
        out[f"{name}.self_ms"] = totals.get(f"{name}.self_ms", 0.0)
    for name in COUNTERS:
        out[name] = totals.get(name, 0)
    for name in CACHES:
        hits, misses = totals.get(f"{name}.hits", 0), totals.get(f"{name}.misses", 0)
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    forms = totals.get("integrals.closed_forms", 0)
    out["integrals.exact_ratio"] = totals.get("integrals.exact_results", 0) / forms if forms else 0.0
    return out
