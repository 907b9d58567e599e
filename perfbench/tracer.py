"""Outside-in stage tracer for the schwarzian package.

``Tracer.install`` replaces every binding through which a layer is
reached -- module attributes, the names other modules took with
``from ... import``, and the QSeries / PuiseuxSeries methods -- with a
wrapper that records a span (name, parent span, start, end, ok) in memory.
Nothing in the package changes; ``uninstall`` puts every original back.

Self time is a span's duration minus the durations of its child spans,
minus the tracer's own bookkeeping done on the child's behalf (argument
keys, bit lengths, multiply counts) and minus any host calibration run
inside it (``exclude``).  So the self times of all spans add up to the
traced wall time less that bookkeeping.  ``scaled_self_times`` scales
each span by the host-speed factor around it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

CHECKS = (
    "check_classical_identities",
    "check_minimal_form_shape",
    "check_wronskian_delta_power",
    "check_raising_constants",
    "check_schwarzian_proportionality",
    "check_ode_solutions",
    "check_numeric_cross_check",
    "check_seeded_bug_sensitivity",
)

FUNCTIONS = {
    "forms": ("eisenstein", "eta_power", "delta", "j_inverse", "serre_derivative"),
    "hypergeometric": ("hypergeom_coeffs", "component_series"),
    "vvmf": ("minimal_form", "raise_weight", "wronskian_check", "raising_constants"),
    "solver": (
        "solve",
        "schwarz_derivative",
        "verify_proportionality",
        "ode_solutions",
        "verify_ode",
    ),
    "numeric": ("eval_qseries", "eval_h_hypergeometric", "cross_check"),
    "acceptance": CHECKS,
    "cli": ("main",),
}

# span name -> the dunder or plain attributes that implement it
METHODS = {
    "QSeries": {
        "mul": ("__mul__", "__rmul__"),
        "div": ("__truediv__",),
        "compose": ("compose",),
        "pow_rational": ("pow_rational",),
    },
    "PuiseuxSeries": {
        "mul": ("__mul__", "__rmul__"),
        "div": ("__truediv__", "__rtruediv__"),
        "derive": ("derive",),
        "sqrt": ("sqrt",),
    },
}

SPAN_NAMES = tuple(
    [f"series.{cls}.{op}" for cls, ops in METHODS.items() for op in ops]
    + [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]
)
BITS = (
    "series.QSeries.compose",
    "series.QSeries.mul",
    "hypergeometric.component_series",
    "vvmf.raise_weight",
    "solver.solve",
)
DISTINCT = tuple(f"forms.{fn}" for fn in FUNCTIONS["forms"]) + (
    "vvmf.minimal_form",
    "solver.solve",
)


def _coeffs(obj: Any):
    """Every exact coefficient an output carries (series, vector form, bundle)."""
    if hasattr(obj, "h"):
        obj = obj.h
    if hasattr(obj, "first"):
        return list(_coeffs(obj.first)) + list(_coeffs(obj.second))
    if hasattr(obj, "body"):
        obj = obj.body
    return getattr(obj, "coeffs", ())


def max_bits(obj: Any) -> int:
    """Largest numerator or denominator bit length in an output."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in _coeffs(obj)),
        default=0,
    )


def _mul_mults(args, out) -> int:
    """Coefficient multiplies of the truncated Cauchy product (or scaling)."""
    if out is NotImplemented:
        return 0
    a, b = args
    if hasattr(b, "coeffs"):
        n = min(a.order, b.order)
        return n * (n + 1) // 2
    return a.order


def _compose_mults(args, out) -> int:
    """Horner composition: len(outer) - 1 truncated products of order T."""
    outer, inner = args
    v = inner.valuation()
    t = min(inner.order, outer.order * v) if v else 0
    return (outer.order - 1) * t * (t + 1) // 2


MULTS = {"series.QSeries.compose": _compose_mults, "series.QSeries.mul": _mul_mults}


Scale = Callable[[float, float], float]


def _freeze(x: Any) -> Any:
    if hasattr(x, "body"):
        return ("P", x.offset, x.body.coeffs)
    if hasattr(x, "coeffs"):
        return ("Q", x.coeffs)
    return x


def _binder(fn: Callable) -> Callable[..., tuple]:
    """Argument key with defaults filled in, so f(x) and f(x, default) match."""
    signature = inspect.signature(fn)

    def key(args, kwargs) -> tuple:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(_freeze(v) for v in bound.arguments.values())

    return key


class Tracer:
    """Records spans and per-function counts for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._sid: dict[str, int] = {}
        # span: [name id, parent index, start, end, ok, argument key or None]
        self.spans: list[list] = []
        self.excluded: list[float] = []
        self.bits: dict[str, int] = defaultdict(int)
        self.mults: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation --

    def install(self) -> None:
        for layer in FUNCTIONS:
            importlib.import_module(f"schwarzian.{layer}")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "schwarzian" or name.startswith("schwarzian.")
        ]
        series = sys.modules["schwarzian.series"]
        for cls_name, ops in METHODS.items():
            cls = getattr(series, cls_name)
            for op, attrs in ops.items():
                name = f"series.{cls_name}.{op}"
                for attr in attrs:
                    original = cls.__dict__[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original))
        for layer, fns in FUNCTIONS.items():
            home = sys.modules[f"schwarzian.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(home, fn)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def exclude(self, seconds: float) -> None:
        """Take time spent outside the package (a calibration) out of the open span."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._sid:
            self._sid[name] = len(self.names)
            self.names.append(name)
        sid = self._sid[name]
        key_of = _binder(fn) if name in DISTINCT else None
        bits = name in BITS
        mults = MULTS.get(name)
        spans, excluded, stack = self.spans, self.excluded, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            key = key_of(args, kwargs) if key_of else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([sid, parent, 0.0, 0.0, False, key])
            excluded.append(0.0)
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                span = spans[idx]
                span[2], span[3], span[4] = t0, t1, ok
                if ok and bits:
                    self.bits[name] = max(self.bits[name], max_bits(out))
                if ok and mults:
                    self.mults[name] += mults(args, out)
                if parent >= 0:
                    excluded[parent] += (t0 - t_in) + (clock() - t1)
            return out

        return traced

    # -- results --

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] - x for s, x in zip(self.spans, self.excluded)]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def order_growth(self, scale: Scale) -> float:
        """Median log-log slope of solve time against order, over pairs solved at two orders."""
        sid = self._sid.get("solver.solve")
        by_pair: dict[tuple, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        for s in self.spans:
            if s[0] == sid and s[4]:
                m, n, order = s[5]
                by_pair[(m, n)][order].append((s[3] - s[2]) * scale(s[2], s[3]))
        slopes = []
        for times in by_pair.values():
            if len(times) >= 2:
                lo, hi = min(times), max(times)
                t_lo, t_hi = statistics.median(times[lo]), statistics.median(times[hi])
                slopes.append(math.log(t_hi / t_lo) / math.log(hi / lo))
        return statistics.median(slopes) if slopes else 0.0

    def scaled_self_times(self, scale: Scale) -> list[float]:
        """Self time of every span, scaled with ``scale(start, end)``."""
        return [t * scale(s[2], s[3]) for s, t in zip(self.spans, self.self_times())]

    def layer_metrics(self, own: list[float], scale: Scale) -> dict[str, float]:
        """Every per-layer metric but the trace.* ones, from the scaled self times ``own``."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        keys: dict[str, set] = defaultdict(set)
        for s, t in zip(self.spans, own):
            name = self.names[s[0]]
            self_s[name] += t
            calls[name] += 1
            if s[5] is not None:
                keys[name].add(s[5])
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for name in BITS:
            out[f"{name}.max_bits"] = self.bits[name]
        for name in MULTS:
            out[f"{name}.coef_mults"] = self.mults[name]
        for name in DISTINCT:
            out[f"{name}.distinct_ratio"] = len(keys[name]) / calls[name] if calls[name] else 0.0
        out["solver.solve.order_growth"] = self.order_growth(scale)
        return out

    def dump(self, path) -> None:
        """Write the names table and every span, keys dropped, as one JSON file."""
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": [s[:5] for s in self.spans]},
                fh,
                separators=(",", ":"),
            )
