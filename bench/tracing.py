"""Span tracing of the ``bcpoly`` layers, installed from outside the package.

Only the traced run installs this.  ``Tracer.install`` replaces each public
function of a layer module, and each public method of a class the module
defines, by a wrapper that records a span (name, start, end, parent) and
updates the counters named in ``_METERS``.  A wrapped function is replaced
in every ``bcpoly.*`` namespace that holds it, so calls through
``from .classify import polyharmonic_order`` are seen too.

Scalar classes of ``bicomplex`` get no spans: one per Gaussian-rational
operation would cost more than the operation.  Their multiplication is
counted instead, together with the largest numerator or denominator it
produced.

Spans stay in memory, in flat arrays, until ``summary`` reads them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("bicomplex", "polyfun", "operators", "classify", "decompose", "expr", "sampling", "verify", "cli")

# classes whose methods are too fine-grained for spans
_SCALAR_CLASSES = ("GaussianRational", "Bicomplex", "Hyperbolic")
_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__")


def _terms(fn) -> int:
    return len(fn.plus.terms) + len(fn.minus.terms)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # 1 when no enclosing span has the same name, 2 when none has the
        # same layer either (bit flags), so totals never count time twice
        self.span_outer = array("b")
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self.coeff_bits_max = 0
        self.on = False

    # ---------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        if not self.on:
            return fn(*args, **kwargs)
        layer = name.partition(".")[0]
        index = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append((self._active[name] == 0) | 2 * (self._active[layer] == 0))
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(index)
        self._active[name] += 1
        self._active[layer] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[index] = perf_counter()
            self.span_start[index] = start
            self._active[name] -= 1
            self._active[layer] -= 1
            self._stack.pop()

    def _wrap(self, name: str, fn):
        meter = _METERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            result = self.span(name, fn, *args, **kwargs)
            if meter is not None:
                meter(self, args, result)
            return result

        return wrapper

    def _count_gr_mul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            result = fn(a, b)
            if self.on:
                self.counts["bicomplex.GaussianRational.__mul__"] += 1
                re, im = result.re, result.im
                bits = max(
                    re.numerator.bit_length(), re.denominator.bit_length(),
                    im.numerator.bit_length(), im.denominator.bit_length(),
                )
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits
            return result

        return wrapper

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every layer.  Call once, after importing ``bcpoly.cli``."""
        modules = [importlib.import_module(f"bcpoly.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sys.modules.items() if name == "bcpoly" or name.startswith("bcpoly.")]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for other, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, other, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        if cls.__name__ in _SCALAR_CLASSES:
            if cls.__name__ == "GaussianRational":
                counted = self._count_gr_mul(cls.__dict__["__mul__"])
                cls.__mul__ = cls.__rmul__ = counted
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    # -------------------------------------------------------------- summary

    def summary(self) -> tuple[dict, dict]:
        """Aggregate the spans.

        Per span name: calls, ``total_s`` (duration of the spans not nested
        in one of the same name) and ``self_s`` (duration minus the time of
        direct children).  Per layer: ``total_s`` of the spans not nested in
        one of the same layer, and ``self_s``.
        """
        n = len(self.span_name)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        by_name: dict[str, dict] = {}
        by_layer: dict[str, dict] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            own = durations[i] - child_time[i]
            outer = self.span_outer[i]
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            if outer & 1:
                entry["total_s"] += durations[i]
            layer = by_layer.setdefault(name.partition(".")[0], {"total_s": 0.0, "self_s": 0.0})
            layer["self_s"] += own
            if outer & 2:
                layer["total_s"] += durations[i]
        return by_name, by_layer

    def active(self, name: str) -> bool:
        return self._active[name] > 0


def _meter_mul(tracer: Tracer, args, result) -> None:
    tracer.counts["polyfun.mul_term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _meter_add(tracer: Tracer, args, result) -> None:
    tracer.counts["polyfun.add_terms_copied"] += len(args[0].terms)


def _meter_apply(tracer: Tracer, args, result) -> None:
    tracer.counts["operators.apply_input_terms"] += _terms(args[1])
    if tracer.active("classify.polyharmonic_order"):
        tracer.counts["classify.applies_in_order"] += 1


def _meter_parse(tracer: Tracer, args, result) -> None:
    tracer.counts["expr.terms_out"] += _terms(result)


_METERS = {
    "polyfun.Poly4.__mul__": _meter_mul,
    "polyfun.Poly4.__add__": _meter_add,
    "operators.Operator.apply": _meter_apply,
    "expr.parse": _meter_parse,
}
