"""Span tracing of the qscissors layers, applied from outside the package.

``Tracer.install`` replaces every public function of the layer modules
with a timing wrapper, in every module namespace that binds it: a
``from .x import y`` copy in another module (or the package root) is a
separate name and is rebound too, so internal calls through module
globals (``evolve -> apply_element``, ``conditional_amplitudes ->
heralded_amplitude``) are captured. ``GqsdSpec.elements`` is wrapped as
``network.elements``.

Calls are recorded only while an op is active (``with tracer.op(i)``),
so output checks made between ops leave no trace. Each call becomes a
span (name, start, end, parent span, op id), kept in memory; the
innermost per-element calls in ``COUNTER_ONLY`` keep aggregate counters
instead, and their time is stored on the enclosing span as ``inner_ns``
so self time stays exact: self = duration - child spans - inner_ns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

LAYERS = ("cli", "fock", "network", "evolution", "scissors", "search",
          "catalog", "detectors")

# Called once per optical element or detector per evaluation: one span
# each would dominate memory, so they are aggregated.
COUNTER_ONLY = frozenset({"evolution.apply_element", "network.element_matrix",
                          "detectors.povm_for_outcome",
                          "detectors.povm_number_resolving"})

# Work counts (Fock terms) taken from a call's arguments and result.
TERM_COUNTS = {
    "evolution.apply_element":
        lambda args, out: {"terms_in": len(args[0]), "terms_out": len(out)},
    "detectors.conditional_density_matrix":
        lambda args, out: {"terms_in": len(args[0])},
}

# Sub-labels that split a function's spans, e.g. by dimension d.
SPAN_TAGS = {
    "scissors.conditional_amplitudes": lambda args: f"d{args[1].dim}",
}


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start_ns: int
    end_ns: int
    inner_ns: int
    tag: str | None


class _Frame:
    __slots__ = ("span_id", "child_ns", "inner_ns")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_ns = 0   # time in wrapped calls made from this one
        self.inner_ns = 0   # the part of child_ns spent in counter-only calls


class Tracer:
    """Collects spans and counters for calls into the qscissors layers."""

    def __init__(self):
        self.spans: list[Span] = []
        # name -> [calls, total_ns, self_ns] for counter-only functions
        self.counters = defaultdict(lambda: [0, 0, 0])
        self.terms = defaultdict(int)       # "layer.fn.terms_in" -> count
        self.top_level_ns = defaultdict(int)  # name -> time of outermost calls
        self._stack: list[_Frame] = []
        self._op: int | None = None
        self._restore: list = []

    # --- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public layer function wherever the package binds it."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        spec_cls = importlib.import_module(f"{package.__name__}.network").GqsdSpec
        self._restore.append((spec_cls, "elements", spec_cls.elements))
        spec_cls.elements = self._wrap("network.elements", spec_cls.elements)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    @contextmanager
    def op(self, op_id: int):
        """Record calls made inside this block under ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        counter_only = name in COUNTER_ONLY
        count_terms = TERM_COUNTS.get(name)
        tag_of = SPAN_TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(None if counter_only else len(tracer.spans))
            if not counter_only:
                tracer.spans.append(None)   # reserve the id; filled on exit
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is None:
                    tracer.top_level_ns[name] += duration
                else:
                    parent.child_ns += duration
                    if counter_only:
                        parent.inner_ns += duration
                if counter_only:
                    c = tracer.counters[name]
                    c[0] += 1
                    c[1] += duration
                    c[2] += duration - frame.child_ns
                else:
                    tracer.spans[frame.span_id] = Span(
                        frame.span_id, parent and parent.span_id, tracer._op, name, start, end,
                        frame.inner_ns, tag_of(args) if tag_of else None)
            if count_terms:
                for key, n in count_terms(args, out).items():
                    tracer.terms[f"{name}.{key}"] += n
            return out

        return wrapper

    # --- reporting --------------------------------------------------------

    def layer_stats(self) -> dict:
        """name -> {"calls", "total_ms", "self_ms"} over spans and counters."""
        stats = span_stats(self.spans)
        for name, (calls, total_ns, self_ns) in self.counters.items():
            stats[name] = {"calls": calls, "total_ms": total_ns / 1e6,
                           "self_ms": self_ns / 1e6}
        return stats

    def write_spans(self, path) -> None:
        """One JSON array per line: the Span fields in order."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def span_stats(spans) -> dict:
    """Per-name calls, total and self time from a list of spans.

    A span's self time is its duration minus the durations of its direct
    child spans minus ``inner_ns`` (time in counter-only calls it made).
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span.parent_id is not None:
            child_ns[span.parent_id] += span.end_ns - span.start_ns
    stats: dict = {}
    for span in spans:
        duration = span.end_ns - span.start_ns
        s = stats.setdefault(span.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        s["calls"] += 1
        s["total_ms"] += duration / 1e6
        s["self_ms"] += (duration - child_ns[span.span_id] - span.inner_ns) / 1e6
    return stats
