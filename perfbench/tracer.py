"""Call tracing for the traced benchmark run, installed from outside the
package: hilbertdepth itself is not changed.

Tracer.install() wraps the public functions of each layer module, plus the
IntPolynomial operations the benchmark reports, and rebinds every module
namespace that holds the original (the `from .x import y` copies and the
package's re-exports), so internal calls go through the wrappers too.

Each wrapped call is a span.  Self time is the span's duration minus the
time covered by its child spans.  The oracle sweeps make about a million
calls, so spans are not stored one by one: each is folded on exit into an
edge keyed by (name, parent name), which keeps calls, self time and the
longest single span.  A traced child runs one case, so the case id is the
child process.

A wrapper's own bookkeeping for a call runs outside that call's timed
window, so it would count toward the caller's self time.  install() times
an empty wrapped call against an empty plain one, and every finished child
span charges that difference to the time its parent spent in children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable

LAYERS = ("exactalg", "series", "ideals", "identities", "multigrade", "cli")

# IntPolynomial operations that are traced, with their reported names.
_METHODS = {"__mul__": "mul", "__add__": "add",
            "divide_one_minus_t": "divide_one_minus_t"}


def _traceable(obj: object) -> bool:
    if hasattr(obj, "cache_info"):  # functools.cache wrapper, e.g. binomial
        return True
    # a generator's call returns before its work is done, so it is not timed
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []
        # (name, parent name or None) -> [calls, self_s, max_s]
        self.edges: dict[tuple[str, str | None], list] = {}
        self._binomial: Callable | None = None
        # seconds of wrapper bookkeeping per call that fall outside the
        # call's own window; set by calibrate()
        self.call_overhead_s = 0.0

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, edges, clock, tracer = self._stack, self.edges, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += dur + tracer.call_overhead_s
                key = (name, parent[0] if parent is not None else None)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dur - frame[1], dur]
                else:
                    edge[0] += 1
                    edge[1] += dur - frame[1]
                    if dur > edge[2]:
                        edge[2] = dur

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info  # type: ignore[attr-defined]
            traced.cache_clear = fn.cache_clear  # type: ignore[attr-defined]
        return traced

    def calibrate(self, calls: int = 5000, repeats: int = 5) -> None:
        """Set call_overhead_s: the caller-side cost of one wrapped call.

        A wrapped parent calls an empty function `calls` times, wrapped and
        then plain.  The difference in the parent's self time, per call, is
        what the bookkeeping adds to a caller; the fastest of `repeats`
        tries counts.  The calibration spans are dropped afterwards.
        """
        def empty():
            return None

        def loop(child):
            for _ in range(calls):
                child()

        wrapped_child = self.wrap("calibration.child", empty)
        parent = self.wrap("calibration.parent", loop)
        costs = []
        for _ in range(repeats):
            for child in (wrapped_child, empty):
                self.edges.clear()
                parent(child)
                costs.append(self.edges["calibration.parent", None][1])
        wrapped, plain = costs[0::2], costs[1::2]
        self.call_overhead_s = max(0.0, (min(wrapped) - min(plain)) / calls)
        self.edges.clear()

    def install(self) -> None:
        """Wrap every layer's public functions; call once per process."""
        self.calibrate()
        for layer in LAYERS:
            module = importlib.import_module(f"hilbertdepth.{layer}")
            # cli.main's self time is argument parsing plus formatting, so
            # build_parser stays inside it
            names = ("main",) if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if _traceable(fn):
                    _rebind(fn, self.wrap(f"{layer}.{attr}", fn))
        cls = importlib.import_module("hilbertdepth.exactalg").IntPolynomial
        for attr, short in _METHODS.items():
            fn = cls.__dict__[attr]
            traced = self.wrap(f"exactalg.IntPolynomial.{short}", fn)
            for key, value in list(vars(cls).items()):
                if value is fn:  # also catches the __rmul__ alias
                    setattr(cls, key, traced)
        self._binomial = sys.modules["hilbertdepth.exactalg"].binomial

    def summary(self) -> dict:
        info = self._binomial.cache_info() if self._binomial else None
        return {
            "edges": [[name, parent, *vals] for (name, parent), vals in self.edges.items()],
            "binomial_cache": [info.hits, info.misses] if info else [0, 0],
        }


def _rebind(original: object, replacement: object) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hilbertdepth" or name.startswith("hilbertdepth.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
