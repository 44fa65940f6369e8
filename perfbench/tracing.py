"""Span tracing from outside the program: wrap public functions, restore them.

A :class:`Tracer` replaces each target attribute (a method on a class, a
static method, or a module-level function) with a wrapper that records
one :class:`Span` per call — layer name, start, end, the span that was
open when it started, and an optional unit count — and puts every
original back on exit.  Spans stay in memory; :meth:`Tracer.summary`
reduces them to per-layer busy time, self time, calls and units.

Nothing here imports ``repro``: the workloads name their own targets.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``around(fn, args, kwargs) -> (result, units)``: runs the call and
#: counts the work it did (codewords, rows, ...).
Around = Callable[[Callable, tuple, dict], Tuple[Any, int]]


def _plain_call(fn: Callable, args: tuple, kwargs: dict) -> Tuple[Any, int]:
    return fn(*args, **kwargs), 0


@dataclass(frozen=True)
class Target:
    """One attribute to trace: ``owner.attr`` recorded under ``layer``."""

    owner: Any
    attr: str
    layer: str
    around: Around = _plain_call


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: Optional[int]
    units: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager installing span-recording wrappers on targets."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self._targets = list(targets)
        self._saved: List[Tuple[Any, str, bool, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[Span] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for target in self._targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _install(self, target: Target) -> None:
        owner, attr = target.owner, target.attr
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, target))
        else:
            wrapped = self._wrap(raw, target)
        setattr(owner, attr, wrapped)
        self._saved.append((owner, attr, own, raw))

    def _restore(self) -> None:
        while self._saved:
            owner, attr, own, raw = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        layer, around = target.layer, target.around

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span = Span(layer, time.perf_counter(), 0.0,
                        stack[-1] if stack else None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result, span.units = around(fn, args, kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            return result

        return traced

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.spans = []

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``busy_s`` (union of its spans — a span nested in
        a span of the same layer is not counted twice), ``self_s``
        (span time not covered by child spans), ``calls`` and ``units``.
        """
        with self._lock:
            spans = list(self.spans)
        children_s = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                children_s[span.parent] += span.duration
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "units": 0})
        for index, span in enumerate(spans):
            row = out[span.layer]
            row["calls"] += 1
            row["units"] += span.units
            row["self_s"] += span.duration - children_s[index]
            if not self._nested_in_same_layer(spans, span):
                row["busy_s"] += span.duration
        return dict(out)

    def durations(self, layer: str) -> List[float]:
        """Every recorded duration of ``layer``, in seconds."""
        with self._lock:
            return [span.duration for span in self.spans
                    if span.layer == layer]

    @staticmethod
    def _nested_in_same_layer(spans: List[Span], span: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if spans[parent].layer == span.layer:
                return True
            parent = spans[parent].parent
        return False
