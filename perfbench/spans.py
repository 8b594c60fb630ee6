"""Spans with self time, and wrappers that time keytrack's inner calls.

The benchmark times the calls it makes into each layer with
:meth:`Tracer.span`.  Calls that happen inside the package (kernels inside
``maps``, penalties and greedy matching inside ``assemble``, ``psi``,
``hungarian`` and the Kalman steps inside ``KeySortTracker.step``) are
timed by replacing the public function where its caller looks it up, for
the duration of the traced phase only.  A name that no longer exists is
recorded as unmeasured and the run goes on.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class Tracer:
    """In-memory spans: per name, calls plus self and inclusive seconds.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it.  ``top_level_s`` sums the spans opened with
    no enclosing span, so frame time minus it is time no layer covers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.top_level_s = 0.0
        self._child_s: list[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._child_s.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            children = self._child_s.pop()
            self.calls[name] += 1
            self.self_s[name] += duration - children
            self.total_s[name] += duration
            if self._child_s:
                self._child_s[-1] += duration
            else:
                self.top_level_s += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


class NullTracer:
    """Stand-in for untimed runs: a span costs one call and records nothing."""

    _span = nullcontext()

    def span(self, name: str):
        return self._span


@dataclass(frozen=True)
class Target:
    """A public function to time where ``module`` looks it up."""

    module: str
    attr: str
    span: str
    # (tracer, args, result) -> None; adds counters after the call
    on_result: Optional[Callable] = None


def _wrap(tracer: Tracer, target: Target, original: Callable) -> Callable:
    def timed(*args, **kwargs):
        with tracer.span(target.span):
            result = original(*args, **kwargs)
        if target.on_result is not None:
            try:
                target.on_result(tracer, args, result)
            except Exception:  # a changed signature must not fail the frame
                tracer.count(target.span + ".uncounted")
        return result

    return timed


@contextmanager
def instrumented(tracer: Tracer, targets: list[Target], modules: dict) -> Iterator[list[str]]:
    """Swap each target for a timed wrapper; yields the unmeasured spans.

    ``modules`` maps a module name to the imported module object.  The
    originals are restored on exit, so an untraced phase that follows runs
    the program exactly as shipped.
    """
    unmeasured: list[str] = []
    restore: list[tuple[object, str, Callable]] = []
    for target in targets:
        module = modules.get(target.module)
        original = getattr(module, target.attr, None)
        if not callable(original):
            unmeasured.append(target.span)
            continue
        restore.append((module, target.attr, original))
        setattr(module, target.attr, _wrap(tracer, target, original))
    try:
        yield unmeasured
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)
