"""Spans, counters and op bookkeeping for one pass of a workload.

Spans wrap the benchmark's own calls into each nc_forge module; nothing
inside the package is instrumented.  A disabled tracer hands out one shared
no-op context, so an untraced pass pays almost nothing for the span sites.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

_NULL = contextlib.nullcontext()

CHECK = "bench.check"  # span of the benchmark's own output checking


class Tracer:
    """In-memory spans: name, start, end and the index of the enclosing span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out


class CheckFailed(Exception):
    """An output differs from its expected value."""


class SeedFailure:
    """A documented failure of the program at the seed, matched by its text."""

    def __init__(self, label: str, text: str) -> None:
        self.label = label
        self.text = text

    def matches(self, exc: BaseException) -> bool:
        return self.text in str(exc)


class Pass:
    """Ops attempted and failed, counters and gauges of one pass."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.attempted = 0
        self.failures: list[dict] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, name: str, seed_failure: SeedFailure | None = None):
        """One op: an exception or a failed check inside it fails the op."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every failure of the program is counted, never raised
            expected = seed_failure is not None and seed_failure.matches(exc)
            self.failures.append(
                {
                    "op": name,
                    "error": f"{type(exc).__name__}: {exc}"[:400],
                    "seed_failure": seed_failure.label if expected else None,
                }
            )

    def checking(self):
        return self.tr.span(CHECK)

    @staticmethod
    def expect(ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)
