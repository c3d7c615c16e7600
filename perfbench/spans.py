"""In-memory spans around wrapped module attributes, and the arithmetic on them.

A :class:`Tracer` replaces a function at the attribute its caller looks it up
by (``pmfl.harness.local_train``, ``LocalBuffer.push``, ...) with a wrapper
that records a span: name, start, end, parent span and round index.  Spans
stay in memory until :meth:`Tracer.arrays` hands them out at the end of the
run, and :meth:`Tracer.restore` puts every original attribute back.

The round loop of the harness is inline code, not a function, so rounds are
marked by the calls they make: a ``round_start`` call opens a new round span
once the previous round has reached its ``round_tail`` call, and a
``loop_end`` call closes the last round.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

ROUND = "harness.round"
ROUND_START = "round_start"
ROUND_TAIL = "round_tail"
LOOP_END = "loop_end"

# percentiles a timing may be reported at; see high_percentile
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
MIN_BEYOND = 10


class Tracer:
    """Records spans for wrapped callables; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.round_idx = -1
        self._stack: list[int] = []
        self._round_span: int | None = None
        self._round_due = True
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round_idx)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.end_round()
            self.close(index)

    def mark(self, event: str) -> None:
        """Advance the round marker; see the module docstring."""
        if event == ROUND_START:
            if self._round_due:
                self.end_round()
                self.round_idx += 1
                self._round_span = self.open(self.name_id(ROUND))
                self._round_due = False
        elif event == ROUND_TAIL:
            self._round_due = True
        elif event == LOOP_END:
            self.end_round()
            self.round_idx = -1
        else:
            raise ValueError(f"unknown round event {event!r}")

    def end_round(self) -> None:
        if self._round_span is not None:
            self.close(self._round_span)
            self._round_span = None

    def wrap(self, owner, attr: str, name: str, mark: str | None = None, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(counts, args, kwargs)`` runs once the call returns, outside
        the span, to add counts that only the arguments show.
        """
        original = vars(owner)[attr]
        nid = self.name_id(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if mark is not None:
                self.mark(mark)
            index = self.open(nid)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)
                if after is not None:
                    after(self.counts, args, kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names, dtype=str),
            "name_id": np.asarray(self.name_ids, dtype=np.int64),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "round": np.asarray(self.rounds, dtype=np.int64),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
        }


class FirstCall:
    """Time of the first call to any of ``attrs`` on ``module``.

    The probes put the original functions back on that first call, so the
    rest of the run goes through no wrapper at all.
    """

    def __init__(self, module, attrs, clock=time.monotonic):
        self.at: float | None = None
        self._module = module
        self._clock = clock
        self._originals = {attr: getattr(module, attr) for attr in attrs}
        for attr, original in self._originals.items():
            setattr(module, attr, self._probe(original))

    def _probe(self, original):
        @functools.wraps(original)
        def probe(*args, **kwargs):
            if self.at is None:
                self.at = self._clock()
                self.restore()
            return original(*args, **kwargs)

        return probe

    def restore(self) -> None:
        for attr, original in self._originals.items():
            setattr(self._module, attr, original)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so direct children never overlap and the
    covered time is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def ladder_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten of ``count`` samples beyond
    it, or None when there are too few samples for even the median."""
    best = None
    for p in PERCENTILE_LADDER:
        # rounded so that e.g. 10000 samples at p99.9 count exactly 10 beyond
        if round(count * (100 - p) / 100, 6) >= MIN_BEYOND:
            best = p
    return best


def high_percentile(values) -> tuple[float, float] | None:
    """(p, value) at :func:`ladder_percentile`, or None without one."""
    values = np.asarray(values, dtype=np.float64)
    p = ladder_percentile(values.size)
    if p is None:
        return None
    return p, float(np.percentile(values, p))
