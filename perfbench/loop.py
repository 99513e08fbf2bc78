"""The closed loop shared by every workload, and run-level helpers."""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import ReproError

#: set-ups per process of a run; ``setup_s`` is the median over the
#: run's set-ups. The first SETUPS_BEFORE happen before the
#: measurement, which uses the last of them, and the rest after it, so
#: that the median spans the run.
SETUPS = 2
SETUPS_BEFORE = 1
#: a traced run alternates this many untraced and traced slices, so
#: that both modes see the same machine and their throughput compares
SLICES = 5


@dataclass
class Phase:
    """One timed stretch of a closed loop."""

    latencies: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0

    @property
    def completed(self):
        return sum(len(v) for v in self.latencies.values())

    def merge(self, other, concurrent):
        """Fold in another client's phase over the same window
        (``concurrent``) or a later phase of the same clients."""
        for kind, values in other.latencies.items():
            self.latencies[kind].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        if concurrent:
            self.seconds = max(self.seconds, other.seconds)
        else:
            self.seconds += other.seconds
        return self

    def all_latencies(self):
        return [v for values in self.latencies.values() for v in values]


def closed_loop(ops, execute, check, seconds, tracer=None, tag="op"):
    """Send the next op only after the previous one completed, for
    ``seconds`` of loop time.

    ``execute(op, extra)`` runs one op (``extra`` is the op span's
    dict when traced, else None); a typed engine error counts the op as
    failed and the loop goes on. ``check(op, output)`` raises on a wrong
    answer, which aborts the run. Oracle time is excluded from both the
    window and the measured seconds.
    """
    phase = Phase()
    excluded = 0.0
    start = time.perf_counter()
    while time.perf_counter() - excluded - start < seconds:
        op = next(ops)
        phase.attempted += 1
        span = (nullcontext() if tracer is None else
                tracer.span("op", rid="%s%d" % (tag, phase.attempted),
                            extra={"kind": op.kind}))
        began = time.perf_counter()
        try:
            with span as extra:
                output = execute(op, extra)
        except ReproError:
            phase.failed += 1
            continue
        ended = time.perf_counter()
        phase.latencies[op.kind].append(ended - began)
        check(op, output)
        excluded += time.perf_counter() - ended
    phase.seconds = time.perf_counter() - start - excluded
    return phase


def measure(run_phase, seconds, tracing=None):
    """Run the closed loop for ``seconds``; returns ``(untraced,
    traced)`` phases.

    ``run_phase(seconds, tracer, tag)`` runs one phase. Without
    ``tracing`` the whole time is one untraced phase and ``traced`` is
    None. Otherwise ``tracing()`` is a context manager that installs
    the span wrappers and yields ``(tracer, census)``: ``census()`` runs
    once, in the first traced slice, before its timed ops.
    """
    if tracing is None:
        return run_phase(seconds, None, "op"), None
    untraced, traced = Phase(), Phase()
    share = seconds / (2 * SLICES)
    for k in range(SLICES):
        untraced.merge(run_phase(share, None, "op"), concurrent=False)
        with tracing() as (tracer, census):
            if k == 0:
                census()
            traced.merge(run_phase(share, tracer, "b%d-" % k),
                         concurrent=False)
    return untraced, traced


def rss_peak_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
