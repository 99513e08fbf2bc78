"""In-memory span recorder that wraps public entry points of the engine.

The benchmark never edits the engine: it replaces a function or method
attribute with a wrapper that records one span per call, and restores
the original when tracing stops. A span is the tuple
``(id, parent, name, rid, start_ns, end_ns, extra)``; the parent is the
innermost open span on the same thread, and ``rid`` (the request id) is
inherited from it unless the span sets its own.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, rid=None, extra=None):
        """Record one span around the ``with`` body; yields the dict
        that ends up as the span's ``extra`` field."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[1]
        sid = next(self._ids)
        extra = {} if extra is None else extra
        stack.append((sid, rid))
        start = time.perf_counter_ns()
        try:
            yield extra
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent[0] if parent else None, name,
                               rid, start, end, extra))

    def wrap(self, owner, attr, name, on_result=None, before=None):
        """Replace ``owner.attr`` with a traced wrapper.

        ``before(extra, args)`` runs first and may return a request id
        for the span; ``on_result(extra, args, result)`` may add counts.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            extra = {}
            rid = before(extra, args) if before is not None else None
            with tracer.span(name, rid, extra):
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(extra, args, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def wrap_engine(tracer):
    """Wrap the engine's statement path: parse, bind, plan, lower,
    execute and the transaction write path, each where the engine
    itself looks it up."""
    import repro.database as database
    from repro.sql.binder import Binder
    from repro.txn.manager import TransactionManager

    def plan_counts(extra, args, result):
        metrics = result[1].metrics
        extra["candidates"] = metrics.plans_considered
        extra["nested"] = metrics.nested_optimizations

    def row_count(extra, args, result):
        extra["rows"] = len(result[0])

    tracer.wrap(database, "parse", "sql.parse")
    for method in ("bind", "bind_with", "bind_union"):
        tracer.wrap(Binder, method, "sql.bind")
    tracer.wrap(database.Database, "plan", "optimizer.plan",
                on_result=plan_counts)
    tracer.wrap(database, "lower", "executor.lower")
    tracer.wrap(database, "execute_tree", "executor.execute",
                on_result=row_count)
    tracer.wrap(TransactionManager, "do_update", "txn.update")
    tracer.wrap(TransactionManager, "commit", "txn.commit")
