"""The embedded workloads: one client calling ``db.sql`` in-process."""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

from repro import Database
from repro.workloads import DEP_AVG_SAL_VIEW
from repro.workloads.star import (
    CUST_SPEND_VIEW,
    PRODUCT_VOLUME_VIEW,
    STORE_REVENUE_VIEW,
)

from perfbench import analysis
from perfbench.data import empdept_rows, load, star_rows
from perfbench.loop import (
    SETUPS,
    SETUPS_BEFORE,
    closed_loop,
    measure,
    rss_peak_mb,
)
from perfbench.mixes import (
    MAGIC_VIEWS,
    STAR_ANALYTICS,
    Oracle,
    op_stream,
)
from perfbench.tracer import Tracer, wrap_engine

STAR_VIEWS = (
    ("CustSpend", CUST_SPEND_VIEW.strip()),
    ("ProductVolume", PRODUCT_VOLUME_VIEW.strip()),
    ("StoreRevenue", STORE_REVENUE_VIEW.strip()),
)

WORKLOADS = {
    "star_analytics": (STAR_ANALYTICS, star_rows, {"views": STAR_VIEWS}),
    "magic_views": (MAGIC_VIEWS, empdept_rows, {
        "clustered": (("Emp", "did"), ("Dept", "did")),
        "indexes": (("Emp", "did"), ("Dept", "did")),
        "views": (("DepAvgSal", DEP_AVG_SAL_VIEW.strip()),),
    }),
}


def run(name, seed, seconds, trace):
    templates, make_rows, layout = WORKLOADS[name]
    setups, layers = [], []

    def set_up():
        gc.collect()
        started = time.perf_counter()
        rows = make_rows(seed)
        db = Database()
        layers.append(load(db, rows, **layout))
        setups.append(time.perf_counter() - started)
        return db, rows

    for _ in range(SETUPS_BEFORE):
        db = rows = None  # free the previous set-up before the next
        db, rows = set_up()

    oracle = Oracle(rows)
    ops = op_stream(templates, seed)
    warm = [next(ops) for _ in templates]

    def execute(op, extra):
        result = db.sql(op.sql)
        if extra is not None and result.plan is not None:
            extra["ledger"] = result.ledger.total()
        return result.rows

    for op in warm:
        oracle.check(op, execute(op, None))

    def run_phase(seconds, tracer, tag):
        return closed_loop(ops, execute, oracle.check, seconds, tracer, tag)

    tracer = Tracer()

    @contextmanager
    def tracing():
        def census():
            for i, op in enumerate(warm):
                with tracer.span("op", rid="census%d" % i) as extra:
                    output = execute(op, extra)
                oracle.check(op, output)

        wrap_engine(tracer)
        try:
            yield tracer, census
        finally:
            tracer.unwrap_all()

    untraced, traced = measure(run_phase, seconds,
                               tracing if trace else None)
    out = {"phase": traced or untraced, "rss_peak_mb": rss_peak_mb()}
    cache = db.cache_stats()
    db = rows = None
    for _ in range(SETUPS - SETUPS_BEFORE):
        set_up()
    out["setups"] = setups
    if trace:
        out["layers"] = analysis.layer_metrics(tracer.spans)
        out["layers"].update(analysis.common_layers(
            untraced, traced, layers, cache))
        out["spans"] = tracer.spans
    return out
