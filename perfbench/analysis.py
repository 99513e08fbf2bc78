"""Turning latency samples and trace spans into the reported metrics."""

from __future__ import annotations

import statistics
from collections import defaultdict

#: span name -> layer, for self-time attribution
LAYERS = {
    "sql.parse": "frontend",
    "sql.bind": "frontend",
    "optimizer.plan": "optimizer",
    "executor.lower": "executor",
    "executor.execute": "executor",
    "txn.update": "txn",
    "txn.commit": "txn",
    "server.client_sql": "server",
    "server.session_sql": "server",
}
SPLIT_LAYERS = ("frontend", "optimizer", "executor", "txn", "server")


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def latency_metrics(samples, prefix="latency"):
    """Median and 90th percentile in ms of ``samples`` (seconds)."""
    ms = [s * 1e3 for s in samples]
    return {prefix + "_p50_ms": p50(ms), prefix + "_p90_ms": p90(ms)}


def link_server_spans(client_spans, server_spans):
    """Merge the server process's spans under the client spans that
    sent them.

    A ``server.session_sql`` span's request id is ``conn#n``; the
    ``server.client_sql`` span carrying the same ``link`` becomes its
    parent, and the server spans take over the op's request id. Server
    span ids are offset so they cannot collide with the client's.
    """
    offset = 1 + max((s[0] for s in client_spans), default=0)
    by_link = {s[6]["link"]: s for s in client_spans
               if s[2] == "server.client_sql"}
    merged = list(client_spans)
    for sid, parent, name, rid, start, end, extra in server_spans:
        client = by_link.get(rid)
        if client is None:
            continue  # a statement sent while the client was untraced
        if parent is None:
            parent = client[0]
        else:
            parent += offset
        merged.append((sid + offset, parent, name, client[3], start, end,
                       extra))
    return merged


def layer_metrics(spans):
    """Per-layer metrics from the spans of the traced timed ops; counts
    come from the census ops (request ids ``census...``)."""
    timed = [s for s in spans if not s[3].startswith("census")]
    by_id = {s[0]: s for s in timed}
    covered = defaultdict(int)
    for s in timed:
        if s[1] in by_id:
            covered[s[1]] += s[5] - s[4]
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    duration_ns = defaultdict(int)
    op_ns = 0
    for s in timed:
        name = s[2]
        own = (s[5] - s[4]) - covered[s[0]]
        self_ns[name] += own
        duration_ns[name] += s[5] - s[4]
        parent = by_id.get(s[1])
        if name == "sql.bind" and parent is not None \
                and parent[2] == "sql.bind":
            continue  # a nested bind is part of its caller's call
        calls[name] += 1
        if name == "op":
            op_ns += s[5] - s[4]

    def per_call(name, scale):
        return self_ns[name] / calls[name] / scale if calls[name] else 0.0

    def mean_duration(name, scale):
        return (duration_ns[name] / calls[name] / scale
                if calls[name] else 0.0)

    candidates = sum(s[6].get("candidates", 0) for s in timed
                     if s[2] == "optimizer.plan")
    out = {
        "sql.parse_us": per_call("sql.parse", 1e3),
        "sql.bind_us": per_call("sql.bind", 1e3),
        "optimizer.plan_ms": per_call("optimizer.plan", 1e6),
        "optimizer.us_per_candidate": (
            self_ns["optimizer.plan"] / 1e3 / candidates
            if candidates else 0.0),
        "executor.lower_us": per_call("executor.lower", 1e3),
        "executor.execute_ms": per_call("executor.execute", 1e6),
        "txn.update_ms": per_call("txn.update", 1e6),
        "txn.commit_us": per_call("txn.commit", 1e3),
        "server.roundtrip_ms": mean_duration("server.client_sql", 1e6),
        "server.engine_ms": mean_duration("server.session_sql", 1e6),
        "server.lock_wait_ms": per_call("server.session_sql", 1e6),
    }
    out["server.overhead_ms"] = (out["server.roundtrip_ms"]
                                 - out["server.engine_ms"])
    layer_ns = defaultdict(int)
    for name, ns in self_ns.items():
        layer_ns[LAYERS.get(name, "other")] += ns
    for layer in SPLIT_LAYERS:
        out["split." + layer] = layer_ns[layer] / op_ns if op_ns else 0.0
    out.update(census_counts(spans))
    return out


def census_counts(spans):
    """Plan-choice sentinels: mean DP candidates and nested
    optimizations per plan, mean ledger units per executed statement
    and mean rows out per executed plan, over the census ops."""
    census = [s for s in spans if s[3].startswith("census")]
    plans = [s[6] for s in census if s[2] == "optimizer.plan"]
    executes = [s[6] for s in census if s[2] == "executor.execute"]
    ledgers = [s[6]["ledger"] for s in census if "ledger" in s[6]]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "optimizer.candidates": mean([p["candidates"] for p in plans]),
        "optimizer.nested_optimizations": mean([p["nested"]
                                                for p in plans]),
        "executor.ledger_units": mean(ledgers),
        "executor.rows_out": mean([e["rows"] for e in executes]),
    }


def common_layers(untraced, traced, setup_layers, cache):
    """Set-up layers (median over the run's set-ups), plan-cache use
    and the tracing overhead of the traced phase."""
    lookups = cache["hits"] + cache["misses"]
    base = untraced.completed / untraced.seconds
    with_trace = traced.completed / traced.seconds

    def median(layer):
        return statistics.median(x[layer] for x in setup_layers)

    return {
        "storage.load_s": median("load"),
        "storage.index_s": median("index"),
        "stats.analyze_s": median("analyze"),
        "plancache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "trace.overhead_frac": 1.0 - with_trace / base,
    }
