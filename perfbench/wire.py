"""The ``wire_oltp`` workload: a server process loaded by this process
over at most ``nproc`` TCP connections, one closed-loop client each."""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.errors import ReproError, TransactionAborted
from repro.server import Client

from perfbench import analysis
from perfbench.data import STAR_SALES, star_rows
from perfbench.loop import SETUPS, SETUPS_BEFORE, closed_loop, measure
from perfbench.mixes import (
    WIRE_CYCLE,
    WIRE_POINT,
    WIRE_SCAN,
    WIRE_UPDATE,
    OracleMismatch,
    canonical,
    wire_scan_expected,
    wire_stream,
)
from perfbench.tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WIRE_CLIENTS = 2
SERVER_START_TIMEOUT = 120
COMMAND_TIMEOUT = 60


class HarnessError(Exception):
    """The harness itself misbehaved (not the engine's answer)."""


def client_count(requested=WIRE_CLIENTS):
    """Client connections to open: never more than this machine's
    cores, so the load generator cannot outrun the server."""
    return max(1, min(requested, os.cpu_count() or 1))


class ServerProcess:
    """The server child; always ``close()`` it."""

    def __init__(self, seed):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "wire_server.py"),
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self._reply(SERVER_START_TIMEOUT)
        self.port = ready["port"]
        self.layers = ready["layers"]

    def _reply(self, timeout):
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise HarnessError("server process gave no reply (exit %r)"
                               % self.proc.poll())
        return json.loads(line)

    def command(self, command, timeout=COMMAND_TIMEOUT):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        reply = self._reply(timeout)
        if "error" in reply:
            raise HarnessError(reply["error"])
        return reply

    def stop(self):
        reply = self.command("stop")
        self.proc.wait(timeout=COMMAND_TIMEOUT)
        return reply

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class WireOracle:
    """Expected answers from the generated rows: fixed amounts per
    ``sale_id``, fixed per-store revenue, one row per update, and a
    final ``qty`` per key raised by exactly the committed updates."""

    def __init__(self, sales, clients):
        self.amount = {s[0]: s[4] for s in sales}
        self.qty = {s[0]: s[5] for s in sales}
        self.scan = canonical(wire_scan_expected(sales))
        self.committed = [Counter() for _ in range(clients)]

    def check(self, op, rows):
        kind, key = op
        if kind == "point":
            ok = rows == [(self.amount[key],)]
            text = WIRE_POINT.format(key=key)
        elif kind == "scan":
            ok = canonical(rows) == self.scan
            text = WIRE_SCAN
        else:
            ok = rows == [(1,)]
            text = WIRE_UPDATE.format(key=key)
        if not ok:
            raise OracleMismatch("wrong answer %r for: %s" % (rows[:3], text))

    def check_final(self, rows):
        committed = sum(self.committed, Counter())
        wrong = [(key, qty) for key, qty in rows
                 if qty != self.qty[key] + committed[key]]
        if wrong or len(rows) != len(self.qty):
            raise OracleMismatch(
                "final qty differs from committed updates on %d key(s), "
                "e.g. %r, for: SELECT sale_id, qty FROM Sales"
                % (len(wrong), wrong[:3]))


def execute(client, committed):
    """``execute(op, extra)`` for one client connection."""

    def run(op, extra):
        kind, key = op
        if kind == "point":
            return client.sql(WIRE_POINT.format(key=key)).rows
        if kind == "scan":
            return client.sql(WIRE_SCAN).rows
        client.sql("BEGIN")
        try:
            updated = client.sql(WIRE_UPDATE.format(key=key)).rows
            outcome = client.sql("COMMIT").statement_kind
        except ReproError:
            client.sql("ROLLBACK")
            raise
        if outcome != "commit":
            raise TransactionAborted("COMMIT rolled back")
        committed[key] += 1
        return updated

    return run


def trace_clients(tracer, sent):
    """Wrap ``Client.sql``; its n-th traced call on connection ``cK``
    carries the link ``cK#n`` that the server gives the same request.
    ``sent`` counts traced calls per connection across installs."""

    def link(extra, args):
        conn = args[0].conn_id
        sent[conn] += 1
        extra["link"] = "%s#%d" % (conn, sent[conn])

    tracer.wrap(Client, "sql", "server.client_sql", before=link)


def run(seed, seconds, trace):
    clients_n = client_count()
    setups, setup_layers = [], []
    server, clients = None, []

    def set_up():
        nonlocal server, clients
        if server is not None:
            _close_clients(clients)
            server.stop()
            server.close()
        started = time.perf_counter()
        server = ServerProcess(seed)
        clients = [Client("127.0.0.1", server.port)
                   for _ in range(clients_n)]
        setups.append(time.perf_counter() - started)
        setup_layers.append(server.layers)

    try:
        for _ in range(SETUPS_BEFORE):
            set_up()

        oracle = WireOracle(star_rows(seed)["Sales"], clients_n)
        runners = [execute(c, oracle.committed[i])
                   for i, c in enumerate(clients)]
        streams = [wire_stream(STAR_SALES, clients_n, i, seed)
                   for i in range(clients_n)]
        warm = [[next(s) for _ in WIRE_CYCLE] for s in streams]
        for runner, ops in zip(runners, warm):
            for op in ops:
                oracle.check(op, runner(op, None))

        def run_phase(seconds, tracer, tag):
            with ThreadPoolExecutor(max_workers=clients_n) as pool:
                futures = [
                    pool.submit(closed_loop, streams[i], runners[i],
                                oracle.check, seconds, tracer,
                                "%s%d-" % (tag, i))
                    for i in range(clients_n)]
                phases = [f.result() for f in futures]
            for other in phases[1:]:
                phases[0].merge(other, concurrent=True)
            return phases[0]

        tracer = Tracer()
        sent = Counter()

        @contextmanager
        def tracing():
            def census():
                for i, (runner, ops) in enumerate(zip(runners, warm)):
                    for j, op in enumerate(ops):
                        with tracer.span("op", rid="census%d-%d" % (i, j)):
                            rows = runner(op, None)
                        oracle.check(op, rows)

            server.command("trace on")
            trace_clients(tracer, sent)
            try:
                yield tracer, census
            finally:
                tracer.unwrap_all()
                server.command("trace off")

        untraced, traced = measure(run_phase, seconds,
                                   tracing if trace else None)
        oracle.check_final(
            clients[0].sql("SELECT sale_id, qty FROM Sales").rows)
        _close_clients(clients)
        clients = []
        report = server.stop()
        if report["connections"] > (os.cpu_count() or 1):
            raise HarnessError("server saw %d connections, more than "
                               "nproc" % report["connections"])
        server.close()
        server = None
        for _ in range(SETUPS - SETUPS_BEFORE):
            set_up()
        _close_clients(clients)
        server.stop()
        out = {
            "phase": traced or untraced,
            "setups": setups,
            "rss_peak_mb": report["rss_peak_mb"],
            "connections": report["connections"],
        }
        if trace:
            out["spans"] = analysis.link_server_spans(
                tracer.spans, [tuple(s) for s in report["spans"]])
            out["layers"] = analysis.layer_metrics(out["spans"])
            out["layers"].update(analysis.common_layers(
                untraced, traced, setup_layers, report["cache"]))
        return out
    finally:
        _shutdown(server, clients)


def _close_clients(clients):
    for client in clients:
        client.close()


def _shutdown(server, clients):
    _close_clients(clients)
    if server is not None:
        server.close()
