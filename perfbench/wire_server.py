"""The ``wire_oltp`` server process: the star schema behind a
``repro.server.Server``, driven over stdin by the benchmark.

Prints one JSON line when it listens (``port`` and set-up layer
times), then answers each stdin command with one JSON line:
``trace on`` / ``trace off`` install or remove the span wrappers, and
``stop`` (or end of input) shuts the server down and reports the spans,
peak RSS, plan-cache counters and connections seen.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import Database  # noqa: E402
from repro.database import Session  # noqa: E402
from repro.server import Server  # noqa: E402

from perfbench.data import load, star_rows  # noqa: E402
from perfbench.embedded import STAR_VIEWS  # noqa: E402
from perfbench.loop import rss_peak_mb  # noqa: E402
from perfbench.tracer import Tracer, wrap_engine  # noqa: E402


def emit(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def trace_server(tracer, sent):
    """Wrap the engine plus ``Session.sql``; a session's n-th traced
    statement gets request id ``<session>#<n>``, which the client side
    gives the matching ``Client.sql`` call. ``sent`` counts traced
    statements per session across installs."""

    def request_id(extra, args):
        name = args[0].name
        sent[name] = sent.get(name, 0) + 1
        return "%s#%d" % (name, sent[name])

    def ledger(extra, args, result):
        if result.plan is not None:
            extra["ledger"] = result.ledger.total()

    wrap_engine(tracer)
    tracer.wrap(Session, "sql", "server.session_sql", on_result=ledger,
                before=request_id)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    db = Database()
    layers = load(db, star_rows(args.seed), indexes=(("Sales", "sale_id"),),
                  views=STAR_VIEWS)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(Server(db).start(),
                                              loop).result()
    emit({"port": server.port, "layers": layers})

    tracer, sent = Tracer(), {}
    for line in sys.stdin:
        command = line.strip()
        if command == "trace on":
            trace_server(tracer, sent)
        elif command == "trace off":
            tracer.unwrap_all()
        elif command == "stop":
            break
        else:
            emit({"error": "unknown command %r" % command})
            continue
        emit({"ok": True})
    tracer.unwrap_all()
    deadline = time.monotonic() + 30
    while server.connections and time.monotonic() < deadline:
        time.sleep(0.01)  # let closed connections finish their cleanup
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    emit({"spans": tracer.spans, "rss_peak_mb": rss_peak_mb(),
          "cache": db.cache_stats(),
          "connections": server.total_connections})


if __name__ == "__main__":
    main()
