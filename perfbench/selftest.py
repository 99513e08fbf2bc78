"""Self-test of the benchmark harness (takes about half a minute).

    python3 perfbench/selftest.py

Checks that the harness
- aborts a run when the engine's answer is wrong, embedded and over
  the wire, including the final-state check of ``wire_oltp``;
- counts a forced typed engine error as a failed op and goes on;
- opens at most ``nproc`` client connections from one process;
- reports exactly the metric names ``BENCHMARK.json`` lists.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import embedded, run, wire  # noqa: E402
from perfbench.mixes import (  # noqa: E402
    Op, Oracle, OracleMismatch, Template, WireOp)

SEED = 3


class SelfTestFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def wrong_answer_aborts():
    real = Oracle.expected

    def off_by_one(self, op):
        rows = real(self, op)
        return rows[1:] if op.template.name == "emp_dept" else rows

    with mock.patch.object(Oracle, "expected", off_by_one):
        try:
            embedded.run("magic_views", SEED, 0.5, False)
        except OracleMismatch as exc:
            expect("D.budget >" in str(exc),
                   "the mismatch names the statement: %s" % exc)
            return
    raise SelfTestFailure("a wrong embedded answer did not abort the run")


def wire_oracle_rejects():
    sales = [(1, 1, 1, 1, 100, 5), (2, 1, 1, 2, 50, 7)]
    oracle = wire.WireOracle(sales, clients=2)
    for op, rows in ((WireOp("point", 1), [(99,)]),
                     (WireOp("scan", 1), [(1, 100), (2, 51)]),
                     (WireOp("txn", 2), [(0,)])):
        try:
            oracle.check(op, rows)
        except OracleMismatch:
            continue
        raise SelfTestFailure("wire oracle accepted %r for %r" % (rows, op))
    oracle.committed[0] = Counter({1: 2})
    oracle.check_final([(1, 7), (2, 7)])
    try:
        oracle.check_final([(1, 6), (2, 7)])
    except OracleMismatch:
        return
    raise SelfTestFailure("final-state check missed a lost update")


def typed_error_is_counted():
    bad = Template("bad", "SELECT nope FROM Dept", oracle=None)
    real = embedded.op_stream

    def with_bad_op(templates, seed):
        for i, op in enumerate(real(templates, seed)):
            if i == 2 * len(templates):  # after the warm-up cycle
                yield Op(bad, (), bad.sql)
            yield op

    with mock.patch.object(embedded, "op_stream", with_bad_op):
        result = embedded.run("magic_views", SEED, 1.0, False)
    phase = result["phase"]
    expect(phase.failed == 1, "the forced BindError was not counted")
    expect(phase.completed == phase.attempted - 1,
           "a failed op must not count as completed")


def connections_capped():
    nproc = os.cpu_count() or 1
    expect(wire.client_count(64) <= nproc, "client count above nproc")
    result = wire.run(SEED, 1.0, False)
    expect(result["connections"] == wire.client_count(),
           "server saw %d connections" % result["connections"])
    expect(result["connections"] <= nproc, "connections above nproc")


def metric_names_match():
    end_to_end, per_layer = run.load_spec()
    record, _ = run.run_workload("magic_views", SEED, 1.0, True)
    reported = set(record["metrics"])
    missing = (set(end_to_end) | set(per_layer)) - reported
    expect(not missing, "metrics not reported: %s" % sorted(missing))
    unknown = reported - set(end_to_end) - set(per_layer) - set(
        run.EXTRA_UNITS)
    expect(not unknown, "metrics without a unit: %s" % sorted(unknown))


CHECKS = (wrong_answer_aborts, wire_oracle_rejects, typed_error_is_counted,
          connections_capped, metric_names_match)


def main():
    for check in CHECKS:
        try:
            check()
        except SelfTestFailure as exc:
            print("FAIL %s: %s" % (check.__name__, exc))
            return 1
        print("ok   %s" % check.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
