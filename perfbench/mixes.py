"""Statement mixes of the three workloads and their oracles.

Each embedded workload is a list of templates. A template is SQL text
with literals drawn from a small fixed domain and an oracle that
computes the expected rows in plain Python from the generated rows,
never through the engine.

The op stream repeats cycles of one op per template in a seeded order
and deals each template's literals evenly, so the share of each
statement is the same on every seed and only the order varies.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Tuple


class OracleMismatch(Exception):
    """The engine returned a wrong answer; the run is aborted."""


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    oracle: Callable
    domain: Dict[str, Tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    template: Template
    literals: Tuple
    sql: str

    @property
    def kind(self):
        return self.template.name


class WireOp(NamedTuple):
    kind: str  # "point", "txn" or "scan"
    key: int


def canonical(rows):
    """A multiset of rows with floats rounded, for order-free equality."""
    return Counter(tuple(round(v, 6) if isinstance(v, float) else v
                         for v in row) for row in rows)


def check_rows(op, actual, expected):
    if canonical(actual) != canonical(expected):
        raise OracleMismatch(
            "wrong answer (%d rows, expected %d) for: %s"
            % (len(actual), len(expected), op.sql))


def op_stream(templates, seed):
    """Endless seeded sequence of ops over ``templates``.

    Each template's literal combinations are dealt like cards: every
    combination once, in a seeded order, before any repeats, so that
    each run sees each statement text about equally often.
    """
    rng = random.Random("ops:%d" % seed)
    decks = {t.name: [] for t in templates}
    while True:
        cycle = list(templates)
        rng.shuffle(cycle)
        for template in cycle:
            deck = decks[template.name]
            if not deck:
                keys = sorted(template.domain)
                deck.extend(tuple(zip(keys, values)) for values in
                            itertools.product(*(template.domain[k]
                                                for k in keys)))
                rng.shuffle(deck)
            literals = deck.pop()
            yield Op(template, literals,
                     template.sql.format(**dict(literals)))


class Oracle:
    """Expected answers for one workload's generated rows, memoized by
    statement (literal domains are small, so texts repeat)."""

    def __init__(self, rows):
        self.rows = rows
        self._memo = {}

    def expected(self, op):
        key = (op.template.name, op.literals)
        if key not in self._memo:
            self._memo[key] = op.template.oracle(self.rows,
                                                 **dict(op.literals))
        return self._memo[key]

    def check(self, op, actual_rows):
        check_rows(op, actual_rows, self.expected(op))


# ------------------------------------------------------------ star_analytics


def _star_join(d, price):
    region = {c[0]: c[1] for c in d["Customer"]}
    product = {p[0]: (p[1], p[2]) for p in d["Product"]}
    revenue = defaultdict(int)
    for _sid, cust, prod, _store, amount, _qty in d["Sales"]:
        category, p_price = product[prod]
        if p_price > price:
            revenue[(region[cust], category)] += amount
    return [(r, c, v) for (r, c), v in revenue.items()]


def _sums(sales, key, value):
    out = defaultdict(int)
    for sale in sales:
        out[sale[key]] += sale[value]
    return out


def _cust_spend(d, segment):
    spend = _sums(d["Sales"], 1, 4)
    return [(region, spend[cid]) for cid, region, seg in d["Customer"]
            if seg == segment and cid in spend]


def _product_volume(d, price):
    qty = _sums(d["Sales"], 2, 5)
    return [(category, qty[pid]) for pid, category, p in d["Product"]
            if p > price and pid in qty]


def _store_revenue(d, sqft):
    revenue = _sums(d["Sales"], 3, 4)
    return [(region, revenue[sid]) for sid, region, size in d["Store"]
            if size > sqft and sid in revenue]


def _scan_agg(d, amount):
    groups = defaultdict(list)
    for sale in d["Sales"]:
        if sale[4] > amount:
            groups[sale[3]].append(sale[4])
    return [(sid, len(v), sum(v), min(v), max(v))
            for sid, v in groups.items()]


STAR_ANALYTICS = [
    Template("star_join",
             "SELECT C.region, P.category, SUM(S.amount) AS revenue "
             "FROM Sales S, Customer C, Product P "
             "WHERE S.cust_id = C.cust_id AND S.prod_id = P.prod_id "
             "AND P.price > {price} GROUP BY C.region, P.category",
             _star_join, {"price": (100, 200, 300, 400)}),
    Template("cust_spend",
             "SELECT C.region, V.total_spend FROM Customer C, CustSpend V "
             "WHERE C.cust_id = V.cust_id AND C.segment = {segment}",
             _cust_spend, {"segment": (1, 2, 3, 4, 5)}),
    Template("product_volume",
             "SELECT P.category, V.total_qty "
             "FROM Product P, ProductVolume V "
             "WHERE P.prod_id = V.prod_id AND P.price > {price}",
             _product_volume, {"price": (300, 350, 400, 450)}),
    Template("store_revenue",
             "SELECT S2.region, V.revenue FROM Store S2, StoreRevenue V "
             "WHERE S2.store_id = V.store_id AND S2.sqft > {sqft}",
             _store_revenue, {"sqft": (30000, 35000, 40000, 45000)}),
    Template("scan_agg",
             "SELECT S.store_id, COUNT(*) AS n, SUM(S.amount) AS revenue, "
             "MIN(S.amount) AS smallest, MAX(S.amount) AS largest "
             "FROM Sales S WHERE S.amount > {amount} GROUP BY S.store_id",
             _scan_agg, {"amount": (50, 100, 500, 1000)}),
]


# --------------------------------------------------------------- magic_views


def _avg_sal(d):
    total, count = defaultdict(int), defaultdict(int)
    for _eid, did, sal, _age in d["Emp"]:
        total[did] += sal
        count[did] += 1
    return {did: total[did] / count[did] for did in total}


def _motivating(d):
    budget = dict(d["Dept"])
    avg = _avg_sal(d)
    return [(did, sal, avg[did]) for _eid, did, sal, age in d["Emp"]
            if age < 30 and budget[did] > 100000 and sal > avg[did]]


def _dept_view(d, budget):
    avg = _avg_sal(d)
    return [(did, avg[did]) for did, b in d["Dept"]
            if b > budget and did in avg]


def _emp_dept(d, budget):
    budgets = dict(d["Dept"])
    return [(eid, budgets[did]) for eid, did, _sal, _age in d["Emp"]
            if budgets[did] > budget]


def _reach(d, node):
    children = defaultdict(list)
    for src, dst in d["Edge"]:
        children[src].append(dst)
    seen, queue = set(), deque(children[node])
    while queue:
        v = queue.popleft()
        if v not in seen:
            seen.add(v)
            queue.extend(children[v])
    return [(node, v) for v in seen]


MAGIC_VIEWS = [
    Template("motivating",
             "SELECT E.did, E.sal, V.avgsal "
             "FROM Emp E, Dept D, DepAvgSal V "
             "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
             "AND E.age < 30 AND D.budget > 100000",
             _motivating),
    Template("dept_view",
             "SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V "
             "WHERE D.did = V.did AND D.budget > {budget}",
             _dept_view, {"budget": (200000, 400000, 600000, 800000)}),
    Template("emp_dept",
             "SELECT E.eid, D.budget FROM Emp E, Dept D "
             "WHERE E.did = D.did AND D.budget > {budget}",
             _emp_dept, {"budget": (100000, 200000, 400000, 800000)}),
    Template("reach",
             "WITH RECURSIVE tc(x, y) AS ("
             "SELECT src, dst FROM Edge UNION "
             "SELECT t.x, e.dst FROM tc t, Edge e WHERE t.y = e.src) "
             "SELECT x, y FROM tc WHERE x = {node} ORDER BY x, y",
             _reach, {"node": (2, 5, 11, 23, 47, 95)}),
]


# ----------------------------------------------------------------- wire_oltp

WIRE_POINT = "SELECT amount FROM Sales WHERE sale_id = {key}"
WIRE_UPDATE = "UPDATE Sales SET qty = qty + 1 WHERE sale_id = {key}"
WIRE_SCAN = ("SELECT store_id, SUM(amount) AS revenue FROM Sales "
             "GROUP BY store_id")
#: one cycle of a wire client: 70% point reads, 25% update
#: transactions, 5% GROUP BY scans
WIRE_CYCLE = ("point",) * 14 + ("txn",) * 5 + ("scan",)
WIRE_ZIPF_SKEW = 0.99


def wire_stream(num_keys, clients, client, seed):
    """Endless :class:`WireOp` ops of one wire client.

    Keys are Zipf-skewed over the ``sale_id``s this client owns: the
    seeded permutation of all keys is dealt round-robin to the clients,
    so two clients never write the same row and no transaction meets a
    write conflict. Hot keys are scattered over the table.
    """
    keys = list(range(1, num_keys + 1))
    random.Random("keys:%d" % seed).shuffle(keys)
    owned = keys[client::clients]
    cumulative, total = [], 0.0
    for rank in range(1, len(owned) + 1):
        total += 1.0 / rank ** WIRE_ZIPF_SKEW
        cumulative.append(total)
    rng = random.Random("wire:%d:%d" % (seed, client))
    while True:
        cycle = list(WIRE_CYCLE)
        rng.shuffle(cycle)
        for kind in cycle:
            rank = bisect.bisect_left(cumulative, rng.random() * total)
            yield WireOp(kind, owned[min(rank, len(owned) - 1)])


def wire_scan_expected(sales):
    return [(store, revenue)
            for store, revenue in _sums(sales, 3, 4).items()]
