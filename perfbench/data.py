"""Seeded input rows for the benchmark, and their loading into an engine.

The benchmark generates every row itself, with the shapes and value
ranges of ``repro.workloads`` (star schema, Emp/Dept, binary-tree
graph), so that the oracle can answer from the same rows without asking
the engine. The engine receives only these rows and SQL text.

Every column is dealt from a fixed multiset of values (evenly spread
over its range, or each choice equally often) and only the seed decides
which row gets which value. So every seed gives each statement the same
selectivities, group sizes and statistics, and the work of a workload
does not depend on its seed; the seed varies the rows and the order of
the statements, not how much there is to do.
"""

from __future__ import annotations

import random
import time

REGIONS = ["north", "south", "east", "west", "central"]
CATEGORIES = ["tools", "toys", "food", "media", "garden"]

STAR_SALES = 20000
STAR_CUSTOMERS = 300
STAR_PRODUCTS = 100
STAR_STORES = 20

EMPDEPT_DEPARTMENTS = 200
EMPDEPT_EMPLOYEES_PER_DEPT = 40
EMPDEPT_BIG_FRACTION = 0.1
EMPDEPT_YOUNG_FRACTION = 0.3
TREE_NODES = 400


def _spread(rng, n, low, high):
    """``n`` integers evenly spread over ``[low, high]``, shuffled."""
    values = [low + (high - low) * i // max(n - 1, 1) for i in range(n)]
    rng.shuffle(values)
    return values


def _deal(rng, n, choices):
    """``n`` picks from ``choices``, each equally often, shuffled."""
    values = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(values)
    return values


def star_rows(seed):
    """Customer, Product, Store and Sales rows (uniform keys)."""
    rng = random.Random(seed)
    customers = list(zip(range(1, STAR_CUSTOMERS + 1),
                         _deal(rng, STAR_CUSTOMERS, REGIONS),
                         _deal(rng, STAR_CUSTOMERS, range(1, 6))))
    products = list(zip(range(1, STAR_PRODUCTS + 1),
                        _deal(rng, STAR_PRODUCTS, CATEGORIES),
                        _spread(rng, STAR_PRODUCTS, 1, 500)))
    stores = list(zip(range(1, STAR_STORES + 1),
                      _deal(rng, STAR_STORES, REGIONS),
                      _spread(rng, STAR_STORES, 1_000, 50_000)))
    n = STAR_SALES
    sales = list(zip(range(1, n + 1),
                     _deal(rng, n, range(1, STAR_CUSTOMERS + 1)),
                     _deal(rng, n, range(1, STAR_PRODUCTS + 1)),
                     _deal(rng, n, range(1, STAR_STORES + 1)),
                     _spread(rng, n, 5, 2_000),
                     _deal(rng, n, range(1, 11))))
    return {"Customer": customers, "Product": products, "Store": stores,
            "Sales": sales}


def empdept_rows(seed):
    """Dept, Emp and a binary-tree Edge graph.

    Exactly ``EMPDEPT_BIG_FRACTION`` of the departments have a budget
    over 100,000, and every department has exactly
    ``EMPDEPT_YOUNG_FRACTION`` of its employees under 30.
    """
    rng = random.Random(seed)
    n_depts = EMPDEPT_DEPARTMENTS
    n_big = round(n_depts * EMPDEPT_BIG_FRACTION)
    budgets = (_spread(rng, n_big, 100_001, 1_000_000)
               + _spread(rng, n_depts - n_big, 10_000, 100_000))
    rng.shuffle(budgets)
    depts = list(zip(range(1, n_depts + 1), budgets))
    per_dept = EMPDEPT_EMPLOYEES_PER_DEPT
    n_young = round(per_dept * EMPDEPT_YOUNG_FRACTION)
    salaries = _spread(rng, n_depts * per_dept, 30_000, 150_000)
    emps = []
    for did in range(1, n_depts + 1):
        ages = (_spread(rng, n_young, 21, 29)
                + _spread(rng, per_dept - n_young, 30, 64))
        rng.shuffle(ages)
        for age in ages:
            eid = len(emps) + 1
            emps.append((eid, did, salaries[eid - 1], age))
    edges = [((child - 2) // 2 + 1, child)
             for child in range(2, TREE_NODES + 1)]
    return {"Dept": depts, "Emp": emps, "Edge": edges}


def _schemas():
    from repro.storage.schema import DataType

    INT, STR = DataType.INT, DataType.STR
    return {
        "Customer": [("cust_id", INT), ("region", STR), ("segment", INT)],
        "Product": [("prod_id", INT), ("category", STR), ("price", INT)],
        "Store": [("store_id", INT), ("region", STR), ("sqft", INT)],
        "Sales": [("sale_id", INT), ("cust_id", INT), ("prod_id", INT),
                  ("store_id", INT), ("amount", INT), ("qty", INT)],
        "Dept": [("did", INT), ("budget", INT)],
        "Emp": [("eid", INT), ("did", INT), ("sal", INT), ("age", INT)],
        "Edge": [("src", INT), ("dst", INT)],
    }


def load(db, rows, indexes=(), clustered=(), views=()):
    """Create and fill ``rows``' tables, then cluster, index and analyze.

    Returns the seconds spent in each set-up layer:
    ``{"load": ..., "index": ..., "analyze": ...}``.
    """
    schemas = _schemas()
    started = time.perf_counter()
    for name, table_rows in rows.items():
        db.create_table(name, schemas[name])
        db.insert(name, table_rows)
    for name, sql in views:
        db.create_view(name, sql)
    loaded = time.perf_counter()
    for table, column in clustered:
        db.catalog.table(table).cluster_by(column)
    for table, column in indexes:
        db.create_index(table, column)
    indexed = time.perf_counter()
    db.analyze()
    analyzed = time.perf_counter()
    return {"load": loaded - started, "index": indexed - loaded,
            "analyze": analyzed - indexed}
