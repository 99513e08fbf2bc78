"""Compare two sets of benchmark results under BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records ``perfbench/run.py --out`` appends, one run
per line. For every workload and every end-to-end metric this prints
the median of each set, its spread (the distance between the first and
third quartile as a share of the median) and, given two sets, the
change and a verdict:

- ``regressed``: the new median is worse than the base median by more
  than the metric's bound;
- ``unresolved``: the base set's own spread exceeds the bound and not
  every new run beats every base run;
- ``improved``: better by more than the base set's spread;
- ``within bound`` otherwise.

Metrics without a bound (per-layer, and the extra metrics of the
readable report) are listed with medians only. With one set, the
verdict says whether each spread is within a third of the bound, the
target for a steady benchmark. Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_records(path):
    """``{(workload, trace): {metric: [values...]}}`` from one file."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            runs = out[(record["workload"], record["trace"])]
            for name, value in record["metrics"].items():
                runs[name].append(value)
    return out


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("nan")


def verdict(base, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change = (statistics.median(new) - base_median) / abs(base_median)
    worse = sign * change
    base_spread = spread(base)
    if worse > bound:
        return "regressed"
    beats = ((max(new) < min(base)) if better == "lower"
             else (min(new) > max(base)))
    if base_spread > bound and not beats:
        return "unresolved"
    if -worse > base_spread:
        return "improved"
    return "within bound"


def compare(sets, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    keys = sorted(set().union(*sets))
    for workload, trace in keys:
        print("%s (trace %d)" % (workload, trace))
        columns = [s.get((workload, trace), {}) for s in sets]
        names = list(dict.fromkeys(n for c in columns for n in c))
        for name in names:
            values = [c.get(name, []) for c in columns]
            if not all(values):
                continue
            cells = ["%12.4f ±%5.1f%% (n=%d)"
                     % (statistics.median(v), 100 * spread(v), len(v))
                     for v in values]
            metric = bounds.get(name)
            if metric is None or trace:
                note = "no bound"
            elif len(values) == 1:
                steady = spread(values[0]) < metric["bound"] / 3
                note = ("steady (bound %.2f)" if steady
                        else "spread above a third of bound %.2f"
                        ) % metric["bound"]
            else:
                note = verdict(values[0], values[1], metric["bound"],
                               metric["better"])
                regressed |= note == "regressed"
                change = (statistics.median(values[1])
                          / statistics.median(values[0]) - 1.0)
                note = "%+6.1f%%  %s" % (100 * change, note)
            print("  %-30s %s  %s" % (name, "  ".join(cells), note))
    return regressed


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return 1 if compare([read_records(p) for p in args], spec) else 0


if __name__ == "__main__":
    sys.exit(main())
