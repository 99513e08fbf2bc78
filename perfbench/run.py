"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload star_analytics --seed 1 \\
        --seconds 10 --trace 0 [--out results.jsonl]

Workloads: ``star_analytics``, ``magic_views``, ``wire_oltp``, or
``all`` (each of them, untraced then traced). Every run uses the
engine's default ``Options``. With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics. The lines before it are a readable report of every metric,
with units and sample counts. ``--out`` appends the full record
(seed included) to a JSON-lines file that ``perfbench/compare.py``
reads. A traced run writes the spans of each of its processes to
``perfbench/out/``.

A run is ``PROCESSES`` fresh processes, one after another, each setting
up and measuring for an equal share of ``--seconds``; every metric is
the median over them (``setup_s`` over all their set-ups). On a shared
2-core VM one Python process was measured running the same work 10-30%
faster or slower than the next and keeping that speed for its whole
life, so a run of one process carries that luck into every figure.

A wrong answer from the engine aborts the run with exit code 1 and the
statement text on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("star_analytics", "magic_views", "wire_oltp")

#: processes per run, one after another; see the module docstring
PROCESSES = 3
#: a process that takes longer than this past its share of the run
#: is stopped and the run fails
PROCESS_GRACE_SECONDS = 60

#: reported by every run but outside BENCHMARK.json: zero on healthy
#: runs, or measured on only one workload
EXTRA_UNITS = {
    "failed_frac": "ratio",
    "point_p50_ms": "ms", "point_p90_ms": "ms",
    "txn_p50_ms": "ms", "txn_p90_ms": "ms",
    "scan_p50_ms": "ms",
    "storage.index_s": "s",
    "txn.update_ms": "ms", "txn.commit_us": "us",
    "server.roundtrip_ms": "ms", "server.engine_ms": "ms",
    "server.overhead_ms": "ms", "server.lock_wait_ms": "ms",
}
#: wire_oltp's op kinds, reported as their own latency metrics
WIRE_CLASSES = (("point", True), ("txn", True), ("scan", False))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns ``(record, spans)``."""
    if name == "wire_oltp":
        from perfbench import wire as driver
        result = driver.run(seed, seconds, trace)
    else:
        from perfbench import embedded as driver
        result = driver.run(name, seed, seconds, trace)
    from perfbench.analysis import latency_metrics

    phase = result["phase"]
    samples = phase.all_latencies()
    metrics = {
        "setup_s": statistics.median(result["setups"]),
        "throughput_ops_s": phase.completed / phase.seconds,
        "rss_peak_mb": result["rss_peak_mb"],
        "failed_frac": phase.failed / phase.attempted,
    }
    metrics.update(latency_metrics(samples))
    counts = {"latency": len(samples)}
    if name == "wire_oltp":
        for kind, with_p90 in WIRE_CLASSES:
            values = phase.latencies[kind]
            counts[kind] = len(values)
            class_metrics = latency_metrics(values, kind)
            if not with_p90:
                del class_metrics[kind + "_p90_ms"]
            metrics.update(class_metrics)
    metrics.update(result.get("layers", {}))
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": True,
        "attempted": phase.attempted, "failed": phase.failed,
        "samples": counts, "setups": result["setups"], "metrics": metrics,
    }
    return record, result.get("spans")


def run_processes(name, seed, seconds, trace):
    """Run one workload as ``PROCESSES`` child processes in turn; returns
    the merged record, or None when a child failed (its standard error
    has said why)."""
    parts = []
    for part in range(PROCESSES):
        try:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", repr(seconds / PROCESSES),
                 "--trace", str(trace), "--part", str(part)],
                stdout=subprocess.PIPE, text=True,
                timeout=seconds / PROCESSES + PROCESS_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            print("perfbench: %s: process %d timed out" % (name, part),
                  file=sys.stderr)
            return None
        if child.returncode:
            return None
        parts.append(json.loads(child.stdout.splitlines()[-1]))
    return merge(parts)


def merge(parts):
    """One record from the records of a run's processes: counts are
    summed, every metric is the median over the processes, and
    ``setup_s`` the median over all their set-ups."""
    record = dict(parts[0])
    for key in ("attempted", "failed", "seconds"):
        record[key] = sum(p[key] for p in parts)
    record["samples"] = {kind: sum(p["samples"][kind] for p in parts)
                         for kind in parts[0]["samples"]}
    record["setups"] = [t for p in parts for t in p["setups"]]
    record["metrics"] = {
        name: statistics.median(p["metrics"][name] for p in parts)
        for name in parts[0]["metrics"]}
    record["metrics"]["setup_s"] = statistics.median(record["setups"])
    record["processes"] = len(parts)
    return record


def report(record, end_to_end, per_layer):
    """The readable report, then the driver's JSON line."""
    units = dict(EXTRA_UNITS, **end_to_end, **per_layer)
    print("workload %s  seed %d  trace %d  processes %d  attempted %d  "
          "failed %d  samples %s  oracle mismatches 0"
          % (record["workload"], record["seed"], record["trace"],
             record["processes"], record["attempted"], record["failed"],
             record["samples"]))
    if record["samples"]["latency"] < 100:
        print("  fewer than 100 latency samples: under 10 lie beyond p90")
    for name, value in record["metrics"].items():
        print("  %-32s %14.6f %s" % (name, value, units[name]))
    chosen = per_layer if record["trace"] else end_to_end
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in chosen.items()},
    }


def write_spans(name, part, spans):
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans_%s.%d.jsonl" % (name, part))
    with open(path, "w") as f:
        for sid, parent, span, rid, start, end, extra in spans:
            f.write(json.dumps({"id": sid, "parent": parent, "name": span,
                                "rid": rid, "start_ns": start,
                                "end_ns": end, **extra}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append full records to this file")
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    try:
        import repro
        end_to_end, per_layer = load_spec()
    except (ImportError, OSError) as exc:
        print("perfbench: cannot find the engine or BENCHMARK.json "
              "under %s: %s" % (ROOT, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("perfbench: imported repro from %s, not from %s"
              % (repro.__file__, src), file=sys.stderr)
        return 2
    if args.part is not None:
        return run_part(args)

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    lines = []
    for name, trace in runs:
        record = run_processes(name, args.seed, args.seconds, trace)
        if record is None:
            return 1
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
        lines.append(report(record, end_to_end, per_layer))
    if len(lines) > 1:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {"%s.%s" % (name, metric): value
                        for (name, _), line in zip(runs, lines)
                        for metric, value in line["metrics"].items()},
        }))
    else:
        print(json.dumps(lines[0]))
    return 0


def run_part(args):
    """One process of a run: print its record as one JSON line."""
    from perfbench.mixes import OracleMismatch

    try:
        record, spans = run_workload(args.workload, args.seed,
                                     args.seconds, args.trace)
    except OracleMismatch as exc:
        print("perfbench: %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    if spans is not None:
        write_spans(args.workload, args.part, spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
