"""The repository's benchmark: three closed-loop workloads on the
engine's default options, checked against an independent oracle.

``perfbench/run.py`` runs one workload, ``perfbench/compare.py`` judges
two result sets against the bounds in ``BENCHMARK.json`` and
``perfbench/selftest.py`` checks the harness itself.
"""
