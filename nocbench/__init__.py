"""End-to-end and per-layer benchmark of the repro stack.

Run one workload with ``python3 nocbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``run.py`` for the workloads and ``metrics.py`` for every metric, its
unit and the end-to-end metric each per-layer metric should move.
"""
