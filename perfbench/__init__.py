"""Benchmark of the entmap pipeline: three closed-loop workloads, timed end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see README.md in this directory.
"""
