"""End-to-end and per-layer benchmark of the repro event system.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see ``perfbench/README.md``.
"""
