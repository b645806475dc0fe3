"""End-to-end and per-layer benchmark for the repro table and its server.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line last; README.md in this
directory records the workloads and what they leave out.
"""
