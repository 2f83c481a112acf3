"""The VIF benchmark: seeded workloads on the verifiable packet paths.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
