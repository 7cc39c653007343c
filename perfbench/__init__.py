"""Benchmark for powerpaint: the `play`, `analyze` and `oracle`
workloads, their input generators and the span tracer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
