"""Benchmark harness for ncdr: seeded closed-loop workloads, calibrated timing, traced runs."""
