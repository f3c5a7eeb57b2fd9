"""Benchmark harness for saga: workloads, tracing analysis and metric catalogue."""
