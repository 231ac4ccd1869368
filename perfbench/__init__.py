"""Benchmark harness for codec_infill: workloads, tracer and runner (see README.md)."""
