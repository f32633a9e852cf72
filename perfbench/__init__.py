"""End-to-end and per-layer benchmark for dyadlab; entry point: perfbench/run.py."""
