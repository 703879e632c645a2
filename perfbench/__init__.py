"""End-to-end and per-layer benchmark for critiq; run it as `python3 perfbench/run.py`."""
