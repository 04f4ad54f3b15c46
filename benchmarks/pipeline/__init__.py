"""End-to-end benchmark of the paper's pipeline, with an outside-in per-layer trace.

Run ``PYTHONPATH=src python -m benchmarks.pipeline run --seed 42`` from the
repository root; see ``benchmarks/pipeline/README.md``.  This package
imports nothing heavy at import time: the rep processes time their own
imports as part of ``setup_s``.
"""
