"""perfbench: the end-to-end + per-layer benchmark of this repository.

Self-contained: generates its own inputs from ``--seed``, drives only the
public ``repro`` API, and keeps its own span recorder. See ``README.md``
next to this file and ``BENCHMARK.json`` at the repository root.
"""
