"""End-to-end + per-layer benchmark of the ShmCaffe reproduction.

Entry point: ``python3 benchmarks/e2e/run.py`` (see ``README.md`` here).
Importing this package starts nothing; ``run.py`` is the only module
that parses arguments or touches the environment.
"""
