"""perfbench: the repository's benchmark (see perfbench/README.md).

Self-contained: it imports the simulator from ``src/`` and drives only
its public entry points; nothing in ``src/`` imports it back.
"""
