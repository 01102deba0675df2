"""End-to-end benchmark: four workloads over the default entrypoints.

See ``README.md`` in this directory; ``run.py`` is the one command.
"""
