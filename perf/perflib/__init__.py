"""Support code for ``perf/run.py``: the workloads, the tracing used by
the traced pass, and the ``--compare`` verdicts.  See ``perf/README.md``.
"""
