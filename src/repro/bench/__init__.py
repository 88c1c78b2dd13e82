"""Benchmark harness: regenerates every table and figure of the paper.

:mod:`harness` provides row-oriented result recording and table printing;
:mod:`figures` computes the data series behind each figure (scaled-down by
default so the suite runs in minutes on one machine — every function takes
scale parameters for larger runs); the ``benchmarks/`` pytest tree runs
each of them and saves its table under ``results/``.
"""

from repro.bench.harness import ExperimentResult, format_table, save_result

__all__ = ["ExperimentResult", "format_table", "save_result"]
