"""Reproduction report driver: render figures into a results directory.

``build_report`` regenerates a chosen set of tables/figures (quick
regime by default) and writes one ``.txt`` artifact per figure plus an
``index.md`` manifest — the one-command version of walking through
EXPERIMENTS.md by hand:

    from repro.analysis.report import build_report
    build_report("results/", figures=["table1", "fig9", "fig8d"])

Figures render in the quick regime unless told otherwise;
``benchmarks/test_figures.py`` is the full-regime reproduction that also
asserts every claim.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.figures import QUICK, Regime, generate, lookup

# Figures cheap enough to render by default (< a few seconds each).
DEFAULT_FIGURES = ("table1", "table2", "fig9")


def build_report(directory: Union[str, Path],
                 figures: Optional[Sequence[str]] = None,
                 regime: Regime = QUICK,
                 seed: int = 0,
                 jobs: Optional[int] = None,
                 cache_dir: Union[None, str, Path] = None) -> Dict[str, Path]:
    """Render *figures* (registry ids) into *directory*.

    Returns {figure id -> artifact path}.  Unknown ids raise before any
    work happens, so a typo cannot waste a long render.

    ``jobs`` fans each figure's simulation grid out across worker
    processes and ``cache_dir`` recalls previously computed runs (see
    :mod:`repro.experiments`); both default to the process execution
    context (``REPRO_JOBS``/``REPRO_CACHE_DIR``).
    """
    from repro.experiments import executing
    requested: List[str] = list(figures) if figures is not None \
        else list(DEFAULT_FIGURES)
    lookup(requested)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    artifacts: Dict[str, Path] = {}
    timings: Dict[str, float] = {}
    with executing(jobs=jobs, cache=cache_dir):
        for fig_id in requested:
            started = time.perf_counter()
            text = generate(fig_id, regime, seed)
            timings[fig_id] = time.perf_counter() - started
            path = directory / f"{fig_id}.txt"
            path.write_text(text, encoding="utf-8")
            artifacts[fig_id] = path

    index = directory / "index.md"
    lines = ["# SCORPIO reproduction report", "",
             f"Regime: {regime.name}; seed {seed}.  "
             "See EXPERIMENTS.md for the paper-vs-measured record.", "",
             "| figure | artifact | render time |", "|---|---|---|"]
    for fig_id in requested:
        lines.append(f"| {fig_id} | {artifacts[fig_id].name} "
                     f"| {timings[fig_id]:.1f} s |")
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    artifacts["index"] = index
    return artifacts
