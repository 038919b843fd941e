"""Result export: figure series and run statistics as CSV artifacts.

The benchmark harness prints the paper's rows/series to stdout; this
module writes the same data as machine-readable artifacts so downstream
users can plot or diff reproduction runs (``results/fig6a.csv`` etc.).
No plotting dependencies — plain CSV via the standard library.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

PathLike = Union[str, Path]


@dataclass
class Series:
    """One plottable series: y-values over shared x-labels."""

    name: str
    points: Dict[str, float] = field(default_factory=dict)

    def add(self, x: str, y: float) -> None:
        """Append/overwrite the y-value at x-label *x*."""
        self.points[str(x)] = float(y)


@dataclass
class FigureData:
    """A figure's full dataset: several series over one x-axis."""

    figure_id: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)

    def new_series(self, name: str) -> Series:
        """Create, register and return an empty series."""
        series = Series(name=name)
        self.series.append(series)
        return series

    def x_values(self) -> List[str]:
        """Union of all series' x-labels, in first-seen order."""
        ordered: List[str] = []
        for series in self.series:
            for x in series.points:
                if x not in ordered:
                    ordered.append(x)
        return ordered

    def write_csv(self, path: PathLike) -> Path:
        """One row per x-value, one column per series."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        xs = self.x_values()
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow([self.x_label]
                            + [series.name for series in self.series])
            for x in xs:
                writer.writerow([x] + [series.points.get(x, "")
                                       for series in self.series])
        return path


def read_figure_csv(path: PathLike) -> FigureData:
    """Inverse of :meth:`FigureData.write_csv` (y_label not persisted)."""
    path = Path(path)
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header = rows[0]
    data = FigureData(figure_id=path.stem, x_label=header[0], y_label="")
    series_list = [data.new_series(name) for name in header[1:]]
    for row in rows[1:]:
        x = row[0]
        for series, cell in zip(series_list, row[1:]):
            if cell != "":
                series.add(x, float(cell))
    return data


def export_stats(stats: Mapping[str, float], path: PathLike,
                 prefixes: Sequence[str] = ()) -> Path:
    """Write a flat statistics snapshot as name,value CSV rows.

    *stats* may be any flat mapping — including a
    :class:`~repro.sim.statsframe.StatsFrame`, whose Mapping view this
    routes through; *prefixes* select subtrees (``"l2."``-style)."""
    from repro.sim.statsframe import StatsFrame
    frame = stats if isinstance(stats, StatsFrame) else StatsFrame(stats)
    if prefixes:
        frame = frame.select(*(f"{prefix}*" for prefix in prefixes))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stat", "value"])
        for name in frame:
            writer.writerow([name, frame[name]])
    return path


def normalized_series(figure_id: str, x_label: str,
                      rows: Mapping[str, Mapping[str, float]],
                      baseline: str) -> FigureData:
    """Build a FigureData of runtimes normalized to *baseline*.

    ``rows`` maps x-value -> {series name -> runtime}; the standard
    shape of the Figure 6a/7/8 sweeps.
    """
    data = FigureData(figure_id=figure_id, x_label=x_label,
                      y_label=f"runtime / {baseline}")
    names: List[str] = []
    for row in rows.values():
        for name in row:
            if name not in names:
                names.append(name)
    series_by_name = {name: data.new_series(name) for name in names}
    for x, row in rows.items():
        base = row.get(baseline)
        if not base:
            raise ValueError(f"baseline {baseline!r} missing/zero at {x!r}")
        for name, runtime in row.items():
            series_by_name[name].add(x, runtime / base)
    return data
