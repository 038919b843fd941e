"""Observability HTML reports: instrumented re-runs rendered as one file.

The report path never touches the result envelope.  ``repro run-file
--report DIR`` first runs the document exactly as before (same cache
semantics, byte-identical envelope), then *re-executes* each run in this
process with an :class:`~repro.sim.journal.EventJournal` and
:class:`~repro.sim.journal.MeshSampler` attached, and cross-checks the
instrumented outcome's canonical payload against the envelope's.  A
mismatch raises :class:`ObservabilityDriftError` — that check *is* the
journal-on/off drift gate: instrumentation that changed a single
simulated bit cannot produce a report.

The HTML is fully self-contained — inline CSS and inline SVG, no
scripts, no external resources — so it can be archived as a CI artifact
and opened anywhere:

* per-run mesh heatmaps (router occupancy and in-flight flits) for a
  downsampled set of sample windows,
* aggregate occupancy / in-flight timelines as SVG polylines,
* the sweep progress table with per-run digest verdicts, and
* the tail of each run's event journal.
"""

from __future__ import annotations

import hashlib
import html
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.journal import (DEFAULT_CAPACITY, DEFAULT_SAMPLE_INTERVAL,
                               EventJournal, MeshSampler,
                               attach_observability, system_routers)

REPORT_HTML_SCHEMA = 1

# Defaults for a document without a [report] table (see
# repro.api.document._resolve_report for the validated TOML form).
DEFAULT_REPORT_OPTIONS: Dict[str, int] = {
    "journal_capacity": DEFAULT_CAPACITY,
    "sample_interval": DEFAULT_SAMPLE_INTERVAL,
    "journal_tail": 40,
}

# At most this many sample windows render as heatmaps per run; larger
# runs are downsampled evenly (first and last window always kept) and
# the report says how many were elided — never silently.
MAX_HEATMAP_WINDOWS = 12


class ObservabilityDriftError(RuntimeError):
    """An instrumented re-run diverged from the envelope result.

    Raised when the canonical payload of a journal-on run differs from
    the journal-off payload the document produced — i.e. observability
    changed simulated behaviour, which the contract forbids."""


@dataclass
class RunObservation:
    """Everything the report shows for one run."""

    index: int
    label: str
    benchmark: str
    protocol: str
    seed: int
    mesh_width: int
    mesh_height: int
    runtime: int
    completed_ops: int
    progress: float
    cached: bool
    digest: str
    digest_matches: bool
    journal_records: int
    journal_dropped: int
    journal_tail: List[Tuple[int, str, str, str, str]] = \
        field(default_factory=list)
    # (cycle, per-router occupancy, per-router in-flight flits)
    samples: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = \
        field(default_factory=list)


def result_digest(result) -> str:
    """Content hash of a ``SweepResult``'s canonical payload."""
    blob = json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Instrumented re-execution
# ---------------------------------------------------------------------------

def _observe_spec(spec, journal: EventJournal,
                  sample_interval: int):
    """Build, instrument and run one spec; returns
    ``(sweep_result, sampler, (width, height))``."""
    from repro.experiments import execute_point

    observed = []

    def instrument(system) -> None:
        sampler = MeshSampler(system_routers(system),
                              interval=sample_interval)
        attach_observability(system, journal, sampler)
        observed.append((system, sampler))

    result = execute_point(spec, spec.fingerprint(), instrument=instrument)
    system, sampler = observed[0]

    # One extra sample of the final committed state: the last interval
    # boundary rarely coincides with the finish cycle, and the drained
    # end state is exactly what a post-mortem wants to see.  Purely a
    # report-side read — the run is already over.
    cycle = system.engine.cycle
    if not sampler.samples or sampler.samples[-1][0] != cycle:
        sampler.sample_now(cycle)
    width = system.noc_config.width
    height = system.noc_config.height
    return result, sampler, (width, height)


def collect_observations(experiment, results: Sequence,
                         options: Optional[Dict[str, int]] = None,
                         ) -> List[RunObservation]:
    """Instrumented re-runs for every spec of *experiment*.

    *results* is the envelope's ``SweepResult`` list (same order as
    ``experiment.specs``).  Each re-run's canonical payload must equal
    the envelope's — any drift raises :class:`ObservabilityDriftError`
    naming the offending runs.
    """
    opts = dict(DEFAULT_REPORT_OPTIONS)
    if experiment.report:
        opts.update(experiment.report)
    if options:
        opts.update(options)

    observations: List[RunObservation] = []
    drifted: List[str] = []
    for index, (spec, envelope) in enumerate(zip(experiment.specs,
                                                 results)):
        journal = EventJournal(capacity=opts["journal_capacity"])
        observed, sampler, (width, height) = _observe_spec(
            spec, journal, opts["sample_interval"])
        digest = result_digest(observed)
        matches = digest == result_digest(envelope)
        if not matches:
            drifted.append(f"run {index} ({envelope.benchmark}/"
                           f"{envelope.protocol} seed {envelope.seed})")
        observations.append(RunObservation(
            index=index, label=envelope.label,
            benchmark=envelope.benchmark, protocol=envelope.protocol,
            seed=envelope.seed, mesh_width=width, mesh_height=height,
            runtime=observed.runtime,
            completed_ops=observed.completed_ops,
            progress=observed.progress, cached=envelope.cached,
            digest=digest, digest_matches=matches,
            journal_records=len(journal),
            journal_dropped=journal.dropped,
            journal_tail=journal.tail(opts["journal_tail"]),
            samples=list(sampler.samples)))
    if drifted:
        raise ObservabilityDriftError(
            "instrumented re-runs diverged from the envelope results "
            f"(journal on/off drift): {'; '.join(drifted)}")
    return observations


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

_CELL = 26          # heatmap cell edge, px
_TIMELINE_W = 640
_TIMELINE_H = 120


def _heat_color(value: float, peak: float) -> str:
    """White -> amber -> red ramp; ``peak`` anchors full red."""
    if peak <= 0:
        return "#ffffff"
    t = min(max(value / peak, 0.0), 1.0)
    if t < 0.5:
        # white -> amber
        u = t / 0.5
        red, green, blue = 255, int(255 - 70 * u), int(255 - 200 * u)
    else:
        u = (t - 0.5) / 0.5
        red, green, blue = 255, int(185 - 130 * u), int(55 - 55 * u)
    return f"#{red:02x}{green:02x}{blue:02x}"


def _mesh_svg(values: Sequence[int], width: int, height: int,
              peak: float, title: str) -> str:
    """One mesh heatmap: ``width * height`` rects, node 0 bottom-left
    (north at the top: :func:`repro.noc.routing.coords` grows y
    northward)."""
    parts = [f'<svg class="mesh" role="img" '
             f'width="{width * _CELL}" height="{height * _CELL}" '
             f'viewBox="0 0 {width * _CELL} {height * _CELL}">'
             f'<title>{html.escape(title)}</title>']
    for node, value in enumerate(values):
        x = (node % width) * _CELL
        y = (height - 1 - node // width) * _CELL
        color = _heat_color(float(value), peak)
        parts.append(
            f'<rect class="cell" x="{x}" y="{y}" width="{_CELL}" '
            f'height="{_CELL}" fill="{color}">'
            f'<title>node {node}: {value}</title></rect>')
        parts.append(
            f'<text x="{x + _CELL / 2:g}" y="{y + _CELL / 2 + 3:g}" '
            f'text-anchor="middle">{value}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _polyline_svg(series: Dict[str, List[Tuple[int, int]]],
                  title: str) -> str:
    """Aggregate timelines as polylines on one shared scale."""
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return ""
    max_x = max(cycle for cycle, _v in points) or 1
    max_y = max(value for _c, value in points) or 1
    pad = 4
    scale_x = (_TIMELINE_W - 2 * pad) / max_x
    scale_y = (_TIMELINE_H - 2 * pad) / max_y
    colors = {"occupancy": "#b03030", "in_flight_flits": "#3050b0"}
    parts = [f'<svg class="timeline" role="img" width="{_TIMELINE_W}" '
             f'height="{_TIMELINE_H}" '
             f'viewBox="0 0 {_TIMELINE_W} {_TIMELINE_H}">'
             f'<title>{html.escape(title)}</title>'
             f'<rect x="0" y="0" width="{_TIMELINE_W}" '
             f'height="{_TIMELINE_H}" fill="#fafafa" stroke="#ccc"/>']
    for name, pts in series.items():
        rendered = " ".join(
            f"{pad + cycle * scale_x:.1f},"
            f"{_TIMELINE_H - pad - value * scale_y:.1f}"
            for cycle, value in pts)
        color = colors.get(name, "#303030")
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{rendered}">'
                     f'<title>{html.escape(name)}</title></polyline>')
    parts.append("</svg>")
    return "".join(parts)


def _select_windows(count: int, cap: int = MAX_HEATMAP_WINDOWS
                    ) -> List[int]:
    """Evenly spaced sample indices, first and last always included."""
    if count <= cap:
        return list(range(count))
    step = (count - 1) / (cap - 1)
    indices = sorted({round(i * step) for i in range(cap)})
    return indices


# ---------------------------------------------------------------------------
# The document
# ---------------------------------------------------------------------------

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2em auto; max-width: 72em; color: #222; }
h1 { border-bottom: 2px solid #b03030; padding-bottom: 0.2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #ddd; }
table { border-collapse: collapse; font-size: 0.9em; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align:
         left; }
th { background: #f2f2f2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
svg.mesh { border: 1px solid #bbb; margin: 2px; }
svg.mesh text { font-size: 9px; fill: #333; }
.windows { display: flex; flex-wrap: wrap; gap: 0.8em; }
.window { text-align: center; font-size: 0.8em; color: #555; }
.journal { font-family: ui-monospace, 'SF Mono', Consolas, monospace;
           font-size: 0.8em; }
.ok { color: #2a7a2a; } .drift { color: #b03030; font-weight: bold; }
.note { color: #666; font-size: 0.9em; }
"""


def _progress_table(observations: Sequence[RunObservation]) -> str:
    rows = ["<table><thead><tr><th>#</th><th>label</th><th>benchmark</th>"
            "<th>protocol</th><th>seed</th><th>runtime</th><th>ops</th>"
            "<th>progress</th><th>journal</th><th>samples</th>"
            "<th>digest</th></tr></thead><tbody>"]
    for obs in observations:
        verdict = ('<span class="ok">match</span>' if obs.digest_matches
                   else '<span class="drift">DRIFT</span>')
        journal = f"{obs.journal_records}"
        if obs.journal_dropped:
            journal += f" (+{obs.journal_dropped} dropped)"
        rows.append(
            f"<tr><td class='num'>{obs.index}</td>"
            f"<td>{html.escape(obs.label) or '&mdash;'}</td>"
            f"<td>{html.escape(obs.benchmark)}</td>"
            f"<td>{html.escape(obs.protocol)}</td>"
            f"<td class='num'>{obs.seed}</td>"
            f"<td class='num'>{obs.runtime}</td>"
            f"<td class='num'>{obs.completed_ops}</td>"
            f"<td class='num'>{obs.progress:.1%}</td>"
            f"<td class='num'>{journal}</td>"
            f"<td class='num'>{len(obs.samples)}</td>"
            f"<td>{verdict} <code>{obs.digest[:12]}</code></td></tr>")
    rows.append("</tbody></table>")
    return "".join(rows)


def _run_section(obs: RunObservation) -> str:
    name = (f"run {obs.index}: {obs.benchmark} / {obs.protocol} "
            f"(seed {obs.seed})")
    parts = [f"<h2>{html.escape(name)}</h2>"]

    if obs.samples:
        n_nodes = obs.mesh_width * obs.mesh_height

        def fold(values: Sequence[int]) -> List[int]:
            # Multi-mesh systems sample every router of every mesh
            # (mesh-major); the heatmap shows one cell per node, so
            # fold parallel meshes by summing per node.
            if len(values) == n_nodes:
                return list(values)
            folded = [0] * n_nodes
            for index, value in enumerate(values):
                folded[index % n_nodes] += value
            return folded

        samples = [(cycle, fold(occ), fold(fly))
                   for cycle, occ, fly in obs.samples]
        peak_occ = max((max(s[1]) for s in samples), default=0) or 1
        peak_fly = max((max(s[2]) for s in samples), default=0) or 1
        indices = _select_windows(len(obs.samples))
        if len(indices) < len(obs.samples):
            parts.append(
                f'<p class="note">showing {len(indices)} of '
                f'{len(obs.samples)} sample windows (evenly '
                f'downsampled; first and last kept).</p>')
        parts.append("<h3>Router occupancy (buffered packets)</h3>"
                     '<div class="windows">')
        for i in indices:
            cycle, occupancy, _fly = samples[i]
            parts.append(
                '<div class="window">'
                + _mesh_svg(occupancy, obs.mesh_width, obs.mesh_height,
                            peak_occ, f"occupancy @ cycle {cycle}")
                + f"<br>cycle {cycle}</div>")
        parts.append('</div><h3>In-flight flits (credit view)</h3>'
                     '<div class="windows">')
        for i in indices:
            cycle, _occ, in_flight = samples[i]
            parts.append(
                '<div class="window">'
                + _mesh_svg(in_flight, obs.mesh_width, obs.mesh_height,
                            peak_fly, f"in-flight flits @ cycle {cycle}")
                + f"<br>cycle {cycle}</div>")
        parts.append("</div><h3>Aggregate timelines</h3>")
        series = {
            "occupancy": [(cycle, sum(occ))
                          for cycle, occ, _f in obs.samples],
            "in_flight_flits": [(cycle, sum(fly))
                                for cycle, _o, fly in obs.samples],
        }
        parts.append(_polyline_svg(
            series, f"total occupancy / in-flight flits, {name}"))
        parts.append('<p class="note">red: total buffered packets; '
                     'blue: total in-flight flits.</p>')
    else:
        parts.append('<p class="note">no mesh samples (run shorter '
                     'than one sample interval).</p>')

    total = obs.journal_records + obs.journal_dropped
    parts.append(f"<h3>Journal tail (last {len(obs.journal_tail)} of "
                 f"{total} events; {obs.journal_dropped} evicted from "
                 f"the ring)</h3>")
    if obs.journal_tail:
        parts.append('<table class="journal"><thead><tr><th>cycle</th>'
                     "<th>component</th><th>stage</th><th>event</th>"
                     "<th>detail</th></tr></thead><tbody>")
        for cycle, component, stage, event, detail in obs.journal_tail:
            parts.append(
                f"<tr><td class='num'>{cycle}</td>"
                f"<td>{html.escape(component)}</td>"
                f"<td>{html.escape(stage)}</td>"
                f"<td>{html.escape(event)}</td>"
                f"<td>{html.escape(detail)}</td></tr>")
        parts.append("</tbody></table>")
    else:
        parts.append('<p class="note">journal empty.</p>')
    return "".join(parts)


def render_report_html(experiment,
                       observations: Sequence[RunObservation]) -> str:
    """The complete self-contained HTML document."""
    title = f"Observability report: {experiment.name}"
    head = (f"<!DOCTYPE html><html lang='en'><head>"
            f"<meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_STYLE}</style></head><body>")
    parts = [head, f"<h1>{html.escape(title)}</h1>"]
    if experiment.description:
        parts.append(f"<p>{html.escape(experiment.description)}</p>")
    matched = sum(1 for obs in observations if obs.digest_matches)
    parts.append(
        f'<p class="note">schema {REPORT_HTML_SCHEMA}; '
        f"{len(observations)} instrumented re-runs; digest check: "
        f"{matched}/{len(observations)} match the envelope. "
        "Instrumentation is side-channel only — envelope payloads are "
        "byte-identical with the journal on or off.</p>")
    parts.append("<h2>Sweep progress</h2>")
    parts.append(_progress_table(observations))
    for obs in observations:
        parts.append(_run_section(obs))
    parts.append("</body></html>")
    return "".join(parts)


def write_html_report(directory: Union[str, Path], experiment,
                      results: Sequence,
                      options: Optional[Dict[str, int]] = None) -> Path:
    """Instrument, cross-check and render *experiment* into
    ``<directory>/report.html``; returns the written path."""
    observations = collect_observations(experiment, results,
                                        options=options)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "report.html"
    path.write_text(render_report_html(experiment, observations),
                    encoding="utf-8")
    return path
