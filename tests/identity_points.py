"""The one point table of the identity gates.

``test_golden_stats`` pins what each point here simulates to;
``test_quiescence_diff`` (quiescent kernel against the always-tick one),
``test_checkpoint_diff`` (straight run against a snapshot restored in a
fresh process) and ``test_journal`` (journal and sampler on against
off) require byte-equal payloads on every point.  Each suite
parametrizes over ``sorted(POINTS)``; none keeps a table of its own.

The table is derived from the builder registry: every hand-written row
below stays, and every registered builder whose params all have
defaults gets a ``<builder>-defaults`` row unless a row already runs it
at those defaults.  So a new builder gets a row for free, and the golden
test asks for its ``GOLDEN`` entry.

The regime is a 3x3 mesh and single-digit ops per core, so one point
simulates in well under a second.
"""

import json

from repro.core.config import ChipConfig
from repro.experiments import (SystemSpec, execute_point, get_builder,
                               list_builders)
from repro.experiments.builders import REQUIRED

BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
         "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}
CHIP = ChipConfig.variant(3, 3)

# Stands in for the fingerprint, which digests the sources, so payloads
# compare across processes and checkouts.
FP = "fingerprint-elided"


def default_param_builders():
    """The registered builders every param of which has a default."""
    return [name for name, _description, defaults in list_builders()
            if not any(value is REQUIRED for value in defaults.values())]


def at_defaults(spec: SystemSpec) -> bool:
    """Whether *spec* runs its builder with every param at its default."""
    builder = get_builder(spec.builder)
    return builder.resolved_params(spec.params) \
        == {param: default for param, (default, _) in builder.params.items()}


def _points():
    points = {
        "scorpio": SystemSpec("scorpio", CHIP, workload=BENCH),
        "directory-lpd": SystemSpec("directory", CHIP,
                                    params={"scheme": "LPD"},
                                    workload=BENCH),
        "directory-ht-incf": SystemSpec("directory", CHIP,
                                        params={"scheme": "HT",
                                                "incf": True},
                                        workload=BENCH),
        "multimesh": SystemSpec("multimesh", CHIP,
                                params={"n_meshes": 2}, workload=BENCH),
        "tokenb": SystemSpec("tokenb", CHIP, workload=BENCH),
        "inso": SystemSpec("inso", CHIP,
                           params={"expiration_window": 40},
                           workload=BENCH),
        "timestamp": SystemSpec("timestamp", CHIP, workload=BENCH),
        "uncorq": SystemSpec("uncorq", CHIP, workload=BENCH),
        "scorpio-locks": SystemSpec("scorpio", CHIP,
                                    workload={"kind": "locks",
                                              "acquisitions_per_core": 2,
                                              "seed": 1}),
        "scorpio-barrier": SystemSpec("scorpio", CHIP,
                                      workload={"kind": "barrier",
                                                "phases": 2, "seed": 2}),
        "uncorq-lone-write": SystemSpec("uncorq", CHIP,
                                        workload={"kind": "lone_write"}),
        "litmus-mp": SystemSpec("litmus", CHIP,
                                params={"name": "message-passing",
                                        "threads": [[["W", "x"],
                                                     ["W", "y"]],
                                                    [["R", "y"],
                                                     ["R", "x"]]]}),
    }
    covered = {spec.builder for spec in points.values() if at_defaults(spec)}
    for name in default_param_builders():
        if name not in covered:
            points[f"{name}-defaults"] = SystemSpec(name, CHIP,
                                                    workload=BENCH)
    return points


POINTS = _points()

# point -> {runtime (cycles), completed ops, flits transmitted on the
# main mesh, coherence requests injected}.  Regenerate deliberately (see
# test_golden_stats), never to "make the test pass".
GOLDEN = {
    "scorpio": {"runtime": 708, "completed_ops": 72,
                "flits": 1783, "requests": 71},
    "directory-lpd": {"runtime": 947, "completed_ops": 72,
                      "flits": 953, "requests": 142},
    "directory-ht-incf": {"runtime": 963, "completed_ops": 72,
                          "flits": 1170, "requests": 213},
    "multimesh": {"runtime": 708, "completed_ops": 72,
                  "flits": 1783, "requests": 71},
    "tokenb": {"runtime": 658, "completed_ops": 72,
               "flits": 1783, "requests": 71},
    "inso": {"runtime": 742, "completed_ops": 72,
             "flits": 1783, "requests": 71},
    "inso-defaults": {"runtime": 702, "completed_ops": 72,
                      "flits": 1783, "requests": 71},
    "timestamp": {"runtime": 811, "completed_ops": 72,
                  "flits": 1783, "requests": 71},
    "uncorq": {"runtime": 658, "completed_ops": 72,
               "flits": 1783, "requests": 71},
    "scorpio-locks": {"runtime": 820, "completed_ops": 90,
                      "flits": 2193, "requests": 87},
    "scorpio-barrier": {"runtime": 766, "completed_ops": 108,
                        "flits": 2219, "requests": 88},
    "uncorq-lone-write": {"runtime": 106, "completed_ops": 1,
                          "flits": 23, "requests": 1},
    "litmus-mp": {"runtime": 243, "completed_ops": 4,
                  "flits": 0, "requests": 0},
}


def golden_row(payload) -> dict:
    """The ``GOLDEN`` columns of a result payload (a dict)."""
    stats = payload["stats"]
    return {"runtime": payload["runtime"],
            "completed_ops": payload["completed_ops"],
            "flits": int(stats.get("noc.flits.transmitted", 0)),
            "requests": int(stats.get("nic.requests_sent", 0))}


def payload_bytes(spec: SystemSpec, **execute_point_kwargs) -> bytes:
    """The canonical payload JSON of one ``execute_point`` run of *spec*
    (its keyword arguments pass through), fingerprint elided: the form
    ``resume_payload_json`` prints, so a fresh-process resume compares
    byte for byte."""
    result = execute_point(spec, FP, **execute_point_kwargs)
    return json.dumps(result.payload(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
