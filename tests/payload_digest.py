"""Cross-commit payload comparison for model-layer refactors.

Prints the spec count, byte count and sha256 of the *unsorted* payload
JSON (``fingerprint`` elided — it digests the sources) of a fixed, wide
spec set.  Run against two checkouts; the lines must be equal:

    PYTHONPATH=<checkout>/src python tests/payload_digest.py
"""

import hashlib
import json

from repro.core.config import ChipConfig
from repro.experiments import RunSpec, SystemSpec, execute_point
from repro.verification.litmus import ALL_LITMUS, litmus_spec

BENCH = {"kind": "benchmark", "name": "fft", "ops_per_core": 8,
         "workload_scale": 0.02, "think_scale": 10.0, "seed": 0}
WORKLOADS = [BENCH, {"kind": "locks"}, {"kind": "lone_write"}]
PARAMS = {     # builder -> param sets; {} is the builder's defaults
    "scorpio": [{}],
    "multimesh": [{}, {"n_meshes": 3}],
    "directory": [{}, {"scheme": "FULLBIT"}, {"scheme": "HT"},
                  {"scheme": "HT", "incf": True},
                  {"scheme": "HT", "incf": True, "incf_table_capacity": 8}],
    "tokenb": [{}, {"retry_timeout": 200, "incf": True}],
    "inso": [{}, {"expiration_window": 80}],
    "timestamp": [{}, {"slack": 30}],
    "uncorq": [{}, {"ring_hop_latency": 3, "retry_timeout": 300}],
}


def specs():
    small, large = ChipConfig.variant(3, 3), ChipConfig.variant(4, 4)
    out = [SystemSpec(builder, cfg, params=params, workload=workload)
           for builder, param_sets in PARAMS.items()
           for params in param_sets
           for cfg, workload in [(small, w) for w in WORKLOADS]
           + [(large, BENCH), (small.with_notification_bits(2), BENCH)]]
    out += [litmus_spec(program, protocol=protocol, seed=seed)
            for program in ALL_LITMUS[:2] for seed in (0, 1)
            for protocol in ("scorpio", "lpd", "ht", "fullbit")]
    out += [RunSpec("fft", protocol, small, ops_per_core=8,
                    workload_scale=0.02, think_scale=10.0)
            for protocol in ("scorpio", "lpd", "ht", "fullbit")]
    return out


def main() -> None:
    blobs = []
    for spec in specs():
        payload = execute_point(spec).payload()
        del payload["fingerprint"]
        blobs.append(json.dumps(payload, separators=(",", ":")).encode())
    print(f"specs {len(blobs)} bytes {sum(map(len, blobs))} sha256 "
          f"{hashlib.sha256(b''.join(blobs)).hexdigest()}")


if __name__ == "__main__":
    main()
