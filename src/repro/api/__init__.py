"""``repro.api`` — the stable, versioned public surface of the simulator.

Everything re-exported here follows the v1 compatibility contract:

* **Configs are data.**  Every config dataclass round-trips through
  ``to_dict()`` / ``from_dict()`` (:mod:`repro.core.serialize`) with
  strict validation and a ``CONFIG_SCHEMA`` version; the round trip
  preserves experiment fingerprints, so serialized configs share cached
  results with code-built ones.  Every field changes the run; a field
  removed for changing nothing is an unknown key, so a document naming
  it fails to load instead of computing something else.
* **Experiments are documents.**  :func:`load_experiment` reads a JSON/
  TOML :class:`ExperimentSpec` (schema ``DOCUMENT_SCHEMA``) describing
  runs, sweep matrices and litmus suites;
  :func:`run_experiment` executes it through the sweep runner (serial
  and uncached unless its ``jobs`` / ``cache`` arguments say otherwise)
  and :func:`describe_experiment` prints the resolved form.
  The CLI front-ends are ``repro run-file`` and ``repro describe``.
* **Results are rows.**  Every door returns the same row class:
  ``SweepResult`` is ``RunResult`` under its experiment-layer name.  A
  row's ``stats`` is the flat dict — counters, gauges and one
  ``<stem>.mean`` / ``<stem>.count`` pair per histogram.

Modules outside this façade (`repro.noc`, `repro.coherence`, the system
classes, ...) are internals: importable and documented, but free to
change between versions.  See docs/architecture.md ("The public API")
and EXPERIMENTS.md ("Experiment documents") for the contract details.
"""

from repro.api.document import (DOCUMENT_SCHEMA, RESULTS_SCHEMA,
                                DocumentError, ExperimentResult,
                                ExperimentSpec, describe_experiment,
                                envelope_bytes, experiment_from_dict,
                                load_experiment, run_experiment)
from repro.core.api import PROTOCOLS, RunResult, normalized_runtimes
from repro.core.config import ChipConfig
from repro.core.serialize import (CONFIG_SCHEMA, ConfigFormatError,
                                  SerializableConfig)
from repro.experiments import (ResultCache, SweepResult, SystemSpec,
                               benchmark_spec, builder_names, list_builders,
                               run_sweep)

# Version of the repro.api compatibility contract as a whole.  Bumps
# only on breaking changes to anything exported here; the per-format
# schema tags (CONFIG_SCHEMA, DOCUMENT_SCHEMA, RESULTS_SCHEMA) version
# the wire formats independently.
# 2: the protocol-run spec class and its grid and compare helpers left
# the façade (a protocol run is a SystemSpec from benchmark_spec).
# 3: the benchmark, trace-file and system-comparison wrappers left the
# façade (a run is a SystemSpec through run_sweep, or a document through
# run_experiment).
# 4: the stats query view left the façade (a row's stats is the flat
# dict).
# 5: the config keys memory.banked, memory.dram_config and
# cache.retry_timeout are gone (a document naming one fails as an
# unknown key; the tokenb and uncorq builders keep a retry_timeout
# param).
# 6: the matrix class left the façade (a matrix is a list of
# benchmark_spec points, or a document's [matrix] table), and
# run_sweep / run_experiment no longer read REPRO_JOBS or
# REPRO_CACHE_DIR: a call runs serially and uncached unless its jobs /
# cache arguments say otherwise.
API_VERSION = 6

__all__ = [
    "API_VERSION", "CONFIG_SCHEMA", "DOCUMENT_SCHEMA", "RESULTS_SCHEMA",
    "ChipConfig", "ConfigFormatError", "DocumentError",
    "ExperimentResult", "ExperimentSpec", "PROTOCOLS", "ResultCache",
    "RunResult", "SerializableConfig", "SweepResult", "SystemSpec",
    "benchmark_spec", "builder_names",
    "describe_experiment", "envelope_bytes", "experiment_from_dict",
    "list_builders", "load_experiment", "normalized_runtimes",
    "run_experiment", "run_sweep",
]
