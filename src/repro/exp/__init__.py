"""The parallel sweep engine (batch scheduler + result store).

The paper's argument is carried by 19 parameter-sweep experiments; this
package is the machinery that runs such sweeps without the reproduction
of a parallelism paper being itself embarrassingly sequential:

* :class:`Experiment` — a parameter grid plus a pure
  ``run(config) -> value`` function (:mod:`repro.exp.experiment`);
* :func:`run_experiment` — fans the grid out across a per-sweep pool of
  persistent ``multiprocessing`` workers with a per-run timeout, one
  retry, and structured failure rows instead of crashed sweeps
  (:mod:`repro.exp.engine`);
* :class:`SqliteStore` — the one result store, keyed by a content hash
  of (experiment, config, code-version) so re-runs are incremental;
  ``repro bench``, ``repro serve`` and ``repro cache`` all open it with
  :func:`open_store` (:mod:`repro.exp.cache`);
* :mod:`repro.exp.bench` — the benchmark-suite orchestration behind
  ``repro bench`` and ``benchmarks/run_all.py``.

Progress and telemetry stream through the existing :mod:`repro.obs` bus
(event kinds ``sweep_begin`` / ``sweep_task`` / ``sweep_end``).
See docs/EXPERIMENT_ENGINE.md.
"""

from .cache import (SqliteStore, code_fingerprint, default_store_path,
                    invalidate_fingerprints, open_store)
from .engine import RunRecord, TaskQueue, records_payload, run_experiment
from .experiment import Experiment, grid
from .tables import parse_cell, payload_to_table, table_to_payload

__all__ = [
    "Experiment",
    "RunRecord",
    "SqliteStore",
    "TaskQueue",
    "code_fingerprint",
    "default_store_path",
    "grid",
    "invalidate_fingerprints",
    "open_store",
    "parse_cell",
    "payload_to_table",
    "records_payload",
    "run_experiment",
    "table_to_payload",
]
