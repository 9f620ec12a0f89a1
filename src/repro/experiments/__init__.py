"""Experiment harnesses: declarative scenarios, the runner, the report.

* :mod:`repro.experiments.runner` — run (workload, system) experiments:
  one-shot helpers and the parallel, memoizing :class:`SweepRunner`
  every harness executes through.
* :mod:`repro.experiments.scenario` — the declarative experiment API:
  :class:`Scenario` plans, the single :func:`run_scenario` executor and
  the :class:`ResultSet` artifact.
* :mod:`repro.experiments.store` — the durable content-addressed
  :class:`ResultStore` (SQLite) every completed run can checkpoint into.
* :mod:`repro.experiments.service` — the persistent sweep service: a
  warm daemon (:class:`SweepService`) deduping and caching sweeps for
  concurrent :class:`ServiceClient` submitters.
* :mod:`repro.experiments.scenarios` — the built-in scenario registry:
  Figures 5-8, Tables 1-4 and the ablations/sweeps as declarations, plus
  the row derivations of Tables 1-4.
* :mod:`repro.experiments.report` — :func:`build_report`, every section
  of EXPERIMENTS.md run over one shared runner.
"""

from repro.experiments.runner import (
    ExperimentResult,
    RunnerStats,
    SweepRunner,
    ensure_runner,
    run_experiment,
    run_pair,
    run_systems,
)
from repro.experiments.scenario import (
    ResultSet,
    Scenario,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from repro.experiments.service import ServiceClient, ServiceError, SweepService
from repro.experiments.store import ResultStore, StoreError
from repro.experiments import scenarios as _builtin_scenarios  # noqa: F401  (registers the built-ins)

__all__ = [
    "ExperimentResult",
    "RunnerStats",
    "SweepRunner",
    "ensure_runner",
    "run_experiment",
    "run_pair",
    "run_systems",
    "Scenario",
    "ResultSet",
    "run_scenario",
    "get_scenario",
    "list_scenarios",
    "ResultStore",
    "StoreError",
    "SweepService",
    "ServiceClient",
    "ServiceError",
]
