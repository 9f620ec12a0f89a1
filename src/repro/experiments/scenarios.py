"""The built-in scenario registry: every figure/table/ablation as data.

Each of the paper's eight evaluation artifacts — Figures 5-8 and Tables
1-4 — plus this reproduction's ablations and parameter sweeps is declared
here as a ~10-line :class:`~repro.experiments.scenario.Scenario` and
registered into :data:`repro.registry.SCENARIOS`.  They are all executed
by the single :func:`~repro.experiments.scenario.run_scenario` path
(``repro exp <name>`` on the CLI).  The few tables whose shape is not a
normalized figure keep their row derivations here too: Table 1's
opportunity matrix (:func:`table1_matrix`), the static Tables 2 and 3
(:func:`table2_rows`, :func:`table3_rows`) and Table 4's per-node records
(:func:`table4_rows`).

User code registers additional scenarios with
:func:`repro.registry.register_scenario`; they appear in ``repro list``
and ``repro exp`` immediately.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import (
    CostModel,
    MachineConfig,
    SimulationConfig,
    base_config,
    long_latency_config,
    reduced_machine,
    slow_page_ops_config,
)
from repro.experiments.scenario import ResultSet, Scenario
from repro.kernel.placement import PLACEMENT_NAMES
from repro.registry import UnknownNameError, register_scenario
from repro.stats.report import format_table
from repro.workloads import get_spec, list_workloads
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec
from repro.workloads.trace import Trace

#: Systems plotted in Figure 5, in the paper's legend order.
FIGURE5_SYSTEMS: tuple[str, ...] = (
    "ccnuma", "rep", "mig", "migrep", "rnuma", "rnuma-inf",
)

#: Systems plotted in Figure 7.
FIGURE7_SYSTEMS: tuple[str, ...] = ("ccnuma", "migrep", "rnuma")

#: Systems plotted in Figure 8, in the paper's legend order.
FIGURE8_SYSTEMS: tuple[str, ...] = (
    "ccnuma", "migrep", "rnuma-half", "rnuma-half-migrep", "rnuma",
)

#: The three systems whose misses Table 4 breaks down.
TABLE4_SYSTEMS: tuple[str, ...] = ("ccnuma", "migrep", "rnuma")


def _base(seed: int) -> SimulationConfig:
    return base_config(seed=seed)


# ---------------------------------------------------------------------------
# Figures 5-8
# ---------------------------------------------------------------------------

register_scenario(Scenario(
    name="figure5",
    title="Figure 5: execution time normalized to perfect CC-NUMA",
    description="base performance comparison over the seven applications",
    systems=FIGURE5_SYSTEMS,
    configs={"base": _base},
))

register_scenario(Scenario(
    name="figure6",
    title=("Figure 6: sensitivity to page-operation overhead "
           "(normalized to fast perfect CC-NUMA)"),
    description="fast vs ten-fold slower page operations (Section 6.2)",
    systems=("migrep", "rnuma"),
    configs={"fast": _base,
             "slow": lambda seed: slow_page_ops_config(seed=seed)},
    baseline_config="fast",
))

register_scenario(Scenario(
    name="figure7",
    title="Figure 7: 4x network latency, normalized to perfect CC-NUMA",
    description="sensitivity to network latency (Section 6.3)",
    systems=FIGURE7_SYSTEMS,
    configs={"long": lambda seed: long_latency_config(seed=seed)},
))

register_scenario(Scenario(
    name="figure8",
    title=("Figure 8: R-NUMA page-cache size and the MigRep hybrid "
           "(normalized to perfect CC-NUMA)"),
    description="half-size page cache and the R-NUMA+MigRep hybrid (Section 6.4)",
    systems=FIGURE8_SYSTEMS,
    configs={"base": _base},
))


# ---------------------------------------------------------------------------
# Tables 1-4
# ---------------------------------------------------------------------------


def _table1_spec(name: str, pattern: SharingPattern, write_fraction: float,
                 *, shift: int = 0, pages: int = 48) -> WorkloadSpec:
    """Tiny single-group workload exercising one sharing scenario."""
    group = PageGroup(name="data", num_pages=pages, pattern=pattern,
                      write_fraction=write_fraction)
    phases = (
        Phase(name="init", touch_groups=("data",)),
        Phase(name="work-1", accesses_per_proc=2500, weights={"data": 1.0},
              migratory_shift=shift),
        Phase(name="work-2", accesses_per_proc=2500, weights={"data": 1.0},
              migratory_shift=shift),
    )
    return WorkloadSpec(name=name, description=f"Table 1 scenario: {name}",
                        groups=(group,), phases=phases)


#: The three sharing scenarios of Table 1's columns (its app axis).
TABLE1_SCENARIOS: Dict[str, WorkloadSpec] = {
    "read_only": _table1_spec("read_only", SharingPattern.READ_SHARED, 0.0),
    "rw_low_degree": _table1_spec("rw_low_degree", SharingPattern.MIGRATORY,
                                  0.3, shift=1),
    "rw_high_degree": _table1_spec("rw_high_degree",
                                   SharingPattern.READ_WRITE_SHARED, 0.3),
}

#: The three mechanisms of Table 1's rows and the system implementing each.
TABLE1_MECHANISMS: Dict[str, str] = {
    "Page Replication": "rep",
    "Page Migration": "mig",
    "R-NUMA": "rnuma",
}

#: Relative capacity/conflict miss reduction counted as a "yes" in Table 1.
TABLE1_REDUCTION_THRESHOLD = 0.25


def table1_trace(app: str, machine: MachineConfig, scale: float,
                 seed: int) -> Trace:
    """Trace factory over the Table 1 sharing-scenario specs."""
    spec = TABLE1_SCENARIOS.get(app)
    if spec is None:
        raise UnknownNameError(
            f"unknown Table 1 sharing scenario {app!r} (valid names: "
            f"{', '.join(TABLE1_SCENARIOS)})")
    return TraceGenerator(spec, machine, access_scale=scale,
                          seed=seed).generate()


@dataclass
class Table1Cell:
    """Empirical result for one (mechanism, sharing scenario) pair."""

    reduces_misses: bool
    miss_reduction: float
    page_operations: float       # per node


def table1_matrix(rs: ResultSet) -> Dict[str, Dict[str, Table1Cell]]:
    """Derive Table 1's mechanism -> scenario matrix from a ``table1`` run.

    Table 1 is specifically about *capacity/conflict* miss reduction
    (coherence and cold misses are outside every mechanism's reach), so
    each cell compares that count against CC-NUMA on the same scenario.
    """
    out: Dict[str, Dict[str, Table1Cell]] = {}
    for mech, system in TABLE1_MECHANISMS.items():
        out[mech] = {}
        for scen in rs.axes["app"]:
            row = rs.only(app=scen, system=system)
            base_misses = max(1, int(rs.only(app=scen, system="ccnuma")
                                     ["capacity_conflict_misses"]))
            reduction = 1.0 - int(row["capacity_conflict_misses"]) / base_misses
            ops = (int(row["migrations"]) + int(row["replications"])
                   + int(row["relocations"]))
            out[mech][scen] = Table1Cell(
                reduces_misses=reduction >= TABLE1_REDUCTION_THRESHOLD,
                miss_reduction=reduction,
                page_operations=ops / int(row["num_nodes"]))
    return out


def _render_table1(rs: ResultSet) -> str:
    headers = ["mechanism", "read-only", "r/w low degree", "r/w high degree",
               "page ops/node"]
    rows = [[mech,
             *("yes" if cells[scen].reduces_misses else "no"
               for scen in TABLE1_SCENARIOS),
             max(c.page_operations for c in cells.values())]
            for mech, cells in table1_matrix(rs).items()]
    return rs.title + "\n" + format_table(headers, rows, float_fmt="{:.0f}")


register_scenario(Scenario(
    name="table1",
    title="Table 1: capacity/conflict miss reduction opportunity and overhead",
    description="mechanism opportunity matrix over synthetic sharing scenarios",
    apps=tuple(TABLE1_SCENARIOS),
    systems=tuple(TABLE1_MECHANISMS.values()),
    configs={"base": _base},
    baseline="ccnuma",
    default_scale=0.5,
    trace_factory=table1_trace,
    renderer=_render_table1,
))


def table2_rows(apps: Optional[Sequence[str]] = None,
                machine: Optional[MachineConfig] = None
                ) -> List[Dict[str, object]]:
    """Table 2: each application's paper input beside its synthetic stand-in."""
    mc = machine if machine is not None else reduced_machine()
    rows: List[Dict[str, object]] = []
    for name in (tuple(apps) if apps is not None else list_workloads()):
        spec = get_spec(name)
        rows.append({
            "app": name,
            "description": spec.description,
            "paper_input": spec.paper_input,
            "groups": len(spec.groups),
            "pages": TraceGenerator(spec, mc).total_pages(),
            "phases": len(spec.phases),
            "accesses_per_proc": spec.total_accesses_per_proc(),
        })
    return rows


def _render_table2(rs: ResultSet) -> str:
    headers = ["application", "problem", "paper input",
               "groups", "pages", "phases", "refs/proc"]
    return rs.title + "\n" + format_table(headers, [
        [r["app"], r["description"], r["paper_input"], r["groups"],
         r["pages"], r["phases"], r["accesses_per_proc"]] for r in rs.rows])


register_scenario(Scenario(
    name="table2",
    title="Table 2: applications, paper inputs, and synthetic stand-ins",
    description="the seven applications and their synthetic substitutions",
    static_rows=lambda ctx: table2_rows(ctx.apps),
    renderer=_render_table2,
))


#: The paper's Table 3 values (cycles), keyed by CostModel attribute where a
#: one-to-one mapping exists; ranges are (min, max).
PAPER_TABLE3: Dict[str, object] = {
    "network_latency": 80,
    "local_miss": 104,
    "remote_miss": 418,
    "soft_trap": 3000,
    "tlb_shootdown": 300,
    "page_alloc": (3000, 11500),
    "gather": (3000, 11500),
    "copy": (8000, 21800),
}


def table3_rows(costs: Optional[CostModel] = None) -> List[Dict[str, object]]:
    """Table 3: the cost model's cycle costs beside the paper's values."""
    cm = costs if costs is not None else CostModel()
    pairs = [
        ("network latency", PAPER_TABLE3["network_latency"],
         cm.network_latency),
        ("local miss latency", PAPER_TABLE3["local_miss"], cm.local_miss),
        ("remote miss latency (round trip)", PAPER_TABLE3["remote_miss"],
         cm.remote_miss),
        ("soft trap", PAPER_TABLE3["soft_trap"], cm.soft_trap),
        ("TLB shootdown", PAPER_TABLE3["tlb_shootdown"], cm.tlb_shootdown),
        ("page allocation/replacement or relocation",
         PAPER_TABLE3["page_alloc"], (cm.page_alloc_min, cm.page_alloc_max)),
        ("page invalidation and data gathering",
         PAPER_TABLE3["gather"], (cm.gather_min, cm.gather_max)),
        ("page copying", PAPER_TABLE3["copy"], (cm.copy_min, cm.copy_max)),
    ]
    return [{"operation": op, "paper_cycles": str(paper),
             "model_cycles": str(model), "matches": paper == model}
            for op, paper, model in pairs]


def _render_table3(rs: ResultSet) -> str:
    headers = ["operation", "paper (cycles)", "model (cycles)", "match"]
    return rs.title + "\n" + format_table(headers, [
        [r["operation"], r["paper_cycles"], r["model_cycles"],
         "yes" if r["matches"] else "NO"] for r in rs.rows])


register_scenario(Scenario(
    name="table3",
    title="Table 3: base system cost assumptions (paper vs model)",
    description="cost-model constants compared against the paper's Table 3",
    static_rows=lambda ctx: table3_rows(),
    renderer=_render_table3,
))


@dataclass
class Table4Row:
    """One application's row of Table 4."""

    app: str
    migrations_per_node: float
    replications_per_node: float
    relocations_per_node: float
    misses: Dict[str, float]             # system -> per-node overall misses
    capacity_conflict: Dict[str, float]  # system -> per-node cap/conflict misses


def table4_rows(rs: ResultSet) -> List[Table4Row]:
    """Reshape a ``table4`` run into one :class:`Table4Row` per app."""
    out: List[Table4Row] = []
    for app in rs.axes["app"]:
        per_system = {name: rs.only(app=app, system=name)
                      for name in TABLE4_SYSTEMS}
        out.append(Table4Row(
            app=app,
            migrations_per_node=float(
                per_system["migrep"]["per_node_migrations"]),
            replications_per_node=float(
                per_system["migrep"]["per_node_replications"]),
            relocations_per_node=float(
                per_system["rnuma"]["per_node_relocations"]),
            misses={name: float(row["per_node_remote_misses"])
                    for name, row in per_system.items()},
            capacity_conflict={name: float(row["per_node_capacity_conflict"])
                               for name, row in per_system.items()},
        ))
    return out


def _render_table4(rs: ResultSet) -> str:
    headers = ["benchmark", "mig/node", "rep/node", "reloc/node",
               "ccnuma misses (cc)", "migrep misses (cc)", "rnuma misses (cc)"]
    rows = [[r.app, r.migrations_per_node, r.replications_per_node,
             r.relocations_per_node,
             *(f"{r.misses[s]:.0f} ({r.capacity_conflict[s]:.0f})"
               for s in TABLE4_SYSTEMS)]
            for r in table4_rows(rs)]
    return rs.title + "\n" + format_table(headers, rows, float_fmt="{:.1f}")


register_scenario(Scenario(
    name="table4",
    title="Table 4: per-node page operations and remote misses",
    description="page-operation frequency and residual misses per node",
    systems=TABLE4_SYSTEMS,
    configs={"base": _base},
    baseline=None,
    renderer=_render_table4,
))


# ---------------------------------------------------------------------------
# Ablations and parameter sweeps beyond the paper
# ---------------------------------------------------------------------------

#: Applications used by default for ablations (one per behaviour class:
#: high read-write sharing, replication-friendly, page-cache pressure).
ABLATION_APPS = ("barnes", "lu", "radix")


register_scenario(Scenario(
    name="ablation-block-cache",
    title="Ablation: SRAM vs DRAM block cache vs R-NUMA",
    description="large-but-slow DRAM block cache against fine-grain caching",
    apps=ABLATION_APPS,
    systems=("ccnuma", "ccnuma-dram", "rnuma"),
    configs={"base": _base},
    default_scale=0.3,
))

register_scenario(Scenario(
    name="ablation-scoma",
    title="Ablation: unconditional S-COMA vs reactive R-NUMA",
    description="always-allocate S-COMA against reactive relocation",
    apps=ABLATION_APPS,
    systems=("ccnuma", "scoma", "rnuma"),
    configs={"base": _base},
    default_scale=0.3,
))

register_scenario(Scenario(
    name="ablation-placement",
    title="Ablation: initial page-placement policy",
    description="first-touch vs round-robin/interleaved/single-node placement",
    apps=ABLATION_APPS,
    systems=("ccnuma", "migrep", "rnuma"),
    configs={policy: (lambda seed, p=policy:
                      base_config(seed=seed).with_placement(p))
             for policy in PLACEMENT_NAMES},
    default_scale=0.3,
))


def _threshold_config(seed: int, **overrides) -> SimulationConfig:
    cfg = base_config(seed=seed)
    return cfg.with_thresholds(dataclasses.replace(cfg.thresholds, **overrides))


register_scenario(Scenario(
    name="sweep-rnuma-threshold",
    title="Sweep: R-NUMA switching threshold",
    description="relocation threshold around the paper's base value of 32",
    apps=ABLATION_APPS,
    systems=("rnuma",),
    configs={v: (lambda seed, v=v: _threshold_config(seed, rnuma_threshold=v))
             for v in (8, 16, 32, 64, 128)},
    default_scale=0.3,
))

register_scenario(Scenario(
    name="sweep-migrep-threshold",
    title="Sweep: MigRep miss threshold",
    description="migration/replication threshold around the paper's 800",
    apps=ABLATION_APPS,
    systems=("migrep",),
    configs={v: (lambda seed, v=v: _threshold_config(seed, migrep_threshold=v))
             for v in (200, 400, 800, 1600, 3200)},
    default_scale=0.3,
))

def _network_config(seed: int, factor: float) -> SimulationConfig:
    cfg = base_config(seed=seed)
    return cfg.with_costs(cfg.costs.with_network_scale(factor))


def _page_cache_config(seed: int, fraction: float) -> SimulationConfig:
    cfg = base_config(seed=seed)
    return cfg.with_machine(cfg.machine.with_page_cache_fraction(fraction))


register_scenario(Scenario(
    name="sweep-network-latency",
    title="Sweep: network latency factor",
    description="Figure 7 generalised to a latency curve",
    apps=ABLATION_APPS,
    systems=("ccnuma", "migrep", "rnuma"),
    configs={f: (lambda seed, f=f: _network_config(seed, f))
             for f in (1.0, 2.0, 4.0, 8.0)},
    default_scale=0.3,
))

register_scenario(Scenario(
    name="sweep-page-cache",
    title="Sweep: R-NUMA page-cache size",
    description="page-cache capacity as a fraction of the base 2.4 MB",
    apps=ABLATION_APPS,
    systems=("rnuma",),
    configs={f: (lambda seed, f=f: _page_cache_config(seed, f))
             for f in (0.25, 0.5, 1.0, 2.0)},
    default_scale=0.3,
))


# ---------------------------------------------------------------------------
# Decision-policy scenarios (the open POLICIES registry axis)
# ---------------------------------------------------------------------------

#: The built-in decision-policy families compared by the policy scenarios.
POLICY_SCENARIO_POLICIES = ("static-threshold", "competitive", "hysteresis",
                            "cost-model")


def _policy_config(seed: int, name: str) -> SimulationConfig:
    return base_config(seed=seed).with_policies(migrep=name, rnuma=name)


register_scenario(Scenario(
    name="policy-adaptivity",
    title=("Policy adaptivity: static thresholds vs adaptive decision "
           "policies (normalized to perfect CC-NUMA)"),
    description=("the paper's static-threshold rule against the "
                 "competitive/hysteresis/cost-model adaptive policies"),
    systems=("migrep", "rnuma"),
    configs={name: (lambda seed, n=name: _policy_config(seed, n))
             for name in POLICY_SCENARIO_POLICIES},
    baseline_config="static-threshold",
    default_scale=0.3,
))

register_scenario(Scenario(
    name="sweep-policy",
    title="Sweep: page-operation decision policy",
    description="every built-in decision policy on the ablation apps",
    apps=ABLATION_APPS,
    systems=("migrep", "rnuma"),
    configs={name: (lambda seed, n=name: _policy_config(seed, n))
             for name in POLICY_SCENARIO_POLICIES},
    default_scale=0.3,
))
