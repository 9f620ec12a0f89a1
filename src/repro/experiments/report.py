"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

:func:`build_report` runs the scenario of every table and figure (Tables
1-4, Figures 5-8, plus this reproduction's ablations), renders the
measured numbers as Markdown tables, and places each next to the
corresponding claim of the paper together with the codified shape checks
of :mod:`repro.analysis.validate`.  All sections run over one
:class:`~repro.experiments.runner.SweepRunner`: one worker pool, result
memo and trace memo serve the whole report, so a run or trace several
sections share (the perfect CC-NUMA baselines, the base
CC-NUMA/MigRep/R-NUMA runs) is simulated or generated once.  The
``scripts/make_experiments_md.py``
helper writes the result to ``EXPERIMENTS.md`` at the repository root.

Because the reproduction drives synthetic traces through a scaled-down
machine, absolute numbers are not expected to match the paper; the report
therefore focuses on the comparative *shape* — which system wins, by
roughly what factor, and where the crossovers are — which is what the
paper's conclusions rest on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.analysis import validate
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import get_scenario, run_scenario
from repro.experiments.scenarios import (
    ABLATION_APPS,
    FIGURE5_SYSTEMS,
    FIGURE7_SYSTEMS,
    table1_matrix,
    table4_rows,
)
from repro.stats.export import figure_to_markdown, to_markdown


@dataclass
class ExperimentReport:
    """Collected data and rendered sections for EXPERIMENTS.md."""

    scale: float
    seed: int
    sections: List[str] = field(default_factory=list)
    checks: Dict[str, List[validate.ShapeCheck]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    def add_section(self, text: str) -> None:
        self.sections.append(text.rstrip() + "\n")

    def all_checks(self) -> List[validate.ShapeCheck]:
        return [c for checks in self.checks.values() for c in checks]

    def to_markdown(self) -> str:
        return "\n".join(self.sections)


def _checks_table(checks: Sequence[validate.ShapeCheck]) -> str:
    return to_markdown([c.as_row() for c in checks],
                       fieldnames=["claim", "result", "expected", "measured"])


#: The placement policies the report's placement ablation compares.
PLACEMENTS = ("first-touch", "single-node")


def _mean(per_app: Mapping[str, Mapping[str, float]], system: str) -> float:
    values = [t[system] for t in per_app.values() if system in t]
    return sum(values) / len(values) if values else float("nan")


def _add_sections(report: ExperimentReport, runner: SweepRunner, *,
                  scale: float, seed: int, apps: Optional[Sequence[str]],
                  say: Callable[[str], None]) -> None:
    """Run every section's scenario over ``runner`` and render it."""
    def run(name: str, **kwargs):
        kwargs.setdefault("scale", scale)
        return run_scenario(name, seed=seed, runner=runner, **kwargs)

    # -- Tables 1-3 ---------------------------------------------------------
    say("table 1")
    matrix = table1_matrix(run("table1", scale=max(0.3, scale)))
    rows = []
    for mech, cells in matrix.items():
        row: Dict[str, object] = {"mechanism": mech}
        for scen, cell in cells.items():
            row[scen] = "yes" if cell.reduces_misses else "no"
        rows.append(row)
    report.add_section(
        "## Table 1 — miss-reduction opportunity matrix\n\n"
        "Paper: replication helps read-only pages, migration helps "
        "low-sharing-degree read-write pages, only R-NUMA helps "
        "high-sharing-degree read-write pages.\n\n"
        "Measured (does the mechanism reduce capacity/conflict misses by "
        "≥ 20 % on a workload of that sharing class?):\n\n"
        + to_markdown(rows))

    say("table 2")
    t2 = run("table2").rows
    report.add_section(
        "## Table 2 — applications and inputs\n\n"
        "The seven SPLASH-2 applications are replaced by synthetic trace "
        "generators parameterised from the sharing behaviour the paper "
        "describes per application (see DESIGN.md substitutions).\n\n"
        + to_markdown([{"application": r["app"],
                        "paper input": r["paper_input"],
                        "synthetic pages": r["pages"],
                        "references/proc (scale 1.0)": r["accesses_per_proc"]}
                       for r in t2]))

    say("table 3")
    t3 = run("table3").rows
    report.add_section(
        "## Table 3 — cost model\n\n"
        "The simulator charges exactly the paper's Table 3 cycle costs "
        "(the reduced experiment configuration scales page-operation costs "
        "down with the trace size; see `repro.config.reduced_costs`).\n\n"
        + to_markdown([{"operation": r["operation"],
                        "paper (cycles)": r["paper_cycles"],
                        "model (cycles)": r["model_cycles"],
                        "match": r["matches"]}
                       for r in t3]))

    # -- Figure 5 -------------------------------------------------------------
    say("figure 5")
    app_axis = {"apps": list(apps)} if apps is not None else {}
    fig5 = run("figure5", **app_axis).figure_data()
    checks5 = validate.check_figure5_shape(fig5)
    report.checks["figure5"] = checks5
    report.add_section(
        "## Figure 5 — base performance comparison\n\n"
        "Execution time normalized to perfect CC-NUMA (lower is better).  "
        "Paper: CC-NUMA averages ~1.6x, MigRep improves on CC-NUMA by ~20 %, "
        "R-NUMA by ~40 % and is best overall; Mig alone hurts barnes; lu "
        "benefits mainly from replication.\n\n"
        + figure_to_markdown(fig5, list(FIGURE5_SYSTEMS))
        + "\n\nMeans: "
        + ", ".join(f"{s} = {_mean(fig5, s):.2f}x" for s in FIGURE5_SYSTEMS)
        + "\n\n### Shape checks\n\n" + _checks_table(checks5))

    # -- Table 4 --------------------------------------------------------------
    say("table 4")
    t4 = table4_rows(run("table4", **app_axis))
    checks_t4 = validate.check_table4_shape(t4)
    report.checks["table4"] = checks_t4
    report.add_section(
        "## Table 4 — page operations and remote misses per node\n\n"
        "Paper: MigRep page operations are orders of magnitude less frequent "
        "than R-NUMA relocations; R-NUMA leaves the fewest capacity/conflict "
        "misses; radix relocates the most and suffers page-cache pressure.\n\n"
        + to_markdown([{
            "app": r.app,
            "migrations/node": round(r.migrations_per_node, 1),
            "replications/node": round(r.replications_per_node, 1),
            "relocations/node": round(r.relocations_per_node, 1),
            "CC-NUMA misses (cap/conf)":
                f"{r.misses['ccnuma']:.0f} ({r.capacity_conflict['ccnuma']:.0f})",
            "MigRep misses (cap/conf)":
                f"{r.misses['migrep']:.0f} ({r.capacity_conflict['migrep']:.0f})",
            "R-NUMA misses (cap/conf)":
                f"{r.misses['rnuma']:.0f} ({r.capacity_conflict['rnuma']:.0f})",
        } for r in t4])
        + "\n\n### Shape checks\n\n" + _checks_table(checks_t4))

    # -- Figure 6 -------------------------------------------------------------
    say("figure 6")
    rs6 = run("figure6", **app_axis)
    fig6 = rs6.figure_data()
    checks6 = validate.check_figure6_shape(fig6)
    report.checks["figure6"] = checks6
    report.add_section(
        "## Figure 6 — sensitivity to page-operation overhead\n\n"
        "Ten-fold slower soft traps/TLB shootdowns/page copies, thresholds "
        "re-tuned as in the paper (1200 / 64).  Paper: R-NUMA is more "
        "sensitive than MigRep because its page operations are far more "
        "frequent; cholesky and radix degrade the most.\n\n"
        + figure_to_markdown(fig6, list(rs6.series))
        + "\n\n### Shape checks\n\n" + _checks_table(checks6))

    # -- Figure 7 -------------------------------------------------------------
    say("figure 7")
    fig7 = run("figure7", **app_axis).figure_data()
    checks7 = validate.check_figure7_shape(fig5, fig7)
    report.checks["figure7"] = checks7
    report.add_section(
        "## Figure 7 — sensitivity to network latency\n\n"
        "Remote-to-local latency ratio raised 4x (to ~16).  Paper: CC-NUMA "
        "degrades the most (1.60x -> 2.26x), MigRep is in the middle, R-NUMA "
        "the least (1.20x -> 1.25x).\n\n"
        + figure_to_markdown(fig7, list(FIGURE7_SYSTEMS))
        + "\n\nMeans: "
        + ", ".join(f"{s} = {_mean(fig7, s):.2f}x" for s in FIGURE7_SYSTEMS)
        + "\n\n### Shape checks (vs the Figure 5 base system)\n\n"
        + _checks_table(checks7))

    # -- Figure 8 -------------------------------------------------------------
    say("figure 8")
    rs8 = run("figure8", **app_axis)
    fig8 = rs8.figure_data()
    checks8 = validate.check_figure8_shape(fig8)
    report.checks["figure8"] = checks8
    report.add_section(
        "## Figure 8 — R-NUMA+MigRep hybrid and page-cache size\n\n"
        "Paper: R-NUMA-1/2 (half page cache) is close to R-NUMA except under "
        "pressure (radix); adding MigRep to R-NUMA-1/2 does *not* recover the "
        "loss because relocation interferes with the MigRep miss counters "
        "(Section 6.4).\n\n"
        + figure_to_markdown(fig8, list(rs8.series))
        + "\n\n### Shape checks\n\n" + _checks_table(checks8))

    # -- Ablations beyond the paper -------------------------------------------
    say("ablations")
    small = min(0.3, scale)
    dram = run("ablation-block-cache", apps=ABLATION_APPS, scale=small)
    scoma = run("ablation-scoma", apps=ABLATION_APPS, scale=small)
    placement = run("ablation-placement", apps=("lu", "ocean", "radix"),
                    configs={p: get_scenario("ablation-placement").configs[p]
                             for p in PLACEMENTS},
                    scale=small).mean()
    report.add_section(
        "## Ablations beyond the paper\n\n"
        "### DRAM block cache (Section 2 alternative)\n\n"
        + figure_to_markdown(dram.figure_data(), list(dram.series))
        + "\n\n### Unconditional S-COMA vs reactive R-NUMA\n\n"
        + figure_to_markdown(scoma.figure_data(), list(scoma.series))
        + "\n\n### Initial placement policy (mean over lu/ocean/radix)\n\n"
        + to_markdown([{"placement": p,
                        **{s: round(placement[f"{s}-{p}"], 2)
                           for s in ("ccnuma", "migrep", "rnuma")}}
                       for p in PLACEMENTS]))


def build_report(*, scale: float = 0.5, seed: int = 0,
                 apps: Optional[Sequence[str]] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> ExperimentReport:
    """Run every experiment and assemble the EXPERIMENTS.md content."""
    start = time.time()
    report = ExperimentReport(scale=scale, seed=seed)
    say = progress or (lambda msg: None)

    report.add_section(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "This file is generated by `python scripts/make_experiments_md.py` "
        f"(workload scale {scale}, seed {seed}).  Every table and figure of "
        "the paper's evaluation section is regenerated by the corresponding "
        "module in `repro.experiments` and benchmark in `benchmarks/`; the "
        "tables below report the measured values of this reproduction next "
        "to the paper's claims.  Absolute numbers are not comparable — the "
        "paper ran real SPLASH-2 binaries on a cycle-accurate simulator, "
        "this reproduction runs synthetic traces on a scaled-down machine — "
        "so each section ends with the codified *shape checks* that capture "
        "the paper's qualitative conclusions.\n")

    with SweepRunner() as runner:
        _add_sections(report, runner, scale=scale, seed=seed, apps=apps,
                      say=say)

    # -- summary ---------------------------------------------------------------
    all_checks = report.all_checks()
    passed = sum(1 for c in all_checks if c.passed)
    report.add_section(
        "## Shape-check summary\n\n"
        f"{passed} of {len(all_checks)} codified claims of the paper hold on "
        "this reproduction.  Failing checks, if any, are marked `FAIL` in "
        "the sections above and discussed in DESIGN.md.\n")

    report.elapsed_seconds = time.time() - start
    return report
