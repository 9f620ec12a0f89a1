"""Codified versions of the paper's qualitative claims.

EXPERIMENTS.md reports, for every table and figure, the paper's claim next
to the value this reproduction measures.  To keep that comparison honest
(and regression-tested) the claims are expressed as code: each checker
takes the measured data in the same shape the experiment modules produce
and returns a list of :class:`ShapeCheck` records saying which claims hold.

The claims themselves come from Section 6 of the paper:

* Figure 5 — CC-NUMA is ~60 % slower than perfect; MigRep improves on
  CC-NUMA by ~20 % on average; R-NUMA improves by ~40 % and is best;
  R-NUMA-Inf is at least as good as R-NUMA; Mig alone does not help
  barnes; lu's gain comes mostly from replication.
* Table 4 — MigRep page operations are far less frequent than R-NUMA
  relocations; R-NUMA leaves the fewest capacity/conflict misses.
* Figure 6 — slow page operations hurt R-NUMA more than MigRep.
* Figure 7 — at 4x network latency CC-NUMA degrades most, R-NUMA least.
* Figure 8 — halving the page cache hurts R-NUMA little except under
  pressure, and adding MigRep to R-NUMA-1/2 does not recover the loss.

The checkers accept tolerances because the reproduction runs synthetic
traces on a scaled-down machine: the *orderings* are asserted tightly, the
*magnitudes* loosely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of checking one qualitative claim of the paper."""

    claim: str
    passed: bool
    measured: str
    expected: str

    def as_row(self) -> Dict[str, str]:
        """Row for Markdown/CSV export."""
        return {
            "claim": self.claim,
            "result": "pass" if self.passed else "FAIL",
            "expected": self.expected,
            "measured": self.measured,
        }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _mean_over_apps(per_app: Mapping[str, Mapping[str, float]], system: str) -> float:
    return _mean([times[system] for times in per_app.values() if system in times])


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------


def check_figure5_shape(per_app: Mapping[str, Mapping[str, float]],
                        *, tolerance: float = 0.05) -> List[ShapeCheck]:
    """Check the Section 6.1 claims on Figure 5 data.

    ``per_app`` maps application name to {system: normalized time}, as
    produced by ``run_scenario("figure5").figure_data()``.
    """
    checks: List[ShapeCheck] = []
    cc = _mean_over_apps(per_app, "ccnuma")
    migrep = _mean_over_apps(per_app, "migrep")
    rnuma = _mean_over_apps(per_app, "rnuma")
    rnuma_inf = _mean_over_apps(per_app, "rnuma-inf")

    checks.append(ShapeCheck(
        claim="CC-NUMA is substantially slower than perfect CC-NUMA (~1.6x in the paper)",
        passed=cc >= 1.25,
        measured=f"mean CC-NUMA = {cc:.2f}x",
        expected=">= 1.25x (paper: ~1.6x)",
    ))
    checks.append(ShapeCheck(
        claim="MigRep improves on CC-NUMA on average (~20% in the paper)",
        passed=migrep <= cc * (1.0 - 0.05),
        measured=f"MigRep {migrep:.2f}x vs CC-NUMA {cc:.2f}x "
                 f"({(1 - migrep / cc) * 100:.0f}% better)",
        expected=">= 5% average improvement (paper: ~20%)",
    ))
    checks.append(ShapeCheck(
        claim="R-NUMA improves on CC-NUMA by more than MigRep does (~40% vs ~20%)",
        passed=rnuma <= migrep + tolerance and rnuma <= cc * (1.0 - 0.15),
        measured=f"R-NUMA {rnuma:.2f}x vs MigRep {migrep:.2f}x vs CC-NUMA {cc:.2f}x",
        expected="R-NUMA <= MigRep and >= 15% better than CC-NUMA",
    ))
    checks.append(ShapeCheck(
        claim="R-NUMA-Inf subsumes R-NUMA (at least as good everywhere on average)",
        passed=rnuma_inf <= rnuma + tolerance,
        measured=f"R-NUMA-Inf {rnuma_inf:.2f}x vs R-NUMA {rnuma:.2f}x",
        expected="R-NUMA-Inf <= R-NUMA (+tolerance)",
    ))

    if "barnes" in per_app and "mig" in per_app["barnes"]:
        barnes = per_app["barnes"]
        checks.append(ShapeCheck(
            claim="Mig alone does not help barnes (it migrates read-only pages)",
            passed=barnes["mig"] >= barnes["migrep"] - tolerance,
            measured=f"barnes: Mig {barnes['mig']:.2f}x, MigRep {barnes['migrep']:.2f}x",
            expected="Mig >= MigRep on barnes",
        ))
    if "lu" in per_app and "rep" in per_app["lu"] and "mig" in per_app["lu"]:
        lu = per_app["lu"]
        checks.append(ShapeCheck(
            claim="lu benefits mainly from replication (read phase of the matrix)",
            passed=lu["rep"] <= lu["mig"] + tolerance,
            measured=f"lu: Rep {lu['rep']:.2f}x, Mig {lu['mig']:.2f}x",
            expected="Rep <= Mig on lu",
        ))
    return checks


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------


def check_table4_shape(rows: Sequence,
                       *, min_ratio: float = 1.5) -> List[ShapeCheck]:
    """Check the Table 4 claims.

    ``rows`` is the list of :class:`repro.experiments.scenarios.Table4Row`
    that :func:`repro.experiments.scenarios.table4_rows` derives from a
    ``table4`` run (any object with the same attributes works).
    """
    checks: List[ShapeCheck] = []
    reloc = _mean([r.relocations_per_node for r in rows])
    migrep_ops = _mean([r.migrations_per_node + r.replications_per_node
                        for r in rows])
    checks.append(ShapeCheck(
        claim="R-NUMA relocations are noticeably more frequent than MigRep "
              "page operations (paper mean ratio ~3x, up to three orders of "
              "magnitude per application)",
        passed=reloc >= migrep_ops * min_ratio,
        measured=f"mean relocations/node {reloc:.0f} vs MigRep ops/node {migrep_ops:.0f}",
        expected=f"relocations >= {min_ratio:.1f}x MigRep operations",
    ))

    cc = _mean([r.capacity_conflict["ccnuma"] for r in rows])
    mig = _mean([r.capacity_conflict["migrep"] for r in rows])
    rn = _mean([r.capacity_conflict["rnuma"] for r in rows])
    checks.append(ShapeCheck(
        claim="MigRep reduces capacity/conflict misses below CC-NUMA",
        passed=mig <= cc,
        measured=f"capacity/conflict per node: CC-NUMA {cc:.0f}, MigRep {mig:.0f}",
        expected="MigRep <= CC-NUMA",
    ))
    checks.append(ShapeCheck(
        claim="R-NUMA leaves the fewest capacity/conflict misses",
        passed=rn <= mig and rn <= cc,
        measured=f"capacity/conflict per node: CC-NUMA {cc:.0f}, MigRep {mig:.0f}, R-NUMA {rn:.0f}",
        expected="R-NUMA <= MigRep <= CC-NUMA",
    ))
    return checks


# ---------------------------------------------------------------------------
# Figures 6-8
# ---------------------------------------------------------------------------


def check_figure6_shape(per_app: Mapping[str, Mapping[str, float]]) -> List[ShapeCheck]:
    """Check the Section 6.2 claim: slow page ops hurt R-NUMA more than MigRep.

    ``per_app`` maps application -> series dict with keys ``migrep-fast``,
    ``migrep-slow``, ``rnuma-fast`` and ``rnuma-slow``, as produced by
    ``run_scenario("figure6").figure_data()``.
    """
    mig_fast = _mean_over_apps(per_app, "migrep-fast")
    mig_slow = _mean_over_apps(per_app, "migrep-slow")
    rn_fast = _mean_over_apps(per_app, "rnuma-fast")
    rn_slow = _mean_over_apps(per_app, "rnuma-slow")
    mig_delta = mig_slow - mig_fast
    rn_delta = rn_slow - rn_fast
    return [
        ShapeCheck(
            claim="Slow page operations degrade R-NUMA more than MigRep on average",
            passed=rn_delta >= mig_delta,
            measured=(f"slow-fast delta: R-NUMA +{rn_delta:.2f}, "
                      f"MigRep +{mig_delta:.2f}"),
            expected="R-NUMA delta >= MigRep delta",
        ),
        ShapeCheck(
            claim="Slow page operations never speed a system up",
            passed=rn_delta >= -0.05 and mig_delta >= -0.05,
            measured=f"deltas: R-NUMA {rn_delta:+.2f}, MigRep {mig_delta:+.2f}",
            expected="both deltas >= 0 (small tolerance)",
        ),
    ]


def check_figure7_shape(base: Mapping[str, Mapping[str, float]],
                        long: Mapping[str, Mapping[str, float]]) -> List[ShapeCheck]:
    """Check the Section 6.3 claim about sensitivity to network latency."""
    checks: List[ShapeCheck] = []
    deltas: Dict[str, float] = {}
    for system in ("ccnuma", "migrep", "rnuma"):
        deltas[system] = (_mean_over_apps(long, system)
                          - _mean_over_apps(base, system))
    checks.append(ShapeCheck(
        claim="Longer network latency hurts CC-NUMA the most and R-NUMA the least",
        passed=deltas["ccnuma"] >= deltas["migrep"] >= deltas["rnuma"],
        measured=", ".join(f"{s}: +{d:.2f}" for s, d in deltas.items()),
        expected="delta(ccnuma) >= delta(migrep) >= delta(rnuma)",
    ))
    checks.append(ShapeCheck(
        claim="All systems slow down (relative to perfect) at 4x network latency",
        passed=all(d >= -0.05 for d in deltas.values()),
        measured=", ".join(f"{s}: {d:+.2f}" for s, d in deltas.items()),
        expected="every delta >= 0 (small tolerance)",
    ))
    return checks


def check_figure8_shape(per_app: Mapping[str, Mapping[str, float]],
                        *, tolerance: float = 0.05) -> List[ShapeCheck]:
    """Check the Section 6.4 claims on the R-NUMA+MigRep hybrid study."""
    rn = _mean_over_apps(per_app, "rnuma")
    half = _mean_over_apps(per_app, "rnuma-half")
    half_migrep = _mean_over_apps(per_app, "rnuma-half-migrep")
    return [
        ShapeCheck(
            claim="Halving the page cache does not catastrophically hurt R-NUMA on average",
            passed=half <= rn + 0.5,
            measured=f"R-NUMA {rn:.2f}x vs R-NUMA-1/2 {half:.2f}x",
            expected="R-NUMA-1/2 within +0.5x of R-NUMA",
        ),
        ShapeCheck(
            claim="Adding MigRep to R-NUMA-1/2 does not recover the loss "
                  "(counter interference, Section 6.4)",
            passed=half_migrep >= half - tolerance,
            measured=f"R-NUMA-1/2 {half:.2f}x vs R-NUMA-1/2+MigRep {half_migrep:.2f}x",
            expected="R-NUMA-1/2+MigRep >= R-NUMA-1/2 (- tolerance)",
        ),
    ]


def all_passed(checks: Sequence[ShapeCheck]) -> bool:
    """True when every check in ``checks`` passed."""
    return all(c.passed for c in checks)


def failed_claims(checks: Sequence[ShapeCheck]) -> List[str]:
    """Claims that did not hold (empty list when everything passed)."""
    return [c.claim for c in checks if not c.passed]
