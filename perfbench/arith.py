"""Arithmetic of the benchmark: medians, tail percentiles, failure counts.

Kept free of any ``repro`` import so ``test_arith.py`` can check it on
its own.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[int, float]:
    """``(rank, value)`` of the ``pct`` percentile by the nearest-rank rule.

    ``rank`` is 1-based: ``n - rank`` samples lie beyond the value.
    """
    n = len(sorted_values)
    # round first: 0.9 * 100 is 90.00000000000001 in binary floating point
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return rank, float(sorted_values[rank - 1])


def tail_percentile(samples: Sequence[float]) -> Tuple[str, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(label, value, n)``.  With fewer than 20 samples no ladder
    percentile qualifies and the maximum is returned, labelled ``max``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    for pct in TAIL_LADDER:
        rank, value = nearest_rank(ordered, pct)
        if n - rank >= TAIL_BEYOND:
            return f"p{pct:g}", value, n
    return "max", float(ordered[-1]), n


@dataclass
class Ledger:
    """Operations attempted and failed, and the reference checks behind them.

    An operation fails when any of its checks fails or it raises; a
    failed operation counts once however many of its checks failed.
    ``checked`` counts every simulation compared against a reference and
    ``references`` the distinct reference inputs those comparisons used.
    """

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatched: int = 0
    reasons: List[str] = field(default_factory=list)
    _refs: set = field(default_factory=set)
    _open: Optional[Dict[str, object]] = None

    def begin(self, op_id: str) -> None:
        if self._open is not None:
            raise RuntimeError("operation already open")
        self._open = {"id": op_id, "bad": False}
        self.attempted += 1

    def check(self, ref_key: object, ok: bool, what: str) -> None:
        """Record one comparison of a simulation against reference ``ref_key``."""
        if self._open is None:
            raise RuntimeError("check outside an operation")
        self._refs.add(ref_key)
        self.checked += 1
        if not ok:
            self.mismatched += 1
            self.fail(what)

    def fail(self, why: str) -> None:
        if self._open is None:
            raise RuntimeError("failure outside an operation")
        self._open["bad"] = True
        if len(self.reasons) < 20:
            self.reasons.append(f"{self._open['id']}: {why}")

    def end(self) -> bool:
        """Close the open operation; True when it succeeded."""
        if self._open is None:
            raise RuntimeError("no operation open")
        bad = bool(self._open["bad"])
        self._open = None
        if bad:
            self.failed += 1
        return not bad

    @property
    def references(self) -> int:
        return len(self._refs)

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
