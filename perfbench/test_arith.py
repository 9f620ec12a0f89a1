"""Self-tests of the benchmark's arithmetic: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from arith import Ledger, median, tail_percentile  # noqa: E402


def test_tail_needs_ten_samples_beyond():
    # 100 samples: p90 is rank 90, leaving exactly 10 beyond; p99 leaves 1
    label, value, n = tail_percentile(list(range(1, 101)))
    assert (label, value, n) == ("p90", 90.0, 100)


def test_tail_moves_up_the_ladder_with_more_samples():
    assert tail_percentile(list(range(1, 501)))[:2] == ("p90", 450.0)
    assert tail_percentile(list(range(1, 1001)))[:2] == ("p99", 990.0)
    assert tail_percentile(list(range(1, 10001)))[:2] == ("p99.9", 9990.0)


def test_tail_is_order_independent():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert tail_percentile(samples) == tail_percentile(sorted(samples))
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_tail_falls_back_below_the_ladder():
    # 99 samples: p90 (rank 90) leaves 9 beyond, so p50 (rank 50) wins
    assert tail_percentile(list(range(1, 100)))[:2] == ("p50", 50.0)
    # 20 samples: only p50 (rank 10, 10 beyond) qualifies
    assert tail_percentile(list(range(1, 21)))[:2] == ("p50", 10.0)
    # 19 samples: nothing qualifies, report the maximum
    assert tail_percentile(list(range(1, 20))) == ("max", 19.0, 19)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_failed_operation_counts_once():
    led = Ledger()
    led.begin("op0")
    led.check(("t0", "migrep"), True, "migrep")
    led.end()
    led.begin("op1")
    led.check(("t0", "rnuma"), False, "rnuma")
    led.check(("t0", "scoma"), False, "scoma")
    assert not led.end()
    led.begin("op2")
    led.fail("raised")
    led.end()
    assert (led.attempted, led.failed) == (3, 2)
    assert led.mismatched == 2
    assert led.failed_fraction == pytest.approx(2 / 3)


def test_reference_counting_dedupes_inputs():
    led = Ledger()
    for op in range(4):
        led.begin(f"op{op}")
        for system in ("ccnuma", "migrep"):
            led.check((f"trace{op % 2}", system), True, system)
        led.end()
    assert led.checked == 8
    assert led.references == 4   # 2 traces x 2 systems
    assert led.failed == 0 and led.failed_fraction == 0.0


def test_ledger_rejects_unbalanced_use():
    led = Ledger()
    with pytest.raises(RuntimeError):
        led.end()
    with pytest.raises(RuntimeError):
        led.check("k", True, "x")
    led.begin("a")
    with pytest.raises(RuntimeError):
        led.begin("b")
