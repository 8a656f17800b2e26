"""The A/B summary of `tools/bench_ab.py`: quartiles, win counts and the
median-gap rule, on hand-made paired samples."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def test_quartiles_inclusive():
    assert bench_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better_counts_wins_and_ignores_ties():
    parent = [1.00, 1.10, 1.20, 1.30, 1.40]
    change = [0.90, 1.10, 0.80, 1.50, 0.70]
    s = bench_ab.summarize(parent, change, "lower")
    assert s["wins"] == 3 and s["pairs"] == 5  # the tie at 1.10 counts for neither
    assert s["parent"] == pytest.approx((1.10, 1.20, 1.30))
    assert s["change"][1] == 0.90
    assert s["rel"] == pytest.approx(-0.25)
    assert s["gap_exceeds_iqr"]  # a median gap of 0.3 beyond an IQR of 0.2


def test_higher_is_better_and_a_gap_inside_the_spread():
    parent = [10.0, 20.0, 30.0]
    change = [11.0, 21.0, 29.0]
    s = bench_ab.summarize(parent, change, "higher")
    assert s["wins"] == 2
    assert not s["gap_exceeds_iqr"]  # a median gap of 1 inside an IQR of 10
