"""The verdict ``tools/bench_pairs.py`` states per workload and metric,
checked on synthetic paired runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs with median 10.0 and quartiles 9.65 and 10.35
PARENT = [9.0, 9.4, 9.6, 9.8, 10.0, 10.0, 10.2, 10.4, 10.6, 11.0]


def shifted(delta: float) -> list[float]:
    return [value + delta for value in PARENT]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        # every pair won, the medians 2.0 apart against a quartile distance of 0.7
        (shifted(-2.0), "lower", "gain"),
        (shifted(2.0), "higher", "gain"),
        # every pair won but by less than the quartile distance
        (shifted(-0.5), "lower", "within bound"),
        # 2.0 apart, but one pair of ten lost
        ([*shifted(-2.0)[:9], 11.5], "lower", "gain"),
        ([*shifted(-2.0)[:8], 10.7, 11.5], "lower", "within bound"),
        # a median 30% worse, beyond the 25% bound
        (shifted(3.0), "lower", "worse"),
        (shifted(-3.0), "higher", "worse"),
        # 20% worse stays within the bound
        (shifted(2.0), "lower", "within bound"),
    ],
)
def test_verdict_on_paired_runs(change, better, expected):
    assert bench_pairs.verdict(PARENT, change, better, 0.25) == expected


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [6.0, 7.0, 8.0, 10.0, 10.0, 10.0, 10.0, 12.0, 13.0, 14.0]
    # quartile distance 3.0 against a bound of 0.25 * 10.0
    change = [value - 0.5 for value in parent]
    assert bench_pairs.verdict(parent, change, "lower", 0.25) == "unresolved"
    assert bench_pairs.verdict(parent, change, "lower", 0.3) == "within bound"
    assert bench_pairs.verdict(parent, [5.0] * 10, "lower", 0.25) == "gain"


def test_a_change_that_beats_every_parent_run_is_resolved():
    # quartile distance 15.6: every pair won, but by less than that
    parent = [9.0, 9.1, 9.2, 10.0, 10.0, 10.0, 10.0, 30.0, 30.0, 30.0]
    assert bench_pairs.verdict(parent, [8.9] * 10, "lower", 0.25) == "within bound"
    assert bench_pairs.verdict(parent, [8.9] * 9 + [9.05], "lower", 0.25) == "unresolved"


def test_worse_comes_before_unresolved():
    parent = [6.0, 7.0, 8.0, 10.0, 10.0, 10.0, 10.0, 12.0, 13.0, 14.0]
    assert bench_pairs.verdict(parent, [13.0] * 10, "lower", 0.25) == "worse"


def test_summary_carries_the_verdict_and_bound():
    runs = [
        {"workload": "w", "pair": i, "side": side, "end_to_end": {"m": value}, "digest": "d" * 16,
         "failed": 0, "exit": 0, "attempted": 1, "instances": 1}
        for i, (p, c) in enumerate(zip(PARENT, shifted(-2.0)))
        for side, value in (("parent", p), ("change", c))
    ]
    row = bench_pairs.summarize(runs, {"m": {"name": "m", "better": "lower", "bound": 0.25}})["w"]
    assert row["metrics"]["m"]["verdict"] == "gain"
    assert row["metrics"]["m"]["bound"] == 0.25
    assert row["metrics"]["m"]["change_wins"] == 10


def test_summary_gives_each_side_its_median_passes_per_run():
    """A faster change fits more passes into a run; the summary shows it."""
    attempted = {"parent": [480, 480, 600, 480, 720], "change": [600, 720, 720, 600, 840]}
    runs = [
        {"workload": "w", "pair": i, "side": side, "end_to_end": {"m": 1.0}, "digest": "d" * 16,
         "failed": 0, "exit": 0, "attempted": attempted[side][i], "instances": 120}
        for i in range(5)
        for side in ("parent", "change")
    ]
    row = bench_pairs.summarize(runs, {"m": {"name": "m", "better": "lower", "bound": 0.25}})["w"]
    assert row["parent_passes"] == 4
    assert row["change_passes"] == 6
    assert row["parent_attempted"] == 2760
