"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from stats import judge, more_failures, quartiles, self_times, spread, tail_percentile  # noqa: E402


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]  # 1..100, shuffled below
    samples = samples[37:] + samples[:37]
    percentile, value = tail_percentile(samples)
    assert percentile == 90.0
    assert value == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_of_243_samples():
    percentile, value = tail_percentile(list(range(243)))
    assert percentile == pytest.approx(100 * 233 / 243)
    assert value == 232
    assert sum(1 for s in range(243) if s > value) == 10


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile(list(range(11))) == (100 / 11, 0)
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_self_time_subtracts_direct_children_only():
    names = ["root", "child", "grandchild"]
    spans = [
        (0, -1, 0.0, 10.0),  # root
        (1, 0, 1.0, 4.0),  # child 3 s
        (2, 1, 2.0, 3.0),  # grandchild 1 s inside child
        (1, 0, 5.0, 7.0),  # child again, 2 s
    ]
    seconds, calls = self_times(spans, names)
    assert seconds == pytest.approx({"root": 5.0, "child": 4.0, "grandchild": 1.0})
    assert calls == {"root": 1, "child": 2, "grandchild": 1}
    assert sum(seconds.values()) == pytest.approx(10.0)


def test_self_time_of_recursive_spans_counts_each_second_once():
    names = ["build"]
    spans = [(0, -1, 0.0, 6.0), (0, 0, 1.0, 5.0), (0, 1, 2.0, 3.0)]
    seconds, calls = self_times(spans, names)
    assert seconds["build"] == pytest.approx(6.0)
    assert calls["build"] == 3


def test_pair_rule_needs_nine_wins_in_ten():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [p - 2.0 for p in parent]
    assert judge(parent, change, "lower", 0.1)["verdict"] == "improved"
    # two lost pairs: 8 of 10 is not enough, and the medians sit inside
    # the bound, so the change is only within it
    change[3], change[7] = 10.5, 10.6
    result = judge(parent, change, "lower", 0.25)
    assert result["change_wins"] == 8
    assert result["verdict"] == "within bound"


def test_pair_rule_ties_count_for_neither_side():
    parent = [5.0] * 10
    result = judge(parent, list(parent), "higher", 0.1)
    assert result["change_wins"] == 0
    assert result["verdict"] == "within bound"


def test_pair_rule_needs_the_gap_to_exceed_the_parent_spread():
    parent = [8.0, 12.0] * 5
    change = [p - 0.5 for p in parent]  # wins every pair, but by less than the IQR
    result = judge(parent, change, "lower", 0.5)
    assert result["change_wins"] == 10
    assert result["verdict"] == "within bound"


def test_regression_beyond_bound_and_unresolved_spread():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    slower = [p * 1.3 for p in parent]
    assert judge(parent, slower, "lower", 0.25)["verdict"] == "regressed"
    noisy = [0.5, 1.5] * 5
    assert judge(parent, noisy, "lower", 0.25)["verdict"] == "unresolved"
    # a wide spread is no excuse when every change run beats every parent run
    faster_noisy = [0.5, 0.9] * 5
    assert judge(parent, faster_noisy, "lower", 0.25)["verdict"] in ("improved", "better")


def test_wide_spread_is_no_cover_when_every_change_run_is_worse():
    parent = [1.0, 1.4] * 5  # spread 0.4 / 1.2 > 0.25
    slower = [1.6, 1.9] * 5  # every run worse than every parent run, median +46%
    assert judge(parent, slower, "lower", 0.25)["verdict"] == "regressed"
    # the same separation on a higher-is-better metric
    assert judge([1 / p for p in parent], [1 / c for c in slower], "higher", 0.25)["verdict"] == "regressed"
    # separated, but the medians within the bound: still unresolved
    closer = [1.41, 1.45] * 5  # median +19%
    assert judge(parent, closer, "lower", 0.25)["verdict"] == "unresolved"


def test_gain_is_not_counted_when_the_change_fails_more():
    assert more_failures(parent=(0, 200), change=(1, 200))
    assert not more_failures(parent=(1, 200), change=(1, 200))
    assert not more_failures(parent=(2, 200), change=(1, 100))  # equal shares
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p - 2.0 for p in parent]
    assert judge(parent, faster, "lower", 0.1, change_fails_more=True)["verdict"] == "not counted"
    noisy = [1.0, 1.4] * 5  # spread too wide; every change run below 1.0, gap under the IQR
    separated = [0.9, 0.95] * 5
    assert judge(noisy, separated, "lower", 0.25)["verdict"] == "better"
    assert judge(noisy, separated, "lower", 0.25, change_fails_more=True)["verdict"] == "not counted"
    # a regression stays a regression
    slower = [p * 1.3 for p in parent]
    assert judge(parent, slower, "lower", 0.25, change_fails_more=True)["verdict"] == "regressed"


def test_higher_is_better_metrics_flip_the_sign():
    parent = [100.0 + i for i in range(10)]
    change = [150.0 + i for i in range(10)]
    result = judge(parent, change, "higher", 0.1)
    assert result["verdict"] == "improved"
    assert result["worse_share"] < 0


def test_ref_clock_skips_probes_and_rescales_by_the_probes_around_a_span(monkeypatch):
    wall = [0.0]
    probe_times = iter([2, 2, 2, 2, 1, 1])  # in units of REF_PROBE_S

    def probe():
        wall[0] += next(probe_times) * speed.REF_PROBE_S

    monkeypatch.setattr(speed, "perf_counter", lambda: wall[0])
    monkeypatch.setattr(speed, "probe_work", probe)
    clock = speed.RefClock()  # three probes at half the reference speed
    start = clock.ref
    assert start == 0.0  # no wall time passed outside the probes
    wall[0] += 1.0  # one wall second at half speed, probes 2, 2 around it
    assert clock.now() - start == pytest.approx(0.5)
    wall[0] += 1.0  # the median of the last three probes is still 2
    assert clock.now() - start == pytest.approx(1.0)
    wall[0] += 0.3  # medians 2 before and 1 after: rate 2 / (2 + 1)
    assert clock.now() - start == pytest.approx(1.2)
    assert clock.probes == 6
    assert clock.probe_s == pytest.approx(10 * speed.REF_PROBE_S)
