"""Order statistics and decision rules shared by the benchmark and its
comparator.  Pure arithmetic: nothing here imports the library."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile
WIN_SHARE = 0.9  # share of pairs a change must win to claim a gain


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """The highest percentile that has at least ten samples beyond it.

    With n samples in ascending order, the nearest-rank value at rank
    n - 10 (1-based) has exactly ten samples above it, and the percentile
    whose nearest rank it is equals 100 * (n - 10) / n.  Returns
    (percentile, value).  Needs at least eleven samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"{n} samples: a tail percentile needs more than {TAIL_BEYOND}"
        )
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def self_times(
    spans: Sequence[tuple[int, int, float, float]], names: Sequence[str]
) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per span name.

    Each span is (name id, parent index or -1, start, end).  A span's self
    time is its duration minus the time its direct children cover; children
    of one parent never overlap, because calls nest on one thread.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (nid, _, start, end) in enumerate(spans):
        name = names[nid]
        seconds[name] = seconds.get(name, 0.0) + (end - start) - covered[i]
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls


def more_failures(parent: tuple[int, int], change: tuple[int, int]) -> bool:
    """Whether the change's failure share is higher than the parent's; each
    side is (failed, attempted)."""
    return change[0] * parent[1] > parent[0] * change[1]


def judge(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    change_fails_more: bool = False,
) -> dict:
    """Compare paired runs of one metric on one workload.

    ``parent[i]`` and ``change[i]`` come from the same pair.  The change
    improves the metric when it wins at least nine tenths of the pairs (ties
    count for neither side) and the medians differ by more than the distance
    between the parent's quartiles.  Otherwise it regresses when its median
    is worse than the parent's by more than ``bound``.  When either side's
    quartile spread exceeds ``bound`` the result is "unresolved", unless
    every change run reads better than every parent run ("better"), or
    every change run reads worse than every parent run and the medians are
    more than ``bound`` apart ("regressed").  A gain ("improved" or
    "better") is "not counted" when ``change_fails_more`` says the change
    failed a larger share of its operations.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_share = -sign * (cm - pm) / pm
    spreads = ((p3 - p1) / pm, (c3 - c1) / cm)
    if wins >= WIN_SHARE * len(parent) and sign * (cm - pm) > p3 - p1:
        verdict = "improved"
    elif max(spreads) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            verdict = "better"
        elif max(sign * c for c in change) < min(sign * p for p in parent) and worse_share > bound:
            verdict = "regressed"
        else:
            verdict = "unresolved"
    elif worse_share > bound:
        verdict = "regressed"
    else:
        verdict = "within bound"
    if change_fails_more and verdict in ("improved", "better"):
        verdict = "not counted"
    return {
        "pairs": len(parent),
        "change_wins": wins,
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "worse_share": worse_share,
        "spread": {"parent": spreads[0], "change": spreads[1]},
        "verdict": verdict,
    }
