"""Hardness scoring and report aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.evalmetrics import (
    HardnessBin,
    accuracy_report,
    bins_to_csv_rows,
    check_bins,
    hardness_report,
    mean_ci,
    query_hardness,
    with_bins,
)


class FakeResult:
    """Minimal stand-in carrying just the fields the aggregators read."""

    def __init__(self, correct, hardness=None):
        self.correct = np.asarray(correct, dtype=bool)
        self.hardness = (
            np.zeros(self.correct.size) if hardness is None else np.asarray(hardness, float)
        )

    @property
    def accuracy(self):
        return float(self.correct.mean())


# --- query hardness ---------------------------------------------------------------


def test_hardness_is_minus_one_for_unit_similarity_gap():
    # sims are (1, 0): the true-class similarity is perfect, the other
    # orthogonal, so s = sigmoid(1) and log((1-s)/s) = -1 exactly
    R = [[1.0, 0.0]]
    profiles = [[2.0, 0.0], [0.0, 3.0]]
    assert query_hardness(R, profiles, [0])[0] == pytest.approx(-1.0, abs=1e-12)


def test_hardness_mirrors_to_plus_one_for_wrong_class():
    R = [[1.0, 0.0]]
    profiles = [[2.0, 0.0], [0.0, 3.0]]
    assert query_hardness(R, profiles, [1])[0] == pytest.approx(1.0, abs=1e-12)


def test_hardness_zero_when_classes_indistinguishable():
    R = [[1.0, 1.0]]
    profiles = [[1.0, 1.0], [2.0, 2.0]]
    assert query_hardness(R, profiles, [0])[0] == pytest.approx(0.0, abs=1e-12)


def test_hardness_antisymmetric_over_two_classes():
    # with two classes s_1 = 1 - s_0, so swapping the ground truth negates h
    rng = np.random.default_rng(8)
    for _ in range(100):
        r = rng.standard_normal(6)
        profiles = rng.standard_normal((2, 6))
        h0, h1 = query_hardness([r, r], profiles, [0, 1])
        assert h0 + h1 == pytest.approx(0.0, abs=1e-9)


def test_hardness_negative_rectified_responses_collapse():
    # all-negative vectors rectify to zero, every cosine is 0, s uniform
    R = [[-1.0, -2.0]]
    profiles = [[-3.0, -1.0], [-1.0, -1.0], [-2.0, -5.0]]
    assert query_hardness(R, profiles, [0])[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_hardness_scores_every_query_at_once():
    # one row per query, each against the same profiles and its own class
    R = [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, -2.0]]
    profiles = [[2.0, 0.0], [0.0, 3.0]]
    h = query_hardness(R, profiles, [0, 1, 0, 1])
    assert h.shape == (4,)
    assert np.allclose(h, [-1.0, 1.0, 0.0, 0.0], rtol=0.0, atol=1e-12)


def test_hardness_gt_validation():
    profiles = [np.zeros(2), np.zeros(2)]
    with pytest.raises(ValueError, match="out of range"):
        query_hardness([[1.0, 0.0]], profiles, [2])
    with pytest.raises(ValueError, match="out of range"):
        query_hardness([[1.0, 0.0]], profiles, [-1])
    with pytest.raises(ValueError, match="at least one"):
        query_hardness([[1.0, 0.0]], [], [0])
    with pytest.raises(ValueError, match="one ground-truth index per query"):
        query_hardness([[1.0, 0.0], [0.0, 1.0]], profiles, [0])


# --- accuracy_report ---------------------------------------------------------------


def test_accuracy_report_all_correct():
    rep = accuracy_report([FakeResult([True, True, True])] * 4)
    assert rep.mean_acc == 100.0
    assert rep.ci95 == 0.0
    assert rep.episodes == 4
    assert rep.hardness_bins == ()


def test_accuracy_report_two_episode_hand_value():
    # per-episode accuracies 0 and 100: mean 50, sd 50*sqrt(2),
    # ci95 = 1.96 * sd / sqrt(2) = 98.0 exactly
    rep = accuracy_report([FakeResult([False, False]), FakeResult([True, True])])
    assert rep.mean_acc == 50.0
    assert rep.ci95 == pytest.approx(98.0, abs=1e-12)


def test_accuracy_report_single_episode_zero_interval():
    rep = accuracy_report([FakeResult([True, False])])
    assert rep.mean_acc == 50.0
    assert rep.ci95 == 0.0


def test_accuracy_report_empty_rejected():
    with pytest.raises(ValueError, match="no episode results"):
        accuracy_report([])


def test_accuracy_report_order_invariant():
    results = [FakeResult([True]), FakeResult([False]), FakeResult([True, True, False])]
    a = accuracy_report(results)
    b = accuracy_report(results[::-1])
    assert a.mean_acc == b.mean_acc
    assert a.ci95 == pytest.approx(b.ci95, abs=1e-12)


# --- mean_ci -------------------------------------------------------------------------


def test_mean_ci_single_value_zero_interval():
    assert mean_ci([42.5]) == (42.5, 0.0)


def test_mean_ci_two_value_hand_value():
    # mean 50, sd 50*sqrt(2), half-width 1.96 * sd / sqrt(2) = 98.0 exactly
    mean, half = mean_ci([0.0, 100.0])
    assert mean == 50.0
    assert half == pytest.approx(98.0, abs=1e-12)


def test_mean_ci_empty_rejected():
    with pytest.raises(ValueError, match="no values"):
        mean_ci([])


# --- hardness_report ----------------------------------------------------------------


def test_hardness_report_single_bin_pools_everything():
    results = [
        FakeResult([True, False], hardness=[0.5, -1.0]),
        FakeResult([True], hardness=[2.0]),
    ]
    (b,) = hardness_report(results, 1)
    assert b.count == 3
    assert b.lo == -1.0
    assert b.hi == 2.0
    assert b.acc == pytest.approx(100.0 * 2 / 3)


def test_hardness_report_remainder_goes_to_low_bins():
    # 7 queries into 3 bins: counts (3, 2, 2) ascending by hardness
    results = [FakeResult([True] * 7, hardness=[0, 1, 2, 3, 4, 5, 6])]
    bins = hardness_report(results, 3)
    assert [b.count for b in bins] == [3, 2, 2]
    assert (bins[0].lo, bins[0].hi) == (0.0, 2.0)
    assert (bins[1].lo, bins[1].hi) == (3.0, 4.0)
    assert (bins[2].lo, bins[2].hi) == (5.0, 6.0)


def test_hardness_report_bins_are_sorted_and_cover_pool():
    rng = np.random.default_rng(12)
    results = [
        FakeResult(rng.random(9) < 0.6, hardness=rng.standard_normal(9)) for _ in range(8)
    ]
    bins = hardness_report(results, 5)
    assert sum(b.count for b in bins) == 72
    for prev, nxt in zip(bins, bins[1:]):
        assert prev.hi <= nxt.lo
    for b in bins:
        assert b.lo <= b.hi


def test_hardness_report_count_weighted_mean_is_pooled_accuracy():
    rng = np.random.default_rng(13)
    results = [
        FakeResult(rng.random(11) < 0.5, hardness=rng.standard_normal(11)) for _ in range(7)
    ]
    bins = hardness_report(results, 6)
    pooled = 100.0 * np.concatenate([r.correct for r in results]).mean()
    weighted = sum(b.count * b.acc for b in bins) / sum(b.count for b in bins)
    assert weighted == pytest.approx(pooled, abs=1e-12)


def test_hardness_report_separates_easy_from_hard():
    # correctness exactly follows hardness: everything below the median is
    # right, everything above wrong, so bins split 100/0
    h = np.linspace(-2, 2, 40)
    results = [FakeResult(h < 0.0, hardness=h)]
    bins = hardness_report(results, 4)
    assert [b.acc for b in bins] == [100.0, 100.0, 0.0, 0.0]


def test_hardness_report_validation():
    results = [FakeResult([True, False], hardness=[0.1, 0.2])]
    with pytest.raises(ValueError, match="bin count"):
        hardness_report(results, 0)
    with pytest.raises(ValueError, match="cannot fill"):
        hardness_report(results, 3)


def _per_bin_reference(results, bins):
    # the report one bin at a time: three reductions over each bin's members
    hardness = np.concatenate([r.hardness for r in results])
    correct = np.concatenate([r.correct for r in results])
    order = np.argsort(hardness, kind="stable")
    base, rem = divmod(hardness.size, bins)
    out, start = [], 0
    for b in range(bins):
        size = base + (1 if b < rem else 0)
        members = order[start : start + size]
        start += size
        h = hardness[members]
        out.append(HardnessBin(float(h.min()), float(h.max()), size,
                               float(100.0 * correct[members].mean())))
    return tuple(out)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
    bins=st.integers(1, 60),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hardness_report_equals_per_bin_reference(sizes, bins, ties, seed):
    # pools of any size, split into any number of bins with or without a
    # remainder, and with tied hardness when ``ties``: the same bins, bit for bit
    rng = np.random.default_rng(seed)
    results = [
        FakeResult(
            rng.random(size) < 0.5,
            rng.integers(-3, 4, size) * 0.5 if ties else rng.standard_normal(size) * 3.0,
        )
        for size in sizes
    ]
    total = sum(sizes)
    if total < bins:
        with pytest.raises(ValueError, match="cannot fill"):
            hardness_report(results, bins)
        return
    got = hardness_report(results, bins)
    assert got == _per_bin_reference(results, bins)
    assert all(type(v) is float for b in got for v in (b.lo, b.hi, b.acc))
    assert all(type(b.count) is int for b in got)


def test_check_bins_is_the_rule_of_hardness_report():
    check_bins(30, 30)
    check_bins(30, 1)
    with pytest.raises(ValueError, match="bin count must be >= 1"):
        check_bins(30, 0)
    with pytest.raises(ValueError, match="30 queries cannot fill 100 bins"):
        check_bins(30, 100)


# --- report plumbing -----------------------------------------------------------------


def test_with_bins_attaches_without_touching_scalars():
    rep = accuracy_report([FakeResult([True]), FakeResult([False])])
    bins = (HardnessBin(lo=0.0, hi=1.0, count=2, acc=50.0),)
    out = with_bins(rep, bins)
    assert out.hardness_bins == bins
    assert (out.mean_acc, out.ci95, out.episodes) == (rep.mean_acc, rep.ci95, rep.episodes)


def test_bins_to_csv_rows_shape():
    bins = [HardnessBin(0.0, 1.0, 3, 66.0), HardnessBin(1.0, 2.0, 3, 33.0)]
    rows = bins_to_csv_rows(bins)
    assert rows[0] == ["lo", "hi", "count", "acc"]
    assert len(rows) == 3
    assert rows[1][2] == 3
