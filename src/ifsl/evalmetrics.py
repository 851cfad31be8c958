"""Query hardness, accuracy aggregation, and hardness-binned reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import as_rows, normalize_rows, softmax_rows

_S_CLAMP = 1e-12


def query_hardness(R, class_profiles, gt) -> np.ndarray:
    """Log-odds hardness of every query from pre-trained responses.

    ``R`` is the (Q, m) matrix of query pre-trained logits, ``class_profiles``
    the (K, m) per-class averaged support logits and ``gt`` the Q true class
    indices. With s the softmax (over classes) of the cosine similarities
    between the rectified vectors, hardness is log((1 - s) / s): 0 when
    s = 1/2, positive when the true class looks dissimilar. A zero-norm vector
    has cosine 0 with everything; s is clamped to [1e-12, 1 - 1e-12].
    Leading axes, one per episode, are carried through: (E, Q, m) logits,
    (E, K, m) profiles and (E, Q) indices give (E, Q) hardness, each
    episode the bits it gets on its own.
    """
    shape = np.shape(class_profiles)
    if shape[:1] == (0,) or (len(shape) > 1 and shape[-2] == 0):
        raise ValueError("need at least one class profile")
    R = as_rows(R)
    profiles = as_rows(class_profiles, cols=R.shape[-1])
    if profiles.shape[:-2] != R.shape[:-2]:
        raise ValueError(
            f"profiles {profiles.shape} and queries {R.shape} need the same leading axes"
        )
    gt = np.asarray(gt, dtype=np.int64)
    if gt.shape != R.shape[:-1]:
        raise ValueError(f"need one ground-truth index per query, got shape {gt.shape}")
    if gt.size and (gt.min() < 0 or gt.max() >= profiles.shape[-2]):
        raise ValueError(f"ground-truth index out of range [0, {profiles.shape[-2] - 1}]")
    unit = normalize_rows(np.maximum(profiles, 0.0)).swapaxes(-1, -2)
    cos = normalize_rows(np.maximum(R, 0.0)) @ unit
    s = np.take_along_axis(softmax_rows(cos), gt[..., None], axis=-1)[..., 0]
    s = np.clip(s, _S_CLAMP, 1.0 - _S_CLAMP)
    return np.log((1.0 - s) / s)


@dataclass(frozen=True)
class HardnessBin:
    lo: float
    hi: float
    count: int
    acc: float


@dataclass(frozen=True)
class Report:
    episodes: int
    mean_acc: float
    ci95: float
    hardness_bins: tuple[HardnessBin, ...] = field(default_factory=tuple)


def mean_ci(values) -> tuple[float, float]:
    """Mean and normal-theory 95% half-width 1.96 * sd / sqrt(n), with the
    sample standard deviation; a single value has half-width 0."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    half = 0.0 if arr.size == 1 else 1.96 * float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
    return float(arr.mean()), half


def accuracy_report(results) -> Report:
    """Mean per-episode accuracy (percent) with its 95% interval (``mean_ci``)."""
    accs = [100.0 * r.accuracy for r in results]
    if not accs:
        raise ValueError("no episode results to aggregate")
    mean, ci = mean_ci(accs)
    return Report(episodes=len(accs), mean_acc=mean, ci95=ci)


def check_bins(queries: int, bins: int) -> None:
    """Refuse a bin count below 1 or above the ``queries`` it would split:
    the rule of :func:`hardness_report`, which the CLI applies before it
    reads or writes any data."""
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    if queries < bins:
        raise ValueError(f"{queries} queries cannot fill {bins} bins")


def hardness_report(results, bins: int) -> tuple[HardnessBin, ...]:
    """Pool all queries, sort by hardness, and split into equal-count quantile bins.

    When the pool size is not divisible by ``bins`` the remainder goes to the
    lowest-hardness bins, one extra query each. A bin's bounds are the first
    and last hardness of its slice of the stably sorted pool, and its
    correct answers are counted for all bins in one ``reduceat``.
    """
    hardness = np.concatenate([np.asarray(r.hardness, dtype=np.float64) for r in results])
    correct = np.concatenate([np.asarray(r.correct, dtype=bool) for r in results])
    total = hardness.size
    check_bins(total, bins)
    order = np.argsort(hardness, kind="stable")
    base, rem = divmod(total, bins)
    sizes = np.full(bins, base)
    sizes[:rem] += 1
    starts = np.cumsum(sizes) - sizes
    ranked = hardness[order]
    hits = np.add.reduceat(correct[order], starts, dtype=np.intp)
    return tuple(
        HardnessBin(lo=lo, hi=hi, count=count, acc=acc)
        for lo, hi, count, acc in zip(
            ranked[starts].tolist(), ranked[starts + sizes - 1].tolist(), sizes.tolist(),
            (100.0 * (hits / sizes)).tolist(),
        )
    )


def with_bins(report: Report, bins: tuple[HardnessBin, ...]) -> Report:
    return Report(report.episodes, report.mean_acc, report.ci95, tuple(bins))


def bins_to_csv_rows(bins: Sequence[HardnessBin]) -> list[list]:
    rows = [["lo", "hi", "count", "acc"]]
    for b in bins:
        rows.append([repr(b.lo), repr(b.hi), b.count, repr(b.acc)])
    return rows
