"""Shared fixtures: a small deterministic dataset/knowledge base pair for unit
tests, the full default synthetic benchmark shared by the acceptance suite, and
per-sample, per-head, per-batch and per-query reference computations that the
whole-array code is checked against.
"""

import dataclasses
import math
import os
import shutil
import tempfile

import numpy as np
import pytest

from ifsl.episodes import Episode, sample_episode
from ifsl.heads import _unstack_heads, stack_heads
from ifsl.knowledge import FeatureDataset, KnowledgeBase
from ifsl.numerics import softmax_rows
from ifsl.synth import SynthConfig, gen_confounded

_HYPOTHESIS_DIR = pytest.StashKey[str]()


def pytest_configure(config):
    """Give hypothesis a temporary storage directory for the run.

    Its pytest plugin caches source constants on disk during collection, by
    default in ``.hypothesis/`` under the working directory. The property
    tests keep no example database, so nothing there outlives the run.
    """
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        config.stash[_HYPOTHESIS_DIR] = tempfile.mkdtemp(prefix="hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = config.stash[_HYPOTHESIS_DIR]


def pytest_unconfigure(config):
    if _HYPOTHESIS_DIR in config.stash:
        del os.environ["HYPOTHESIS_STORAGE_DIRECTORY"]
        shutil.rmtree(config.stash[_HYPOTHESIS_DIR], ignore_errors=True)


def make_blob_dataset(
    n_classes: int = 10,
    per_class: int = 30,
    dim: int = 16,
    spread: float = 3.0,
    noise: float = 0.5,
    seed: int = 11,
) -> FeatureDataset:
    """Gaussian blobs around random class centers; easy but not trivial."""
    rng = np.random.default_rng(seed)
    centers = spread * rng.standard_normal((n_classes, dim))
    feats = np.concatenate(
        [c + noise * rng.standard_normal((per_class, dim)) for c in centers]
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    return FeatureDataset(feats, labels, n_classes)


def make_kb(m: int = 4, dim: int = 16, seed: int = 5) -> KnowledgeBase:
    rng = np.random.default_rng(seed)
    return KnowledgeBase(
        class_means=rng.standard_normal((m, dim)),
        pre_weights=rng.standard_normal((m, dim)),
        pre_bias=rng.standard_normal(m),
    )


@pytest.fixture
def blob_ds() -> FeatureDataset:
    return make_blob_dataset()


@pytest.fixture
def small_kb() -> KnowledgeBase:
    return make_kb()


@pytest.fixture(scope="session")
def default_synth():
    """The default confounded benchmark (64-dim, 16+16 classes, 4 strata)."""
    return gen_confounded(SynthConfig())


# --- per-sample and per-head references ---------------------------------------


def reference_inputs(predictor, x) -> list:
    """Per-head inputs for one feature vector, built stratum by stratum.

    Block i of a vector keeps the entries whose magnitude exceeds the
    threshold t and zeroes the rest; the class-wise context is
    ctx = (1/m) sum_j P(a_j | x) * mean_j with P the pre-trained softmax.
    ``class`` reads x - m * ctx and ``combined`` block i of x minus m times
    block i of ctx, each block masked on its own.
    """
    x = np.asarray(x, dtype=np.float64)
    strategy = predictor.cfg.strategy
    if strategy in ("class", "combined"):
        kb = predictor.kb
        logits = kb.pre_weights @ x + kb.pre_bias
        e = np.exp(logits - logits.max())
        ctx = (e / e.sum()) @ kb.class_means / kb.m
    if strategy == "none":
        return [x]
    if strategy == "class":
        return [x - kb.m * ctx]
    n, t = predictor.cfg.partition.n, predictor.cfg.partition.t
    width = x.size // n

    def stratum(v, i):
        out = np.zeros(width)
        for k in range(width):
            if abs(v[i * width + k]) > t:
                out[k] = v[i * width + k]
        return out

    if strategy == "feature":
        return [stratum(x, i) for i in range(n)]
    return [stratum(x, i) - kb.m * stratum(ctx, i) for i in range(n)]


def plain_sampler(ds, way, shot, query):
    """A ``run_arms`` sampler of ``sample_episode`` episodes, with no extra output."""
    return lambda rng: (sample_episode(ds, way, shot, query, rng), None)


def check_sampled_episode(ep, ds, way, shot, query):
    """Every invariant that ``Episode(...)`` checks, which the samplers skip,
    on an episode sampled from ``ds``."""
    assert (ep.way, ep.shot, ep.query_per_class) == (way, shot, query)
    assert ep.support_idx.dtype == ep.query_idx.dtype == ep.class_map.dtype == np.int64
    assert ep.support_x.dtype == ep.query_x.dtype == np.float64
    assert np.array_equal(ep.support_y, np.repeat(np.arange(way), shot))
    assert np.array_equal(ep.query_y, np.repeat(np.arange(way), query))
    assert np.intersect1d(ep.support_idx, ep.query_idx).size == 0
    assert np.unique(ep.class_map).size == way
    assert np.array_equal(ds.labels[ep.support_idx], np.repeat(ep.class_map, shot))
    assert np.array_equal(np.sort(ds.labels[ep.query_idx]), np.repeat(ep.class_map, query))
    assert np.array_equal(ep.support_x, ds.features[ep.support_idx])
    assert np.array_equal(ep.query_x, ds.features[ep.query_idx])
    # the public constructor, which checks everything, accepts it unchanged
    checked = Episode(**{f.name: getattr(ep, f.name) for f in dataclasses.fields(ep)})
    for f in dataclasses.fields(ep):
        assert np.array_equal(getattr(checked, f.name), getattr(ep, f.name))


def reference_hardness(ep, kb) -> np.ndarray:
    """Per-query hardness, one query at a time.

    A query's rectified pre-trained logits are compared by cosine (0 for a
    zero-norm vector) with each class's rectified mean support logits; s is
    the true class's softmax share, clamped to [1e-12, 1 - 1e-12], and the
    hardness is log((1 - s) / s).
    """

    def response(x):
        return kb.pre_weights @ x + kb.pre_bias

    def cosine(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return 0.0 if na == 0.0 or nb == 0.0 else float(a @ b / (na * nb))

    profiles = [
        np.mean([response(x) for x, y in zip(ep.support_x, ep.support_y) if y == k], axis=0)
        for k in range(ep.way)
    ]
    out = []
    for x, gt in zip(ep.query_x, ep.query_y):
        r = np.maximum(response(x), 0.0)
        sims = np.array([cosine(r, np.maximum(p, 0.0)) for p in profiles])
        e = np.exp(sims - sims.max())
        s = min(max(float(e[gt] / e.sum()), 1e-12), 1.0 - 1e-12)
        out.append(math.log((1.0 - s) / s))
    return np.array(out)


def reference_unit_rows(m):
    """Rows scaled to unit norm by ``np.linalg.norm``, a zero-norm row left at
    zero: the literal form, independent of the package's normalisation."""
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0.0)


def _reference_logits(h, Z):
    """One head's (B, K) logits, computed on its own."""
    if h.kind == "linear":
        return Z @ h.W.T + h.b
    if h.kind == "cosine":
        return reference_unit_rows(Z) @ reference_unit_rows(h.W).T
    diff = Z[:, None, :] - h.W[None, :, :]
    return -np.einsum("bkp,bkp->bk", diff, diff)


def reference_probs(heads, blocks) -> np.ndarray:
    """(B, K) mixture probabilities, summed head by head in ascending order."""
    acc = sum(softmax_rows(_reference_logits(h, Z)) for h, Z in zip(heads, blocks))
    return acc / len(heads)


def reference_mixture(heads, blocks, labels, weight_decay):
    """Mixture loss -mean log((1/n) sum_i p_i(y)) and one (dW, db) pair per head.

    Written head by head in probability space: valid only while the mixed
    probability of every true label stays above the float64 underflow.
    """
    labels = np.asarray(labels)
    n, B = len(heads), labels.size
    rows = np.arange(B)
    per_head = [softmax_rows(_reference_logits(h, Z)) for h, Z in zip(heads, blocks)]
    true_mix = sum(per_head)[rows, labels] / n
    loss = float(-np.mean(np.log(true_mix)))
    loss += 0.5 * weight_decay * sum(float(np.sum(h.W * h.W)) for h in heads)
    grads = []
    for h, Z, P in zip(heads, blocks, per_head):
        scale = P[rows, labels] / (n * B * true_mix)
        G = P * scale[:, None]
        G[rows, labels] -= scale
        if h.kind == "linear":
            grads.append((G.T @ Z + weight_decay * h.W, G.sum(axis=0)))
            continue
        # two passes: the scores F again, then the row sums of G * F
        V = reference_unit_rows(Z)
        norms = np.linalg.norm(h.W, axis=1, keepdims=True)
        U = reference_unit_rows(h.W)
        F = V @ U.T
        dW = np.divide(
            G.T @ V - (G * F).sum(axis=0)[:, None] * U, norms,
            out=np.zeros_like(h.W), where=norms > 0.0,
        )
        grads.append((dW + weight_decay * h.W, None))
    return loss, grads


def reference_step(heads, grads, learning_rate) -> None:
    """In-place SGD step head by head, through each head's ``W`` and ``b`` views."""
    for h, (dW, db) in zip(heads, grads):
        h.W[...] -= learning_rate * dW
        if db is not None:
            h.b[...] -= learning_rate * db


class ReferenceCycler:
    """Mini-batches taken one at a time off a seeded permutation of the rows,
    reshuffled when it is used up; ``batch_rows`` draws the same rows at once."""

    def __init__(self, n: int, rng: np.random.Generator):
        self._n = n
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        picked = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos == self._n:
                self._order = self._rng.permutation(self._n)
                self._pos = 0
            grab = min(count - filled, self._n - self._pos)
            picked[filled : filled + grab] = self._order[self._pos : self._pos + grab]
            self._pos += grab
            filled += grab
        return picked


def reference_fit(support_x, support_y, predictor, cfg, init=None) -> list:
    """``fit_head`` written head by head: per-head inputs, logits, gradients and steps.

    Fresh heads start as in ``init_heads``: linear at zero, cosine at the
    per-class support centroids with unit rows. Mini-batches come from a
    :class:`ReferenceCycler` seeded with ``cfg.seed``. A ``class`` or
    ``combined`` head U on x - m * ctx is the head [U, -m * U] on [x, ctx],
    so its weight decay is ``cfg.weight_decay`` times 1 + m^2.
    """
    X = np.asarray(support_x, dtype=np.float64)
    y = np.asarray(support_y)
    per_row = [reference_inputs(predictor, x) for x in X]
    blocks = [np.stack([row[i] for row in per_row]) for i in range(predictor.n_heads)]
    weight_decay = cfg.weight_decay
    if predictor.cfg.strategy in ("class", "combined"):
        weight_decay *= 1 + predictor.kb.m**2
    way, width = predictor.way, predictor.head_input_dim
    if init is not None:
        heads = _unstack_heads(*stack_heads(init))  # views of a copy
    elif predictor.head_kind == "linear":
        heads = _unstack_heads("linear", np.zeros((len(blocks), way, width + 1)))
    else:
        cents = [np.stack([Z[y == k].mean(axis=0) for k in range(way)]) for Z in blocks]
        heads = _unstack_heads("cosine", reference_unit_rows(np.array(cents)))
    cycler = ReferenceCycler(X.shape[0], np.random.default_rng(cfg.seed))
    for _ in range(cfg.iterations):
        if cfg.batch_size is None:
            batch, labels = blocks, y
        else:
            idx = cycler.take(cfg.batch_size)
            batch, labels = [Z[idx] for Z in blocks], y[idx]
        _, grads = reference_mixture(heads, batch, labels, weight_decay)
        reference_step(heads, grads, cfg.learning_rate)
    return heads


def reference_confounded_episode(novel, strata_tags, way, shot, query, mismatch_rate, rng):
    """``sample_confounded_episode`` one query at a time.

    Each mismatched query picks one of the other strata by ``rng.choice``;
    each class then draws, stratum by ascending stratum, the rows its support
    and queries need from that (class, stratum) cell, and hands them out in
    query order from per-stratum cursors.
    """
    tags = np.asarray(strata_tags, dtype=np.int64)
    n_strata = int(tags.max()) + 1
    chosen = np.sort(rng.choice(novel.n_classes, size=way, replace=False))
    perm = rng.permutation(n_strata)
    assigned = np.array([perm[k % n_strata] for k in range(way)])
    mismatch = rng.random(way * query) < mismatch_rate
    query_strata = np.repeat(assigned, query)
    for i in np.flatnonzero(mismatch):
        others = np.delete(np.arange(n_strata), query_strata[i])
        query_strata[i] = rng.choice(others)
    support_rows, query_rows = [], []
    for k, cls in enumerate(chosen):
        cls_rows = np.flatnonzero(novel.labels == cls)
        needed = {int(assigned[k]): shot}
        qs = query_strata[k * query : (k + 1) * query]
        for s in qs:
            needed[int(s)] = needed.get(int(s), 0) + 1
        picked = {}
        for s, need in sorted(needed.items()):
            cell = cls_rows[tags[cls_rows] == s]
            if cell.size < need:
                raise ValueError(f"class {int(cls)} stratum {s} holds {cell.size} samples")
            picked[s] = list(rng.choice(cell, size=need, replace=False))
        support_rows.extend(picked[int(assigned[k])][:shot])
        cursor = {s: (shot if s == int(assigned[k]) else 0) for s in picked}
        for s in qs:
            query_rows.append(picked[int(s)][cursor[int(s)]])
            cursor[int(s)] += 1
    si = np.array(support_rows, dtype=np.int64)
    qi = np.array(query_rows, dtype=np.int64)
    ep = Episode(
        way=way, shot=shot, query_per_class=query,
        support_x=novel.features[si], support_y=np.repeat(np.arange(way), shot),
        query_x=novel.features[qi], query_y=np.repeat(np.arange(way), query),
        class_map=chosen, support_idx=si, query_idx=qi,
    )
    return ep, mismatch
