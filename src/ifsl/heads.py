"""Classifier heads over adjusted features: logits, exact gradients, SGD fitting.

A predictor (see :mod:`ifsl.adjust`) turns a raw feature matrix into one input
block per stratum head and averages the per-head softmax outputs. The loss fitted
here is the negative log of that averaged probability, so gradients are taken
through the mixture into every head. When the predictor names a context
coupling c, each head input is [x-part, context-part] and the fitted weights
stay on the tied subspace W = [U, c * U].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import as_matrix, as_vector, normalize_rows, softmax_rows

HEAD_KINDS = ("linear", "cosine", "centroid")
PARAMETRIC_KINDS = ("linear", "cosine")


@dataclass
class HeadParams:
    """One classifier head. ``W``/``b`` for parametric kinds, ``centroids`` for centroid."""

    kind: str
    W: np.ndarray | None = None  # (K, P)
    b: np.ndarray | None = None  # (K,), linear only
    centroids: np.ndarray | None = None  # (K, P), centroid only

    def __post_init__(self):
        if self.kind not in HEAD_KINDS:
            raise ValueError(f"unknown head kind {self.kind!r}, expected one of {HEAD_KINDS}")
        if self.kind == "centroid":
            if self.centroids is None or self.W is not None or self.b is not None:
                raise ValueError("centroid heads carry centroids and nothing else")
            self.centroids = as_matrix(self.centroids)
            if self.centroids.shape[0] < 2:
                raise ValueError("heads need at least 2 classes")
            return
        if self.W is None or self.centroids is not None:
            raise ValueError(f"{self.kind} heads carry a weight matrix W")
        self.W = as_matrix(self.W)
        if self.W.shape[0] < 2:
            raise ValueError("heads need at least 2 classes")
        if self.kind == "linear":
            if self.b is None:
                raise ValueError("linear heads carry a bias vector")
            self.b = as_vector(self.b, size=self.W.shape[0])
        elif self.b is not None:
            raise ValueError("cosine heads have no bias")

    @property
    def way(self) -> int:
        ref = self.centroids if self.kind == "centroid" else self.W
        return ref.shape[0]

    @property
    def input_dim(self) -> int:
        ref = self.centroids if self.kind == "centroid" else self.W
        return ref.shape[1]

    def copy(self) -> "HeadParams":
        return HeadParams(
            self.kind,
            None if self.W is None else self.W.copy(),
            None if self.b is None else self.b.copy(),
            None if self.centroids is None else self.centroids.copy(),
        )


@dataclass
class HeadGrads:
    """Parameter gradients mirroring a head's layout."""

    W: np.ndarray
    b: np.ndarray | None = None


@dataclass(frozen=True)
class FitConfig:
    """SGD settings for fitting parametric heads on a support set.

    ``batch_size=None`` requests full-batch gradient steps.
    """

    iterations: int = 100
    batch_size: int | None = 4
    learning_rate: float = 1e-2
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1 or None, got {self.batch_size}")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0.0:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be finite and >= 0, got {self.weight_decay}")


# --- logits ------------------------------------------------------------------


def logits_batch(h: HeadParams, Z: np.ndarray) -> np.ndarray:
    """Logits for a (B, P) input block. Zero-norm rows score 0 under cosine."""
    if Z.ndim != 2 or Z.shape[1] != h.input_dim:
        raise ValueError(
            f"head expects inputs of dimension {h.input_dim}, got shape {Z.shape}"
        )
    if h.kind == "linear":
        return Z @ h.W.T + h.b
    if h.kind == "cosine":
        return normalize_rows(Z) @ normalize_rows(h.W).T
    diff = Z[:, None, :] - h.centroids[None, :, :]
    return -np.einsum("bkp,bkp->bk", diff, diff)


# --- gradients ---------------------------------------------------------------


def _grads_from_dlogits(h: HeadParams, Z: np.ndarray, G: np.ndarray, weight_decay: float) -> HeadGrads:
    """Chain dL/dlogits (B, K) back into the head parameters."""
    if h.kind == "linear":
        return HeadGrads(W=G.T @ Z + weight_decay * h.W, b=G.sum(axis=0))
    if h.kind == "cosine":
        # A zero-norm weight row scores 0 against every input (see logits_batch)
        # and gets a zero gradient, so it stays zero.
        V = normalize_rows(Z)
        norms = np.linalg.norm(h.W, axis=1, keepdims=True)
        U = normalize_rows(h.W)
        F = V @ U.T  # (B, K)
        dW = np.divide(
            G.T @ V - ((G * F).sum(axis=0))[:, None] * U, norms,
            out=np.zeros_like(h.W), where=norms > 0.0,
        )
        return HeadGrads(W=dW + weight_decay * h.W)
    raise ValueError("centroid heads are non-parametric and have no gradients")


def weight_penalty(heads: Sequence[HeadParams], weight_decay: float) -> float:
    total = 0.0
    for h in heads:
        if h.W is not None:
            total += float(np.sum(h.W * h.W))
    return 0.5 * weight_decay * total


def mixture_loss_and_grads(
    heads: Sequence[HeadParams],
    inputs: Sequence[np.ndarray],
    labels: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, list[HeadGrads]]:
    """Cross-entropy of the head-averaged probabilities, with exact gradients.

    ``inputs[i]`` is the (B, P_i) block feeding head i; the predicted
    distribution is the arithmetic mean of the per-head softmax outputs.
    Returns the batch-mean loss (plus the L2 penalty on every W) and one
    gradient per head.
    """
    if len(heads) != len(inputs) or not heads:
        raise ValueError("need one input block per head")
    labels = np.asarray(labels, dtype=np.int64)
    n = len(heads)
    B = labels.size
    K = heads[0].way
    if B == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError(f"labels must lie in [0, {K - 1}]")
    rows = np.arange(B)
    per_head = [softmax_rows(logits_batch(h, Z)) for h, Z in zip(heads, inputs)]
    mix = sum(per_head) / n
    true_mix = mix[rows, labels]
    loss = float(-np.mean(np.log(true_mix))) + weight_penalty(heads, weight_decay)
    grads = []
    for h, Z, P in zip(heads, inputs, per_head):
        scale = P[rows, labels] / (n * B * true_mix)  # (B,)
        G = P * scale[:, None]
        G[rows, labels] -= scale
        grads.append(_grads_from_dlogits(h, Z, G, weight_decay))
    return loss, grads


def tie_context(M: np.ndarray, coupling: float) -> np.ndarray:
    """[U, c * U] with U = M_x + c * M_c for a (K, 2h) matrix [M_x, M_c].

    Applied to a gradient this is the chain rule of the tie W = [U, c * U]
    expanded back to full width, so a step along it keeps a tied head tied.
    Divided by 1 + c^2 it is the orthogonal projection onto the tied subspace.
    """
    half = M.shape[1] // 2
    U = M[:, :half] + coupling * M[:, half:]
    return np.concatenate([U, coupling * U], axis=1)


def sgd_step(
    heads: Sequence[HeadParams],
    grads: Sequence[HeadGrads],
    learning_rate: float,
    coupling: float | None = None,
) -> None:
    """In-place gradient step; with a coupling the weights move on the tied subspace."""
    for h, g in zip(heads, grads):
        h.W -= learning_rate * (g.W if coupling is None else tie_context(g.W, coupling))
        if g.b is not None:
            h.b -= learning_rate * g.b


# --- initialization ----------------------------------------------------------


def centroids_from_support(features: np.ndarray, labels: np.ndarray, way: int) -> np.ndarray:
    """Per-class means of support rows; every class 0..way-1 must appear."""
    feats = as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size != feats.shape[0]:
        raise ValueError("labels must align with features")
    out = np.zeros((way, feats.shape[1]))
    for k in range(way):
        rows = feats[labels == k]
        if rows.shape[0] == 0:
            raise ValueError(f"support has no samples for class {k}")
        out[k] = rows.mean(axis=0)
    return out


def init_heads(
    kind: str,
    way: int,
    support_inputs: Sequence[np.ndarray],
    labels: np.ndarray,
    coupling: float | None = None,
) -> list[HeadParams]:
    """Fresh heads, one per input block.

    Linear heads start at zero. Cosine heads start from the per-class support
    centroids rescaled to unit rows, since a zero cosine row scores 0 and is
    never updated; with a context coupling the centroids are first projected
    onto the tied subspace. Centroid heads are non-parametric and ignore the
    coupling.
    """
    heads = []
    for Z in support_inputs:
        P = Z.shape[1]
        if kind == "linear":
            heads.append(HeadParams("linear", W=np.zeros((way, P)), b=np.zeros(way)))
        elif kind == "cosine":
            cents = centroids_from_support(Z, labels, way)
            if coupling is not None:
                cents = tie_context(cents, coupling)
            heads.append(HeadParams("cosine", W=normalize_rows(cents)))
        elif kind == "centroid":
            heads.append(HeadParams("centroid", centroids=centroids_from_support(Z, labels, way)))
        else:
            raise ValueError(f"unknown head kind {kind!r}")
    return heads


# --- fitting -----------------------------------------------------------------


class _BatchCycler:
    """Yields mini-batches by consuming a seeded global shuffle, reshuffling on exhaustion."""

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


def fit_head(
    support_x: np.ndarray,
    support_y: np.ndarray,
    predictor,
    cfg: FitConfig,
    init: Sequence[HeadParams] | None = None,
    loss_callback: Callable[[int, float], None] | None = None,
) -> list[HeadParams]:
    """Fit the predictor's heads on a support set by SGD on -log P(y | do(x)).

    The predictor supplies per-stratum inputs and the head layout; gradients
    flow through the probability mixture into every head. When the predictor
    has a context coupling c, every step keeps W_c = c * W_x, so the heads
    score the feature with its knowledge-base stratum removed instead of
    reading the stratum as evidence. Fresh heads start on that subspace; a
    supplied ``init`` is used as given. Deterministic for a fixed ``cfg.seed``.
    """
    X = as_matrix(support_x)
    y = np.asarray(support_y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("support set is empty")
    if y.shape != (X.shape[0],):
        raise ValueError("support labels must align with support features")
    if predictor.head_kind not in PARAMETRIC_KINDS:
        raise ValueError(f"head kind {predictor.head_kind!r} is non-parametric; nothing to fit")
    blocks = predictor.support_inputs(X)
    coupling = predictor.context_coupling
    if init is not None:
        heads = [h.copy() for h in init]
        predictor.validate_heads(heads)
    else:
        heads = init_heads(predictor.head_kind, predictor.way, blocks, y, coupling)
    rng = np.random.default_rng(cfg.seed)
    cycler = _BatchCycler(X.shape[0], rng)
    for it in range(cfg.iterations):
        if cfg.batch_size is None:
            batch, labels = blocks, y
        else:
            idx = cycler.take(cfg.batch_size)
            batch, labels = [Z[idx] for Z in blocks], y[idx]
        loss, grads = mixture_loss_and_grads(heads, batch, labels, cfg.weight_decay)
        sgd_step(heads, grads, cfg.learning_rate, coupling)
        if loss_callback is not None:
            loss_callback(it, loss)
    return heads
