"""Classifier heads over adjusted features: logits, exact gradients, SGD fitting.

A predictor (see :mod:`ifsl.adjust`) turns a raw feature matrix into one input
block per stratum head and averages the per-head softmax outputs. The loss fitted
here is the negative log of that averaged probability, so gradients are taken
through the mixture into every head. The class-wise context is already folded
into the inputs of the ``class`` and ``combined`` strategies, so every
strategy and kind fits, steps and starts the same way; only the weight decay
is scaled by the predictor's ``weight_decay_scale``.

The n heads of a predictor, for each of E episodes, are computed as one
stack: weights W (E, n, K, P), linear biases b (E, n, K) and inputs
(E, n, B, P), with one batched matmul for all logits and one for all weight
gradients. The logits are class-major, (E, n, K, B) = W @ V^T: the softmax
reduces over the class axis -2, whose K rows are contiguous runs of B
entries, and a fitting step turns that one buffer into the exponentials and
then into dL/dlogits in place, so dW = G @ V and the bias gradient is
G.sum(-1); probabilities handed out stay (B, K). A cosine step normalises
its weight rows once: the unit rows U and norms |w| give both the logits
U @ V^T and the gradient (GV - (GV . u) u) / |w|, which reads G only through
GV = G @ V. The mixture is taken in log space, as the log-mean-exp over each
episode's heads of the per-head log-softmax outputs, so the loss and its
gradients stay finite however small every head's probability of the true
class is; a lone head skips it, since its responsibility is exp(0) = 1.

One step is one core: a fit allocates a single :class:`_Workspace` (the
logit/gradient buffer, the per-row vectors and the gradients) and every
iteration writes into it, and :func:`stack_sgd_step` applies the learning
rate to those gradient buffers in place before stepping the weights. One
loop, :func:`_fit_steps`, runs the iterations of every fit:
those of :func:`fit_stack` (episode chunks and the knowledge-base fit) and
those of each task that ``meta.meta_train`` adapts, whose workspaces are
allocated once per ``meta_train`` call. :func:`stack_loss_and_grads` and the
list-of-:class:`HeadParams` calls below run the same core; the list calls
are the one-episode case: they stack their arguments, run the same core and
unstack the result. The outputs are the same bits whichever of these routes
a step takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import as_matrix, as_vector, normalize_rows, normalize_rows_with_divisors

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
    """Stacked gradients of n heads: ``W`` (n, K, P), ``b`` (n, K) for linear heads."""

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


# --- stacked core ------------------------------------------------------------
# The n heads of each of E episodes are fitted and scored as one stack: weights
# W (E, n, K, P), linear biases b (E, n, K) and inputs V (E, n, B, P); logits
# and their gradients are class-major, (E, n, K, B). Cosine inputs are
# row-normalised before they reach the core, and cosine weights once per step,
# by normalize_rows_with_divisors: its (U, d) pair feeds both the logits and the
# gradient. Centroid heads keep their centroids in W. Every episode's heads only
# ever meet its own inputs, so an episode's numbers do not depend on the others
# in its stack.


def stack_heads(heads: Sequence[HeadParams]) -> tuple[str, np.ndarray, np.ndarray | None]:
    """``(kind, W, b)`` of one episode's list of heads as fresh stacked arrays.

    ``W`` is (n, K, P): the weights, or the centroids of centroid heads.
    ``b`` is (n, K) for linear heads and None otherwise.
    """
    if not heads:
        raise ValueError("need at least one head")
    kind = heads[0].kind
    if any(h.kind != kind for h in heads):
        raise ValueError("heads of one stack must share a kind")
    W = np.stack([h.centroids if kind == "centroid" else h.W for h in heads])
    b = np.stack([h.b for h in heads]) if kind == "linear" else None
    return kind, W, b


def _unstack_heads(kind: str, W: np.ndarray, b: np.ndarray | None) -> list[HeadParams]:
    """One :class:`HeadParams` per entry of an (n, K, P) float64 stack, each a view on it.

    The stack is checked once, for finiteness and at least 2 classes, and the
    heads are built without re-checking each: the other checks of
    ``HeadParams(...)`` hold by the stack's layout (``b`` is (n, K) for
    linear heads and None otherwise).
    """
    if W.shape[-2] < 2:
        raise ValueError("heads need at least 2 classes")
    if not (np.isfinite(W).all() and (b is None or np.isfinite(b).all())):
        raise ValueError("matrix entries must be finite")
    heads = []
    for i in range(W.shape[0]):
        h = object.__new__(HeadParams)
        if kind == "centroid":
            h.__dict__.update(kind=kind, W=None, b=None, centroids=W[i])
        else:
            h.__dict__.update(kind=kind, W=W[i], b=None if b is None else b[i], centroids=None)
        heads.append(h)
    return heads


def _stack_inputs(kind: str, inputs, input_dim: int, ndim: int = 3) -> np.ndarray:
    """Input stack of rank ``ndim`` ((n, B, P) per episode), row-normalised for cosine heads."""
    V = np.asarray(inputs, dtype=np.float64)
    if V.ndim != ndim or V.shape[-1] != input_dim:
        raise ValueError(f"heads expect inputs of dimension {input_dim}, got shape {V.shape}")
    return normalize_rows(V) if kind == "cosine" else V


def _logits(kind: str, W: np.ndarray, b: np.ndarray | None, V: np.ndarray) -> np.ndarray:
    """(..., n, K, B) class-major logits of stacked heads on stacked inputs from
    :func:`_stack_inputs`: row k of head i holds class k's score of every input.
    Cosine heads score U @ V^T with U the unit rows of W."""
    if kind == "linear":
        z = W @ V.swapaxes(-1, -2)
        z += b[..., :, None]
        return z
    if kind == "cosine":
        return normalize_rows(W) @ V.swapaxes(-1, -2)
    diff = V[..., None, :, :] - W[..., :, None, :]
    return -np.einsum("...kbp,...kbp->...kb", diff, diff)


def _probs(kind: str, W: np.ndarray, b: np.ndarray | None, V: np.ndarray) -> np.ndarray:
    """(..., B, K) head-averaged softmax outputs: the mean over the head axis."""
    z = _logits(kind, W, b, V)
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z.mean(axis=-3).swapaxes(-1, -2)


def stack_probs(kind: str, W: np.ndarray, b: np.ndarray | None, inputs) -> np.ndarray:
    """(E, B, K) mixture probabilities of E episodes' stacked heads on (E, n, B, P) inputs."""
    V = _stack_inputs(kind, inputs, W.shape[-1], ndim=4)
    if V.shape[:2] != W.shape[:2]:
        raise ValueError("need one input block per head of every episode")
    return _probs(kind, W, b, V)


def _label_index(labels: np.ndarray, n: int, K: int) -> np.ndarray:
    """Flat indices (..., E, n, B) of the true-label entries of (E, n, K, B) logits:
    entry [e, i, b] locates ``logits[e, i, labels[e, b], b]``.

    ``labels`` is (..., E, B); leading axes index whole batches, one per iteration.
    """
    E, B = labels.shape[-2:]
    head_starts = np.arange(0, E * n * K * B, K * B).reshape(E, n, 1)
    return head_starts + (labels * B + np.arange(B))[..., None, :]


def _check_labels(labels: np.ndarray, way: int) -> None:
    """Reject labels outside [0, way): their flat indices would read other heads' rows."""
    if labels.size and (labels.min() < 0 or labels.max() >= way):
        raise ValueError(f"labels must lie in [0, {way - 1}]")


class _Workspace:
    """Every array that one step of a stacked fit writes, allocated once per fit.

    For weights (E, n, K, P) and batches of B rows: the class-major (E, n, K, B)
    logits ``G``, which become the exponentials and then dL/dlogits in place;
    the (E, n, 1, B) class maxima; three (E, n, B) vectors (the true-label
    terms, the class sums, a scratch); the (E, 1, B) maximum and sum of the
    log-mean-exp over heads; the gradients ``dW`` (E, n, K, P) and ``db``
    (E, n, K); and, for cosine heads, the unit rows, their divisors and a
    weight-shaped scratch. Each op of a step writes into one of these:
    reductions and ``take`` through ``out=``, elementwise ufuncs through their
    third positional argument. Only the loss (when asked for) and the cosine
    zero-norm mask allocate.
    """

    def __init__(self, kind: str, shape: tuple[int, ...], rows: int, weight_decay: float):
        if kind not in PARAMETRIC_KINDS:
            raise ValueError("centroid heads are non-parametric and have no gradients")
        E, n, K, _ = shape
        self.kind, self.weight_decay = kind, weight_decay
        self.G = np.empty((E, n, K, rows))
        self.col_max = np.empty((E, n, 1, rows))
        self.at_y, self.total, self.tmp = np.empty((3, E, n, rows))
        self.scale_by_row = self.total[..., None, :]  # (E, n, 1, B) view, broadcast over classes
        self.top, self.w_sum = np.empty((2, E, 1, rows))
        self.dW = np.empty(shape)
        self.db = np.empty((E, n, K)) if kind == "linear" else None
        if kind == "cosine" or weight_decay:
            self.tmp_W = np.empty(shape)
        if kind == "cosine":
            self.U = np.empty(shape)
            self.d, self.row_dot = np.empty((2, E, n, K, 1))

    def grads(
        self, W: np.ndarray, b: np.ndarray | None, V: np.ndarray, at_label: np.ndarray,
        with_loss: bool = True,
    ) -> np.ndarray | None:
        """Fill ``dW``/``db`` with the stacked gradients of the per-episode loss
        -mean log((1/n) sum_i p_i(y)) plus the L2 penalty; returns the (E,)
        losses, or None without ``with_loss``. ``at_label`` locates the true
        labels (see :func:`_label_index`)."""
        loss = self.dlogits(W, b, V, at_label, with_loss)
        self.weight_grads(W, V)
        if with_loss and self.weight_decay:
            loss += 0.5 * self.weight_decay * np.square(W).reshape(W.shape[0], -1).sum(axis=1)
        return loss

    def dlogits(
        self, W: np.ndarray, b: np.ndarray | None, V: np.ndarray, at_label: np.ndarray,
        with_loss: bool,
    ) -> np.ndarray | None:
        """Fill ``G`` with class-major dL/dlogits; returns the unpenalised losses.

        Per-head log-softmax outputs are mixed as a log-mean-exp over each
        episode's heads, so the loss stays finite when every head gives the
        true class a vanishing probability. Head i's share of the gradient is
        its responsibility r_i = softmax_i(log p_i(y)):
        dL/dlogits_i = (r_i / B) * (p_i - onehot(y)). A lone head has
        r = exp(0) = 1, so its log-mean-exp is skipped. Cosine heads score
        U @ V^T with the unit rows U = W / |w|, computed here once per step; a
        zero-norm row has |w| = inf and scores 0.
        """
        G, at_y, total, tmp = self.G, self.at_y, self.total, self.tmp
        n, B = G.shape[1], G.shape[-1]
        if self.kind == "linear":
            np.add(np.matmul(W, V.swapaxes(-1, -2), G), b[..., None], G)
        else:
            U = normalize_rows_with_divisors(W, out=(self.U, self.d))[0]
            np.matmul(U, V.swapaxes(-1, -2), G)
        np.subtract(G, np.maximum.reduce(G, axis=-2, keepdims=True, out=self.col_max), G)
        G.take(at_label, out=at_y, mode="clip")  # shifted true-label logits
        np.exp(G, G)
        np.add.reduce(G, axis=-2, out=total)
        log_py = np.subtract(at_y, np.log(total, tmp), at_y)  # log p_i(y), (E, n, B)
        loss = None
        if n == 1:
            if with_loss:
                loss = math.log(n) - log_py[:, 0].sum(axis=1) / B
            scale = 1.0 / B
        else:
            top = np.maximum.reduce(log_py, axis=1, keepdims=True, out=self.top)
            w = np.exp(np.subtract(log_py, top, log_py), log_py)
            w_sum = np.add.reduce(w, axis=1, keepdims=True, out=self.w_sum)
            if with_loss:
                loss = math.log(n) - (top + np.log(w_sum))[:, 0].sum(axis=1) / B
            scale = np.divide(w, np.multiply(w_sum, B, w_sum), w)  # r_i / B
        np.divide(scale, total, total)
        np.multiply(G, self.scale_by_row, G)
        G.take(at_label, out=tmp, mode="clip")
        G.put(at_label, np.subtract(tmp, scale, tmp), mode="clip")
        return loss

    def weight_grads(self, W: np.ndarray, V: np.ndarray) -> None:
        """Chain ``G`` back into ``dW`` (and the bias gradient ``db = G.sum(-1)``),
        plus the weight decay.

        Linear heads take dW = G @ V. Cosine row u = w / |w| of the logits
        U @ V^T has the Jacobian (I - u u^T) / |w|, so with GV = G @ V the
        gradient is dW = (GV - (GV . u) u) / |w|: one pass over G, since the
        row sums of G * (U @ V^T) equal those of GV * U. A zero-norm row gets a
        zero gradient, so it stays zero. Reads the unit rows that
        :meth:`dlogits` left.
        """
        dW = np.matmul(self.G, V, self.dW)
        if self.kind == "linear":
            np.add.reduce(self.G, axis=-1, out=self.db)
        else:
            U, tmp_W = self.U, self.tmp_W
            np.add.reduce(np.multiply(dW, U, tmp_W), axis=-1, keepdims=True, out=self.row_dot)
            np.subtract(dW, np.multiply(self.row_dot, U, tmp_W), dW)
            np.divide(dW, self.d, dW)
        if self.weight_decay:
            np.add(dW, np.multiply(W, self.weight_decay, self.tmp_W), dW)


def _no_coupling(coupling) -> None:
    """Reject a context coupling: the context is folded into the head inputs.
    ``init_heads`` and ``sgd_step`` keep the parameter only for the benchmark's
    traced replicas, which pass ``Predictor.context_coupling`` (always None)."""
    if coupling is not None:
        raise ValueError(
            f"context coupling {coupling!r} is not supported; "
            "the class-wise context is folded into the head inputs"
        )


def stack_sgd_step(
    W: np.ndarray, b: np.ndarray | None, dW: np.ndarray, db: np.ndarray | None,
    learning_rate: float,
) -> None:
    """In-place step W -= lr * dW, b -= lr * db on a stack. ``dW``/``db``
    serve as scratch: the learning rate is applied to them in place."""
    np.subtract(W, np.multiply(dW, learning_rate, dW), W)
    if b is not None:
        np.subtract(b, np.multiply(db, learning_rate, db), b)


def stack_loss_and_grads(
    kind: str, W: np.ndarray, b: np.ndarray | None, inputs, labels: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(E,) mixture losses and fresh stacked gradients ``(dW, db)`` of E
    episodes' heads ``W`` (E, n, K, P), ``b`` (E, n, K) on (E, n, B, P) inputs
    with (E, B) labels."""
    V = _stack_inputs(kind, inputs, W.shape[-1], ndim=4)
    labels = np.asarray(labels, dtype=np.int64)
    E, n, K, _ = W.shape
    if V.shape[:2] != (E, n):
        raise ValueError("need one input block per head of every episode")
    if labels.size == 0:
        raise ValueError("empty batch")
    if labels.shape != (E, V.shape[2]):
        raise ValueError("labels must align with inputs")
    _check_labels(labels, K)
    ws = _Workspace(kind, W.shape, V.shape[2], weight_decay)
    loss = ws.grads(W, b, V, _label_index(labels, n, K))
    return loss, ws.dW, ws.db


# --- list-of-heads API -----------------------------------------------------------


def logits_batch(h: HeadParams, Z: np.ndarray) -> np.ndarray:
    """(B, K) logits for a (B, P) input block. Zero-norm rows score 0 under cosine."""
    if Z.ndim != 2:
        raise ValueError(f"head expects a (B, {h.input_dim}) input block, got shape {Z.shape}")
    kind, W, b = stack_heads([h])
    return _logits(kind, W, b, _stack_inputs(kind, Z[None], h.input_dim))[0].T


def mixture_probs(heads: Sequence[HeadParams], inputs) -> np.ndarray:
    """(B, K) head-averaged softmax outputs; ``inputs[i]`` is the (B, P) block of head i."""
    kind, W, b = stack_heads(heads)
    V = _stack_inputs(kind, inputs, W.shape[2])
    if V.shape[0] != W.shape[0]:
        raise ValueError("need one input block per head")
    return _probs(kind, W, b, V)


def mixture_loss_and_grads(
    heads: Sequence[HeadParams],
    inputs,
    labels: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, HeadGrads]:
    """Cross-entropy of the head-averaged probabilities, with exact gradients.

    ``inputs[i]`` is the (B, P) block feeding head i; the predicted
    distribution is the arithmetic mean of the per-head softmax outputs.
    Returns the batch-mean loss (plus the L2 penalty on every W) and the
    stacked gradients of all heads.
    """
    if len(heads) != len(inputs) or not heads:
        raise ValueError("need one input block per head")
    kind, W, b = stack_heads(heads)
    loss, dW, db = stack_loss_and_grads(
        kind, W[None], None if b is None else b[None],
        np.asarray(inputs, dtype=np.float64)[None], np.asarray(labels, dtype=np.int64)[None],
        weight_decay,
    )
    return float(loss[0]), HeadGrads(W=dW[0], b=None if db is None else db[0])


def sgd_step(
    heads: Sequence[HeadParams],
    grads: HeadGrads,
    learning_rate: float,
    coupling: float | None = None,
) -> None:
    """In-place gradient step; ``grads`` is left as it is. ``coupling`` must
    be None (see :func:`_no_coupling`)."""
    _no_coupling(coupling)
    _, W, b = stack_heads(heads)
    db = None if grads.b is None else np.array(grads.b, dtype=np.float64)
    stack_sgd_step(W, b, np.array(grads.W, dtype=np.float64), db, learning_rate)
    for i, h in enumerate(heads):  # write the stepped stack back into the heads
        h.W[...] = W[i]
        if b is not None:
            h.b[...] = b[i]


# --- initialization ----------------------------------------------------------


def _class_means(Z: np.ndarray, labels: np.ndarray, way: int) -> np.ndarray:
    """(..., way, P) per-class means of the rows of a (..., S, P) array."""
    means = []
    for k in range(way):
        mask = labels == k
        if not mask.any():
            raise ValueError(f"support has no samples for class {k}")
        means.append(Z[..., mask, :].mean(axis=-2))
    return np.stack(means, axis=-2)


def centroids_from_support(features: np.ndarray, labels: np.ndarray, way: int) -> np.ndarray:
    """Per-class means of support rows; every class 0..way-1 must appear."""
    feats = as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size != feats.shape[0]:
        raise ValueError("labels must align with features")
    return _class_means(feats, labels, way)


def init_stack(
    kind: str,
    way: int,
    support_inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Fresh stacked ``(W, b)`` for E episodes on (E, n, S, P) support inputs with (E, S) labels.

    ``W`` is (E, n, K, P) and ``b`` (E, n, K) for linear heads, else None;
    see :func:`init_heads` for how each kind starts.
    """
    Z = np.asarray(support_inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 4 or labels.shape != (Z.shape[0], Z.shape[2]):
        raise ValueError("need (E, n, S, P) input stacks with one label per support row")
    if kind not in HEAD_KINDS:
        raise ValueError(f"unknown head kind {kind!r}")
    E, n, _, P = Z.shape
    if kind == "linear":
        return np.zeros((E, n, way, P)), np.zeros((E, n, way))
    cents = np.stack([_class_means(Z[e], labels[e], way) for e in range(E)])
    if kind == "centroid":
        return cents, None
    return normalize_rows(cents), None


def init_heads(
    kind: str,
    way: int,
    support_inputs,
    labels: np.ndarray,
    coupling: float | None = None,
) -> list[HeadParams]:
    """Fresh heads, one per input block.

    Linear heads start at zero. Cosine heads start from the per-class support
    centroids rescaled to unit rows, since a zero cosine row scores 0 and is
    never updated. Centroid heads are the per-class support centroids.
    ``coupling`` must be None (see :func:`_no_coupling`).
    """
    _no_coupling(coupling)
    Z = np.asarray(support_inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 3 or labels.shape != (Z.shape[1],):
        raise ValueError("need (S, P) input blocks with one label per row")
    W, b = init_stack(kind, way, Z[None], labels[None])
    return _unstack_heads(kind, W[0], None if b is None else b[0])


# --- fitting -----------------------------------------------------------------


def batch_rows(n: int, iterations: int, batch_size: int, seed: int) -> np.ndarray:
    """(iterations, batch_size) support rows of every mini-batch of one fit.

    The rows are read in order off a stream of permutations of range(n),
    drawn from ``default_rng(seed)`` one after another (``permuted`` shuffles
    the rows of its tile in turn, as successive ``permutation`` calls do), so
    every row is visited once before any repeats.
    """
    total = iterations * batch_size
    tiles = np.tile(np.arange(n), (max(1, -(-total // n)), 1))
    stream = np.random.default_rng(seed).permuted(tiles, axis=1).reshape(-1)
    return stream[:total].reshape(iterations, batch_size)


def fit_stack(
    support_x: np.ndarray,
    support_y: np.ndarray,
    predictor,
    cfg: FitConfig,
    seeds: Sequence[int],
    init: tuple[np.ndarray, np.ndarray | None] | None = None,
    loss_callback: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Fit the predictor's heads on E support sets at once; returns stacked ``(W, b)``.

    ``support_x`` is (E, S, dim) and ``support_y`` (E, S). Episode e draws its
    mini-batches with :func:`batch_rows` from ``seeds[e]`` (``cfg.seed`` is
    not read), and its heads step on its own rows only, so its weights do not
    depend on the other episodes of the stack. ``init``, an ``(n, K, P)``
    weight stack and its ``(n, K)`` biases (or None), is every episode's
    start; fresh heads start as in :func:`init_stack`. ``loss_callback``
    gets each iteration's (E,) losses. The weight decay is scaled by
    ``predictor.weight_decay_scale``. The set-up (stratum inputs, start, one
    workspace, label indices and mini-batch rows) is done here and the
    iterations run in :func:`_fit_steps`. See :func:`fit_head`.
    """
    kind = predictor.head_kind
    if kind not in PARAMETRIC_KINDS:
        raise ValueError(f"head kind {kind!r} is non-parametric; nothing to fit")
    y = np.asarray(support_y, dtype=np.int64)
    Z = predictor.support_inputs(support_x)
    if Z.ndim != 4 or y.shape != (Z.shape[0], Z.shape[2]) or len(seeds) != Z.shape[0]:
        raise ValueError("need (E, S, dim) support sets with (E, S) labels and E seeds")
    E, n, S, _ = Z.shape
    if S == 0:
        raise ValueError("support set is empty")
    _check_labels(y, predictor.way)
    if init is None:
        W, b = init_stack(kind, predictor.way, Z, y)
    else:
        W, b = (None if a is None else np.repeat(np.asarray(a, dtype=np.float64)[None], E, axis=0)
                for a in init)
    V = _stack_inputs(kind, Z, W.shape[-1], ndim=4)
    K = W.shape[2]
    weight_decay = cfg.weight_decay * predictor.weight_decay_scale
    ws = _Workspace(kind, W.shape, S if cfg.batch_size is None else cfg.batch_size, weight_decay)
    if cfg.batch_size is None:
        batches = repeat((V, _label_index(y, n, K)), cfg.iterations)
    else:
        # every iteration's mini-batch as flat rows of V and flat label indices,
        # gathered into one reused batch buffer
        rows = np.stack([batch_rows(S, cfg.iterations, cfg.batch_size, s) for s in seeds], axis=1)
        at_rows = (np.arange(E * n) * S).reshape(E, n, 1) + rows[:, :, None, :]
        at_labels = _label_index(y[np.arange(E)[:, None], rows], n, K)
        flat = V.reshape(E * n * S, -1)
        buf = np.empty((E, n, cfg.batch_size, V.shape[-1]))
        batches = (
            (flat.take(r, axis=0, out=buf, mode="clip"), a) for r, a in zip(at_rows, at_labels)
        )
    _fit_steps(ws, W, b, batches, cfg.learning_rate, loss_callback)
    return W, b


def _fit_steps(
    ws: _Workspace,
    W: np.ndarray,
    b: np.ndarray | None,
    batches: Iterable[tuple[np.ndarray, np.ndarray]],
    learning_rate: float,
    loss_callback: Callable[[int, np.ndarray], None] | None = None,
) -> None:
    """The fitting loop: one SGD step of ``W``/``b`` in place, through the
    workspace ``ws``, per ``(inputs, label index)`` batch of ``batches``.

    :func:`fit_stack` and the meta-learning task loop both step through it.
    """
    for it, (batch, at_label) in enumerate(batches):
        loss = ws.grads(W, b, batch, at_label, with_loss=loss_callback is not None)
        stack_sgd_step(W, b, ws.dW, ws.db, learning_rate)
        if loss_callback is not None:
            loss_callback(it, loss)


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
    flow through the probability mixture into every head. This is the
    one-episode case of :func:`fit_stack`: all heads step together as one
    (1, n, K, P) stack, and a mini-batch is one index into the (1, n, S, P)
    input stack. Fresh heads start as in :func:`init_stack`; a supplied
    ``init`` is used as given. Deterministic for a fixed ``cfg.seed``.
    """
    X = as_matrix(support_x)
    y = np.asarray(support_y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("support set is empty")
    if y.shape != (X.shape[0],):
        raise ValueError("support labels must align with support features")
    start = None
    if init is not None:
        predictor.validate_heads(init)
        start = stack_heads(init)[1:]
    callback = None if loss_callback is None else lambda it, loss: loss_callback(it, float(loss[0]))
    W, b = fit_stack(X[None], y[None], predictor, cfg, [cfg.seed], start, callback)
    return _unstack_heads(predictor.head_kind, W[0], None if b is None else b[0])
