"""Classifier heads over adjusted features: logits, exact gradients, SGD fitting.

A predictor (see :mod:`ifsl.adjust`) turns a raw feature matrix into one input
block per stratum head and averages the per-head softmax outputs. The loss fitted
here is the negative log of that averaged probability, so gradients are taken
through the mixture into every head. The class-wise context is already folded
into the inputs of the ``class`` and ``combined`` strategies, so every
strategy and kind fits, steps and starts the same way; only the weight decay
is scaled by the predictor's ``weight_decay_scale``.

The n heads of a predictor, for each of E episodes, are one stack: one
array theta, (E, n, K, P+1) for linear heads, whose last column is the bias
(W and b are views of it, see :func:`_split`), and (E, n, K, P) for cosine
heads (the weights) and centroid heads (the centroids). Every stacked call
takes or returns theta, never a ``(W, b)`` pair, and takes its inputs as
(E, n, B, P) stratum stacks. Scoring computes W V^T + b. A fitting step
reads its inputs with a trailing column of ones, [V | 1] (see
:func:`_step_inputs`), so the logits are one matmul theta [V | 1]^T, and one
matmul G [V | 1] gives dW and db together; cosine inputs stay V. A step
of n > 1 heads on narrow inputs (fewer than 16 columns) first copies its
batch's transpose into a contiguous (E, n, P', B) buffer and computes the
logits from that, so the BLAS runs its plain small-matrix kernel, which is
the cheaper one at those widths; every other step reads the transposed view
(see :class:`_Workspace`). A fitting step holds its logits
class-outermost, in a (K, E, n, B) buffer G that the
matmuls write and read through its (E, n, K, B) view: the softmax's maximum
and sum over classes are each one pass over K contiguous blocks of E*n*B
entries, and the step turns that one buffer into the exponentials and then
into dL/dlogits in place. Scoring keeps (..., n, K, B) logits per head;
probabilities handed out stay (B, K). A cosine step normalises its weight
rows once: the unit rows U and norms |w| give both the logits U @ V^T and
the gradient (GV - (GV . u) u) / |w|, which reads G only through GV = G @ V.
The mixture is taken in log space, as the log-mean-exp over each episode's
heads of the per-head log-softmax outputs, so the loss and its gradients
stay finite however small every head's probability of the true class is; a
lone head skips it, since its responsibility is exp(0) = 1.

One step is one call: a fit allocates a :class:`_Workspace` (the
logit/gradient buffer, the per-row vectors and the gradient of theta), which
binds one gradient routine to those buffers, the fit's theta and the ufuncs,
so a step looks nothing up. The routine fills the gradient and, given a
learning rate, applies it to it in place and steps theta. One loop,
:func:`_fit_steps`, calls it once per iteration of :func:`fit_stack`
(episode chunks) and of each task that ``meta.meta_train`` adapts, whose
workspaces are allocated once per ``meta_train`` call.
:func:`stack_loss_and_grads` and ``meta_train``'s outer step call the same
routine for the gradient alone. So does ``synth.fit_kb``, the knowledge-base
fit, whose loop is its own: it holds one workspace for each of two fixed row
blocks of the pretrain set, has the calling thread and one worker thread
compute the two blocks' gradients at once, and then combines them and steps.

The list-of-heads calls (:func:`fit_head`, :func:`init_heads`,
:func:`mixture_loss_and_grads`, :func:`sgd_step`) are the one-episode case
of the stack calls. Their heads are :class:`HeadParams` views, one per entry
of a stack (``kind``, one ``theta`` slice, and ``W`` and ``b`` views of it),
which only :func:`_unstack_heads` builds; each call stacks its heads, runs
the same core and hands back views, so the outputs are the same bits
whichever route a step takes. They stay because ``perfbench/workloads.py``
reads them, directly and through the list members of ``ifsl.meta``
(ROADMAP items 3-4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import normalize_rows, normalize_rows_with_divisors

HEAD_KINDS = ("linear", "cosine", "centroid")
PARAMETRIC_KINDS = ("linear", "cosine")


def check_kind(kind: str) -> None:
    """Refuse a head kind outside :data:`HEAD_KINDS`."""
    if kind not in HEAD_KINDS:
        raise ValueError(f"unknown head kind {kind!r}, expected one of {HEAD_KINDS}")


class HeadParams:
    """One classifier head, a view of one entry of a head stack: its ``kind``
    and ``theta``, (K, P+1) ``[W | b]`` for linear heads and (K, P)
    otherwise; ``W`` and ``b`` (None but for linear heads) are views of
    ``theta``."""

    __slots__ = ("kind", "theta")

    def __init__(self, kind: str, theta: np.ndarray):
        self.kind, self.theta = kind, theta

    @property
    def W(self) -> np.ndarray:
        return _split(self.kind, self.theta)[0]

    @property
    def b(self) -> np.ndarray | None:
        return _split(self.kind, self.theta)[1]


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
# Layouts as in the module docstring. Every episode's heads only ever meet its
# own inputs, so an episode's numbers do not depend on the others in its stack.


def stack_heads(heads: Sequence[HeadParams]) -> tuple[str, np.ndarray]:
    """``(kind, theta)`` of one episode's list of heads, ``theta`` a fresh
    (n, K, P') stack of their slices; heads of an unknown kind, or of mixed
    kinds or shapes, are refused."""
    if not heads:
        raise ValueError("need at least one head")
    kind, shape = heads[0].kind, heads[0].theta.shape
    check_kind(kind)
    if any(h.kind != kind for h in heads):
        raise ValueError("heads of one stack must share a kind")
    if any(h.theta.shape != shape for h in heads):
        raise ValueError(f"heads of one stack must share a shape, the first's is {shape}")
    return kind, np.array([h.theta for h in heads])


def _unstack_heads(kind: str, theta: np.ndarray) -> list[HeadParams]:
    """One :class:`HeadParams` per entry of an (n, K, P') float64 stack, its
    ``theta`` a view of that entry. The stack is checked once, for at least
    2 classes and finite entries, so a fit that diverged is refused here."""
    if theta.shape[-2] < 2:
        raise ValueError("heads need at least 2 classes")
    if not np.isfinite(theta).all():
        raise ValueError("matrix entries must be finite")
    return [HeadParams(kind, t) for t in theta]


def _stack_inputs(kind: str, inputs, input_dim: int) -> np.ndarray:
    """(E, n, B, P) input stack, row-normalised for cosine heads."""
    V = np.asarray(inputs, dtype=np.float64)
    if V.ndim != 4 or V.shape[-1] != input_dim:
        raise ValueError(f"heads expect inputs of dimension {input_dim}, got shape {V.shape}")
    return normalize_rows(V) if kind == "cosine" else V


def _split(kind: str, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``(W, b)`` of a head stack, as views of it: all but the last column
    and the last column for linear heads, else ``(theta, None)``."""
    if kind == "linear":
        return theta[..., :-1], theta[..., -1]
    return theta, None


def _step_inputs(kind: str, inputs, input_dim: int) -> np.ndarray:
    """(E, n, B, P) inputs as a step reads them: [V | 1], with a trailing
    column of ones that feeds the bias column of theta, for linear heads,
    and row-normalised V for cosine heads."""
    V = _stack_inputs(kind, inputs, input_dim)
    if kind != "linear":
        return V
    return np.concatenate((V, np.ones((*V.shape[:-1], 1))), axis=-1)


def _logits(kind: str, theta: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(..., n, K, B) logits of a head stack on stacked inputs from
    :func:`_stack_inputs`: row k of head i holds class k's score of every input.
    Linear heads score W V^T + b, cosine heads U V^T with U the unit rows of W."""
    if kind == "linear":
        W, b = _split(kind, theta)
        z = W @ V.swapaxes(-1, -2)
        z += b[..., :, None]
        return z
    if kind == "cosine":
        return normalize_rows(theta) @ V.swapaxes(-1, -2)
    diff = V[..., None, :, :] - theta[..., :, None, :]
    return -np.einsum("...kbp,...kbp->...kb", diff, diff)


def stack_probs(kind: str, theta: np.ndarray, inputs) -> np.ndarray:
    """(E, B, K) mixture probabilities of E episodes' head stack ``theta`` on
    (E, n, B, P) inputs: the mean over each episode's heads of their softmax."""
    V = _stack_inputs(kind, inputs, theta.shape[-1] - (kind == "linear"))
    if V.shape[:2] != theta.shape[:2]:
        raise ValueError("need one input block per head of every episode")
    z = _logits(kind, theta, V)
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z.mean(axis=-3).swapaxes(-1, -2)


def _label_index(labels: np.ndarray, n: int, K: int) -> np.ndarray:
    """Flat indices (..., E, n, B) of the true-label entries of the
    class-outermost (K, E, n, B) logit buffer of :class:`_Workspace`: entry
    [e, i, b] locates ``G[labels[e, b], e, i, b]``.

    ``labels`` is (..., E, B); leading axes index whole batches, one per iteration.
    """
    E, B = labels.shape[-2:]
    head_starts = np.arange(0, E * n * B, B).reshape(E, n, 1)
    return head_starts + (labels * (E * n * B) + np.arange(B))[..., None, :]


def _check_labels(labels: np.ndarray, way: int) -> None:
    """Reject labels outside [0, way): their flat indices would read other heads' rows."""
    if labels.size and (labels.min() < 0 or labels.max() >= way):
        raise ValueError(f"labels must lie in [0, {way - 1}]")


class _Workspace:
    """One fit's gradient routine, bound once to the parameters it steps and
    to every array that one step writes.

    For a head stack ``theta`` (E, n, K, P') (P' = P+1 for linear heads,
    whose last column is the bias, P for cosine heads) and batches of B
    rows it holds: the logits ``G``, which become the exponentials and then
    dL/dlogits in place, class-outermost as (K, E, n, B) and written and
    read by the matmuls through the (E, n, K, B) view ``G_heads``; the
    (E, n, B) class maxima; three (E, n, B) vectors (the true-label terms,
    the class sums, a scratch); the (E, 1, B) maximum and sum of the
    log-mean-exp over heads; the gradient ``dtheta`` of ``theta``; with a
    weight decay, a decay array of theta's shape that is 0 on the bias
    column; and, for cosine heads, the unit rows, their divisors and a
    weight-shaped scratch. For n > 1 heads whose inputs have fewer than 16
    columns (P' < 16 counting the ones column, such as the ``feature`` and
    ``combined`` heads of 64-dim features in 8 strata, P' = 9) it also holds
    an (E, n, P', B) buffer that each step fills with the batch's transpose,
    so the logits ``theta @ V^T`` are E*n products of contiguous matrices,
    which OpenBLAS runs through its NN kernel. Timed on one core (OpenBLAS
    0.3.31; E = 8, K = 5, B = 4, 64 // n features a head), the copy and the NN
    products take 0.81-0.96 of the view's time for n = 5..8 (P' = 13..9)
    but 1.2-2.6x for n = 2..4 (P' = 33..17), where the transposed kernel is
    the faster one, and stacks of n = 1 heads gain nothing at any width; so
    only narrow n > 1 stacks copy. The choice reads n and P', never E, and
    every caller (``fit_stack``, ``meta_train``'s inner and outer steps,
    :func:`stack_loss_and_grads` and so the list API) steps through this
    routine, so all of them read the same layout and agree bit for bit. On
    that build the two kernels also give the same bits for P' < 16, so the
    copy moves no result there; another BLAS build may round them apart.
    A linear workspace built with ``ones=False``
    steps on inputs without the ones column, V rather than [V | 1]: it adds
    the bias column to the logits and sums dL/dlogits into the bias
    gradient on its own, through views of ``theta`` and ``dtheta``. Its one
    caller is ``synth.fit_kb``, which builds one such workspace, with no
    weight decay, per fixed row block of the pretrain set, reads each
    block's rows in place, since a ones column would copy them whole, and
    asks each only for its block's gradient: the calling thread and one
    worker thread fill the two at once, and ``fit_kb`` combines them and
    steps ``theta`` itself.
    ``grads`` is the routine: a closure built here over these buffers,
    ``theta`` and the ufuncs, so a step looks nothing up. Each op writes
    into one of the buffers: reductions and ``take`` through their ``out``
    argument, elementwise ufuncs through their third positional argument.
    Only the loss (when asked for) and the cosine zero-norm mask allocate.
    """

    def __init__(
        self, kind: str, theta: np.ndarray, rows: int, weight_decay: float, ones: bool = True
    ):
        if kind not in PARAMETRIC_KINDS:
            raise ValueError("centroid heads are non-parametric and have no gradients")
        E, n, K, _ = theta.shape
        linear = kind == "linear"
        W, b = _split(kind, theta)  # views; W alone carries the L2 penalty
        G = np.empty((K, E, n, rows))
        G_heads = G.transpose(1, 2, 0, 3)
        col_max, at_y, total, tmp = np.empty((4, E, n, rows))
        top, w_sum = np.empty((2, E, 1, rows))
        dtheta = self.dtheta = np.empty(theta.shape)
        dW, db = _split(kind, dtheta)
        tmp_W = np.empty(theta.shape) if kind == "cosine" or weight_decay else None
        decay = None
        if weight_decay:
            decay = np.zeros(theta.shape)
            decay[..., : W.shape[-1]] = weight_decay
        U = d = row_dot = None
        if not linear:
            U = np.empty(theta.shape)
            d, row_dot = np.empty((2, E, n, K, 1))
        plain = linear and not ones  # inputs V, not [V | 1]
        width = theta.shape[-1] - plain  # of V, the inner dimension of the logits
        # narrow n > 1 stacks: V^T copied into one contiguous buffer per step (see above)
        V_T = np.empty((E, n, width, rows)) if n > 1 and width < 16 else None
        scores = U if not linear else W if plain else theta  # scored against V^T
        grad_out = dW if plain else dtheta  # written by G @ V
        b_G = b.transpose(2, 0, 1)[..., None] if plain else None  # b in G's layout
        B, log_n = rows, math.log(n)
        matmul, add, subtract, multiply, divide, exp, log = (
            np.matmul, np.add, np.subtract, np.multiply, np.divide, np.exp, np.log
        )
        add_reduce, max_reduce, take, put = np.add.reduce, np.maximum.reduce, G.take, G.put
        copyto = np.copyto

        def grads(
            V: np.ndarray, at_label: np.ndarray, with_loss: bool = False,
            learning_rate: float | None = None,
        ) -> np.ndarray | None:
            """Fill ``dtheta`` with the stacked gradient, at ``theta``, of the
            per-episode loss -mean log((1/n) sum_i p_i(y)) plus the L2
            penalty on the weights, on the batch ``V`` (E, n, B, P') of
            :func:`_step_inputs`; returns the (E,) losses, or None without
            ``with_loss``. ``at_label`` locates the true labels (see
            :func:`_label_index`). Given a ``learning_rate``, it then steps
            ``theta`` in place as :func:`stack_sgd_step` does, scaling
            ``dtheta`` by the rate on the way.

            Per-head log-softmax outputs are mixed as a log-mean-exp over
            each episode's heads, so the loss stays finite when every head
            gives the true class a vanishing probability. Head i's share of
            the gradient is its responsibility r_i = softmax_i(log p_i(y)):
            dL/dlogits_i = (r_i / B) * (p_i - onehot(y)), left in ``G``. A
            lone head has r = exp(0) = 1, so its log-mean-exp is skipped,
            and so, without ``with_loss``, is its log p(y). The class axis
            of ``G`` is outermost, so each class maximum and sum is one pass
            over K contiguous blocks.

            ``G`` is then chained back: linear heads take
            dtheta = G @ [V | 1], which holds dW and, in its last column,
            db = G.sum(-1). Cosine heads score U @ V^T with the unit rows
            U = W / |w|, computed once per step; a zero-norm row has
            |w| = inf and scores 0. Row u's Jacobian is (I - u u^T) / |w|, so
            with GV = G @ V the gradient is dW = (GV - (GV . u) u) / |w|:
            one pass over G, since the row sums of G * (U @ V^T) equal those
            of GV * U, and a zero-norm row gets a zero gradient and stays
            zero. The weight decay adds decay * theta, which leaves the bias
            column as it is.
            """
            if not linear:
                normalize_rows_with_divisors(theta, out=(U, d))
            if V_T is None:
                matmul(scores, V.swapaxes(-1, -2), G_heads)
            else:
                copyto(V_T, V.swapaxes(-1, -2))
                matmul(scores, V_T, G_heads)
            if plain:
                add(G, b_G, G)
            subtract(G, max_reduce(G, 0, None, col_max), G)
            read_py = n > 1 or with_loss  # log p_i(y) feeds only the loss and the mixture
            if read_py:
                take(at_label, None, at_y, "clip")  # shifted true-label logits
            exp(G, G)
            add_reduce(G, 0, None, total)
            if read_py:
                log_py = subtract(at_y, log(total, tmp), at_y)  # log p_i(y), (E, n, B)
            loss = None
            if n == 1:
                if with_loss:
                    loss = log_n - log_py[:, 0].sum(axis=1) / B
                scale = 1.0 / B
            else:
                top_ = max_reduce(log_py, 1, None, top, True)
                w = exp(subtract(log_py, top_, log_py), log_py)
                w_sum_ = add_reduce(w, 1, None, w_sum, True)
                if with_loss:
                    loss = log_n - (top_ + log(w_sum_))[:, 0].sum(axis=1) / B
                scale = divide(w, multiply(w_sum_, B, w_sum_), w)  # r_i / B
            divide(scale, total, total)
            multiply(G, total, G)
            take(at_label, None, tmp, "clip")
            put(at_label, subtract(tmp, scale, tmp), "clip")
            matmul(G_heads, V, grad_out)
            if plain:
                add_reduce(G_heads, -1, None, db)
            elif not linear:
                add_reduce(multiply(dtheta, U, tmp_W), -1, None, row_dot, True)
                subtract(dtheta, multiply(row_dot, U, tmp_W), dtheta)
                divide(dtheta, d, dtheta)
            if weight_decay:
                add(dtheta, multiply(theta, decay, tmp_W), dtheta)
                if with_loss:
                    loss += 0.5 * weight_decay * np.square(W).reshape(E, -1).sum(axis=1)
            if learning_rate is not None:
                subtract(theta, multiply(dtheta, learning_rate, dtheta), theta)
            return loss

        self.grads = grads


def _no_coupling(coupling) -> None:
    """Reject a context coupling: the context is folded into the head inputs.
    ``init_heads`` and ``sgd_step`` keep the parameter only for the benchmark's
    traced replicas, which pass ``Predictor.context_coupling`` (always None)."""
    if coupling is not None:
        raise ValueError(
            f"context coupling {coupling!r} is not supported; "
            "the class-wise context is folded into the head inputs"
        )


def stack_sgd_step(theta: np.ndarray, dtheta: np.ndarray, learning_rate: float) -> None:
    """In-place step theta -= lr * dtheta on a head stack. ``dtheta`` serves
    as scratch: the learning rate is applied to it in place. Fits step
    inside their workspace's gradient routine instead, which saves a call
    per step."""
    np.subtract(theta, np.multiply(dtheta, learning_rate, dtheta), theta)


def stack_loss_and_grads(
    kind: str, theta: np.ndarray, inputs, labels: np.ndarray, weight_decay: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(E,) mixture losses and the fresh gradient ``dtheta`` of E episodes'
    head stack ``theta`` on (E, n, B, P) inputs with (E, B) labels."""
    theta = np.array(theta, dtype=np.float64)  # the workspace's own copy
    E, n, K, width = theta.shape
    V = _step_inputs(kind, inputs, width - (kind == "linear"))
    labels = np.asarray(labels, dtype=np.int64)
    if V.shape[:2] != (E, n):
        raise ValueError("need one input block per head of every episode")
    if labels.size == 0:
        raise ValueError("empty batch")
    if labels.shape != (E, V.shape[2]):
        raise ValueError("labels must align with inputs")
    _check_labels(labels, K)
    ws = _Workspace(kind, theta, V.shape[2], weight_decay)
    loss = ws.grads(V, _label_index(labels, n, K), with_loss=True)
    return loss, ws.dtheta


# --- list-of-heads API -----------------------------------------------------------


def mixture_loss_and_grads(
    heads: Sequence[HeadParams],
    inputs,
    labels: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Cross-entropy of the head-averaged probabilities, with exact gradients.

    ``inputs[i]`` is the (B, P) block feeding head i; the predicted
    distribution is the arithmetic mean of the per-head softmax outputs.
    Returns the batch-mean loss (plus the L2 penalty on every W) and the
    (n, K, P') gradient ``dtheta`` of the heads' stack, the one-episode
    gradient of :func:`stack_loss_and_grads`.
    """
    if len(heads) != len(inputs) or not heads:
        raise ValueError("need one input block per head")
    kind, theta = stack_heads(heads)
    loss, dtheta = stack_loss_and_grads(
        kind, theta[None], np.asarray(inputs, dtype=np.float64)[None],
        np.asarray(labels, dtype=np.int64)[None], weight_decay,
    )
    return float(loss[0]), dtheta[0]


def sgd_step(
    heads: Sequence[HeadParams],
    dtheta: np.ndarray,
    learning_rate: float,
    coupling: float | None = None,
) -> None:
    """In-place gradient step of each head's ``theta`` by its entry of the
    (n, K, P') gradient of :func:`mixture_loss_and_grads`, by the same ufuncs
    as :func:`stack_sgd_step`; ``dtheta`` is left as it is. ``coupling`` must
    be None (see :func:`_no_coupling`)."""
    _no_coupling(coupling)
    if np.shape(dtheta) != stack_heads(heads)[1].shape:
        raise ValueError(f"need one gradient of its head's shape per head, got {np.shape(dtheta)}")
    for h, g in zip(heads, dtheta):
        np.subtract(h.theta, np.multiply(g, learning_rate), h.theta)


# --- initialization ----------------------------------------------------------


def _class_means(Z: np.ndarray, labels: np.ndarray, way: int) -> np.ndarray:
    """(E, ..., way, P) per-class means of the rows of an (E, ..., S, P) stack
    with (E, S) labels: entry [e, ..., k] averages, in row order, the rows of
    ``Z[e]`` that ``labels[e]`` marks k.

    When every episode has the same number of rows of every class (as every
    sampled chunk has, whatever order each episode lists them in), the rows
    are gathered class by class into one (E, ..., way, c, P) array and
    averaged in one call; other label sets average each (episode, class)
    mask in turn. Both give the bits of ``Z[e][..., labels[e] == k, :].mean(-2)``.
    """
    counts = (labels[..., None] == np.arange(way)).sum(axis=-2)  # (E, way)
    missing = np.argwhere(counts == 0)
    if missing.size:
        raise ValueError(f"support has no samples for class {int(missing[0, 1])}")
    E, S = labels.shape
    c = int(counts[0, 0])
    if way * c != S or (counts != c).any():
        return np.stack([
            np.stack([Z[e][..., labels[e] == k, :].mean(axis=-2) for k in range(way)], axis=-2)
            for e in range(E)
        ])
    rows = np.argsort(labels, axis=-1, kind="stable").reshape(E, *(1,) * (Z.ndim - 3), S, 1)
    grouped = np.take_along_axis(Z, rows, axis=-2)
    return grouped.reshape(*Z.shape[:-2], way, c, Z.shape[-1]).mean(axis=-2)


def init_stack(
    kind: str,
    way: int,
    support_inputs: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Fresh head stack ``theta`` for E episodes on (E, n, S, P) support
    inputs with (E, S) labels: (E, n, K, P+1) for linear heads, else
    (E, n, K, P); see :func:`init_heads` for how each kind starts.
    """
    Z = np.asarray(support_inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 4 or labels.shape != (Z.shape[0], Z.shape[2]):
        raise ValueError("need (E, n, S, P) input stacks with one label per support row")
    check_kind(kind)
    E, n, _, P = Z.shape
    if kind == "linear":
        return np.zeros((E, n, way, P + 1))
    cents = _class_means(Z, labels, way)
    return cents if kind == "centroid" else normalize_rows(cents)


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
    theta = init_stack(kind, way, np.asarray(support_inputs)[None], np.asarray(labels)[None])
    return _unstack_heads(kind, theta[0])


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
    support_inputs: np.ndarray,
    support_y: np.ndarray,
    predictor,
    cfg: FitConfig,
    seeds: Sequence[int],
    init: np.ndarray | None = None,
    loss_callback: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Fit the predictor's heads on E support sets at once; returns their stack ``theta``.

    ``support_inputs`` (E, n, S, P) are the stratum inputs of the support
    sets (``predictor.support_inputs`` of their (E, S, dim) rows), so
    callers that fit several times build them once; ``support_y`` is
    (E, S). Episode e draws its mini-batches with :func:`batch_rows` from
    ``seeds[e]`` (``cfg.seed`` is not read), and its heads step on its own
    rows only, so its weights do not depend on the other episodes of the
    stack. ``init``, an (n, K, P+1) stack for linear heads and (n, K, P)
    for cosine heads, is copied as every episode's start; fresh heads start
    as in :func:`init_stack`. ``loss_callback`` gets each iteration's (E,)
    losses. The weight decay is scaled by ``predictor.weight_decay_scale``.
    The set-up (start, one workspace, label indices and mini-batch rows) is
    done here and the iterations run in :func:`_fit_steps`; mini-batches
    are taken from the inputs of :func:`_step_inputs`, ones column
    included. See :func:`fit_head`.
    """
    kind = predictor.head_kind
    if kind not in PARAMETRIC_KINDS:
        raise ValueError(f"head kind {kind!r} is non-parametric; nothing to fit")
    Z = np.asarray(support_inputs)
    y = np.asarray(support_y, dtype=np.int64)
    if Z.ndim != 4 or y.shape != (Z.shape[0], Z.shape[2]) or len(seeds) != Z.shape[0]:
        raise ValueError("need (E, n, S, P) support inputs with (E, S) labels and E seeds")
    E, n, S, _ = Z.shape
    if S == 0:
        raise ValueError("support set is empty")
    if n != predictor.n_heads:
        raise ValueError("need one input block per head of every episode")
    _check_labels(y, predictor.way)
    K, P = predictor.way, predictor.head_input_dim
    if init is not None:
        predictor.check_stack(kind, init)
    V = _step_inputs(kind, Z, P)
    if init is None:
        theta = init_stack(kind, K, Z, y)
    else:
        theta = np.array(np.broadcast_to(init, (E, *np.shape(init))), dtype=np.float64, order="C")
    weight_decay = cfg.weight_decay * predictor.weight_decay_scale
    batch = S if cfg.batch_size is None else cfg.batch_size
    ws = _Workspace(kind, theta, batch, weight_decay)
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
    _fit_steps(ws, batches, cfg.learning_rate, loss_callback)
    return theta


def _fit_steps(
    ws: _Workspace,
    batches: Iterable[tuple[np.ndarray, np.ndarray]],
    learning_rate: float,
    loss_callback: Callable[[int, np.ndarray], None] | None = None,
) -> None:
    """The fitting loop: one SGD step of the workspace's ``theta`` in
    place, one call of its gradient routine, per ``(inputs, label index)``
    batch of ``batches``.

    :func:`fit_stack` and the meta-learning task loop step through it;
    ``synth.fit_kb`` steps its two row blocks' combined gradient itself.
    """
    grads, with_loss = ws.grads, loss_callback is not None
    for it, (V, at_label) in enumerate(batches):
        loss = grads(V, at_label, with_loss, learning_rate)
        if with_loss:
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
    (1, n, K, P+1) stack for linear heads ((1, n, K, P) for cosine heads),
    and a mini-batch is one index into the (1, n, S, P) input stack. Fresh
    heads start as in :func:`init_stack`; a supplied ``init`` is used as
    given, once its kind and then :func:`fit_stack` have checked it.
    Deterministic for a fixed ``cfg.seed``.
    """
    start = None
    if init is not None:
        kind, start = stack_heads(init)
        if kind != predictor.head_kind:  # a centroid stack has a cosine stack's width
            raise ValueError(f"expected {predictor.head_kind!r} heads, got {kind!r}")
    callback = None if loss_callback is None else lambda it, loss: loss_callback(it, float(loss[0]))
    theta = fit_stack(
        predictor.support_inputs(np.asarray(support_x)[None]), np.asarray(support_y)[None],
        predictor, cfg, [cfg.seed], start, callback,
    )
    return _unstack_heads(predictor.head_kind, theta[0])
