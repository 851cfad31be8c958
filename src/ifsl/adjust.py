"""Backdoor-adjusted prediction over feature and class strata.

Strategies
----------
``none``      one head on the raw feature.
``feature``   the feature indices are split into n equal blocks; head i sees
              block i masked to its active entries, and the per-head softmax
              outputs are averaged under a uniform stratum prior.
``class``     one head on x - m * ctx: the feature with its knowledge-base
              strata removed (the sum over strata moved inside the head via
              the normalized weighted geometric mean).
``combined``  the feature-wise split of both terms: head i sees block i of
              mask(x) - m * mask(ctx).

The class-wise context ctx = (1/m) sum_j P(a_j | x) * mean_j is a proxy for
the knowledge-base stratum of x. Under the uniform prior the stratum-d term
of the backdoor sum scores x - m * P(a_d | x) * mean_d, and the m terms
average to x - m * ctx, so the stratum is adjusted for rather than read as
evidence for a class. A head U on x - m * ctx is the head [U, -m * U] on
[x, ctx], whose L2 penalty is (1 + m^2) |U|^2: fitted heads of these
strategies scale their weight decay by :attr:`Predictor.weight_decay_scale`.

A :class:`Predictor` fixes its heads' count, kind, way and input width;
:meth:`Predictor.check_stack` checks a head stack against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .heads import HeadParams, check_kind, stack_heads, stack_probs
from .knowledge import KnowledgeBase, PartitionConfig, pretrain_probs
from .numerics import as_matrix, as_rows, as_vector

STRATEGIES = ("none", "feature", "class", "combined")


@dataclass(frozen=True)
class AdjustmentConfig:
    strategy: str = "none"
    partition: PartitionConfig = field(default_factory=PartitionConfig)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")


def class_context(kb: KnowledgeBase, X) -> np.ndarray:
    """Probability-weighted mean context (1/m) sum_j P(a_j | x) * mean_j for
    every row x of a (..., B, dim) array."""
    return pretrain_probs(kb, X) @ kb.class_means / kb.m


class Predictor:
    """Adjusted inputs and probability mixing for one (strategy, head kind) pairing."""

    def __init__(
        self,
        cfg: AdjustmentConfig,
        kb: KnowledgeBase | None,
        dim: int,
        way: int,
        head_kind: str,
    ):
        if way < 2:
            raise ValueError(f"need at least 2 classes, got {way}")
        if dim < 1:
            raise ValueError(f"feature dimension must be positive, got {dim}")
        check_kind(head_kind)
        if cfg.strategy in ("class", "combined") and kb is None:
            raise ValueError(f"strategy {cfg.strategy!r} requires a knowledge base")
        if kb is not None and kb.dim != dim:
            raise ValueError(f"knowledge base dimension {kb.dim} does not match features ({dim})")
        if cfg.strategy in ("feature", "combined"):
            cfg.partition.validate_dim(dim)
        self.cfg = cfg
        self.kb = kb
        self.dim = dim
        self.way = way
        self.head_kind = head_kind
        # Always None: heads read the context folded into their input. Kept
        # for the benchmark's traced replicas, which pass it to init_heads
        # and sgd_step, until the benchmark's next change.
        self.context_coupling = None
        # x - m * ctx carries the weights [U, -m * U] on [x, ctx], whose penalty is (1 + m^2) |U|^2
        self.weight_decay_scale = 1.0 + kb.m**2 if cfg.strategy in ("class", "combined") else 1.0
        if cfg.strategy in ("none", "class"):
            self.n_heads, self.head_input_dim = 1, dim
        else:
            self.n_heads, self.head_input_dim = cfg.partition.n, dim // cfg.partition.n

    def support_inputs(self, X: np.ndarray) -> np.ndarray:
        """(..., n_heads, S, head_input_dim) stack of per-head input blocks for a
        (..., S, dim) feature array; ``blocks[i]`` of an (S, dim) matrix feeds head i.

        A feature stratum is a threshold mask and a reshape: block i of every
        row, with entries at or below ``t`` in magnitude zeroed. ``class``
        feeds x - m * ctx and ``combined`` block i of mask(x) - m * mask(ctx),
        with ctx the :func:`class_context`. Leading axes (one per episode)
        are carried through, and each (S, dim) matrix gets the numbers it
        would get on its own.
        """
        X = as_rows(X, cols=self.dim)
        strategy = self.cfg.strategy
        if strategy == "none":
            return X[..., None, :, :]
        if strategy == "class":
            return (X - self.kb.m * class_context(self.kb, X))[..., None, :, :]
        n, t = self.cfg.partition.n, self.cfg.partition.t

        def strata(M: np.ndarray) -> np.ndarray:
            return np.where(np.abs(M) > t, M, 0.0).reshape(*M.shape[:-1], n, -1)

        blocks = strata(X)
        if strategy == "combined":
            blocks -= self.kb.m * strata(class_context(self.kb, X))
        return np.ascontiguousarray(blocks.swapaxes(-2, -3))

    def check_stack(self, kind: str, theta) -> None:
        """Refuse a stack of ``kind`` heads, (n, K, P+1) for linear heads and
        (n, K, P) otherwise, whose head count, kind, way or input width is
        not this predictor's, or which holds a non-finite entry."""
        shape = np.shape(theta)
        if len(shape) != 3:
            raise ValueError(f"a head stack is one (n, K, P') array, got shape {shape}")
        n, way, width = shape
        input_dim = width - (kind == "linear")
        if n != self.n_heads:
            raise ValueError(f"expected {self.n_heads} heads, got {n}")
        if kind != self.head_kind:
            raise ValueError(f"expected {self.head_kind!r} heads, got {kind!r}")
        if way != self.way:
            raise ValueError(f"head is {way}-way, expected {self.way}")
        if input_dim != self.head_input_dim:
            raise ValueError(
                f"head input dimension {input_dim} does not match "
                f"strategy requirement {self.head_input_dim}"
            )
        if not np.isfinite(theta).all():
            raise ValueError("matrix entries must be finite")

    def validate_heads(self, heads: Sequence[HeadParams]) -> None:
        self.check_stack(*stack_heads(heads))

    def probs_from_inputs(self, heads: Sequence[HeadParams], blocks) -> np.ndarray:
        """(B, K) mixture probabilities from precomputed per-head input blocks
        (``blocks[i]`` feeds head i): the one-episode case of ``stack_probs``."""
        kind, theta = stack_heads(heads)
        return stack_probs(kind, theta[None], np.asarray(blocks, dtype=np.float64)[None])[0]

    def probs_batch(self, heads: Sequence[HeadParams], X: np.ndarray) -> np.ndarray:
        self.validate_heads(heads)
        return self.probs_from_inputs(heads, self.support_inputs(X))


def backdoor_exact_classwise(kind: str, theta, x, kb: KnowledgeBase) -> np.ndarray:
    """Explicit class-stratum backdoor sum sum_d softmax(f(x - m * c_d)) P(d)
    of one head, the (K, P') slice ``theta`` of a ``kind`` head stack.

    Stratum d scores x with c_d = P(a_d | x) * mean_d removed, scaled by m
    so that, under the uniform prior P(d) = 1/m, the strata average to the
    ``class`` input x - m * ctx; :func:`~ifsl.heads.stack_probs` scores the
    m inputs as one batch of rows, and their softmax outputs are averaged.
    The ``class`` strategy of :class:`Predictor` moves the sum inside the
    head (NWGM): for linear heads the prior-weighted per-stratum logits
    equal the logits of the pooled input exactly, but this sum averages
    probabilities, so for m > 1 it agrees with ``Predictor.probs_batch``
    only approximately (usually in the argmax), and for m = 1 exactly.
    """
    check_kind(kind)
    theta = as_matrix(theta)
    if theta.shape[0] < 2:
        raise ValueError("heads need at least 2 classes")
    v = as_vector(x, size=kb.dim)
    Z = v - kb.m * pretrain_probs(kb, v[None, :])[0][:, None] * kb.class_means
    return stack_probs(kind, theta[None, None], Z[None, None])[0].mean(axis=0)


def nwgm(logit_sets, priors) -> np.ndarray:
    """Normalized weighted geometric mean of per-stratum softmax distributions.

    Computed literally as prod_d exp(f_d)^{P(d)} renormalized over classes,
    which equals softmax(sum_d P(d) f_d). A per-stratum shift keeps the
    exponentials bounded without changing the normalized result.
    """
    mats = [as_vector(f) for f in logit_sets]
    w = as_vector(priors, size=len(mats))
    if not mats:
        raise ValueError("need at least one stratum")
    if w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("priors must be non-negative and sum to 1")
    K = mats[0].size
    out = np.ones(K)
    for f, p in zip(mats, w):
        if f.size != K:
            raise ValueError("all strata must score the same classes")
        out = out * np.exp(f - f.max()) ** p
    return out / out.sum()
