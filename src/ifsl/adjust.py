"""Backdoor-adjusted prediction over feature and class strata.

Strategies
----------
``none``      one head on the raw feature.
``feature``   the feature indices are split into n equal blocks; head i sees
              block i masked to its active entries, and the per-head softmax
              outputs are averaged under a uniform stratum prior.
``class``     one head on x concatenated with the probability-weighted mean of
              the pre-trained class means (the sum moved inside the head via
              the normalized weighted geometric mean).
``combined``  the feature-wise split applied on top of the class-wise context:
              head i sees block i of x joined with block i of the context.

The class-wise context is a proxy for the knowledge-base stratum of x, and a
head that reads it as one more feature only adds stratum evidence to the
conditional prediction. Fitted heads of the ``class`` and ``combined``
strategies therefore tie their context weights to their feature weights,
W_c = -m * W_x (see :attr:`Predictor.context_coupling`). Under the tie the
stratum-d term of the backdoor sum scores x - m * P(a_d | x) * mean_d, the
feature with the stratum's contribution removed, and the uniform-prior
average over the m strata scores x - sum_d P(a_d | x) * mean_d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .heads import HeadParams, logits_batch, mixture_probs
from .knowledge import KnowledgeBase, PartitionConfig, pretrain_probs
from .numerics import as_rows, as_vector, softmax_rows

STRATEGIES = ("none", "feature", "class", "combined")


@dataclass(frozen=True)
class AdjustmentConfig:
    strategy: str = "none"
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    prior: str = "uniform"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.prior != "uniform":
            raise ValueError(f"only the uniform stratum prior is supported, got {self.prior!r}")


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
        # Fitted heads keep W_c = context_coupling * W_x; None when heads see no context.
        self.context_coupling = -float(kb.m) if cfg.strategy in ("class", "combined") else None
        if cfg.strategy == "none":
            self.n_heads, self.head_input_dim = 1, dim
        elif cfg.strategy == "feature":
            self.n_heads, self.head_input_dim = cfg.partition.n, dim // cfg.partition.n
        elif cfg.strategy == "class":
            self.n_heads, self.head_input_dim = 1, 2 * dim
        else:
            self.n_heads, self.head_input_dim = cfg.partition.n, 2 * dim // cfg.partition.n

    def support_inputs(self, X: np.ndarray) -> np.ndarray:
        """(..., n_heads, S, head_input_dim) stack of per-head input blocks for a
        (..., S, dim) feature array; ``blocks[i]`` of an (S, dim) matrix feeds head i.

        A feature stratum is a threshold mask and a reshape: block i of every
        row, with entries at or below ``t`` in magnitude zeroed. Leading axes
        (one per episode) are carried through, and each (S, dim) matrix gets
        the numbers it would get on its own.
        """
        X = as_rows(X, cols=self.dim)
        strategy = self.cfg.strategy
        if strategy == "none":
            return X[..., None, :, :]
        if strategy in ("class", "combined"):
            ctx = class_context(self.kb, X)
            if strategy == "class":
                return np.concatenate([X, ctx], axis=-1)[..., None, :, :]
        n, t = self.cfg.partition.n, self.cfg.partition.t

        def strata(M: np.ndarray) -> np.ndarray:
            return np.where(np.abs(M) > t, M, 0.0).reshape(*M.shape[:-1], n, -1)

        blocks = strata(X)
        if strategy == "combined":
            blocks = np.concatenate([blocks, strata(ctx)], axis=-1)
        return np.ascontiguousarray(blocks.swapaxes(-2, -3))

    def validate_heads(self, heads: Sequence[HeadParams]) -> None:
        if len(heads) != self.n_heads:
            raise ValueError(f"expected {self.n_heads} heads, got {len(heads)}")
        for h in heads:
            if h.kind != self.head_kind:
                raise ValueError(f"expected {self.head_kind!r} heads, got {h.kind!r}")
            if h.way != self.way:
                raise ValueError(f"head is {h.way}-way, expected {self.way}")
            if h.input_dim != self.head_input_dim:
                raise ValueError(
                    f"head input dimension {h.input_dim} does not match "
                    f"strategy requirement {self.head_input_dim}"
                )

    def probs_from_inputs(self, heads: Sequence[HeadParams], blocks) -> np.ndarray:
        """(B, K) mixture probabilities from precomputed per-head input blocks."""
        return mixture_probs(heads, blocks)

    def probs_batch(self, heads: Sequence[HeadParams], X: np.ndarray) -> np.ndarray:
        self.validate_heads(heads)
        return self.probs_from_inputs(heads, self.support_inputs(X))


def backdoor_exact_classwise(head: HeadParams, x, kb: KnowledgeBase) -> np.ndarray:
    """Explicit class-stratum backdoor sum sum_d softmax(f(x + c_d)) P(d).

    Stratum d contributes the concatenation of x with c_d = P(a_d | x) * mean_d
    under the uniform prior P(d) = 1/m. The ``class`` strategy of
    :class:`Predictor` moves the sum inside the head (NWGM). For linear heads
    the prior-weighted per-stratum logits equal the logits of the pooled
    context exactly, but this function averages probabilities, so for m > 1 it
    agrees with ``Predictor.probs_batch`` only approximately (usually in the
    argmax); for m = 1 the two coincide.
    """
    v = as_vector(x, size=kb.dim)
    if head.input_dim != 2 * kb.dim:
        raise ValueError(
            f"head input dimension {head.input_dim} does not match concatenated size {2 * kb.dim}"
        )
    probs = pretrain_probs(kb, v[None, :])[0]
    Z = np.concatenate(
        [np.broadcast_to(v, kb.class_means.shape), probs[:, None] * kb.class_means], axis=1
    )
    return softmax_rows(logits_batch(head, Z)).mean(axis=0)


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
