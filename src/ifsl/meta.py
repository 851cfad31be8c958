"""First-order meta-learning of head initializations.

The inner loop adapts a copy of the shared initialization with full-batch
gradient steps on each task's support set; the outer loop applies the query
loss gradient, taken at the adapted parameters, directly to the
initialization (no second-order terms). The training loop holds the
initialization as an (n, K, P) weight stack and (n, K) biases throughout:
it adapts with :func:`~ifsl.heads.fit_stack` and steps the stack in place,
and builds :class:`~ifsl.heads.HeadParams` only for the result.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .adjust import AdjustmentConfig, Predictor
from .episodes import episode_rng, sample_episode
from .heads import (
    FitConfig,
    HeadParams,
    fit_head,
    fit_stack,
    stack_heads,
    stack_loss_and_grads,
    stack_probs,
    stack_sgd_step,
)
from .knowledge import FeatureDataset, KnowledgeBase

META_MAGIC = b"IFSLMET1"
_KIND_CODES = {"linear": 0, "cosine": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass
class MetaInit:
    """Shared head initialization plus the meta-training hyperparameters."""

    theta0: list[HeadParams]
    inner_lr: float = 0.01
    inner_steps: int = 20
    outer_lr: float = 0.01
    tasks: int = 1000

    def __post_init__(self):
        if not self.theta0:
            raise ValueError("need at least one head")
        kinds = {h.kind for h in self.theta0}
        if len(kinds) != 1 or next(iter(kinds)) not in _KIND_CODES:
            raise ValueError("meta initialization needs parametric heads of one kind")
        if not (math.isfinite(self.inner_lr) and self.inner_lr > 0.0):
            raise ValueError(
                f"learning rates must be finite with inner_lr > 0, got inner_lr={self.inner_lr!r}"
            )
        if not (math.isfinite(self.outer_lr) and self.outer_lr >= 0.0):
            raise ValueError(
                f"learning rates must be finite with outer_lr >= 0, got outer_lr={self.outer_lr!r}"
            )
        if self.inner_steps < 0 or self.tasks < 0:
            raise ValueError("step and task counts must be >= 0")

    def copy_theta(self) -> list[HeadParams]:
        return [h.copy() for h in self.theta0]


def zero_meta_init(
    way: int,
    input_dim: int,
    n_heads: int = 1,
    inner_lr: float = 0.01,
    inner_steps: int = 20,
    outer_lr: float = 0.01,
    tasks: int = 1000,
) -> MetaInit:
    heads = [
        HeadParams("linear", W=np.zeros((way, input_dim)), b=np.zeros(way))
        for _ in range(n_heads)
    ]
    return MetaInit(heads, inner_lr, inner_steps, outer_lr, tasks)


def _inner_config(inner_lr: float, inner_steps: int) -> FitConfig:
    return FitConfig(
        iterations=inner_steps, batch_size=None, learning_rate=inner_lr, weight_decay=0.0
    )


def adapt(
    theta: Sequence[HeadParams],
    predictor: Predictor,
    support_x: np.ndarray,
    support_y: np.ndarray,
    inner_lr: float,
    inner_steps: int,
) -> list[HeadParams]:
    """Full-batch inner-loop adaptation of a copy of ``theta``: ``fit_head``
    with ``batch_size=None`` and zero weight decay, started from ``theta``."""
    return fit_head(
        support_x, support_y, predictor, _inner_config(inner_lr, inner_steps), init=theta
    )


def meta_train(
    ds: FeatureDataset,
    way: int,
    shot: int,
    query: int,
    adj_cfg: AdjustmentConfig,
    mi: MetaInit,
    kb: KnowledgeBase | None,
    rng: np.random.Generator,
) -> MetaInit:
    """Run ``mi.tasks`` meta-iterations and return the updated initialization.

    Each task is a fresh episode; the initialization moves by ``outer_lr``
    times the query-loss gradient at the task-adapted parameters, on the
    tied subspace when the predictor couples a context. The same numbers as
    :func:`adapt`, ``mixture_loss_and_grads`` and ``sgd_step`` task by task,
    on one stack. With ``outer_lr=0`` the initialization is returned
    unchanged (aside from a copy). Deterministic for a fixed rng state.
    """
    kind = mi.theta0[0].kind
    predictor = Predictor(adj_cfg, kb, ds.dim, way, kind)
    predictor.validate_heads(mi.theta0)
    _, W, b = stack_heads(mi.theta0)
    cfg = _inner_config(mi.inner_lr, mi.inner_steps)
    for _ in range(mi.tasks):
        ep = sample_episode(ds, way, shot, query, rng)
        adapted = fit_stack(ep.support_x[None], ep.support_y[None], predictor, cfg, [0], (W, b))
        query_inputs = predictor.support_inputs(ep.query_x[None])
        _, dW, db = stack_loss_and_grads(kind, *adapted, query_inputs, ep.query_y[None])
        stack_sgd_step(
            W, b, dW[0], None if db is None else db[0], mi.outer_lr, predictor.context_coupling
        )
    theta = [HeadParams(kind, W=W[i], b=None if b is None else b[i]) for i in range(len(W))]
    return replace_theta(mi, theta)


def evaluate_inits(
    ds: FeatureDataset,
    way: int,
    shot: int,
    query: int,
    predictor: Predictor,
    inits: Sequence[Sequence[HeadParams]],
    inner_lr: float,
    inner_steps: int,
    count: int,
    seed: int,
) -> list[list[float]]:
    """Held-out query accuracy (percent) of every initialization after adaptation.

    Task ``e`` of ``count`` is drawn from ``episode_rng(seed, e)``; each
    initialization is adapted on its support set as by ``adapt`` and scored
    on its queries. Returns one list of per-task accuracies per initialization.
    """
    for theta in inits:
        predictor.validate_heads(theta)
    stacks = [stack_heads(theta)[1:] for theta in inits]
    cfg = _inner_config(inner_lr, inner_steps)
    accs: list[list[float]] = [[] for _ in inits]
    for e in range(count):
        ep = sample_episode(ds, way, shot, query, episode_rng(seed, e))
        query_inputs = predictor.support_inputs(ep.query_x[None])
        for start, out in zip(stacks, accs):
            W, b = fit_stack(ep.support_x[None], ep.support_y[None], predictor, cfg, [0], start)
            probs = stack_probs(predictor.head_kind, W, b, query_inputs)[0]
            out.append(100.0 * float((probs.argmax(axis=1) == ep.query_y).mean()))
    return accs


def replace_theta(mi: MetaInit, theta: list[HeadParams]) -> MetaInit:
    return MetaInit(theta, mi.inner_lr, mi.inner_steps, mi.outer_lr, mi.tasks)


# --- serialization -----------------------------------------------------------


def save_meta(mi: MetaInit, path) -> None:
    """Binary blob: magic, layout header, then f32 parameter payload per head."""
    kind = mi.theta0[0].kind
    way = mi.theta0[0].way
    dim = mi.theta0[0].input_dim
    with open(path, "wb") as fh:
        fh.write(META_MAGIC)
        fh.write(
            struct.pack(
                "<IIII", _KIND_CODES[kind], len(mi.theta0), way, dim
            )
        )
        fh.write(struct.pack("<ffII", mi.inner_lr, mi.outer_lr, mi.inner_steps, mi.tasks))
        for h in mi.theta0:
            fh.write(h.W.astype("<f4").tobytes())
            if kind == "linear":
                fh.write(h.b.astype("<f4").tobytes())


def load_meta(path):
    from .knowledge import FormatError

    raw = Path(path).read_bytes()
    name = str(path)
    if len(raw) < 8 or raw[:8] != META_MAGIC:
        raise FormatError(f"{name}: bad magic at byte 0, expected {META_MAGIC!r}")
    if len(raw) < 8 + 16 + 16:
        raise FormatError(f"{name}: truncated header at byte {len(raw)}")
    kind_code, n_heads, way, dim = struct.unpack_from("<IIII", raw, 8)
    inner_lr, outer_lr, inner_steps, tasks = struct.unpack_from("<ffII", raw, 24)
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"{name}: unknown head kind code {kind_code} at byte 8")
    if n_heads == 0 or way < 2 or dim == 0:
        raise FormatError(f"{name}: degenerate layout in header at byte 12")
    if not (np.isfinite(inner_lr) and inner_lr > 0.0):
        raise FormatError(f"{name}: inner_lr {inner_lr!r} must be finite and > 0 at byte 24")
    if not (np.isfinite(outer_lr) and outer_lr >= 0.0):
        raise FormatError(f"{name}: outer_lr {outer_lr!r} must be finite and >= 0 at byte 28")
    kind = _KIND_NAMES[kind_code]
    per_head = way * dim + (way if kind == "linear" else 0)
    expected = 40 + 4 * n_heads * per_head
    if len(raw) != expected:
        raise FormatError(
            f"{name}: expected {expected} bytes, found {len(raw)} "
            f"(payload ends at byte {len(raw)})"
        )
    heads = []
    off = 40
    for _ in range(n_heads):
        W = np.frombuffer(raw, dtype="<f4", count=way * dim, offset=off).astype(np.float64)
        off += 4 * way * dim
        if not np.all(np.isfinite(W)):
            raise FormatError(f"{name}: non-finite weight in payload before byte {off}")
        b = None
        if kind == "linear":
            b = np.frombuffer(raw, dtype="<f4", count=way, offset=off).astype(np.float64)
            off += 4 * way
            if not np.all(np.isfinite(b)):
                raise FormatError(f"{name}: non-finite bias in payload before byte {off}")
        heads.append(HeadParams(kind, W=W.reshape(way, dim), b=b))
    return MetaInit(heads, float(inner_lr), int(inner_steps), float(outer_lr), int(tasks))
