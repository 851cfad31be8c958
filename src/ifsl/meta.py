"""First-order meta-learning of head initializations.

The inner loop adapts a copy of the shared initialization with full-batch
gradient steps on each task's support set; the outer loop applies the query
loss gradient, taken at the adapted parameters, directly to the
initialization (no second-order terms). Tasks come from the episode loop of
:mod:`ifsl.episodes`, which alone chunks and stacks them. The training loop
holds the initialization as one affine stack (n, K, P+1) whose last column
is the bias (the weights alone, (n, K, P), for cosine heads), builds each
chunk's step inputs in two calls (support rows, query rows), with a
trailing column of ones for linear heads, and steps every task in turn
through one inner and one outer workspace, each bound once to the task's
copy of that stack, with the fitting loop of :func:`~ifsl.heads.fit_stack`.
Held-out evaluation builds each chunk's stratum inputs once, then fits and
scores the chunk from every initialization with the routine that scores
the engine's arms. :func:`save_meta` refuses, before it opens the file, any
initialization that :func:`load_meta` would reject. A head is
``head_input_dim`` wide; an init of another width is refused, not misread.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .adjust import AdjustmentConfig, Predictor
from .episodes import _check_count, _chunks, _fit_and_score, episode_rng, sample_episode
from .heads import (
    FitConfig,
    HeadParams,
    _fit_steps,
    _label_index,
    _step_inputs,
    _unstack_heads,
    _Workspace,
    fit_head,
    stack_heads,
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
    times the query-loss gradient at the task-adapted parameters. Tasks are
    drawn from ``rng`` one after another through the episode engine's
    chunked loop: each chunk's support and query rows get their stratum
    inputs in one call each, and then its tasks adapt and step in turn.
    Every task adapts through the same full-batch loop as
    :func:`~ifsl.heads.fit_stack`, in one inner and one outer workspace
    allocated once per call. The result is the same bits as :func:`adapt`,
    ``mixture_loss_and_grads`` and ``sgd_step`` task by task, whatever the
    chunk size, and k calls that share one rng equal one call with their
    tasks added up. With ``outer_lr=0`` the initialization is
    returned unchanged (aside from a copy). Deterministic for a fixed rng
    state.
    """
    kind = mi.theta0[0].kind
    predictor = Predictor(adj_cfg, kb, ds.dim, way, kind)
    predictor.validate_heads(mi.theta0)
    theta = stack_heads(mi.theta0)[1]
    # one task's adapted copy, workspaces and label indices serve every task;
    # sample_episode labels each episode's rows 0..way-1 in class order
    theta_task = np.empty((1, *theta.shape))
    inner = _Workspace(kind, theta_task, way * shot, 0.0)
    outer = _Workspace(kind, theta_task, way * query, 0.0)
    n = theta.shape[0]
    at_support = _label_index(np.repeat(np.arange(way), shot)[None], n, way)
    at_query = _label_index(np.repeat(np.arange(way), query)[None], n, way)
    for chunk in _chunks(lambda _: sample_episode(ds, way, shot, query, rng), mi.tasks):
        # support and query rows get separate stacks: slices of one joint
        # stack change the weights in the last bits
        support, queries = (
            _step_inputs(kind, predictor.support_inputs(rows), predictor.head_input_dim)
            for rows in (chunk.support_x, chunk.query_x)
        )
        for t in range(len(chunk.indices)):
            theta_task[0] = theta
            _fit_steps(inner, repeat((support[t : t + 1], at_support), mi.inner_steps), mi.inner_lr)
            outer.grads(queries[t : t + 1], at_query)
            stack_sgd_step(theta, outer.dtheta[0], mi.outer_lr)
    return replace_theta(mi, _unstack_heads(kind, theta))


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
    on its queries. The tasks come in the episode engine's chunks; each
    chunk's stratum inputs are built once, and the chunk is fitted and
    scored from each initialization as one stack, which gives each task the
    same bits as alone. Returns one list of per-task accuracies per
    initialization.
    """
    _check_count(count)
    for theta in inits:
        predictor.validate_heads(theta)
    stacks = [stack_heads(theta)[1] for theta in inits]
    cfg = _inner_config(inner_lr, inner_steps)
    accs: list[list[float]] = [[] for _ in inits]
    tasks = _chunks(lambda e: sample_episode(ds, way, shot, query, episode_rng(seed, e)), count)
    for chunk in tasks:
        seeds = [0] * len(chunk.indices)  # full-batch steps draw no mini-batches
        for predicted, out in zip(_fit_and_score(predictor, cfg, chunk, seeds, stacks), accs):
            out.extend((100.0 * (predicted == chunk.query_y).mean(axis=1)).tolist())
    return accs


def replace_theta(mi: MetaInit, theta: list[HeadParams]) -> MetaInit:
    return MetaInit(theta, mi.inner_lr, mi.inner_steps, mi.outer_lr, mi.tasks)


# --- serialization -----------------------------------------------------------


def meta_bytes(mi: MetaInit) -> bytes:
    """The bytes :func:`save_meta` writes for ``mi``: magic, layout header, then
    the f32 parameter payload per head.

    Raises ValueError for an initialization that :func:`load_meta` would
    reject once written: a learning rate that leaves its range when rounded
    to f32 (``inner_lr=1e-50`` becomes 0), a step or task count outside the
    header's unsigned 32-bit fields, heads of unequal shapes or of input
    dimension 0, or a weight that overflows f32.
    """
    kind = mi.theta0[0].kind
    way, dim = mi.theta0[0].W.shape
    parts = [p for h in mi.theta0 for p in ((h.W, h.b) if kind == "linear" else (h.W,))]
    with np.errstate(over="ignore"):  # what overflows f32 is refused below
        inner_lr, outer_lr = (float(np.float32(r)) for r in (mi.inner_lr, mi.outer_lr))
        payload = np.concatenate([p.ravel() for p in parts]).astype("<f4")
    if not (math.isfinite(inner_lr) and inner_lr > 0.0):
        raise ValueError(
            f"inner_lr={mi.inner_lr!r} is stored as the f32 {inner_lr!r}, "
            "which must be finite and > 0"
        )
    if not (math.isfinite(outer_lr) and outer_lr >= 0.0):
        raise ValueError(
            f"outer_lr={mi.outer_lr!r} is stored as the f32 {outer_lr!r}, "
            "which must be finite and >= 0"
        )
    for name, count in (("inner_steps", mi.inner_steps), ("tasks", mi.tasks)):
        if not 0 <= count <= 0xFFFFFFFF:
            raise ValueError(f"{name}={count} does not fit the file's unsigned 32-bit field")
    if dim == 0 or any(h.kind != kind or h.W.shape != (way, dim) for h in mi.theta0):
        raise ValueError("the heads must share their kind and a (way, dim) shape with dim >= 1")
    if not np.isfinite(payload).all():
        raise ValueError("every weight must be finite once rounded to f32")
    return (
        META_MAGIC
        + struct.pack("<IIII", _KIND_CODES[kind], len(mi.theta0), way, dim)
        + struct.pack("<ffII", inner_lr, outer_lr, mi.inner_steps, mi.tasks)
        + payload.tobytes()
    )


def save_meta(mi: MetaInit, path) -> None:
    """Write ``mi`` as :func:`meta_bytes`; raises its ValueError before the
    file is opened, so a refused initialization leaves no file behind."""
    blob = meta_bytes(mi)
    with open(path, "wb") as fh:
        fh.write(blob)


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
