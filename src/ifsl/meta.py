"""First-order meta-learning of head initializations.

The inner loop adapts a copy of the shared initialization with full-batch
gradient steps on each task's support set; the outer loop applies the query
loss gradient, taken at the adapted parameters, directly to the
initialization (no second-order terms). Tasks come from the episode loop of
:mod:`ifsl.episodes`, which alone chunks and stacks them. An initialization
is held, trained, evaluated and serialized as one head stack,
:attr:`MetaInit.theta`: (n, K, P+1) for linear heads, whose last column is
the bias, and (n, K, P) for cosine heads. The training loop builds each
chunk's step inputs in two calls (support rows, query rows), with a
trailing column of ones for linear heads, and steps every task in turn
through one inner and one outer workspace, each bound once to the task's
copy of that stack, with the fitting loop of :func:`~ifsl.heads.fit_stack`.
Held-out evaluation builds each chunk's stratum inputs once, then fits and
scores the chunk from every initialization with the routine that scores
the engine's arms. :func:`save_meta` refuses, before it opens the file, any
initialization that :func:`load_meta` would reject. ``Predictor.check_stack``
refuses a start of another width, way or head count, rather than misread it.
Lists of :class:`~ifsl.heads.HeadParams` remain only where
``perfbench/workloads.py`` reads them (ROADMAP items 3-4):
``MetaInit.theta0``, ``copy_theta``, ``replace_theta``, ``adapt``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
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
    _split,
    _step_inputs,
    _unstack_heads,
    _Workspace,
    fit_head,
    stack_heads,
    stack_sgd_step,
)
from .knowledge import FeatureDataset, FormatError, KnowledgeBase

META_MAGIC = b"IFSLMET1"
_KIND_CODES = {"linear": 0, "cosine": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass
class MetaInit:
    """Shared head initialization, one (n, K, P') head stack ``theta`` (P' = P+1
    for linear heads, bias last), plus the meta-training hyperparameters."""

    kind: str
    theta: np.ndarray
    inner_lr: float = 0.01
    inner_steps: int = 20
    outer_lr: float = 0.01
    tasks: int = 1000

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise ValueError(f"meta initialization needs parametric heads, got {self.kind!r}")
        self.theta = np.asarray(self.theta, dtype=np.float64)
        shape = self.theta.shape
        if len(shape) != 3 or min(shape[0], shape[1] - 1, shape[2] - (self.kind == "linear")) < 1:
            raise ValueError(f"need an (n, K, P') stack with n, P >= 1 and K >= 2, got {shape}")
        if not np.isfinite(self.theta).all():
            raise ValueError("matrix entries must be finite")
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

    @property
    def theta0(self) -> list[HeadParams]:
        """``HeadParams`` views of ``theta``. Like :meth:`copy_theta`,
        :func:`replace_theta` and :func:`adapt`, kept for ``perfbench/workloads.py``
        only; they go with ROADMAP item 4, after item 3 moves the benchmark off them."""
        return _unstack_heads(self.kind, self.theta)

    def copy_theta(self) -> list[HeadParams]:
        """:attr:`theta0` of a copy of ``theta``; kept for the benchmark, as :attr:`theta0` is."""
        return _unstack_heads(self.kind, self.theta.copy())


def zero_meta_init(
    way: int,
    input_dim: int,
    n_heads: int = 1,
    inner_lr: float = 0.01,
    inner_steps: int = 20,
    outer_lr: float = 0.01,
    tasks: int = 1000,
) -> MetaInit:
    return MetaInit(
        "linear", np.zeros((n_heads, way, input_dim + 1)), inner_lr, inner_steps, outer_lr, tasks
    )


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
    tasks added up. With ``outer_lr=0`` it returns a copy of the start.
    Deterministic for a fixed rng state.
    """
    predictor = Predictor(adj_cfg, kb, ds.dim, way, mi.kind)
    predictor.check_stack(mi.kind, mi.theta)  # a start of another width is refused, not misread
    theta = mi.theta.copy()
    # one task's adapted copy, workspaces and label indices serve every task;
    # sample_episode labels each episode's rows 0..way-1 in class order
    theta_task = np.empty((1, *theta.shape))
    inner = _Workspace(mi.kind, theta_task, way * shot, 0.0)
    outer = _Workspace(mi.kind, theta_task, way * query, 0.0)
    n = theta.shape[0]
    at_support = _label_index(np.repeat(np.arange(way), shot)[None], n, way)
    at_query = _label_index(np.repeat(np.arange(way), query)[None], n, way)
    for chunk in _chunks(lambda _: sample_episode(ds, way, shot, query, rng), mi.tasks):
        # support and query rows get separate stacks: slices of one joint
        # stack change the weights in the last bits
        support, queries = (
            _step_inputs(mi.kind, predictor.support_inputs(rows), predictor.head_input_dim)
            for rows in (chunk.support_x, chunk.query_x)
        )
        for t in range(len(chunk.indices)):
            theta_task[0] = theta
            _fit_steps(inner, repeat((support[t : t + 1], at_support), mi.inner_steps), mi.inner_lr)
            outer.grads(queries[t : t + 1], at_query)
            stack_sgd_step(theta, outer.dtheta[0], mi.outer_lr)
    return replace(mi, theta=theta)


def evaluate_inits(
    ds: FeatureDataset,
    way: int,
    shot: int,
    query: int,
    predictor: Predictor,
    inits: Sequence[np.ndarray],
    inner_lr: float,
    inner_steps: int,
    count: int,
    seed: int,
) -> list[list[float]]:
    """Held-out query accuracy (percent) of every initialization after adaptation.

    Each of ``inits`` is a ``MetaInit.theta`` stack, which ``fit_stack`` checks.
    Task ``e`` of ``count`` is drawn from ``episode_rng(seed, e)``; each
    initialization is adapted on its support set as by ``adapt`` and scored
    on its queries. The tasks come in the episode engine's chunks; each
    chunk's stratum inputs are built once, and the chunk is fitted and
    scored from each initialization as one stack, which gives each task the
    same bits as alone. Returns one list of per-task accuracies per
    initialization.
    """
    _check_count(count)
    if predictor.head_kind not in _KIND_CODES:  # centroid heads would ignore every init
        raise ValueError(f"meta initialization needs parametric heads, got {predictor.head_kind!r}")
    cfg = _inner_config(inner_lr, inner_steps)
    accs: list[list[float]] = [[] for _ in inits]
    tasks = _chunks(lambda e: sample_episode(ds, way, shot, query, episode_rng(seed, e)), count)
    for chunk in tasks:
        seeds = [0] * len(chunk.indices)  # full-batch steps draw no mini-batches
        for predicted, out in zip(_fit_and_score(predictor, cfg, chunk, seeds, inits), accs):
            out.extend((100.0 * (predicted == chunk.query_y).mean(axis=1)).tolist())
    return accs


def replace_theta(mi: MetaInit, heads: Sequence[HeadParams]) -> MetaInit:
    """``mi`` with ``heads``, stacked (kept for the benchmark, see ``MetaInit.theta0``)."""
    return MetaInit(*stack_heads(heads), mi.inner_lr, mi.inner_steps, mi.outer_lr, mi.tasks)


# --- serialization -----------------------------------------------------------


def meta_bytes(mi: MetaInit) -> bytes:
    """The bytes :func:`save_meta` writes for ``mi``: magic, layout header, then
    the f32 parameter payload, head by head: ``W`` row-major, then ``b``.

    Raises ValueError for an initialization that :func:`load_meta` would
    reject once written: a learning rate that leaves its range when rounded
    to f32 (``inner_lr=1e-50`` becomes 0), a step or task count outside the
    header's unsigned 32-bit fields, or a weight that overflows f32.
    """
    W, b = _split(mi.kind, mi.theta)
    n, way, dim = W.shape
    parts = (W.reshape(n, -1),) + (() if b is None else (b,))
    with np.errstate(over="ignore"):  # what overflows f32 is refused below
        inner_lr, outer_lr = (float(np.float32(r)) for r in (mi.inner_lr, mi.outer_lr))
        payload = np.concatenate(parts, axis=1).astype("<f4")
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
    if not np.isfinite(payload).all():
        raise ValueError("every weight must be finite once rounded to f32")
    return (
        META_MAGIC
        + struct.pack("<IIII", _KIND_CODES[mi.kind], n, way, dim)
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
    payload = np.frombuffer(raw, dtype="<f4", offset=40).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(payload))
    if bad.size:  # the first in file order, named with the byte where its W or b ends
        head, at = divmod(int(bad[0]), per_head)
        part, end = ("weight", way * dim) if at < way * dim else ("bias", per_head)
        byte = 40 + 4 * (head * per_head + end)
        raise FormatError(f"{name}: non-finite {part} in payload before byte {byte}")
    payload = payload.reshape(n_heads, per_head)
    theta = payload[:, : way * dim].reshape(n_heads, way, dim)
    if kind == "linear":
        theta = np.concatenate((theta, payload[:, way * dim :, None]), axis=2)
    return MetaInit(kind, theta, float(inner_lr), int(inner_steps), float(outer_lr), int(tasks))
