"""Few-shot episode sampling and evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .adjust import AdjustmentConfig, Predictor
from .heads import FitConfig, _class_means, fit_stack, init_stack, stack_probs
from .knowledge import FeatureDataset, KnowledgeBase, pretrain_logits
from .evalmetrics import query_hardness
from .numerics import as_matrix


@dataclass(frozen=True)
class Episode:
    """One K-way N-shot task with Q queries per class.

    Episode labels run 0..way-1; ``class_map`` maps them back to dataset class
    ids. ``support_idx``/``query_idx`` record the originating sample rows so
    disjointness stays auditable. ``Episode(...)`` checks every field; the
    samplers build theirs with the private :meth:`_sampled`, which skips the
    checks that their construction guarantees.
    """

    way: int
    shot: int
    query_per_class: int
    support_x: np.ndarray  # (way*shot, dim)
    support_y: np.ndarray  # (way*shot,)
    query_x: np.ndarray  # (way*query_per_class, dim)
    query_y: np.ndarray  # (way*query_per_class,)
    class_map: np.ndarray  # (way,) dataset class ids
    support_idx: np.ndarray  # (way*shot,) dataset rows of the support
    query_idx: np.ndarray  # (way*query_per_class,) dataset rows of the queries

    def __post_init__(self):
        _check_shape(None, self.way, self.shot, self.query_per_class)
        sx = as_matrix(self.support_x, rows=self.way * self.shot)
        qx = as_matrix(self.query_x, rows=self.way * self.query_per_class, cols=sx.shape[1])
        sy = np.asarray(self.support_y, dtype=np.int64)
        qy = np.asarray(self.query_y, dtype=np.int64)
        si = np.asarray(self.support_idx, dtype=np.int64)
        qi = np.asarray(self.query_idx, dtype=np.int64)
        for name, arr, expect in (
            ("support_y", sy, sx.shape[0]),
            ("query_y", qy, qx.shape[0]),
        ):
            if arr.shape != (expect,):
                raise ValueError(f"{name} must have shape ({expect},)")
            if arr.min() < 0 or arr.max() >= self.way:
                raise ValueError(f"{name} entries must lie in [0, {self.way - 1}]")
        for name, arr, expect in (("support_idx", si, sx.shape[0]), ("query_idx", qi, qx.shape[0])):
            if arr.shape != (expect,):
                raise ValueError(f"{name} must have shape ({expect},)")
        if np.intersect1d(si, qi).size:
            raise ValueError("support and query must use disjoint sample indices")
        cm = np.asarray(self.class_map, dtype=np.int64)
        if cm.shape != (self.way,) or np.unique(cm).size != self.way:
            raise ValueError("class_map must name one distinct dataset class per episode label")
        for name, arr in (
            ("support_x", sx), ("query_x", qx), ("support_y", sy),
            ("query_y", qy), ("support_idx", si), ("query_idx", qi), ("class_map", cm),
        ):
            object.__setattr__(self, name, arr)

    @classmethod
    def _sampled(
        cls, features: np.ndarray, way: int, shot: int, query: int,
        class_map: np.ndarray, support_idx: np.ndarray, query_idx: np.ndarray,
    ) -> "Episode":
        """The episode of rows ``support_idx``/``query_idx`` of a dataset's
        ``features``, labelled by class in order (``shot`` then ``query`` rows
        per class), built without the checks of ``Episode(...)``.

        For the samplers only: they draw ``way`` distinct classes and disjoint
        rows, so the shapes, labels, class map and disjointness hold by
        construction. The features are not checked for finiteness here;
        every consumer reads them through ``as_rows`` (``support_inputs``,
        ``pretrain_logits``), which rejects a non-finite entry.
        """
        ep = object.__new__(cls)
        ep.__dict__.update(
            way=way,
            shot=shot,
            query_per_class=query,
            support_x=features[support_idx],
            support_y=np.repeat(np.arange(way), shot),
            query_x=features[query_idx],
            query_y=np.repeat(np.arange(way), query),
            class_map=class_map,
            support_idx=support_idx,
            query_idx=query_idx,
        )
        return ep

    @property
    def dim(self) -> int:
        return self.support_x.shape[1]


@dataclass(frozen=True, slots=True)
class EpisodeResult:
    """Per-query outcomes of one evaluated episode.

    Results of one run are row views of arrays shared per chunk of episodes;
    the arms of a run share each episode's ``true`` and ``hardness`` rows,
    and when every episode's queries carry the same labels, as the
    samplers' do, the run's results share one read-only ``true`` row.
    """

    predicted: np.ndarray
    true: np.ndarray
    hardness: np.ndarray
    correct: np.ndarray

    @property
    def accuracy(self) -> float:
        return float(self.correct.mean())


def _check_shape(n_classes: int | None, way: int, shot: int, query: int) -> None:
    """Refuse an episode shape that a dataset of ``n_classes`` classes cannot
    give; with ``n_classes`` None, before any dataset is read, check only the
    shape itself."""
    if way < 2:
        raise ValueError(f"episodes need at least 2 classes, got way={way}")
    if shot < 1 or query < 1:
        raise ValueError("shot and query counts must be >= 1")
    if n_classes is not None and n_classes < way:
        raise ValueError(f"dataset has {n_classes} classes but the episode needs {way}")


def _check_count(count: int, what: str = "episode") -> None:
    """Refuse a run of fewer than one episode (or task)."""
    if count < 1:
        raise ValueError(f"{what} count must be >= 1, got {count}")


def sample_episode(ds: FeatureDataset, way: int, shot: int, query: int, rng: np.random.Generator) -> Episode:
    """Draw a K-way episode: classes without replacement, then disjoint support/query rows.

    Episode labels follow ascending dataset class id.
    """
    _check_shape(ds.n_classes, way, shot, query)
    chosen = np.sort(rng.choice(ds.n_classes, size=way, replace=False))
    need = shot + query
    support_rows, query_rows = [], []
    for cls in chosen:
        pool = ds.class_indices(int(cls))
        if pool.size < need:
            raise ValueError(
                f"class {int(cls)} has {pool.size} samples, episode needs {need}"
            )
        picked = pool[rng.choice(pool.size, size=need, replace=False)]
        support_rows.append(picked[:shot])
        query_rows.append(picked[shot:])
    return Episode._sampled(
        ds.features, way, shot, query, chosen,
        np.concatenate(support_rows), np.concatenate(query_rows),
    )


# Episodes drawn, stacked, fitted and scored together. Results do not depend
# on it; it bounds the memory a run holds at once, whatever its count.
_CHUNK = 8


class _Chunk(NamedTuple):
    """Episodes ``indices`` of one shape, their (E, B, dim) rows and (E, B) labels stacked."""

    indices: range
    way: int
    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray


def _chunks(draw: Callable[[int], Episode], count: int) -> Iterator[_Chunk]:
    """Episodes ``draw(0)`` to ``draw(count - 1)``, drawn in order and stacked
    in chunks of ``_CHUNK``, one chunk each time the caller asks. This is the
    one episode loop: every run of episodes or meta-learning tasks uses it."""
    for start in range(0, count, _CHUNK):
        indices = range(start, min(start + _CHUNK, count))
        eps = [draw(i) for i in indices]
        yield _Chunk(
            indices, eps[0].way,
            np.stack([ep.support_x for ep in eps]), np.stack([ep.support_y for ep in eps]),
            np.stack([ep.query_x for ep in eps]), np.stack([ep.query_y for ep in eps]),
        )


def _hardness(chunk: _Chunk, kb: KnowledgeBase) -> np.ndarray:
    """(E, Q) hardness of a chunk's queries in one pass: the pre-trained
    logits of every episode's ``[support; query]`` rows, the per-class
    support profiles and the cosine softmax of :func:`query_hardness`. Each
    episode gets the bits it gets on its own.
    """
    logits = pretrain_logits(kb, np.concatenate([chunk.support_x, chunk.query_x], axis=-2))
    S = chunk.support_y.shape[-1]
    profiles = _class_means(logits[:, :S], chunk.support_y, chunk.way)
    return query_hardness(logits[:, S:], profiles, chunk.query_y)


def episode_hardness(ep: Episode, kb: KnowledgeBase) -> np.ndarray:
    """Hardness of every query: disagreement between its pre-trained response
    and the averaged pre-trained responses of its class's support samples.
    It stays only because ``perfbench/workloads.py`` imports it (ROADMAP items 3-4)."""
    (chunk,) = _chunks(lambda _: ep, 1)
    return _hardness(chunk, kb)[0]


def _fit_and_score(
    predictor: Predictor, fit_cfg: FitConfig, chunk: _Chunk, seeds: Sequence[int], inits=(None,)
) -> list[np.ndarray]:
    """(E, Q) predicted query labels of a chunk, one array per start in
    ``inits``: centroid heads from the support, or parametric heads fitted
    as one stack (from the start, an (n, K, P') head stack, or fresh heads
    for None). The chunk's support and query rows get their stratum inputs
    once, for every start. Queries are scored one episode at a time: a
    whole chunk held about 1 MB more at peak to save 2% of the time."""
    kind = predictor.head_kind
    support = predictor.support_inputs(chunk.support_x)
    queries = predictor.support_inputs(chunk.query_x)
    predicted = []
    for init in inits:
        if kind == "centroid":
            theta = init_stack(kind, predictor.way, support, chunk.support_y)
        else:
            theta = fit_stack(support, chunk.support_y, predictor, fit_cfg, seeds, init)
        predicted.append(np.stack([
            stack_probs(kind, theta[e : e + 1], queries[e : e + 1])[0] for e in range(len(queries))
        ]).argmax(axis=-1))
    return predicted


def _evaluate(
    chunk: _Chunk, arms, kb: KnowledgeBase, seeds: Sequence[int], row: np.ndarray | None = None
) -> tuple[list[list[EpisodeResult]], np.ndarray | None]:
    """Fit (if parametric) and evaluate every ``(classifier, adj_cfg, fit_cfg)``
    arm on one chunk of :func:`_chunks`; episode e fits with seed ``seeds[e]``.

    The queries' hardness is scored for all arms in one pass, then each arm
    fits and scores the chunk with :func:`_fit_and_score`. When every
    episode's queries carry the same labels, as the samplers' do, all their
    results share one read-only ``true`` row: ``row``, an earlier chunk's,
    if it holds those labels. Returns one result list per arm, in episode
    order, and the row to pass with the run's next chunk.
    """
    dim = chunk.support_x.shape[-1]
    if kb.dim != dim:
        raise ValueError(f"knowledge base dimension {kb.dim} does not match episode ({dim})")
    true = chunk.query_y
    hardness = _hardness(chunk, kb)
    labels = true
    if (true == true[0]).all():  # samplers label every episode's queries alike
        if row is None or not np.array_equal(row, true[0]):
            row = true[0].copy()
            row.flags.writeable = False
        labels = [row] * len(true)
    shared = list(zip(labels, hardness))  # one pair of rows for every arm
    per_arm = []
    for classifier, adj_cfg, fit_cfg in arms:
        predictor = Predictor(adj_cfg, kb, dim, chunk.way, classifier)
        (predicted,) = _fit_and_score(predictor, fit_cfg, chunk, seeds)
        per_arm.append([
            EpisodeResult(p, t, h, c) for p, (t, h), c in zip(predicted, shared, predicted == true)
        ])
    return per_arm, row


def run_episode(
    ep: Episode,
    classifier: str,
    adj_cfg: AdjustmentConfig,
    fit_cfg: FitConfig,
    kb: KnowledgeBase,
) -> EpisodeResult:
    """Fit (if parametric) and evaluate one episode; deterministic given configs.
    It stays only because ``perfbench/workloads.py`` imports it (ROADMAP items 3-4)."""
    (chunk,) = _chunks(lambda _: ep, 1)
    ((result,),), _ = _evaluate(chunk, [(classifier, adj_cfg, fit_cfg)], kb, [fit_cfg.seed])
    return result


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """Stream for episode ``index``: independent of every other index, so an
    episode does not depend on how many episodes or arms a run evaluates."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def derived_fit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index, 1)).generate_state(1, np.uint64)[0])


def run_arms(
    sample: Callable[[np.random.Generator], tuple[Episode, Any]],
    arms: Sequence[tuple[str, AdjustmentConfig, FitConfig]],
    kb: KnowledgeBase,
    count: int,
    seed: int,
) -> tuple[list[list[EpisodeResult]], list]:
    """Evaluate every ``(classifier, adj_cfg, fit_cfg)`` arm on the same episodes.

    ``sample(rng)`` returns an episode and any extra output of its sampler;
    its episodes must share one shape. Episode ``i`` is drawn once from
    ``episode_rng(seed, i)`` and scored for hardness once; every arm fits its
    heads on it with seed ``derived_fit_seed(seed, i)``, whatever seed its
    config names. Episodes come in the chunks of :func:`_chunks`, which owns
    the chunking of every episode loop, and each arm fits a chunk as one
    stack; an episode's results are the same in any chunk. Returns one
    result list per arm and the sampler's extra outputs, in episode order.
    """
    _check_count(count)
    per_arm: list[list[EpisodeResult]] = [[] for _ in arms]
    extras = []

    def draw(i: int) -> Episode:
        ep, extra = sample(episode_rng(seed, i))
        extras.append(extra)
        return ep

    row = None
    for chunk in _chunks(draw, count):
        seeds = [derived_fit_seed(seed, i) for i in chunk.indices]
        chunk_results, row = _evaluate(chunk, arms, kb, seeds, row)
        for results, more in zip(per_arm, chunk_results):
            results.extend(more)
    return per_arm, extras
