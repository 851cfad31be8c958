"""Synthetic confounded feature generators and a linear-SCM instrument demo.

The classification generator plants one unit direction per class and per
confounder stratum: a sample of class y in stratum d is mu_y + beta * v_d
plus isotropic noise. Pre-training classes mix strata through Dirichlet(0.5)
weights so the pre-trained classifier partially entangles class and stratum;
novel classes carry explicit per-sample stratum tags so episodes can tie each
support class to a single stratum while queries escape with some probability.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .adjust import AdjustmentConfig
from .episodes import Episode, EpisodeResult, _check_shape, episode_rng, run_arms
from .heads import FitConfig, _label_index, _Workspace, stack_sgd_step
from .knowledge import FeatureDataset, KnowledgeBase

_KB_FIT = FitConfig(iterations=500, batch_size=None, learning_rate=0.1, weight_decay=1e-4, seed=0)


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 64
    pretrain_classes: int = 16
    novel_classes: int = 16
    strata: int = 4
    beta: float = 2.0
    sigma: float = 0.5
    samples_per_class: int = 500
    mismatch_rate: float = 0.5
    seed: int = 42

    def __post_init__(self):
        if self.dim < 1 or self.pretrain_classes < 1 or self.novel_classes < 2:
            raise ValueError("dim and class counts must be positive (>= 2 novel classes)")
        if self.strata < 2:
            raise ValueError(f"need at least 2 confounder strata, got {self.strata}")
        if self.samples_per_class < self.strata:
            raise ValueError("need at least one sample per stratum per class")
        if not 0.0 <= self.mismatch_rate <= 1.0:
            raise ValueError(f"mismatch rate must lie in [0, 1], got {self.mismatch_rate}")
        if not (0.0 <= self.beta < np.inf and 0.0 <= self.sigma < np.inf):  # NaN fails too
            raise ValueError("beta and sigma must be finite and >= 0")


@dataclass(frozen=True)
class SynthOutput:
    """Generated pretrain and tagged novel data, with the generator's directions.

    The knowledge base is fitted on ``pretrain`` the first time ``kb`` is
    read and kept from then on, so a caller that fits its own (on other
    features) never pays for this one.
    """

    pretrain: FeatureDataset
    novel: FeatureDataset
    novel_strata: np.ndarray  # (novel samples,) stratum tags
    class_dirs: np.ndarray  # (pretrain+novel classes, dim) unit rows
    conf_dirs: np.ndarray  # (strata, dim) unit rows
    mixtures: np.ndarray  # (pretrain classes, strata)

    @cached_property
    def kb(self) -> KnowledgeBase:
        """``fit_kb(self.pretrain)``, fitted on first read."""
        return fit_kb(self.pretrain)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((count, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def gen_confounded(cfg: SynthConfig) -> SynthOutput:
    """Generate pretrain data and tagged novel data.

    The knowledge base is not fitted here: ``SynthOutput.kb`` fits it on the
    pretrain data when it is first read. Deterministic for a fixed config
    seed: equal seeds give byte-identical datasets (and knowledge bases) after
    serialization.
    """
    rng = np.random.default_rng(cfg.seed)
    total_classes = cfg.pretrain_classes + cfg.novel_classes
    class_dirs = _unit_rows(rng, total_classes, cfg.dim)
    conf_dirs = _unit_rows(rng, cfg.strata, cfg.dim)
    mixtures = rng.dirichlet(np.full(cfg.strata, 0.5), size=cfg.pretrain_classes)

    per = cfg.samples_per_class
    pre_feats = np.empty((cfg.pretrain_classes * per, cfg.dim))
    pre_labels = np.repeat(np.arange(cfg.pretrain_classes), per)
    for j in range(cfg.pretrain_classes):
        strata = rng.choice(cfg.strata, size=per, p=mixtures[j])
        noise = rng.standard_normal((per, cfg.dim))
        pre_feats[j * per : (j + 1) * per] = (
            class_dirs[j] + cfg.beta * conf_dirs[strata] + cfg.sigma * noise
        )
    pretrain = FeatureDataset(pre_feats, pre_labels, cfg.pretrain_classes)

    # novel classes: deterministic round-robin tags keep every (class, stratum)
    # cell equally filled for confounded episode sampling. One noise draw, then
    # each stratum's directions added in place: no second novel-sized array, and
    # (sums and products commute) the bits of drawing and summing class by class
    tags = np.arange(per) % cfg.strata
    nov_feats = rng.standard_normal((cfg.novel_classes, per, cfg.dim))
    nov_feats *= cfg.sigma
    novel_dirs = class_dirs[cfg.pretrain_classes :, None]
    for s in range(cfg.strata):
        nov_feats[:, s :: cfg.strata] += novel_dirs + cfg.beta * conf_dirs[s]
    nov_labels = np.repeat(np.arange(cfg.novel_classes), per)
    novel = FeatureDataset(nov_feats.reshape(-1, cfg.dim), nov_labels, cfg.novel_classes)
    novel_strata = np.tile(tags, cfg.novel_classes)

    return SynthOutput(pretrain, novel, novel_strata, class_dirs, conf_dirs, mixtures)


def fit_kb(pretrain: FeatureDataset) -> KnowledgeBase:
    """Knowledge base from pretrain data: empirical class means plus a linear
    classifier fitted full-batch (500 steps, lr 0.1, weight decay 1e-4).

    This is ``fit_stack``'s full-batch fit of one linear head from zero on
    the N pretrain rows, with each step's gradient computed in two fixed row
    blocks at once: the first ceil(N/2) rows on the calling thread, the rest
    on one worker thread that lives for this call, whatever the CPU count.
    A 1-row set has one block and no worker. Each block has its own
    ``_Workspace(..., ones=False)``, which reads the block's rows in place (a
    ones column would copy the set) and leaves its block's gradient alone,
    with no weight decay and no step. The step then sums the
    block gradients in block order, each weighted by its share of the rows,
    adds the weight decay once on the weight columns and steps theta. The
    split depends only on N, so the knowledge base depends only on the data:
    the same bits whatever the core count, the BLAS thread count or which
    block finishes first. With exact halves a block's scale 1/(N/2) times its
    share 1/2 is exactly 1/N, so a step differs from a one-block step only in
    summing dW and db over the rows as two partial sums.
    """
    # imported here: concurrent.futures loads logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    means = np.stack([pretrain.vectors_of(c).mean(axis=0) for c in range(pretrain.n_classes)])
    K, dim = means.shape
    N, X, y = pretrain.n_samples, pretrain.features, pretrain.labels
    theta = np.zeros((1, 1, K, dim + 1))
    half = N - N // 2
    blocks = [
        (_Workspace("linear", theta, hi - lo, 0.0, ones=False), X[None, None, lo:hi],
         _label_index(y[None, lo:hi], 1, K), (hi - lo) / N)
        for lo, hi in ((0, half), (half, N)) if hi > lo
    ]
    (own, V, at_label, share), rest = blocks[0], blocks[1:]
    dtheta, decay = np.empty(theta.shape), np.empty((1, 1, K, dim))
    W, dW = theta[..., :-1], dtheta[..., :-1]
    weight_decay, learning_rate = _KB_FIT.weight_decay, _KB_FIT.learning_rate

    with ThreadPoolExecutor(max_workers=1) as worker:
        for _ in range(_KB_FIT.iterations):
            pending = [worker.submit(ws.grads, *batch) for ws, *batch, _ in rest]
            own.grads(V, at_label)
            np.multiply(own.dtheta, share, dtheta)
            for (ws, _, _, ws_share), done in zip(rest, pending):
                done.result()
                np.add(dtheta, np.multiply(ws.dtheta, ws_share, ws.dtheta), dtheta)
            np.add(dW, np.multiply(W, weight_decay, decay), dW)
            stack_sgd_step(theta, dtheta, learning_rate)
    return KnowledgeBase(means, theta[0, 0, :, :-1], theta[0, 0, :, -1])


def _choose(rng: np.random.Generator, sizes, counts) -> np.ndarray:
    """The values of ``[rng.choice(s, k, replace=False) for s, k in zip(sizes,
    counts)]``, concatenated, with ``rng`` left in the same state, taken from
    one ``rng.integers`` call. Each k lies in [0, s].

    Without replacement, ``Generator.choice(s, k)`` draws bounded integers
    with the primitive that ``integers`` uses for array bounds (a bound of 0
    draws nothing), in one of two orders:
    - Floyd's algorithm, the usual one: a draw in ``[0, j]`` for ``j = s-k``
      to ``s-1``, which becomes ``j`` when it repeats an earlier value, then
      a Fisher-Yates shuffle of the k values, drawing in ``[0, i]`` for
      ``i = k-1`` down to 1;
    - a shuffle of the tail of a virtual ``arange(s)`` when ``s > 10000``
      and ``k > s // 50``: a draw in ``[0, i]`` for ``i = s-1`` down to
      ``max(s-k, 1)``, keeping the last k entries.
    One ``integers`` call over every cell's bounds, in order, thus gives
    every draw, and a pass over the draws replays the collisions and swaps.
    This follows numpy 2.4's ``Generator.choice``;
    ``test_choose_equals_choice_calls`` pins it against the installed numpy.
    """
    cells, bounds = [], []
    for s, k in zip(sizes, counts):
        tail = s > 10000 and k > s // 50
        if tail:
            bounds += range(s - 1, max(s - k, 1) - 1, -1)
        else:
            bounds += range(s - k, s)
            bounds += range(k - 1, 0, -1)
        cells.append((s, k, tail, len(bounds)))
    draws = rng.integers(0, np.array(bounds, dtype=np.int64), endpoint=True).tolist()
    out, at = [], 0
    for s, k, tail, end in cells:
        if tail:  # the moved entries of arange(s), by position
            moved = {}
            for i, j in zip(range(s - 1, 0, -1), draws[at:end]):
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            out += [moved.get(i, i) for i in range(s - k, s)]
        else:
            values = draws[at : at + k]
            if len(set(values)) < k:  # a repeated draw becomes its step's bound
                seen = set()
                for t, v in enumerate(values):
                    if v in seen:
                        v = values[t] = s - k + t
                    seen.add(v)
            i = k - 1
            for j in draws[at + k : end]:
                values[i], values[j] = values[j], values[i]
                i -= 1
            out += values
        at = end
    return np.array(out, dtype=np.int64)


class _ConfoundedSampler:
    """``sample_confounded_episode`` for fixed arguments, as a callable of the rng.

    The arguments are checked and the cell index is built once: the rows of
    every (class, stratum) cell, ascending, as one slice of ``rows``, cell
    ``c * n_strata + s`` running from ``starts[c * n_strata + s]`` to the
    next start. A run of episodes (``run_confounded``, ``ifsl synth``)
    builds one sampler, so it pays for the index once. An episode's rows
    are those of one ``rng.choice`` without replacement per cell it needs,
    in (class, stratum) order, all taken from one ``rng.integers`` call
    (:func:`_choose`).

    What every draw would otherwise rebuild is also computed here, once: the
    class slots ``arange(way) % n_strata`` into a permutation of the strata,
    each query's class and the first cell of that class, the first cell of
    every class (to which its assigned stratum is added) and the shot
    offsets of the support rows. Each draw makes the same rng calls, in the
    same order, as a fresh sampler's.
    """

    def __init__(
        self, novel: FeatureDataset, strata_tags: np.ndarray, way: int, shot: int, query: int,
        mismatch_rate: float,
    ):
        tags = np.asarray(strata_tags)
        if tags.shape != (novel.n_samples,):
            raise ValueError("stratum tags must align with the dataset samples")
        if tags.dtype.kind not in "biu":
            # a cast would truncate 0.7 to 0 and turn NaN into the most negative integer
            bad = np.flatnonzero(~(np.isfinite(tags) & (tags == np.trunc(tags))))
            if bad.size:
                i = bad[0]
                raise ValueError(f"stratum tags must be integers, found {tags[i]} at index {i}")
        tags = tags.astype(np.int64)
        if tags.min() < 0:
            raise ValueError(f"stratum tags must be >= 0, found {int(tags.min())}")
        n_strata = int(tags.max()) + 1
        if n_strata < 2:
            raise ValueError("need at least 2 strata to mismatch queries")
        if not 0.0 <= mismatch_rate <= 1.0:
            raise ValueError(f"mismatch rate must lie in [0, 1], got {mismatch_rate}")
        _check_shape(novel.n_classes, way, shot, query)
        self.novel, self.n_strata = novel, n_strata
        self.way, self.shot, self.query, self.mismatch_rate = way, shot, query, mismatch_rate
        cells = novel.n_classes * n_strata
        key = novel.labels * n_strata + tags
        # a stable sort keeps each cell's rows ascending; a key of at most
        # 16 bits sorts by radix
        self.rows = np.argsort(key.astype(np.min_scalar_type(cells - 1)), kind="stable")
        self.starts = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=cells))])
        # what every draw would otherwise rebuild
        self._slots = np.arange(way) % n_strata  # class i takes the i-th stratum of a permutation
        self._query_class = np.repeat(np.arange(way), query)  # each query's class slot
        self._query_base = self._query_class * n_strata  # its class's first cell
        self._own_base = np.arange(way) * n_strata
        self._shot_row = np.arange(shot)

    def _plan(self, rng: np.random.Generator):
        """What :meth:`__call__` draws from ``rng`` before any row: the
        classes, the mismatch mask and the rows each (class, stratum) cell
        gives. An episode that needs more rows of a cell than it holds is
        refused."""
        way, shot, n_strata = self.way, self.shot, self.n_strata
        chosen = np.sort(_choose(rng, [self.novel.n_classes], [way]))
        # spread assigned strata over a fresh permutation so collisions only occur
        # when the episode has more classes than strata
        assigned = rng.permutation(n_strata)[self._slots]

        mismatch = rng.random(self._query_class.size) < self.mismatch_rate
        query_strata = assigned[self._query_class]
        # a mismatched query draws one of the n_strata - 1 other strata: j skips its own
        j = rng.integers(0, n_strata - 1, size=np.count_nonzero(mismatch))
        query_strata[mismatch] = j + (j >= query_strata[mismatch])

        # rows each (class, stratum) cell gives: the class's support rows and its queries
        cells = self._query_base + query_strata
        needed = np.bincount(cells, minlength=way * n_strata)
        own = self._own_base + assigned
        needed[own] += shot
        # one draw per nonempty cell in (class, stratum) order, read off the index
        live = np.flatnonzero(needed)
        at = chosen[live // n_strata] * n_strata + live % n_strata  # the dataset's cells
        first = self.starts[at]
        sizes, need = self.starts[at + 1] - first, needed[live]
        if (sizes < need).any():
            c = np.flatnonzero(sizes < need)[0]
            raise ValueError(
                f"class {at[c] // n_strata} stratum {at[c] % n_strata} holds {sizes[c]} "
                f"samples, episode needs {need[c]}"
            )
        return chosen, mismatch, cells, needed, own, first, sizes, need

    def check_cells(self, seed: int, count: int) -> None:
        """Refuse, drawing no row, the episodes ``run_arms(self, ..., count,
        seed)`` would refuse. Plans none when the smallest cell holds the
        most one episode can need of a cell: ``shot + query``, or
        ``max(shot, query)`` when every query is mismatched."""
        most = max(self.shot, self.query) if self.mismatch_rate == 1.0 else self.shot + self.query
        if np.diff(self.starts).min() < most:
            for i in range(count):
                self._plan(episode_rng(seed, i))

    def __call__(self, rng: np.random.Generator) -> tuple[Episode, np.ndarray]:
        way, shot, query = self.way, self.shot, self.query
        chosen, mismatch, cells, needed, own, first, sizes, need = self._plan(rng)
        picks = _choose(rng, sizes.tolist(), need.tolist())
        drawn = self.rows[first.repeat(need) + picks]
        # a class's support rows lead its own cell's draw; the queries take the
        # rest of every cell in turn
        support_pos = ((np.cumsum(needed) - needed)[own][:, None] + self._shot_row).ravel()
        si = drawn[support_pos]
        is_query = np.ones(drawn.size, dtype=bool)
        is_query[support_pos] = False
        qi = np.empty(way * query, dtype=np.int64)
        qi[np.argsort(cells, kind="stable")] = drawn[is_query]

        return Episode._sampled(self.novel.features, way, shot, query, chosen, si, qi), mismatch


def sample_confounded_episode(
    novel: FeatureDataset,
    strata_tags: np.ndarray,
    way: int,
    shot: int,
    query: int,
    mismatch_rate: float,
    rng: np.random.Generator,
) -> tuple[Episode, np.ndarray]:
    """Episode whose support classes are each tied to one stratum.

    Every support sample of a class comes from that class's assigned stratum;
    each query keeps the class stratum with probability 1 - mismatch_rate and
    otherwise lands in a uniformly chosen different stratum. Stratum tags
    are non-negative; strata run 0..max(tag). The rows of each (class,
    stratum) cell the episode needs equal those of one ``rng.choice``
    without replacement, in (class, stratum) order, and all come from one
    ``rng.integers`` call (:func:`_choose`). Returns the episode plus a
    boolean mask marking mismatched queries. It stays only because
    ``perfbench/workloads.py`` imports it (ROADMAP items 3-4).
    """
    return _ConfoundedSampler(novel, strata_tags, way, shot, query, mismatch_rate)(rng)


def run_confounded(
    novel: FeatureDataset,
    strata_tags: np.ndarray,
    kb: KnowledgeBase,
    way: int,
    shot: int,
    query: int,
    count: int,
    mismatch_rate: float,
    classifier: str,
    adj_cfg: AdjustmentConfig,
    fit_cfg: FitConfig,
    seed: int,
    threads: int = 1,
) -> tuple[list[EpisodeResult], list[np.ndarray]]:
    """Evaluate ``count`` confounded episodes under per-index seed streams.

    Also returns each episode's mismatch mask. ``threads`` is ignored:
    episodes run serially, and the only thread the package starts is
    ``fit_kb``'s worker. It stays only because the benchmark
    (``perfbench/workloads.py``) passes it; ROADMAP item 3, which rewrites
    that caller, removes it.
    """
    sample = _ConfoundedSampler(novel, strata_tags, way, shot, query, mismatch_rate)
    (results,), masks = run_arms(sample, [(classifier, adj_cfg, fit_cfg)], kb, count, seed)
    return results, masks


# --- linear-SCM instrument demo ----------------------------------------------


@dataclass(frozen=True)
class LinearScmConfig:
    """X = a*I + b*D + e1, Y = c*X + e*D + e2 with I, D standard normal and
    e1, e2 zero-mean gaussians scaled by the noise fields."""

    instrument_coef: float = 1.0  # a
    confounder_to_x: float = 2.0  # b
    causal_effect: float = 3.0  # c
    confounder_to_y: float = 5.0  # e
    noise_x: float = 1.0
    noise_y: float = 1.0
    samples: int = 100_000

    def __post_init__(self):
        if self.samples < 3:
            raise ValueError("need at least 3 samples")
        if not np.isfinite(astuple(self)).all():
            raise ValueError("coefficients and noise scales must be finite")
        if self.noise_x < 0.0 or self.noise_y < 0.0:
            raise ValueError("noise scales must be >= 0")


@dataclass(frozen=True)
class IvResult:
    ols_slope: float
    iv_estimate: float
    true_effect: float


def _cov(a: np.ndarray, b: np.ndarray) -> float:
    return float(((a - a.mean()) * (b - b.mean())).mean())


def iv_demo(cfg: LinearScmConfig, rng: np.random.Generator) -> IvResult:
    """Simulate the SCM and contrast the confounded OLS slope with the
    instrument ratio Cov(I,Y)/Cov(I,X), which recovers the causal effect."""
    instrument = rng.standard_normal(cfg.samples)
    confounder = rng.standard_normal(cfg.samples)
    x = (
        cfg.instrument_coef * instrument
        + cfg.confounder_to_x * confounder
        + cfg.noise_x * rng.standard_normal(cfg.samples)
    )
    y = (
        cfg.causal_effect * x
        + cfg.confounder_to_y * confounder
        + cfg.noise_y * rng.standard_normal(cfg.samples)
    )
    cov_ix = _cov(instrument, x)
    if abs(cov_ix) < 1e-9:
        raise ValueError("degenerate instrument: Cov(I, X) is numerically zero")
    return IvResult(
        ols_slope=_cov(x, y) / _cov(x, x),
        iv_estimate=_cov(instrument, y) / cov_ix,
        true_effect=cfg.causal_effect,
    )
