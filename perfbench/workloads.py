"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` and then runs whole rounds of
the same operations. ``run_round`` calls the package exactly as a user
would and is what the end-to-end figures time. ``trace_round`` runs the
same round untraced and then once more through a replica that makes the
same public calls in the same order with a span around each, and records
any output of the replica that differs from the untraced one.
``problems`` recomputes or checks every output after the timed part.

Every per-layer time is self seconds per operation of the workload (or of
the arm named by its suffix), so the stage times of an arm add up to the
seconds per evaluation of that arm. Set-up figures are seconds per set-up.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracles
import reference
from spans import Tracer

from ifsl import (
    AdjustmentConfig,
    Dag,
    EpisodeResult,
    FeatureDataset,
    FitConfig,
    Predictor,
    SynthConfig,
    accuracy_report,
    adapt,
    d_separated,
    episode_hardness,
    episode_rng,
    fit_head,
    fit_kb,
    gen_confounded,
    hardness_report,
    load_features,
    load_kb,
    meta_train,
    run_confounded,
    run_episode,
    sample_confounded_episode,
    sample_episode,
    save_features,
    save_kb,
    zero_meta_init,
)
from ifsl.episodes import derived_fit_seed
from ifsl.heads import init_heads, mixture_loss_and_grads, sgd_step
from ifsl.knowledge import PartitionConfig
from ifsl.meta import replace_theta

WAY, SHOT, QUERY = 5, 1, 15
PARTITION = PartitionConfig(n=8, t=1e-3)
BINS = 10
REFERENCE_EVERY = 0.05  # seconds of package work between two reference calls
ZERO_NORM_MESSAGE = "cosine head has a zero-norm weight row"


def stream(seed: int, *parts: int) -> int:
    """A 64-bit seed for one round's episodes, independent across parts."""
    return int(np.random.SeedSequence((seed, *parts)).generate_state(1, np.uint64)[0])


class NullTracer:
    """Stands in for a Tracer where a step runs untraced."""

    def span(self, name, tag=""):
        return nullcontext()


NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class Arm:
    name: str
    strategy: str
    kind: str
    learning_rate: float

    def adj(self) -> AdjustmentConfig:
        return AdjustmentConfig(self.strategy, partition=PARTITION)

    def fit(self) -> FitConfig:
        return FitConfig(learning_rate=self.learning_rate)


class Piece:
    """Times one piece of a round's work, then runs the reference when it is due."""

    __slots__ = ("stats", "t0")

    def __init__(self, stats: "Stats"):
        self.stats = stats

    def __enter__(self):
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        stats = self.stats
        stats.work_s += end - self.t0
        if end - stats.last_reference >= stats.reference_every:
            stats.reference_s.append(reference.call(stats.reference_kind))
            stats.last_reference = perf_counter()


@dataclass
class Stats:
    """What a run did: operations, results per arm, untraced and traced times.

    ``work_s`` sums the pieces of package work a round timed, and
    ``reference_s`` holds the calls of the workload's kind of reference
    made between them, one each ``reference_every`` seconds (never, in a
    traced run).
    """

    attempted: int = 0
    failed: int = 0
    completed: int = 0
    rounds: list = field(default_factory=list)
    serial_s: dict = field(default_factory=dict)  # tag -> untraced serial seconds per round
    threaded_s: dict = field(default_factory=dict)  # arm -> untraced pooled seconds
    denominators: dict = field(default_factory=dict)  # span tag -> operations
    counts: dict = field(default_factory=dict)  # (count name, span tag) -> total
    mismatches: list = field(default_factory=list)  # traced outputs that differ
    agreed: int = 0  # outputs that equal their oracle, where one is counted
    work_s: float = 0.0
    reference_s: list = field(default_factory=list)
    last_reference: float = 0.0
    reference_every: float = REFERENCE_EVERY
    reference_kind: str = "numpy"

    def add(self, mapping: dict, key, value) -> None:
        mapping[key] = mapping.get(key, 0) + value

    def serial(self, tag: str, seconds: float) -> None:
        self.serial_s.setdefault(tag, []).append(seconds)

    def piece(self) -> Piece:
        return Piece(self)


def _report(results) -> None:
    """The aggregation a user reads: mean accuracy with CI and hardness bins."""
    accuracy_report(results)
    hardness_report(results, BINS)


def _same_predictions(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.predicted, y.predicted) and np.array_equal(x.hardness, y.hardness)
        for x, y in zip(a, b)
    )


def traced_episode(ep, arm: Arm, fit_cfg: FitConfig, kb, tracer: Tracer, stats: Stats) -> EpisodeResult:
    """``run_episode`` with a span around each call it makes."""
    if kb.dim != ep.dim:
        raise ValueError(f"knowledge base dimension {kb.dim} does not match episode ({ep.dim})")
    predictor = Predictor(arm.adj(), kb, ep.dim, ep.way, arm.kind)
    if arm.kind == "centroid":
        with tracer.span("heads.init", arm.name):
            heads = init_heads(
                "centroid", ep.way, predictor.support_inputs(ep.support_x), ep.support_y
            )
    else:
        steps = [0]

        def tick(_it, _loss):
            steps[0] += 1

        with tracer.span("heads.fit", arm.name):
            heads = fit_head(ep.support_x, ep.support_y, predictor, fit_cfg, loss_callback=tick)
        stats.add(stats.counts, ("heads.sgd_steps", arm.name), steps[0])
        stats.add(stats.counts, ("heads.heads_fitted", arm.name), len(heads))
    with tracer.span("adjust.predict", arm.name):
        probs = predictor.probs_batch(heads, ep.query_x)
    predicted = probs.argmax(axis=1)
    with tracer.span("episodes.hardness", arm.name):
        hardness = episode_hardness(ep, kb)
    return EpisodeResult(
        predicted=predicted,
        true=ep.query_y.copy(),
        hardness=hardness,
        correct=predicted == ep.query_y,
    )


def probe_layers(ep, arm: Arm, kb, tracer: Tracer) -> None:
    """Layer costs hidden inside ``fit_head``, from extra calls kept out of the stage sum.

    ``adjust.inputs`` builds the stratum inputs of support and query rows;
    ``heads.init`` makes fresh heads from the support rows of those inputs.
    A centroid arm times its initialisation in place instead.
    """
    predictor = Predictor(arm.adj(), kb, ep.dim, ep.way, arm.kind)
    with tracer.span("probe", arm.name):
        with tracer.span("adjust.inputs", arm.name):
            blocks = predictor.support_inputs(np.vstack([ep.support_x, ep.query_x]))
        if arm.kind != "centroid":
            support = [b[: ep.support_x.shape[0]] for b in blocks]
            with tracer.span("heads.init", arm.name):
                init_heads(arm.kind, ep.way, support, ep.support_y, predictor.context_coupling)


def hardness_problems(label: str, ep, result, kb) -> list[str]:
    expected = oracles.hardness(
        ep.query_x, ep.query_y, ep.support_x, ep.support_y, ep.way, kb.pre_weights, kb.pre_bias
    )
    out = []
    if not np.allclose(result.hardness, expected, rtol=1e-9, atol=1e-9):
        worst = float(np.max(np.abs(result.hardness - expected)))
        out.append(f"{label}: hardness differs from the recomputation by {worst:.3g}")
    if not np.array_equal(result.true, ep.query_y):
        out.append(f"{label}: reported true labels differ from the episode's")
    if result.predicted.min() < 0 or result.predicted.max() >= ep.way:
        out.append(f"{label}: prediction outside 0..{ep.way - 1}")
    return out


def ci_problem(label: str, diffs) -> list[str]:
    gap, half = oracles.mean_ci(diffs)
    if gap > 0.0 and gap - half > 0.0:
        return []
    return [f"{label}: gap {gap:+.3f} ± {half:.3f} points does not exclude 0"]


# --- confounded-1shot --------------------------------------------------------


class Confounded:
    """Criterion 8's traffic: all four strategies on the same full-mismatch episodes."""

    name = "confounded-1shot"
    reference = "numpy"  # the kind of reference.py work this workload resembles
    setup_reps = 2
    batch = 6  # episodes per arm per round
    threads = 2
    arms = (
        Arm("none-linear", "none", "linear", 1e-2),
        Arm("feature-linear", "feature", "linear", 1e-2),
        Arm("class-linear", "class", "linear", 5e-3),
        Arm("combined-linear", "combined", "linear", 5e-3),
    )

    def setup(self, seed: int, tracer) -> dict:
        with tracer.span("synth.gen_confounded"):
            synth = gen_confounded(SynthConfig())
        return {"novel": synth.novel, "tags": synth.novel_strata, "kb": synth.kb}

    def _run(self, state, arm: Arm, rs: int, threads: int):
        results, _ = run_confounded(
            state["novel"], state["tags"], state["kb"], WAY, SHOT, QUERY, self.batch, 1.0,
            arm.kind, arm.adj(), arm.fit(), rs, threads=threads,
        )
        _report(results)
        return results

    def run_round(self, state, seed: int, r: int, stats: Stats) -> None:
        rs = stream(seed, r)
        per_arm = {}
        for arm in self.arms:
            with stats.piece():
                per_arm[arm.name] = self._run(state, arm, rs, self.threads)
        stats.rounds.append((rs, per_arm))
        stats.attempted += len(self.arms) * self.batch
        stats.completed += len(self.arms) * self.batch

    def trace_round(self, state, seed: int, r: int, stats: Stats, tracer: Tracer) -> None:
        rs = stream(seed, r)
        per_arm = {}
        for arm in self.arms:
            t0 = perf_counter()
            pooled = self._run(state, arm, rs, self.threads)
            t1 = perf_counter()
            serial = self._run(state, arm, rs, 1)
            t2 = perf_counter()
            traced, episodes = self._replica(state, arm, rs, tracer, stats)
            for ep in episodes:
                probe_layers(ep, arm, state["kb"], tracer)
            stats.add(stats.threaded_s, arm.name, t1 - t0)
            stats.serial(arm.name, t2 - t1)
            stats.add(stats.denominators, arm.name, self.batch)
            if not (_same_predictions(pooled, serial) and _same_predictions(serial, traced)):
                stats.mismatches.append(f"{self.name} round {r} {arm.name}")
            per_arm[arm.name] = pooled
        stats.rounds.append((rs, per_arm))
        stats.attempted += len(self.arms) * self.batch
        stats.completed += len(self.arms) * self.batch

    def _replica(self, state, arm: Arm, rs: int, tracer: Tracer, stats: Stats):
        """``run_confounded`` serially, with spans."""
        fit = arm.fit()
        results, episodes = [], []
        with tracer.span("arm", arm.name):
            for index in range(self.batch):
                rng = episode_rng(rs, index)
                with tracer.span("synth.sample", arm.name):
                    ep, _ = sample_confounded_episode(
                        state["novel"], state["tags"], WAY, SHOT, QUERY, 1.0, rng
                    )
                cfg = FitConfig(
                    fit.iterations, fit.batch_size, fit.learning_rate, fit.weight_decay,
                    derived_fit_seed(rs, index),
                )
                results.append(traced_episode(ep, arm, cfg, state["kb"], tracer, stats))
                episodes.append(ep)
            with tracer.span("evalmetrics.report", arm.name):
                _report(results)
        return results, episodes

    def problems(self, state, stats: Stats) -> list[str]:
        novel, tags, kb = state["novel"], state["tags"], state["kb"]
        out = []
        for rs, per_arm in stats.rounds:
            for i in range(self.batch):
                ep, _ = sample_confounded_episode(novel, tags, WAY, SHOT, QUERY, 1.0, episode_rng(rs, i))
                label = f"{self.name} episode ({rs}, {i})"
                support_stratum = tags[ep.support_idx]
                class_stratum = np.array([support_stratum[ep.support_y == k][0] for k in range(WAY)])
                if np.any(support_stratum != class_stratum[ep.support_y]):
                    out.append(f"{label}: a class's support rows span several strata")
                if np.any(tags[ep.query_idx] == class_stratum[ep.query_y]):
                    out.append(f"{label}: a query shares its class's support stratum at full mismatch")
                if np.intersect1d(ep.support_idx, ep.query_idx).size:
                    out.append(f"{label}: support and query rows overlap")
                for name, results in per_arm.items():
                    out += hardness_problems(f"{label} {name}", ep, results[i], kb)
        return out + ci_problem(f"{self.name} combined - none", self._gaps(stats))

    @staticmethod
    def _gaps(stats: Stats) -> list[float]:
        """Paired per-episode accuracy gaps, combined minus none, in points."""
        return [
            100.0 * (c.accuracy - n.accuracy)
            for _, p in stats.rounds for c, n in zip(p["combined-linear"], p["none-linear"])
        ]

    def accuracy(self, stats: Stats) -> float:
        return 100.0 * float(np.mean([
            res.accuracy for _, per_arm in stats.rounds for res in per_arm["combined-linear"]
        ]))

    def summary(self, stats: Stats) -> list[str]:
        lines = []
        for arm in self.arms:
            accs = [100.0 * res.accuracy for _, p in stats.rounds for res in p[arm.name]]
            mean, half = oracles.mean_ci(accs)
            lines.append(f"acc {arm.name}: {mean:.2f} ± {half:.2f} % over {len(accs)} episodes")
        gap, half = oracles.mean_ci(self._gaps(stats))
        lines.append(f"gap combined - none: {gap:+.2f} ± {half:.2f} points")
        return lines


# --- sparse-cosine-files -----------------------------------------------------


class SparseCosineFiles:
    """Post-ReLU features read back from files, cosine and centroid heads.

    Each round evaluates ``seeded`` episodes drawn from the run's seed on the
    two combined arms, and the same ``fixed`` episodes (stream 0, whatever
    the seed) on the feature-cosine arm. The feature-cosine arm raises on
    every episode whose one-shot support row has an all-inactive stratum
    block; keeping its episodes fixed makes those failures the same share of
    every run.
    """

    name = "sparse-cosine-files"
    reference = "numpy"
    setup_reps = 2
    seeded = 10
    fixed = range(5, 10)  # episode indices of stream 0; 8 and 9 raise
    fixed_stream = 0
    seeded_arms = (
        Arm("combined-cosine", "combined", "cosine", 1e-2),
        Arm("combined-centroid", "combined", "centroid", 1e-2),
    )
    fixed_arm = Arm("feature-cosine", "feature", "cosine", 1e-2)
    arms = (fixed_arm, *seeded_arms)

    def __init__(self, out_dir: str):
        self.out_dir = out_dir  # the feature and knowledge-base files live here during set-up

    def setup(self, seed: int, tracer) -> dict:
        with tracer.span("synth.gen_confounded"):
            synth = gen_confounded(SynthConfig())
        pretrain = FeatureDataset(
            np.maximum(synth.pretrain.features, 0.0), synth.pretrain.labels, synth.pretrain.n_classes
        )
        novel = FeatureDataset(
            np.maximum(synth.novel.features, 0.0), synth.novel.labels, synth.novel.n_classes
        )
        with tracer.span("synth.fit_kb"):
            kb = fit_kb(pretrain)
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            feat_path = os.path.join(tmp, "novel.features")
            kb_path = os.path.join(tmp, "kb.bin")
            with tracer.span("knowledge.save"):
                save_features(novel, feat_path)
                save_kb(kb, kb_path)
            with tracer.span("knowledge.load"):
                loaded = load_features(feat_path)
                loaded_kb = load_kb(kb_path)
            file_bytes = os.path.getsize(feat_path) + os.path.getsize(kb_path)
        return {"novel": loaded, "kb": loaded_kb, "written": (novel, kb), "file_bytes": file_bytes}

    def _episodes(self, state, rs: int):
        seeded = [sample_episode(state["novel"], WAY, SHOT, QUERY, episode_rng(rs, i)) for i in range(self.seeded)]
        fixed = [
            sample_episode(state["novel"], WAY, SHOT, QUERY, episode_rng(self.fixed_stream, i))
            for i in self.fixed
        ]
        return seeded, fixed

    def _evaluate(self, state, rs: int, seeded, fixed, stats: Stats, tracer=None):
        """Evaluate every arm serially, each arm's results reported as one batch.

        Untraced (``tracer`` None) this calls ``run_episode``, timing each
        call as a piece; traced, its replica.
        """
        trace = tracer or NULL_TRACER
        results, failures = {}, []
        for arm in self.arms:
            if arm is self.fixed_arm:
                eps, stream_seed, indices = fixed, self.fixed_stream, self.fixed
            else:
                eps, stream_seed, indices = seeded, rs, range(self.seeded)
            keyed = []
            t0 = perf_counter()
            with trace.span("arm", arm.name):
                for i, ep in zip(indices, eps):
                    cfg = FitConfig(learning_rate=arm.learning_rate, seed=derived_fit_seed(stream_seed, i))
                    try:
                        if tracer is None:
                            with stats.piece():
                                res = run_episode(ep, arm.kind, arm.adj(), cfg, state["kb"])
                        else:
                            res = traced_episode(ep, arm, cfg, state["kb"], tracer, stats)
                    except ValueError as exc:
                        failures.append((arm.name, (stream_seed, i), str(exc)))
                        continue
                    keyed.append(((stream_seed, i), res))
                with trace.span("evalmetrics.report", arm.name), stats.piece():
                    _report([res for _, res in keyed])
            if tracer is None:
                stats.serial(arm.name, perf_counter() - t0)
            results[arm.name] = keyed
        return results, failures

    def run_round(self, state, seed: int, r: int, stats: Stats) -> None:
        rs = stream(seed, r)
        with stats.piece():
            seeded, fixed = self._episodes(state, rs)
        results, failures = self._evaluate(state, rs, seeded, fixed, stats)
        self._record(stats, rs, results, failures)

    def trace_round(self, state, seed: int, r: int, stats: Stats, tracer: Tracer) -> None:
        rs = stream(seed, r)
        seeded, fixed = self._episodes(state, rs)
        results, failures = self._evaluate(state, rs, seeded, fixed, stats)
        with tracer.span("sample", self.name):
            with tracer.span("episodes.sample", self.name):
                self._episodes(state, rs)
        traced, traced_failures = self._evaluate(state, rs, seeded, fixed, stats, tracer)
        for arm in self.arms:
            eps = fixed if arm is self.fixed_arm else seeded
            for ep in eps:
                probe_layers(ep, arm, state["kb"], tracer)
            stats.add(stats.denominators, arm.name, len(eps))
        stats.add(stats.denominators, self.name, len(seeded) + len(fixed))
        same = failures == traced_failures and all(
            [k for k, _ in results[a]] == [k for k, _ in traced[a]]
            and _same_predictions([x for _, x in results[a]], [x for _, x in traced[a]])
            for a in results
        )
        if not same:
            stats.mismatches.append(f"{self.name} round {r}")
        self._record(stats, rs, results, failures)

    def _record(self, stats: Stats, rs: int, results: dict, failures: list) -> None:
        stats.rounds.append((rs, results, failures))
        stats.attempted += len(self.seeded_arms) * self.seeded + len(self.fixed)
        stats.failed += len(failures)
        stats.completed += sum(len(v) for v in results.values())

    def problems(self, state, stats: Stats) -> list[str]:
        out = []
        written, written_kb = state["written"]
        loaded, loaded_kb = state["novel"], state["kb"]

        def f32(a):
            return a.astype(np.float32).astype(np.float64)

        if not (
            np.array_equal(loaded.features, f32(written.features))
            and np.array_equal(loaded.labels, written.labels)
            and loaded.n_classes == written.n_classes
        ):
            out.append(f"{self.name}: loaded features differ from the float32-rounded written ones")
        for field_name in ("class_means", "pre_weights", "pre_bias"):
            if not np.array_equal(getattr(loaded_kb, field_name), f32(getattr(written_kb, field_name))):
                out.append(f"{self.name}: loaded knowledge base {field_name} differs from the written one")

        t = PARTITION.t
        for rs, results, failures in stats.rounds:
            seeded, fixed = self._episodes(state, rs)
            episodes = {(rs, i): ep for i, ep in enumerate(seeded)}
            episodes.update({(self.fixed_stream, i): ep for i, ep in zip(self.fixed, fixed)})
            for arm_name, keyed in results.items():
                for key, res in keyed:
                    out += hardness_problems(f"{self.name} {arm_name} episode {key}", episodes[key], res, loaded_kb)
            for arm_name, key, message in failures:
                ep = episodes[key]
                blocks = (np.abs(ep.support_x) <= t).reshape(ep.support_x.shape[0], PARTITION.n, -1)
                predicted = arm_name == self.fixed_arm.name and bool(blocks.all(axis=2).any())
                if not (predicted and ZERO_NORM_MESSAGE in message):
                    out.append(f"{self.name} {arm_name} episode {key} failed unpredicted: {message}")
        return out

    def accuracy(self, stats: Stats) -> float:
        return 100.0 * float(np.mean([
            res.accuracy for _, results, _ in stats.rounds for _, res in results["combined-cosine"]
        ]))

    def summary(self, stats: Stats) -> list[str]:
        lines = []
        for arm in self.arms:
            accs = [100.0 * res.accuracy for _, results, _ in stats.rounds for _, res in results[arm.name]]
            mean, half = oracles.mean_ci(accs)
            lines.append(f"acc {arm.name}: {mean:.2f} ± {half:.2f} % over {len(accs)} episodes")
        per_round = {len(f) for _, _, f in stats.rounds}
        lines.append(f"feature-cosine failures per round: {sorted(per_round)} of {len(self.fixed)}")
        return lines


# --- meta-combined -----------------------------------------------------------


class MetaCombined:
    """``ifsl meta`` with combined linear heads: meta-train, then adapt both inits."""

    name = "meta-combined"
    reference = "numpy"
    setup_reps = 2
    tasks = 100  # meta-training tasks per round, from a fresh zero init
    chunks = 5  # meta_train calls per round, each continuing the last
    eval_tasks = 30  # held-out tasks per round, each adapted from both inits
    adj = AdjustmentConfig("combined", partition=PARTITION)

    def setup(self, seed: int, tracer) -> dict:
        with tracer.span("synth.gen_confounded"):
            synth = gen_confounded(SynthConfig())
        probe = Predictor(self.adj, synth.kb, synth.novel.dim, WAY, "linear")
        return {"novel": synth.novel, "kb": synth.kb, "probe": probe}

    def _init(self, probe):
        return zero_meta_init(WAY, probe.head_input_dim, probe.n_heads, tasks=self.tasks // self.chunks)

    def run_round(self, state, seed: int, r: int, stats: Stats) -> None:
        novel, kb, probe = state["novel"], state["kb"], state["probe"]
        mi = trained = self._init(probe)
        rng = np.random.default_rng(stream(seed, r, 0))
        for _ in range(self.chunks):  # one rng throughout, so the chunks equal one long call
            with stats.piece():
                trained = meta_train(novel, WAY, SHOT, QUERY, self.adj, trained, kb, rng)
        zero_theta = mi.copy_theta()
        meta_accs, zero_accs, preds = [], [], []
        for e in range(self.eval_tasks):
            with stats.piece():
                ep = sample_episode(novel, WAY, SHOT, QUERY, episode_rng(stream(seed, r, 1), e))
                blocks = probe.support_inputs(ep.query_x)
                for theta, accs in ((trained.theta0, meta_accs), (zero_theta, zero_accs)):
                    adapted = adapt(theta, probe, ep.support_x, ep.support_y, trained.inner_lr, trained.inner_steps)
                    predicted = probe.probs_from_inputs(adapted, blocks).argmax(axis=1)
                    accs.append(100.0 * float((predicted == ep.query_y).mean()))
                    preds.append(predicted)
        stats.rounds.append((trained, meta_accs, zero_accs, preds))
        ops = self.tasks + 2 * self.eval_tasks
        stats.attempted += ops
        stats.completed += ops

    def trace_round(self, state, seed: int, r: int, stats: Stats, tracer: Tracer) -> None:
        t0 = perf_counter()
        self.run_round(state, seed, r, stats)
        stats.serial(self.name, perf_counter() - t0)
        trained, _, _, preds = stats.rounds[-1]
        with tracer.span("round", self.name):
            theta, traced_preds = self._replica(state, seed, r, tracer)
        same = all(
            np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b) for a, b in zip(trained.theta0, theta)
        ) and all(np.array_equal(a, b) for a, b in zip(preds, traced_preds))
        if not same:
            stats.mismatches.append(f"{self.name} round {r}")
        ops = self.tasks + 2 * self.eval_tasks
        stats.add(stats.denominators, self.name, ops)
        stats.add(stats.denominators, "", ops)
        stats.add(stats.counts, ("meta.inner_steps", ""), ops * trained.inner_steps)

    def _replica(self, state, seed: int, r: int, tracer: Tracer):
        """``meta_train`` and the held-out evaluation, with spans."""
        novel, kb, probe = state["novel"], state["kb"], state["probe"]
        mi = self._init(probe)
        rng = np.random.default_rng(stream(seed, r, 0))
        kind = mi.theta0[0].kind
        predictor = Predictor(self.adj, kb, novel.dim, WAY, kind)
        theta = mi.copy_theta()
        predictor.validate_heads(theta)
        tag = self.name
        for _ in range(self.tasks):
            with tracer.span("episodes.sample", tag):
                ep = sample_episode(novel, WAY, SHOT, QUERY, rng)
            with tracer.span("meta.adapt"):
                adapted = adapt(theta, predictor, ep.support_x, ep.support_y, mi.inner_lr, mi.inner_steps)
            with tracer.span("adjust.inputs", tag):
                blocks = predictor.support_inputs(ep.query_x)
            with tracer.span("meta.train"):
                _, grads = mixture_loss_and_grads(adapted, blocks, ep.query_y, 0.0)
                sgd_step(theta, grads, mi.outer_lr, predictor.context_coupling)
        trained = replace_theta(mi, theta)
        zero_theta = mi.copy_theta()
        preds = []
        for e in range(self.eval_tasks):
            with tracer.span("episodes.sample", tag):
                ep = sample_episode(novel, WAY, SHOT, QUERY, episode_rng(stream(seed, r, 1), e))
            with tracer.span("adjust.inputs", tag):
                blocks = probe.support_inputs(ep.query_x)
            for init in (trained.theta0, zero_theta):
                with tracer.span("meta.adapt"):
                    adapted = adapt(init, probe, ep.support_x, ep.support_y, trained.inner_lr, trained.inner_steps)
                with tracer.span("adjust.predict", tag):
                    preds.append(probe.probs_from_inputs(adapted, blocks).argmax(axis=1))
        return trained.theta0, preds

    def problems(self, state, stats: Stats) -> list[str]:
        diffs = [m - z for _, ma, za, _ in stats.rounds for m, z in zip(ma, za)]
        return ci_problem(f"{self.name} meta-trained - zero init", diffs)

    def accuracy(self, stats: Stats) -> float:
        return float(np.mean([a for _, ma, _, _ in stats.rounds for a in ma]))

    def summary(self, stats: Stats) -> list[str]:
        meta = oracles.mean_ci([a for _, ma, _, _ in stats.rounds for a in ma])
        zero = oracles.mean_ci([a for _, _, za, _ in stats.rounds for a in za])
        gap = oracles.mean_ci([m - z for _, ma, za, _ in stats.rounds for m, z in zip(ma, za)])
        return [
            f"acc meta-trained init: {meta[0]:.2f} ± {meta[1]:.2f} %",
            f"acc zero init: {zero[0]:.2f} ± {zero[1]:.2f} %",
            f"gap meta - zero: {gap[0]:+.2f} ± {gap[1]:.2f} points",
        ]


# --- dsep-random-dags --------------------------------------------------------


class DsepRandomDags:
    """d-separation on seeded random DAGs, every query asked both ways.

    The small band has the size of the paper's graphs; the large band shows
    how query time grows with the graph.
    """

    name = "dsep-random-dags"
    reference = "python"
    setup_reps = 9  # set-up takes about 0.15 s, so more repeats steady its median
    small_graphs = 400  # 3-5 nodes, one query each
    large_graphs = 32  # of 200, 206, ..., 393 nodes (fixed, so the cost barely varies with the seed)
    large_queries = 4

    def setup(self, seed: int, tracer) -> dict:
        rng = np.random.default_rng(stream(seed, 0))
        specs = []
        for _ in range(self.small_graphs):
            n = int(rng.integers(3, 6))
            nodes = [f"v{i}" for i in rng.permutation(n)]
            edges = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            specs.append(("small", nodes, edges, 1, n - 2))
        for step in range(self.large_graphs):
            n = 200 + 200 * step // self.large_graphs
            nodes = [f"v{i}" for i in rng.permutation(n)]
            edges = []
            for j in range(1, n):
                k = min(j, int(rng.integers(0, 5)))
                edges.extend((nodes[int(p)], nodes[j]) for p in rng.choice(j, size=k, replace=False))
            specs.append(("large", nodes, edges, self.large_queries, 4))
        graphs, queries = [], []
        for band, nodes, edges, count, max_z in specs:
            with tracer.span("causal_graph.build"):
                g = Dag.from_edges(nodes, edges)
            graphs.append((nodes, edges))
            for _ in range(count):
                picked = rng.choice(len(nodes), size=2 + int(rng.integers(0, max_z + 1)), replace=False)
                x, y, *z = (nodes[int(i)] for i in picked)
                queries.append((band, g, len(graphs) - 1, x, y, tuple(z)))
        return {"graphs": graphs, "queries": queries}

    def run_round(self, state, seed: int, r: int, stats: Stats) -> None:
        verdicts = []
        for _, g, _, x, y, z in state["queries"]:
            with stats.piece():
                verdicts.append((d_separated(g, [x], [y], z), d_separated(g, [y], [x], z)))
        stats.rounds.append(verdicts)
        stats.attempted += 2 * len(verdicts)
        stats.completed += 2 * len(verdicts)

    def trace_round(self, state, seed: int, r: int, stats: Stats, tracer: Tracer) -> None:
        t0 = perf_counter()
        self.run_round(state, seed, r, stats)
        stats.serial(self.name, perf_counter() - t0)
        traced = []
        with tracer.span("round", self.name):
            for band, g, _, x, y, z in state["queries"]:
                with tracer.span("causal_graph.dsep", band):
                    a = d_separated(g, [x], [y], z)
                with tracer.span("causal_graph.dsep", band):
                    b = d_separated(g, [y], [x], z)
                traced.append((a, b))
        if traced != stats.rounds[-1]:
            stats.mismatches.append(f"{self.name} round {r}")
        for band, *_ in state["queries"]:
            stats.add(stats.denominators, band, 2)

    def problems(self, state, stats: Stats) -> list[str]:
        adjacency = []
        for nodes, edges in state["graphs"]:
            parents = {n: [] for n in nodes}
            children = {n: [] for n in nodes}
            for a, b in edges:
                parents[b].append(a)
                children[a].append(b)
            adjacency.append((parents, children))
        expected = [
            oracles.d_separated(*adjacency[gi], [x], [y], z) for _, _, gi, x, y, z in state["queries"]
        ]
        stats.agreed = sum(
            (xy == want) + (yx == want)
            for verdicts in stats.rounds for (xy, yx), want in zip(verdicts, expected)
        )
        out = []
        for r, verdicts in enumerate(stats.rounds):
            for q, ((xy, yx), want) in enumerate(zip(verdicts, expected)):
                if xy != yx:
                    out.append(f"{self.name} round {r} query {q}: verdict not symmetric in X and Y")
                if xy != want:
                    out.append(f"{self.name} round {r} query {q}: verdict {xy}, Bayes-ball says {want}")
        return out

    def accuracy(self, stats: Stats) -> float:
        """Share of verdicts that agree with the Bayes-ball oracle, counted in ``problems``."""
        return 100.0 * stats.agreed / stats.completed

    def summary(self, stats: Stats) -> list[str]:
        separated = sum(a for a, _ in stats.rounds[0]) if stats.rounds else 0
        return [f"queries per round: {2 * len(stats.rounds[0])}, separated pairs: {separated}"]
