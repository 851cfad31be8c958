"""Confounded data generation, stratum-tied episodes, and the linear-SCM demo."""

import collections
import re
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifsl.episodes
import ifsl.synth
from ifsl.adjust import AdjustmentConfig, Predictor
from ifsl.episodes import episode_hardness, episode_rng, run_arms
from ifsl.heads import FitConfig, _label_index, _Workspace, fit_stack
from ifsl.knowledge import FeatureDataset, PartitionConfig
from ifsl.meta import MetaInit, evaluate_inits, meta_bytes, meta_train
from ifsl.synth import (
    _KB_FIT,
    _choose,
    IvResult,
    LinearScmConfig,
    SynthConfig,
    fit_kb,
    gen_confounded,
    iv_demo,
    run_confounded,
    sample_confounded_episode,
)

from conftest import (
    check_sampled_episode,
    plain_sampler,
    reference_confounded_episode,
    reference_fit,
)

SMALL = SynthConfig(
    dim=16,
    pretrain_classes=4,
    novel_classes=4,
    strata=2,
    samples_per_class=80,
    seed=7,
)


# --- generation -------------------------------------------------------------------


def test_gen_confounded_deterministic():
    a = gen_confounded(SMALL)
    b = gen_confounded(SMALL)
    assert np.array_equal(a.pretrain.features, b.pretrain.features)
    assert np.array_equal(a.novel.features, b.novel.features)
    assert np.array_equal(a.kb.pre_weights, b.kb.pre_weights)
    assert np.array_equal(a.novel_strata, b.novel_strata)
    c = gen_confounded(SynthConfig(**{**SMALL.__dict__, "seed": 8}))
    assert not np.array_equal(a.novel.features, c.novel.features)


@pytest.mark.parametrize("cfg", [
    SynthConfig(),
    SynthConfig(dim=16, novel_classes=5, strata=3, samples_per_class=37, seed=9),
], ids=["default", "small"])
def test_gen_confounded_equals_a_class_by_class_draw(cfg):
    # the novel set's noise is one draw; it must give the bytes of one draw
    # per class, in class order, after the pretrain rows' draws
    out = gen_confounded(cfg)
    rng = np.random.default_rng(cfg.seed)
    per, total = cfg.samples_per_class, cfg.pretrain_classes + cfg.novel_classes
    rng.standard_normal((total + cfg.strata, cfg.dim))  # class and stratum directions
    mixtures = rng.dirichlet(np.full(cfg.strata, 0.5), size=cfg.pretrain_classes)
    pre_rows = []
    for j in range(cfg.pretrain_classes):
        strata = rng.choice(cfg.strata, size=per, p=mixtures[j])
        noise = rng.standard_normal((per, cfg.dim))
        pre_rows.append(out.class_dirs[j] + cfg.beta * out.conf_dirs[strata] + cfg.sigma * noise)
    tags = np.arange(per) % cfg.strata
    rows, labels = [], []
    for j in range(cfg.novel_classes):
        noise = rng.standard_normal((per, cfg.dim))
        rows.append(
            out.class_dirs[cfg.pretrain_classes + j] + cfg.beta * out.conf_dirs[tags]
            + cfg.sigma * noise
        )
        labels.append(np.full(per, j))
    assert out.mixtures.tobytes() == mixtures.tobytes()
    assert out.pretrain.features.tobytes() == np.concatenate(pre_rows).tobytes()
    assert out.novel.features.tobytes() == np.concatenate(rows).tobytes()
    assert np.array_equal(out.novel.labels, np.concatenate(labels))
    assert np.array_equal(out.novel_strata, np.tile(tags, cfg.novel_classes))


def test_gen_confounded_shapes_and_unit_directions():
    out = gen_confounded(SMALL)
    assert out.pretrain.features.shape == (4 * 80, 16)
    assert out.novel.features.shape == (4 * 80, 16)
    assert out.class_dirs.shape == (8, 16)
    assert out.conf_dirs.shape == (2, 16)
    assert np.allclose(np.linalg.norm(out.class_dirs, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(out.conf_dirs, axis=1), 1.0, atol=1e-12)
    assert out.mixtures.shape == (4, 2)
    assert np.allclose(out.mixtures.sum(axis=1), 1.0, atol=1e-12)
    assert out.kb.m == 4 and out.kb.dim == 16


def test_gen_confounded_noiseless_features_sit_on_class_directions():
    cfg = SynthConfig(**{**SMALL.__dict__, "beta": 0.0, "sigma": 0.0})
    out = gen_confounded(cfg)
    for j in range(4):
        rows = out.novel.vectors_of(j)
        assert np.array_equal(rows, np.tile(out.class_dirs[4 + j], (80, 1)))


def test_gen_confounded_small_noise_means_recover_directions():
    cfg = SynthConfig(**{**SMALL.__dict__, "beta": 0.0, "sigma": 0.1, "samples_per_class": 400})
    out = gen_confounded(cfg)
    for j in range(4):
        mean = out.novel.vectors_of(j).mean(axis=0)
        assert np.max(np.abs(mean - out.class_dirs[4 + j])) < 0.02


def test_gen_confounded_round_robin_strata_tags():
    out = gen_confounded(SMALL)
    expect = np.tile(np.arange(80) % 2, 4)
    assert np.array_equal(out.novel_strata, expect)
    # every (class, stratum) cell holds the same number of samples
    for j in range(4):
        tags = out.novel_strata[out.novel.labels == j]
        assert np.bincount(tags, minlength=2).tolist() == [40, 40]


def test_gen_confounded_beta_shifts_strata_apart():
    cfg = SynthConfig(**{**SMALL.__dict__, "beta": 4.0, "sigma": 0.1})
    out = gen_confounded(cfg)
    rows = out.novel.vectors_of(0)
    tags = out.novel_strata[out.novel.labels == 0]
    gap = rows[tags == 0].mean(axis=0) - rows[tags == 1].mean(axis=0)
    expect = 4.0 * (out.conf_dirs[0] - out.conf_dirs[1])
    assert np.linalg.norm(gap - expect) < 0.2


def test_synth_config_validation():
    with pytest.raises(ValueError, match="strata"):
        SynthConfig(strata=1)
    with pytest.raises(ValueError, match="mismatch rate"):
        SynthConfig(mismatch_rate=1.5)
    with pytest.raises(ValueError, match="per stratum"):
        SynthConfig(strata=8, samples_per_class=4)
    with pytest.raises(ValueError, match="novel"):
        SynthConfig(novel_classes=1)
    for field, value in (("beta", -1.0), ("sigma", -0.5), ("beta", np.nan), ("sigma", np.inf),
                         ("beta", -np.inf)):
        with pytest.raises(ValueError, match="beta and sigma must be finite and >= 0"):
            SynthConfig(**{field: value})


# --- confounded episodes --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_out():
    return gen_confounded(SMALL)


def test_confounded_episode_deterministic(small_out):
    args = (small_out.novel, small_out.novel_strata, 3, 2, 4, 0.5)
    ep_a, m_a = sample_confounded_episode(*args, episode_rng(11, 2))
    ep_b, m_b = sample_confounded_episode(*args, episode_rng(11, 2))
    assert np.array_equal(ep_a.support_idx, ep_b.support_idx)
    assert np.array_equal(ep_a.query_idx, ep_b.query_idx)
    assert np.array_equal(m_a, m_b)


def test_confounded_support_is_stratum_pure(small_out):
    tags = small_out.novel_strata
    for i in range(30):
        ep, _ = sample_confounded_episode(
            small_out.novel, tags, 3, 2, 3, 0.5, episode_rng(12, i)
        )
        for k in range(ep.way):
            support_tags = tags[ep.support_idx[ep.support_y == k]]
            assert len(set(support_tags.tolist())) == 1


def test_confounded_matched_queries_share_support_stratum(small_out):
    tags = small_out.novel_strata
    for i in range(30):
        ep, mismatch = sample_confounded_episode(
            small_out.novel, tags, 3, 1, 4, 0.0, episode_rng(13, i)
        )
        assert not mismatch.any()
        support_tag = tags[ep.support_idx]
        query_tag = tags[ep.query_idx]
        assert np.array_equal(query_tag, np.repeat(support_tag, 4))


def test_confounded_full_mismatch_avoids_support_stratum(small_out):
    tags = small_out.novel_strata
    for i in range(30):
        ep, mismatch = sample_confounded_episode(
            small_out.novel, tags, 3, 1, 4, 1.0, episode_rng(14, i)
        )
        assert mismatch.all()
        support_tag = np.repeat(tags[ep.support_idx], 4)
        query_tag = tags[ep.query_idx]
        assert np.all(query_tag != support_tag)


def test_confounded_episode_rows_are_distinct(small_out):
    for i in range(20):
        ep, _ = sample_confounded_episode(
            small_out.novel, small_out.novel_strata, 4, 2, 3, 0.5, episode_rng(15, i)
        )
        rows = np.concatenate([ep.support_idx, ep.query_idx])
        assert len(set(rows.tolist())) == rows.size


@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
def test_confounded_episodes_keep_the_constructor_invariants(small_out, rate):
    for i in range(20):
        ep, _ = sample_confounded_episode(
            small_out.novel, small_out.novel_strata, 3, 2, 4, rate, episode_rng(17, i)
        )
        check_sampled_episode(ep, small_out.novel, 3, 2, 4)


def test_confounded_cell_deficit_error():
    # 2 strata and 4 samples per class leaves 2 per cell; one support plus
    # three matched queries needs 4 from a single cell
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((8, 4))
    labels = np.repeat([0, 1], 4)
    ds = FeatureDataset(feats, labels, 2)
    tags = np.tile([0, 1, 0, 1], 2)
    with pytest.raises(ValueError, match=r"holds 2 samples, episode needs 4"):
        sample_confounded_episode(ds, tags, 2, 1, 3, 0.0, episode_rng(16, 0))


def test_confounded_episode_validation(small_out):
    tags = small_out.novel_strata
    with pytest.raises(ValueError, match="align with the dataset"):
        sample_confounded_episode(small_out.novel, tags[:-1], 2, 1, 1, 0.5, episode_rng(0, 0))
    with pytest.raises(ValueError, match="mismatch rate"):
        sample_confounded_episode(small_out.novel, tags, 2, 1, 1, -0.1, episode_rng(0, 0))
    with pytest.raises(ValueError, match="at least 2 classes"):
        sample_confounded_episode(small_out.novel, tags, 1, 1, 1, 0.5, episode_rng(0, 0))
    for shot, query in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="shot and query counts must be >= 1"):
            sample_confounded_episode(
                small_out.novel, tags, 2, shot, query, 0.5, episode_rng(0, 0)
            )
    with pytest.raises(ValueError, match="at least 2 strata"):
        sample_confounded_episode(
            small_out.novel, np.zeros_like(tags), 2, 1, 1, 0.5, episode_rng(0, 0)
        )


def test_mismatched_queries_are_harder(default_synth):
    # at the default generator settings the confounder direction dominates a
    # class mean shift, so stratum-swapped queries disagree more with their
    # class's support profile
    matched, mismatched = [], []
    for i in range(200):
        ep, mask = sample_confounded_episode(
            default_synth.novel, default_synth.novel_strata, 5, 1, 15, 0.5,
            episode_rng(17, i),
        )
        h = episode_hardness(ep, default_synth.kb)
        matched.extend(h[~mask])
        mismatched.extend(h[mask])
    assert np.mean(mismatched) > np.mean(matched)


def test_run_confounded_threads_match_serial(small_out):
    kwargs = dict(
        novel=small_out.novel, strata_tags=small_out.novel_strata, kb=small_out.kb,
        way=3, shot=1, query=3, count=6, mismatch_rate=0.5, classifier="linear",
        adj_cfg=AdjustmentConfig("none"), fit_cfg=FitConfig(iterations=20), seed=18,
    )
    serial_res, serial_masks = run_confounded(**kwargs, threads=1)
    thread_res, thread_masks = run_confounded(**kwargs, threads=4)
    for a, b in zip(serial_res, thread_res):
        assert np.array_equal(a.predicted, b.predicted)
    for a, b in zip(serial_masks, thread_masks):
        assert np.array_equal(a, b)


def test_paired_arms_match_solo_runs(small_out, default_synth):
    # every arm of one paired pass sees the episodes, fit seeds and hardness
    # that a solo run_confounded call for that arm sees; on the default
    # synth's 64-dim features, 2 strata give heads of P' = 33 inputs
    for out, n in ((small_out, 4), (default_synth, 2)):
        part = PartitionConfig(n=n, t=1e-3)
        arms = [
            ("linear", AdjustmentConfig("none"), FitConfig(iterations=20, learning_rate=1e-2)),
            ("linear", AdjustmentConfig("combined", partition=part), FitConfig(iterations=20)),
            ("cosine", AdjustmentConfig("feature", partition=part),
             FitConfig(iterations=20, seed=5)),
            ("centroid", AdjustmentConfig("class"), FitConfig()),
        ]
        sample = partial(sample_confounded_episode, out.novel, out.novel_strata, 3, 1, 3, 0.5)
        paired, masks = run_arms(sample, arms, out.kb, 6, 19)
        assert len(paired) == len(arms) and len(masks) == 6
        for (classifier, adj_cfg, fit_cfg), results in zip(arms, paired):
            solo, solo_masks = run_confounded(
                out.novel, out.novel_strata, out.kb, 3, 1, 3, 6, 0.5,
                classifier, adj_cfg, fit_cfg, seed=19,
            )
            assert len(results) == len(solo) == 6
            for a, b in zip(results, solo):
                assert np.array_equal(a.predicted, b.predicted)
                assert np.array_equal(a.hardness, b.hardness)
                assert np.array_equal(a.correct, b.correct)
            for a, b in zip(masks, solo_masks):
                assert np.array_equal(a, b)


def _tagged_dataset(n_classes: int, strata: int, per_cell: int):
    """Random features with round-robin stratum tags, ``per_cell`` rows per (class, stratum)."""
    per = strata * per_cell
    rng = np.random.default_rng(strata)
    ds = FeatureDataset(
        rng.standard_normal((n_classes * per, 4)), np.repeat(np.arange(n_classes), per), n_classes
    )
    return ds, np.tile(np.arange(per) % strata, n_classes)


_TAGGED = {m: _tagged_dataset(7, m, 10) for m in range(2, 6)}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    way=st.integers(2, 7),
    shot=st.integers(1, 3),
    query=st.integers(1, 6),
    strata=st.integers(2, 5),
    mismatch_rate=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_confounded_sampler_equals_per_query_reference(
    way, shot, query, strata, mismatch_rate, seed
):
    novel, tags = _TAGGED[strata]
    args = (novel, tags, way, shot, query, mismatch_rate)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ep, mask = sample_confounded_episode(*args, rng_new)
    ref, ref_mask = reference_confounded_episode(*args, rng_ref)
    for name in ("support_idx", "query_idx", "support_x", "query_x", "support_y", "query_y",
                 "class_map"):
        a, b = getattr(ep, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert mask.tobytes() == ref_mask.tobytes()
    # both consumed the same stream
    assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)


def _per_cell_scan_episode(novel, strata_tags, way, shot, query, mismatch_rate, rng):
    """The confounded sampler before its cell index: the same draws, each
    cell's rows found by scanning its class's stratum tags."""
    tags = np.asarray(strata_tags, dtype=np.int64)
    n_strata = int(tags.max()) + 1
    chosen = np.sort(rng.choice(novel.n_classes, size=way, replace=False))
    assigned = rng.permutation(n_strata)[np.arange(way) % n_strata]
    mismatch = rng.random(way * query) < mismatch_rate
    query_strata = np.repeat(assigned, query)
    j = rng.integers(0, n_strata - 1, size=int(mismatch.sum()))
    query_strata[mismatch] = j + (j >= query_strata[mismatch])
    cells = np.repeat(np.arange(way), query) * n_strata + query_strata
    needed = np.bincount(cells, minlength=way * n_strata)
    own = np.arange(way) * n_strata + assigned
    needed[own] += shot
    drawn = []
    for cls, per_stratum in zip(chosen, needed.reshape(way, n_strata)):
        cls_rows = np.flatnonzero(novel.labels == cls)
        cls_tags = tags[cls_rows]
        for s in np.flatnonzero(per_stratum):
            cell = cls_rows[cls_tags == s]
            need = int(per_stratum[s])
            if cell.size < need:
                raise ValueError(
                    f"class {int(cls)} stratum {s} holds {cell.size} samples, "
                    f"episode needs {need}"
                )
            drawn.append(cell[rng.choice(cell.size, size=need, replace=False)])
    drawn = np.concatenate(drawn)
    support_pos = ((np.cumsum(needed) - needed)[own][:, None] + np.arange(shot)).ravel()
    qi = np.empty(way * query, dtype=np.int64)
    qi[np.argsort(cells, kind="stable")] = np.delete(drawn, support_pos)
    return chosen, drawn[support_pos], qi, mismatch


def _uneven_tags(n_classes: int, strata: int, layout: str, seed: int):
    """Stratum tags of classes of 20-59 rows each, drawn at random with skewed
    weights; under ``missing``, classes 0 and 3 hold no row of stratum 1."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(20, 60, size=n_classes)
    weights = rng.dirichlet(np.full(strata, 2.0))
    tags = []
    for c, size in enumerate(sizes):
        w = weights.copy()
        if layout == "missing" and c in (0, 3):
            w[1] = 0.0
        tags.append(rng.choice(strata, size=size, p=w / w.sum()))
    labels = np.repeat(np.arange(n_classes), sizes)
    # shuffled rows: a class's rows (and a cell's) are not contiguous
    order = rng.permutation(labels.size)
    ds = FeatureDataset(rng.standard_normal((labels.size, 3)), labels[order], n_classes)
    return ds, np.concatenate(tags)[order]


_UNEVEN = {
    (layout, strata): _uneven_tags(7, strata, layout, 10 * strata + len(layout))
    for layout in ("uneven", "missing") for strata in (3, 4, 5)
}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    layout=st.sampled_from(["round-robin", "uneven", "missing"]),
    way=st.integers(2, 7),
    shot=st.integers(1, 3),
    query=st.integers(1, 6),
    strata=st.integers(3, 5),
    mismatch_rate=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_indexed_sampler_equals_per_cell_scan(
    layout, way, shot, query, strata, mismatch_rate, seed
):
    # the cell index gives the rows, labels, mask and rng state of the tag
    # scan it replaced, and the same error when a cell is short
    novel, tags = _TAGGED[strata] if layout == "round-robin" else _UNEVEN[layout, strata]
    args = (novel, tags, way, shot, query, mismatch_rate)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = _per_cell_scan_episode(*args, rng_ref)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            sample_confounded_episode(*args, rng_new)
        assert str(raised.value) == str(exc)
        assert "samples, episode needs" in str(exc)
        return
    ep, mask = sample_confounded_episode(*args, rng_new)
    chosen, si, qi, ref_mask = expected
    for got, want in ((ep.class_map, chosen), (ep.support_idx, si), (ep.query_idx, qi),
                      (mask, ref_mask)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    layout=st.sampled_from(["uneven", "missing"]),
    way=st.integers(2, 7),
    shot=st.integers(1, 3),
    query=st.integers(1, 6),
    strata=st.integers(3, 5),
    mismatch_rate=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reused_sampler_equals_a_fresh_sampler_per_draw(
    layout, way, shot, query, strata, mismatch_rate, seed
):
    # a sampler reused over draws from cells of uneven sizes, refused draws
    # among them, gives at every draw the rows, mask, rng state and refusals
    # of a sampler built for that draw: no draw leaves state for the next
    args = (*_UNEVEN[layout, strata], way, shot, query, mismatch_rate)
    reused = ifsl.synth._ConfoundedSampler(*args)
    for i in range(8):
        rng_new, rng_ref = episode_rng(seed, i), episode_rng(seed, i)
        try:
            ref_ep, ref_mask = ifsl.synth._ConfoundedSampler(*args)(rng_ref)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                reused(rng_new)
            assert str(raised.value) == str(exc)
            continue
        ep, mask = reused(rng_new)
        for got, want in ((ep.class_map, ref_ep.class_map), (ep.support_idx, ref_ep.support_idx),
                          (ep.query_idx, ref_ep.query_idx), (mask, ref_mask)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def _assert_choose_equals_choice_calls(sizes, counts, seed):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _choose(rng_new, sizes, counts)
    want = [rng_ref.choice(s, size=k, replace=False) for s, k in zip(sizes, counts)]
    want = np.concatenate(want) if want else np.empty(0, dtype=np.int64)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("sizes, counts", [
    ([1], [1]),  # s == 1
    ([9], [1]),  # k == 1
    ([9], [9]),  # k == s: the first bound is 0, which draws nothing
    ([40], [38]),  # k close to s: most draws repeat an earlier value
    ([5], [0]),
    ([], []),
    # Generator.choice shuffles the tail of arange(s) when s > 10000 and
    # k > s // 50, and runs Floyd's algorithm otherwise
    ([10000], [300]),
    ([10001], [200]),
    ([10001], [201]),
    ([20000], [20000]),
    ([50000], [1001]),
    ([16, 125, 3, 10001, 125, 2**33], [5, 4, 3, 201, 1, 3]),
])
def test_choose_equals_choice_calls(sizes, counts):
    # the values and the final generator state of one choice call per cell;
    # this pins numpy's Generator.choice, which _choose replays
    for seed in range(3):
        _assert_choose_equals_choice_calls(sizes, counts, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    cells=st.lists(st.integers(1, 60).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s))),
                   max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_choose_equals_choice_calls_on_small_cells(cells, seed):
    _assert_choose_equals_choice_calls([s for s, _ in cells], [k for _, k in cells], seed)


def test_confounded_episode_from_cells_above_10000_rows():
    # cells of 10001 rows: a class's own cell gives more than 10001 // 50
    # rows (the tail shuffle), the cells of its mismatched queries fewer
    per = 2 * 10001
    rng = np.random.default_rng(0)
    novel = FeatureDataset(rng.standard_normal((2 * per, 2)), np.repeat([0, 1], per), 2)
    args = (novel, np.arange(2 * per) % 2, 2, 250, 100, 0.5)
    rng_new, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    ep, mask = sample_confounded_episode(*args, rng_new)
    chosen, si, qi, ref_mask = _per_cell_scan_episode(*args, rng_ref)
    for got, want in ((ep.class_map, chosen), (ep.support_idx, si), (ep.query_idx, qi),
                      (mask, ref_mask)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert 0 < mask.sum() < mask.size


class _CountingRng:
    """A generator whose method calls are counted by name."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


def test_confounded_episode_draws_its_rows_in_one_integers_call(default_synth):
    # no choice call: the classes come from one integers call, the
    # mismatched queries' strata from one, and the rows of every cell from one
    sample = ifsl.synth._ConfoundedSampler(
        default_synth.novel, default_synth.novel_strata, 5, 1, 15, 1.0
    )
    planned, drawn = _CountingRng(episode_rng(0, 0)), _CountingRng(episode_rng(0, 0))
    sample._plan(planned)
    sample(drawn)
    assert planned.calls == {"integers": 2, "permutation": 1, "random": 1}
    assert drawn.calls - planned.calls == {"integers": 1}
    assert planned.calls - drawn.calls == {}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    layout=st.sampled_from(["round-robin", "uneven", "missing"]),
    way=st.integers(2, 7),
    shot=st.integers(1, 3),
    query=st.integers(1, 12),
    strata=st.integers(3, 5),
    mismatch_rate=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_check_cells_refuses_what_the_draws_refuse(
    layout, way, shot, query, strata, mismatch_rate, seed
):
    # check_cells refuses a run, with the draw's message, exactly when one of
    # its episodes finds a short cell
    novel, tags = _TAGGED[strata] if layout == "round-robin" else _UNEVEN[layout, strata]
    sample = ifsl.synth._ConfoundedSampler(novel, tags, way, shot, query, mismatch_rate)
    try:
        for i in range(6):
            sample(episode_rng(seed, i))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            sample.check_cells(seed, 6)
        assert str(raised.value) == str(exc)
        return
    sample.check_cells(seed, 6)


def test_check_cells_plans_nothing_when_every_cell_suffices(small_out, monkeypatch):
    # small_out holds 40 rows per cell: enough for any episode with
    # shot + query <= 40, and at full mismatch for any with shot, query <= 40
    planned = []
    plan = ifsl.synth._ConfoundedSampler._plan

    def counted(self, rng):
        planned.append(rng)
        return plan(self, rng)

    monkeypatch.setattr(ifsl.synth._ConfoundedSampler, "_plan", counted)

    def check(shot, query, rate):
        planned.clear()
        ifsl.synth._ConfoundedSampler(
            small_out.novel, small_out.novel_strata, 2, shot, query, rate
        ).check_cells(0, 3)

    for shot, query, rate, plans in ((10, 30, 0.5, 0), (40, 40, 1.0, 0), (10, 31, 0.5, 3)):
        check(shot, query, rate)
        assert len(planned) == plans
    with pytest.raises(ValueError, match="holds 40 samples, episode needs 41"):
        check(10, 31, 0.0)
    assert len(planned) == 1


def test_negative_stratum_tags_are_refused(small_out):
    # a negative tag names no stratum (strata run 0..max): its rows were never
    # drawn, so such tags are refused rather than silently ignored; a tag
    # that is no integer is refused before a cast could truncate it
    cases = [
        (small_out.novel_strata, 5, -1, "stratum tags must be >= 0, found -1"),
        (small_out.novel_strata + 0.7, 0, 0.7, "stratum tags must be integers, found 0.7 at index 0"),
        (small_out.novel_strata.astype(float), 9, np.nan,
         "stratum tags must be integers, found nan at index 9"),
        (small_out.novel_strata.astype(float), 3, np.inf,
         "stratum tags must be integers, found inf at index 3"),
        (small_out.novel_strata.astype(float), 7, -1.0, "stratum tags must be >= 0, found -1"),
    ]
    for base, at, value, message in cases:
        tags = base.copy()
        tags[at] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_confounded_episode(small_out.novel, tags, 2, 1, 1, 0.5, episode_rng(0, 0))
        with pytest.raises(ValueError, match=re.escape(message)):
            run_confounded(
                small_out.novel, tags, small_out.kb, 2, 1, 1, 3, 0.5, "linear",
                AdjustmentConfig("none"), FitConfig(iterations=2), seed=0,
            )
    # integral floats name the same strata as the integers
    floats, ints = small_out.novel_strata.astype(float), small_out.novel_strata
    ep_f, m_f = sample_confounded_episode(small_out.novel, floats, 2, 1, 1, 0.5, episode_rng(0, 0))
    ep_i, m_i = sample_confounded_episode(small_out.novel, ints, 2, 1, 1, 0.5, episode_rng(0, 0))
    assert np.array_equal(ep_f.support_idx, ep_i.support_idx)
    assert np.array_equal(ep_f.query_idx, ep_i.query_idx) and np.array_equal(m_f, m_i)


def test_run_confounded_builds_the_cell_index_once(small_out, monkeypatch):
    builds = []
    build = ifsl.synth._ConfoundedSampler.__init__

    def counted(self, *args):
        builds.append(args)
        build(self, *args)

    monkeypatch.setattr(ifsl.synth._ConfoundedSampler, "__init__", counted)
    results, masks = run_confounded(
        small_out.novel, small_out.novel_strata, small_out.kb, 3, 1, 3, 17, 1.0, "linear",
        AdjustmentConfig("none"), FitConfig(iterations=2), seed=4,
    )
    assert len(results) == len(masks) == 17 and len(builds) == 1


def _arrays(per_arm, masks) -> list:
    """Every array a run returns, in a fixed order."""
    out = list(masks)
    for results in per_arm:
        for r in results:
            out += [r.predicted, r.true, r.hardness, r.correct]
    return out


def _meta_arrays(novel, kb, n: int = 4) -> list:
    """Head stack, rng state and IFSLMET1 bytes of ``meta_train`` at 0, 1, 9 and
    19 tasks, then ``evaluate_inits`` accuracies over 19 tasks, for linear and
    cosine ``combined`` heads of ``n`` strata."""
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=n, t=1e-3))
    out = []
    for kind in ("linear", "cosine"):
        predictor = Predictor(cfg, kb, novel.dim, 3, kind)
        start = fit_stack(
            predictor.support_inputs(novel.features[None, :6]), np.array([[0, 1, 2] * 2]),
            predictor, FitConfig(iterations=4, learning_rate=0.05), [0],
        )[0]
        for tasks in (0, 1, 9, 19):
            rng = np.random.default_rng(29)
            mi = MetaInit(kind, start, inner_steps=3, outer_lr=0.05, tasks=tasks)
            trained = meta_train(novel, 3, 1, 3, cfg, mi, kb, rng)
            out += [trained.theta, np.array(repr(rng.bit_generator.state)),
                    np.frombuffer(meta_bytes(trained), dtype=np.uint8)]
        accs = evaluate_inits(novel, 3, 1, 3, predictor, [trained.theta, start], 0.05, 3, 19, 30)
        out.append(np.array(accs))
    return out


def test_results_do_not_depend_on_chunk_size(small_out, default_synth, monkeypatch):
    # 17 episodes (19 meta tasks) cross every chunk boundary of chunk sizes 1,
    # 7 and the default, for every loop that draws episodes in chunks; the
    # default synth's 64-dim features under 2 strata add heads of P' = 33
    # inputs, where the layout a step reads its batch in shows in the bits
    novel, tags, kb = small_out.novel, small_out.novel_strata, small_out.kb
    wide = PartitionConfig(n=2, t=1e-3)
    wide_arms = [
        ("linear", AdjustmentConfig("combined", partition=wide),
         FitConfig(iterations=15, learning_rate=5e-3)),
        ("cosine", AdjustmentConfig("feature", partition=wide),
         FitConfig(iterations=15, batch_size=None)),
    ]
    wide_sample = partial(
        sample_confounded_episode, default_synth.novel, default_synth.novel_strata, 3, 1, 3, 1.0
    )
    part = PartitionConfig(n=4, t=1e-3)
    arms = [
        ("linear", AdjustmentConfig("none"), FitConfig(iterations=15)),
        ("linear", AdjustmentConfig("combined", partition=part),
         FitConfig(iterations=15, learning_rate=5e-3)),
        ("cosine", AdjustmentConfig("feature", partition=part),
         FitConfig(iterations=15, batch_size=None)),
        ("centroid", AdjustmentConfig("class"), FitConfig()),
    ]
    sample = partial(sample_confounded_episode, novel, tags, 3, 1, 3, 1.0)
    runs = []
    for chunk in (1, 7, ifsl.episodes._CHUNK):
        monkeypatch.setattr(ifsl.episodes, "_CHUNK", chunk)
        paired = _arrays(*run_arms(sample, arms, kb, 17, 23))
        solo, solo_masks = run_confounded(novel, tags, kb, 3, 1, 3, 17, 1.0, *arms[1], seed=23)
        (many,), _ = run_arms(plain_sampler(novel, 3, 2, 4), arms[2:3], kb, 17, 23)
        wide_paired = _arrays(*run_arms(wide_sample, wide_arms, default_synth.kb, 17, 23))
        runs.append(
            paired + _arrays([solo], solo_masks) + _arrays([many], []) + _meta_arrays(novel, kb)
            + wide_paired + _meta_arrays(default_synth.novel, default_synth.kb, n=2)
        )
    first, *others = runs
    # per kind and task count: the head stack, rng state and file bytes; then
    # one accuracy table per kind
    meta = 2 * (4 * 3 + 1)
    assert len(first) == (
        17 * (1 + 4 * len(arms)) + 17 * (1 + 4) + 17 * 4 + meta
        + 17 * (1 + 4 * len(wide_arms)) + meta
    )
    for other in others:
        assert len(other) == len(first)
        for a, b in zip(first, other):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_run_confounded_memory_does_not_grow_with_count(default_synth):
    # chunks of a fixed size: the traced peak of 256 episodes stays under
    # 4 MB, so no chunk grows with the count and no per-dataset table is built
    novel, tags, kb = default_synth.novel, default_synth.novel_strata, default_synth.kb
    args = (5, 1, 15)
    adj = AdjustmentConfig("combined", partition=PartitionConfig(n=8))
    tracemalloc.start()
    try:
        run_confounded(
            novel, tags, kb, *args, 256, 1.0, "linear", adj, FitConfig(learning_rate=5e-3), 31
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


# --- knowledge-base fit -----------------------------------------------------------------


def test_fit_kb_matches_reference_fit(small_out):
    # one linear head fitted full batch on the whole pretrain set, against the
    # head-by-head reference fit with the same settings
    pretrain = small_out.pretrain
    assert _KB_FIT.batch_size is None and _KB_FIT.weight_decay == 1e-4
    kb = fit_kb(pretrain)
    predictor = Predictor(
        AdjustmentConfig("none"), None, pretrain.dim, pretrain.n_classes, "linear"
    )
    (expected,) = reference_fit(pretrain.features, pretrain.labels, predictor, _KB_FIT)
    assert np.allclose(kb.pre_weights, expected.W, rtol=0.0, atol=1e-12)
    assert np.allclose(kb.pre_bias, expected.b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("synth", ["small_out", "default_synth"])
def test_fit_kb_equals_fit_stack(synth, request):
    # fit_kb steps its own workspace on the pretrain rows, with no ones
    # column; that loop is fit_stack's full-batch fit of one linear head
    pretrain = request.getfixturevalue(synth).pretrain
    kb = fit_kb(pretrain)
    predictor = Predictor(
        AdjustmentConfig("none"), None, pretrain.dim, pretrain.n_classes, "linear"
    )
    Z = predictor.support_inputs(pretrain.features[None])
    theta = fit_stack(Z, pretrain.labels[None], predictor, _KB_FIT, [0])
    assert np.allclose(kb.pre_weights, theta[0, 0, :, :-1], rtol=0.0, atol=1e-12)
    assert np.allclose(kb.pre_bias, theta[0, 0, :, -1], rtol=0.0, atol=1e-12)


def _two_blocks_on_one_thread(pretrain) -> np.ndarray:
    # fit_kb's step computed in turn on the calling thread: the gradients of
    # rows [0, ceil(N/2)) and [ceil(N/2), N), weighted by their shares of the
    # rows and summed in that order, then the weight decay on W and the step
    K, dim, N = pretrain.n_classes, pretrain.dim, pretrain.n_samples
    theta = np.zeros((1, 1, K, dim + 1))
    half = N - N // 2
    blocks = [
        (_Workspace("linear", theta, hi - lo, 0.0, ones=False), pretrain.features[None, None, lo:hi],
         _label_index(pretrain.labels[None, lo:hi], 1, K), (hi - lo) / N)
        for lo, hi in ((0, half), (half, N))
    ]
    for _ in range(_KB_FIT.iterations):
        for ws, V, at_label, _ in blocks:
            ws.grads(V, at_label)
        (first, _, _, s1), (second, _, _, s2) = blocks
        dtheta = first.dtheta * s1 + second.dtheta * s2
        dtheta[..., :-1] += theta[..., :-1] * _KB_FIT.weight_decay
        theta -= dtheta * _KB_FIT.learning_rate
    return theta[0, 0]


@pytest.mark.parametrize("synth", ["small_out", "default_synth"])
def test_fit_kb_equals_its_two_blocks_on_one_thread(synth, request):
    # the worker thread changes no bit: the split is fixed and the block
    # gradients are summed in block order, whichever block finishes first
    pretrain = request.getfixturevalue(synth).pretrain
    kb = fit_kb(pretrain)
    theta = _two_blocks_on_one_thread(pretrain)
    assert kb.pre_weights.tobytes() == theta[:, :-1].tobytes()
    assert kb.pre_bias.tobytes() == theta[:, -1].tobytes()


def test_fit_kb_is_repeatable_and_joins_its_worker(small_out, monkeypatch):
    # the calling thread computes the first row block and one worker thread
    # the second, whatever CPUs the process may run on; the worker is gone
    # when fit_kb returns, and repeated calls give the same bytes, also when
    # the threads swap the interpreter lock every microsecond
    threads = []

    class Recorded(_Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            grads, seen = self.grads, set()
            threads.append(seen)

            def recorded(*grads_args):
                seen.add(threading.get_ident())
                return grads(*grads_args)

            self.grads = recorded

    first = fit_kb(small_out.pretrain)
    monkeypatch.setattr(ifsl.synth, "_Workspace", Recorded)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        second = fit_kb(small_out.pretrain)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert len(threads) == 2 and threads[0] == {threading.get_ident()}
    assert len(threads[1]) == 1 and threads[1] != threads[0]
    for name in ("class_means", "pre_weights", "pre_bias"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("rows", [1, 3, 101])
def test_fit_kb_fits_any_row_count(small_out, rows):
    # blocks of ceil(N/2) and floor(N/2) rows, weighted 2/3 and 1/3 for 3
    # rows; a 1-row set has one block and no worker. Every class keeps a row
    classes = min(rows, small_out.pretrain.n_classes)
    pretrain = FeatureDataset(
        small_out.pretrain.features[:rows], np.arange(rows) % classes, classes
    )
    kb = fit_kb(pretrain)
    if classes == 1:
        # a lone class has p(y) = 1, so no gradient moves the head from zero;
        # reference_fit's heads need 2 classes
        assert not kb.pre_weights.any() and not kb.pre_bias.any()
        return
    predictor = Predictor(AdjustmentConfig("none"), None, pretrain.dim, classes, "linear")
    (expected,) = reference_fit(pretrain.features, pretrain.labels, predictor, _KB_FIT)
    assert np.allclose(kb.pre_weights, expected.W, rtol=0.0, atol=1e-12)
    assert np.allclose(kb.pre_bias, expected.b, rtol=0.0, atol=1e-12)


def test_fit_kb_memory_stays_small(default_synth):
    # 500 full-batch steps on the 8000 x 64 default pretrain set: each row
    # block's (16, 4000) logits buffer is reused for its exponentials and
    # gradient; tracemalloc traces the worker thread's allocations too
    tracemalloc.start()
    try:
        fit_kb(default_synth.pretrain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


def test_gen_confounded_memory_stays_small():
    # the default config's two 8000 x 64 sets take 7.8 MB; the one noise draw
    # of the novel set is its feature array, and no other novel-sized array
    # is made (a whole-array sum of directions and noise peaked at 17.7 MB)
    tracemalloc.start()
    try:
        gen_confounded(SynthConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"traced peak {peak / 2**20:.2f} MB"


def test_knowledge_base_is_fitted_on_first_read(monkeypatch):
    # gen_confounded fits nothing; the first read of .kb fits once and the
    # result is kept, equal to the knowledge base of the pretrain set
    calls = []

    def counting_fit_kb(pretrain):
        calls.append(pretrain)
        return fit_kb(pretrain)

    monkeypatch.setattr(ifsl.synth, "fit_kb", counting_fit_kb)
    out = gen_confounded(SMALL)
    assert calls == []
    kb = out.kb
    assert len(calls) == 1 and calls[0] is out.pretrain
    assert out.kb is kb and len(calls) == 1
    expected = fit_kb(out.pretrain)
    for name in ("class_means", "pre_weights", "pre_bias"):
        a, b = getattr(kb, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# --- linear-SCM instrument demo ---------------------------------------------------------


def test_iv_recovers_effect_ols_inflated():
    res = iv_demo(LinearScmConfig(), np.random.default_rng(1))
    assert res.true_effect == 3.0
    assert abs(res.iv_estimate - 3.0) < 0.1
    # OLS converges to c + e*b/(a^2 + b^2 + 1) = 3 + 10/6
    assert abs(res.ols_slope - (3.0 + 10.0 / 6.0)) < 0.1


def test_iv_unconfounded_both_match():
    cfg = LinearScmConfig(confounder_to_x=0.0, confounder_to_y=0.0)
    res = iv_demo(cfg, np.random.default_rng(2))
    assert abs(res.iv_estimate - 3.0) < 0.05
    assert abs(res.ols_slope - 3.0) < 0.05


def test_iv_null_effect():
    cfg = LinearScmConfig(causal_effect=0.0)
    res = iv_demo(cfg, np.random.default_rng(3))
    assert abs(res.iv_estimate) < 0.1
    assert abs(res.ols_slope - 10.0 / 6.0) < 0.1


def test_iv_stable_across_seeds():
    for seed in range(20):
        res = iv_demo(LinearScmConfig(), np.random.default_rng(seed))
        assert abs(res.iv_estimate - 3.0) < 0.2, seed


def test_iv_degenerate_instrument_rejected():
    cfg = LinearScmConfig(instrument_coef=0.0, confounder_to_x=0.0, noise_x=0.0)
    with pytest.raises(ValueError, match="degenerate instrument"):
        iv_demo(cfg, np.random.default_rng(4))


def test_scm_config_validation():
    with pytest.raises(ValueError, match="at least 3 samples"):
        LinearScmConfig(samples=2)
    with pytest.raises(ValueError, match="noise scales"):
        LinearScmConfig(noise_x=-1.0)
    # a non-finite field would give NaN estimates (causal_effect=inf after a RuntimeWarning)
    for field in ("instrument_coef", "confounder_to_x", "causal_effect", "confounder_to_y",
                  "noise_x", "noise_y"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                LinearScmConfig(**{field: value})


def test_iv_result_fields():
    res = IvResult(ols_slope=4.0, iv_estimate=3.0, true_effect=3.0)
    assert res.ols_slope == 4.0


# --- stratum oracle -----------------------------------------------------------------------


def _paired_gap(a_res, b_res):
    diffs = 100.0 * np.array([a.accuracy - b.accuracy for a, b in zip(a_res, b_res)])
    return float(diffs.mean()), 1.96 * float(np.std(diffs, ddof=1)) / float(np.sqrt(diffs.size))


def test_stratum_oracle_gains_only_at_full_mismatch(default_synth):
    # The oracle removes the confounder with perfect knowledge: it projects the
    # span of the generator's true confounder directions out of every feature
    # before fitting the baseline head. Under criterion 8's settings it beats
    # the baseline when every query leaves its class's support stratum, and
    # loses at mismatch 0.5, where a query keeps that stratum half the time
    # (against 1/strata by chance) so the stratum still predicts the label.
    # That is why criterion 8 runs at mismatch_rate=1.0.
    novel = default_synth.novel
    basis, _ = np.linalg.qr(default_synth.conf_dirs.T)
    projected = FeatureDataset(
        novel.features - (novel.features @ basis) @ basis.T, novel.labels, novel.n_classes
    )
    common = dict(
        strata_tags=default_synth.novel_strata, kb=default_synth.kb, way=5, shot=1,
        query=15, count=200, classifier="linear", adj_cfg=AdjustmentConfig("none"),
        fit_cfg=FitConfig(learning_rate=1e-2), seed=123,
    )
    gaps = {}
    for rate in (1.0, 0.5):
        base, _ = run_confounded(novel=novel, mismatch_rate=rate, **common)
        oracle, _ = run_confounded(novel=projected, mismatch_rate=rate, **common)
        gaps[rate] = _paired_gap(oracle, base)
    gain, gain_ci = gaps[1.0]
    loss, loss_ci = gaps[0.5]
    print(f"stratum oracle - baseline: {gain:+.2f} ± {gain_ci:.2f} points at mismatch 1.0, "
          f"{loss:+.2f} ± {loss_ci:.2f} at 0.5")
    assert gain - gain_ci > 0.0
    assert loss + loss_ci < 0.0


def test_centroid_heads_gain_the_class_wise_adjustment(default_synth):
    # Centroid heads read the folded input x - m * ctx like the fitted kinds,
    # so the class-wise adjustment reaches them: at full mismatch the class
    # and combined centroid arms beat the plain one, with the paired 95% CI
    # excluding 0. Held-out episode seed 321 (criterion 8 uses 123), 200
    # paired 5-way 1-shot 15-query episodes; size, seed and threshold were
    # fixed before the test first ran.
    novel, tags, kb = default_synth.novel, default_synth.novel_strata, default_synth.kb
    partition = PartitionConfig(n=8, t=1e-3)
    arms = [
        ("centroid", AdjustmentConfig(strategy, partition=partition), FitConfig())
        for strategy in ("none", "class", "combined")
    ]
    (base, cls, comb), _ = run_arms(
        lambda rng: sample_confounded_episode(novel, tags, 5, 1, 15, 1.0, rng), arms, kb, 200, 321
    )
    for name, res in (("class", cls), ("combined", comb)):
        gap, ci = _paired_gap(res, base)
        print(f"centroid {name} - none: {gap:+.2f} ± {ci:.2f} points at mismatch 1.0")
        assert gap - ci > 0.0
