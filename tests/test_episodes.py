"""Episode sampling, evaluation, seed streams, and thread-count independence."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.adjust import AdjustmentConfig
from ifsl.episodes import (
    Episode,
    _chunks,
    _hardness,
    episode_hardness,
    episode_rng,
    derived_fit_seed,
    run_arms,
    run_episode,
    sample_episode,
)
from ifsl.heads import FitConfig
from ifsl.evalmetrics import query_hardness
from ifsl.knowledge import KnowledgeBase, pretrain_logits

from conftest import (
    check_sampled_episode,
    make_blob_dataset,
    make_kb,
    plain_sampler,
    reference_hardness,
)


@pytest.fixture
def ds():
    return make_blob_dataset(n_classes=8, per_class=25, dim=16, seed=31)


@pytest.fixture
def kb():
    return make_kb(m=4, dim=16, seed=5)


# --- sampling ---------------------------------------------------------------------


def test_sample_episode_shapes(ds):
    ep = sample_episode(ds, way=5, shot=2, query=3, rng=episode_rng(0, 0))
    assert ep.support_x.shape == (10, 16)
    assert ep.query_x.shape == (15, 16)
    assert np.array_equal(ep.support_y, np.repeat(np.arange(5), 2))
    assert np.array_equal(ep.query_y, np.repeat(np.arange(5), 3))
    assert len(set(ep.class_map.tolist())) == 5


def test_sample_episode_deterministic(ds):
    a = sample_episode(ds, 5, 1, 4, episode_rng(9, 3))
    b = sample_episode(ds, 5, 1, 4, episode_rng(9, 3))
    assert np.array_equal(a.support_idx, b.support_idx)
    assert np.array_equal(a.query_idx, b.query_idx)
    assert np.array_equal(a.class_map, b.class_map)
    c = sample_episode(ds, 5, 1, 4, episode_rng(9, 4))
    assert not np.array_equal(a.query_idx, c.query_idx)


def test_sample_episode_support_query_disjoint(ds):
    for i in range(50):
        ep = sample_episode(ds, 4, 3, 3, episode_rng(1, i))
        assert not set(ep.support_idx.tolist()) & set(ep.query_idx.tolist())
        # rows really come from the dataset positions they claim
        assert np.array_equal(ep.support_x, ds.features[ep.support_idx])
        assert np.array_equal(ep.query_x, ds.features[ep.query_idx])


def test_sample_episode_uses_all_classes_when_way_equals_total(ds):
    ep = sample_episode(ds, ds.n_classes, 1, 1, episode_rng(2, 0))
    assert np.array_equal(ep.class_map, np.arange(ds.n_classes))


def test_sample_episode_rejects_small_requests(ds):
    with pytest.raises(ValueError, match="at least 2 classes"):
        sample_episode(ds, 1, 1, 1, episode_rng(0, 0))
    with pytest.raises(ValueError, match="has 8 classes"):
        sample_episode(ds, 9, 1, 1, episode_rng(0, 0))
    with pytest.raises(ValueError, match="episode needs 26"):
        sample_episode(ds, 2, 13, 13, episode_rng(0, 0))


def test_episode_validation():
    X = np.zeros((4, 3))
    y = np.array([0, 0, 1, 1])
    kwargs = dict(
        way=2, shot=2, query_per_class=2,
        support_x=X, support_y=y, query_x=X.copy(), query_y=y,
        class_map=np.array([3, 7]),
        support_idx=np.arange(4), query_idx=np.arange(4, 8),
    )
    Episode(**kwargs)  # baseline is valid
    with pytest.raises(ValueError, match="disjoint"):
        Episode(**{**kwargs, "query_idx": np.array([0, 4, 5, 6])})
    with pytest.raises(ValueError, match="distinct"):
        Episode(**{**kwargs, "class_map": np.array([3, 3])})
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        Episode(**{**kwargs, "query_y": np.array([0, 0, 1, 2])})
    # one sample index per support and per query row
    with pytest.raises(ValueError, match=r"support_idx must have shape \(4,\)"):
        Episode(**{**kwargs, "support_idx": np.arange(4).reshape(4, 1)})
    with pytest.raises(ValueError, match=r"query_idx must have shape \(4,\)"):
        Episode(**{**kwargs, "query_idx": np.arange(4, 9)})
    X2 = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"support_idx must have shape \(2,\)"):
        Episode(2, 1, 1, X2, [0, 1], X2, [0, 1], [5, 7], support_idx=[[0]], query_idx=[9, 10, 11])
    with pytest.raises(ValueError, match=r"query_idx must have shape \(2,\)"):
        Episode(2, 1, 1, X2, [0, 1], X2, [0, 1], [5, 7], support_idx=[0, 1], query_idx=[9, 10, 11])


@pytest.mark.parametrize("shape, message", [
    ((1, 2, 2), "episodes need at least 2 classes, got way=1"),
    ((2, 0, 2), "shot and query counts must be >= 1"),
    ((2, 2, 0), "shot and query counts must be >= 1"),
])
def test_episode_shape_is_refused_as_the_samplers_refuse_it(shape, message):
    # Episode(...) and the samplers share one shape rule, and so its messages
    way, shot, query = shape
    X = np.zeros((max(way * shot, 1), 3))
    with pytest.raises(ValueError, match=message):
        Episode(way, shot, query, X, np.zeros(len(X)), X, np.zeros(len(X)),
                np.arange(way), np.arange(len(X)), np.arange(len(X), 2 * len(X)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    way=st.integers(2, 8), shot=st.integers(1, 5), query=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_episodes_keep_the_constructor_invariants(way, shot, query, seed):
    ds = make_blob_dataset(n_classes=8, per_class=25, dim=16, seed=31)
    ep = sample_episode(ds, way, shot, query, np.random.default_rng(seed))
    check_sampled_episode(ep, ds, way, shot, query)


def test_nan_written_after_construction_is_still_rejected(kb):
    # the samplers skip the finiteness check; the stratum inputs and the
    # knowledge-base logits read every sampled row through as_rows
    ds = make_blob_dataset(n_classes=4, per_class=6, dim=16, seed=32)
    ds.features[:, 3] = np.nan
    for classifier in ("linear", "centroid"):
        with pytest.raises(ValueError, match="finite"):
            run_arms(plain_sampler(ds, 3, 1, 2), [(classifier, AdjustmentConfig("none"), FitConfig())],
                     kb, 2, 0)


# --- evaluation -------------------------------------------------------------------


def test_run_episode_separable_dataset_is_perfect(kb):
    ds = make_blob_dataset(n_classes=6, per_class=20, dim=16, spread=8.0, noise=0.05, seed=33)
    ep = sample_episode(ds, 5, 5, 5, episode_rng(3, 0))
    res = run_episode(ep, "linear", AdjustmentConfig("none"), FitConfig(seed=1), kb)
    assert res.accuracy == 1.0
    assert res.correct.shape == (25,)
    assert res.hardness.shape == (25,)


def test_run_episode_centroid_one_shot_is_nearest_support(ds, kb):
    ep = sample_episode(ds, 5, 1, 4, episode_rng(4, 1))
    res = run_episode(ep, "centroid", AdjustmentConfig("none"), FitConfig(), kb)
    d2 = ((ep.query_x[:, None, :] - ep.support_x[None, :, :]) ** 2).sum(axis=2)
    nearest = ep.support_y[d2.argmin(axis=1)]
    assert np.array_equal(res.predicted, nearest)


def test_run_episode_label_permutation_equivariance(ds, kb):
    # relabeling episode classes by a permutation must permute predictions
    ep = sample_episode(ds, 4, 2, 3, episode_rng(5, 2))
    perm = np.array([2, 0, 3, 1])
    order_s = np.argsort(perm[ep.support_y], kind="stable")
    order_q = np.argsort(perm[ep.query_y], kind="stable")
    relabeled = Episode(
        way=4,
        shot=2,
        query_per_class=3,
        support_x=ep.support_x[order_s],
        support_y=perm[ep.support_y][order_s],
        query_x=ep.query_x[order_q],
        query_y=perm[ep.query_y][order_q],
        class_map=ep.class_map[np.argsort(perm)],
        support_idx=ep.support_idx[order_s],
        query_idx=ep.query_idx[order_q],
    )
    cfg = AdjustmentConfig("none")
    res = run_episode(ep, "centroid", cfg, FitConfig(), kb)
    res_p = run_episode(relabeled, "centroid", cfg, FitConfig(), kb)
    assert np.array_equal(perm[res.predicted][order_q], res_p.predicted)
    assert res.accuracy == res_p.accuracy


def test_run_episode_rejects_unknown_head_kind(ds, kb):
    # named as an unknown kind, not as a non-parametric one with nothing to fit
    ep = sample_episode(ds, 2, 1, 1, episode_rng(6, 0))
    with pytest.raises(ValueError, match=r"unknown head kind 'bogus', expected one of"):
        run_episode(ep, "bogus", AdjustmentConfig("none"), FitConfig(), kb)


def test_run_episode_kb_dim_mismatch(ds):
    ep = sample_episode(ds, 2, 1, 1, episode_rng(6, 0))
    with pytest.raises(ValueError, match="does not match episode"):
        run_episode(ep, "linear", AdjustmentConfig("none"), FitConfig(), make_kb(m=2, dim=8))


def test_episode_hardness_matches_shape_and_seeds(ds, kb):
    ep = sample_episode(ds, 3, 2, 4, episode_rng(7, 0))
    h = episode_hardness(ep, kb)
    assert h.shape == (12,)
    assert np.array_equal(h, episode_hardness(ep, kb))
    assert np.all(np.isfinite(h))
    assert np.allclose(h, reference_hardness(ep, kb), rtol=0.0, atol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    way=st.integers(2, 5),
    shot=st.integers(1, 3),
    query=st.integers(1, 4),
    dim=st.integers(1, 8),
    m=st.integers(1, 5),
    bias_shift=st.sampled_from([0.0, -2.0, -50.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_episode_hardness_property_matches_per_query_reference(
    way, shot, query, dim, m, bias_shift, seed
):
    # a large negative bias rectifies many responses (or all) to zero
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase(
        class_means=rng.standard_normal((m, dim)),
        pre_weights=rng.standard_normal((m, dim)),
        pre_bias=rng.standard_normal(m) + bias_shift,
    )
    S, Q = way * shot, way * query
    ep = Episode(
        way=way, shot=shot, query_per_class=query,
        support_x=rng.standard_normal((S, dim)) * rng.uniform(0.1, 5.0),
        support_y=np.repeat(np.arange(way), shot),
        query_x=rng.standard_normal((Q, dim)) * rng.uniform(0.1, 5.0),
        query_y=rng.integers(0, way, Q),
        class_map=np.arange(way),
        support_idx=np.arange(S),
        query_idx=np.arange(S, S + Q),
    )
    h = episode_hardness(ep, kb)
    assert h.shape == (Q,)
    assert np.allclose(h, reference_hardness(ep, kb), rtol=0.0, atol=1e-12)


def _literal_hardness(ep: Episode, kb: KnowledgeBase) -> np.ndarray:
    """One episode's hardness as it was computed before chunks: its own
    logits, a masked mean per class and the two-dimensional cosine softmax."""
    logits = pretrain_logits(kb, np.concatenate([ep.support_x, ep.query_x]))
    S = ep.support_y.size
    profiles = np.stack([logits[:S][ep.support_y == k].mean(axis=0) for k in range(ep.way)])
    return query_hardness(logits[S:], profiles, ep.query_y)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    E=st.integers(1, 5),
    way=st.integers(2, 5),
    shot=st.integers(1, 9),
    query=st.integers(1, 4),
    dim=st.integers(1, 8),
    m=st.integers(1, 5),
    balanced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunk_hardness_equals_per_episode_hardness(
    E, way, shot, query, dim, m, balanced, seed
):
    # one stacked pass gives every episode of a chunk the bits it gets on its
    # own, when the episodes list their support rows in different orders and
    # when their classes hold different numbers of support rows
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase(
        class_means=rng.standard_normal((m, dim)),
        pre_weights=rng.standard_normal((m, dim)),
        pre_bias=rng.standard_normal(m),
    )
    S, Q = way * shot, way * query
    eps = []
    for _ in range(E):
        labels = np.repeat(np.arange(way), shot)
        if not balanced and shot > 1:
            labels = np.concatenate([np.arange(way), rng.integers(0, way, S - way)])
        eps.append(Episode(
            way=way, shot=shot, query_per_class=query,
            support_x=rng.standard_normal((S, dim)),
            support_y=rng.permutation(labels),
            query_x=rng.standard_normal((Q, dim)),
            query_y=rng.integers(0, way, Q),
            class_map=np.arange(way),
            support_idx=np.arange(S),
            query_idx=np.arange(S, S + Q),
        ))
    (chunk,) = _chunks(eps.__getitem__, E)
    hardness = _hardness(chunk, kb)
    assert hardness.shape == (E, Q)
    for h, ep in zip(hardness, eps):
        assert h.tobytes() == episode_hardness(ep, kb).tobytes()
        assert h.tobytes() == _literal_hardness(ep, kb).tobytes()


# --- seed streams ------------------------------------------------------------------


def test_episode_rng_streams_are_independent():
    a = episode_rng(50, 0).standard_normal(5)
    b = episode_rng(50, 1).standard_normal(5)
    assert not np.allclose(a, b)
    assert np.array_equal(a, episode_rng(50, 0).standard_normal(5))


def test_derived_fit_seed_distinct_from_episode_stream():
    seeds = {derived_fit_seed(8, i) for i in range(100)}
    assert len(seeds) == 100
    assert derived_fit_seed(8, 3) == derived_fit_seed(8, 3)
    assert derived_fit_seed(8, 3) != derived_fit_seed(9, 3)


# --- batch runs --------------------------------------------------------------------


def test_run_arms_uses_per_episode_fit_seeds(ds, kb):
    # the per-index derived seed must override whatever seed the caller set
    sample = plain_sampler(ds, 3, 1, 3)
    (a,), _ = run_arms(sample, [("linear", AdjustmentConfig("none"),
                                 FitConfig(iterations=20, seed=1))], kb, 4, 61)
    (b,), _ = run_arms(sample, [("linear", AdjustmentConfig("none"),
                                 FitConfig(iterations=20, seed=999))], kb, 4, 61)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.predicted, rb.predicted)


def test_results_share_one_read_only_label_row(ds, kb):
    # the episodes of a run labelled alike share one read-only `true` row; a
    # sampler that reorders its queries gets each episode's own labels back
    arms = [("linear", AdjustmentConfig("none"), FitConfig(iterations=5))]

    def shuffled(rng):
        ep = sample_episode(ds, 3, 1, 4, rng)
        order = rng.permutation(ep.query_y.size)
        return dataclasses.replace(
            ep, query_x=ep.query_x[order], query_y=ep.query_y[order], query_idx=ep.query_idx[order]
        ), order

    # 11 episodes come in two chunks; both arms and both chunks share the row
    two = arms + [("centroid", AdjustmentConfig("none"), FitConfig())]
    per_arm, _ = run_arms(plain_sampler(ds, 3, 1, 4), two, kb, 11, 63)
    alike = [r for results in per_arm for r in results]
    assert not alike[0].true.flags.writeable
    assert all(r.true is alike[0].true for r in alike)
    (results,), orders = run_arms(shuffled, arms, kb, 5, 63)
    for r, order in zip(results, orders):
        assert np.array_equal(r.true, np.repeat(np.arange(3), 4)[order])
        assert np.array_equal(r.correct, r.predicted == r.true)


def test_run_arms_rejects_zero_count(ds, kb):
    with pytest.raises(ValueError, match="episode count"):
        run_arms(plain_sampler(ds, 3, 1, 3), [("linear", AdjustmentConfig("none"), FitConfig())],
                 kb, 0, 0)


def test_random_uniform_features_score_near_chance(kb):
    # features carrying no class signal: 5-way accuracy concentrates near 20%
    rng = np.random.default_rng(77)
    from ifsl.knowledge import FeatureDataset

    feats = rng.standard_normal((600, 16))
    labels = np.repeat(np.arange(10), 60)
    ds = FeatureDataset(features=feats, labels=labels, n_classes=10)
    (results,), _ = run_arms(
        plain_sampler(ds, 5, 1, 3), [("centroid", AdjustmentConfig("none"), FitConfig())], kb, 300, 62
    )
    acc = float(np.mean([r.accuracy for r in results]))
    assert abs(acc - 0.2) < 0.04
