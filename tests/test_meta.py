"""Meta-learned head initializations: adaptation, training loop, serialization."""

import math
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.adjust import AdjustmentConfig, Predictor, class_context
from ifsl.episodes import _CHUNK, episode_rng, sample_episode
from ifsl.heads import (
    FitConfig, _unstack_heads, fit_head, fit_stack, mixture_loss_and_grads, sgd_step, stack_heads,
)
from ifsl.knowledge import FormatError, PartitionConfig
from ifsl.meta import (
    META_MAGIC,
    MetaInit,
    adapt,
    evaluate_inits,
    load_meta,
    meta_bytes,
    meta_train,
    replace_theta,
    save_meta,
    zero_meta_init,
)

from conftest import (
    make_blob_dataset,
    make_kb,
    reference_fit,
    reference_inputs,
    reference_mixture,
    reference_step,
)


@pytest.fixture
def ds():
    return make_blob_dataset(n_classes=6, per_class=20, dim=8, seed=41)


# --- construction ------------------------------------------------------------------


def test_zero_meta_init_shapes():
    mi = zero_meta_init(way=4, input_dim=6, n_heads=3)
    assert mi.kind == "linear"
    assert np.array_equal(mi.theta, np.zeros((3, 4, 7)))  # [W | b] per head
    assert mi.inner_lr == 0.01 and mi.tasks == 1000


def test_meta_init_validation():
    lin = np.zeros((1, 2, 4))
    with pytest.raises(ValueError, match="parametric"):
        MetaInit("centroid", lin)
    # no head, not a stack, one class, input dimension 0
    for kind, shape in (
        ("linear", (0, 2, 4)), ("linear", (2, 4)), ("cosine", (1, 1, 3)),
        ("linear", (1, 2, 1)), ("cosine", (1, 2, 0)),
    ):
        with pytest.raises(ValueError, match=r"stack with n, P >= 1 and K >= 2"):
            MetaInit(kind, np.ones(shape))
    with pytest.raises(ValueError, match="finite"):
        MetaInit("linear", np.full((1, 2, 4), np.nan))
    with pytest.raises(ValueError, match="learning rates"):
        MetaInit("linear", lin, inner_lr=0.0)
    with pytest.raises(ValueError, match="learning rates"):
        MetaInit("linear", lin, outer_lr=-0.1)
    MetaInit("linear", lin, outer_lr=0.0)  # frozen outer loop is allowed
    with pytest.raises(ValueError, match="counts"):
        MetaInit("linear", lin, inner_steps=-1)


def test_copy_theta_is_deep():
    mi = zero_meta_init(2, 3)
    theta = mi.copy_theta()
    theta[0].W[0, 0] = 5.0
    assert mi.theta0[0].W[0, 0] == 0.0


# --- adaptation ---------------------------------------------------------------------


@pytest.mark.parametrize("rate", ["inner_lr", "outer_lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_meta_init_rejects_non_finite_rates(rate, value):
    with pytest.raises(ValueError, match=f"finite .* got {rate}={value!r}"):
        zero_meta_init(5, 8, **{rate: value})



def test_adapt_matches_full_batch_fit(ds):
    # the inner loop is exactly the head fit with full batches and no decay
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "linear")
    rng = np.random.default_rng(1)
    X = ds.features[:9]
    y = np.array([0, 1, 2] * 3)
    theta = _unstack_heads(
        "linear", np.column_stack([rng.standard_normal((3, 8)), rng.standard_normal(3)])[None]
    )
    adapted = adapt(theta, predictor, X, y, inner_lr=0.05, inner_steps=7)
    fitted = fit_head(
        X, y, predictor,
        FitConfig(iterations=7, batch_size=None, learning_rate=0.05, weight_decay=0.0),
        init=theta,
    )
    assert np.array_equal(adapted[0].W, fitted[0].W)
    assert np.array_equal(adapted[0].b, fitted[0].b)


def test_adapt_matches_full_batch_fit_with_tied_context(ds):
    # class-wise heads read the context folded into their input in both
    # routines, so they adapt as plain heads on x - m * ctx
    kb = make_kb(m=3, dim=8, seed=42)
    predictor = Predictor(AdjustmentConfig("class"), kb, ds.dim, 3, "linear")
    X = ds.features[:9]
    y = np.array([0, 1, 2] * 3)
    theta = zero_meta_init(3, predictor.head_input_dim).theta0
    adapted = adapt(theta, predictor, X, y, inner_lr=0.05, inner_steps=7)
    fitted = fit_head(
        X, y, predictor,
        FitConfig(iterations=7, batch_size=None, learning_rate=0.05, weight_decay=0.0),
        init=theta,
    )
    assert np.array_equal(adapted[0].W, fitted[0].W)
    assert np.array_equal(adapted[0].b, fitted[0].b)
    base = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "linear")
    plain = adapt(theta, base, X - kb.m * class_context(kb, X), y, inner_lr=0.05, inner_steps=7)
    assert np.abs(plain[0].W).max() > 0.0
    assert np.array_equal(adapted[0].W, plain[0].W)
    assert np.array_equal(adapted[0].b, plain[0].b)


def test_adapt_zero_steps_returns_copy(ds):
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 2, "linear")
    theta = _unstack_heads("linear", np.concatenate([np.ones((1, 2, 8)), np.zeros((1, 2, 1))], -1))
    out = adapt(theta, predictor, ds.features[:4], np.array([0, 0, 1, 1]), 0.1, 0)
    assert np.array_equal(out[0].W, theta[0].W)
    assert out[0] is not theta[0]
    out[0].W[0, 0] = 9.0
    assert theta[0].W[0, 0] == 1.0


# --- training loop -----------------------------------------------------------------


def _train(ds, mi, seed):
    return meta_train(
        ds, 3, 1, 5, AdjustmentConfig("none"), mi, None, np.random.default_rng(seed)
    )


def test_meta_train_zero_outer_lr_is_identity(ds):
    mi = zero_meta_init(3, 8, outer_lr=0.0, tasks=20, inner_steps=3)
    out = _train(ds, mi, 2)
    assert np.array_equal(out.theta, mi.theta)
    assert out.theta is not mi.theta


def test_meta_train_zero_tasks_is_identity(ds):
    mi = zero_meta_init(3, 8, tasks=0)
    out = _train(ds, mi, 3)
    assert np.array_equal(out.theta, mi.theta)


def test_meta_train_deterministic(ds):
    mi = zero_meta_init(3, 8, tasks=15, inner_steps=3)
    a = _train(ds, mi, 4)
    b = _train(ds, mi, 4)
    assert np.array_equal(a.theta, b.theta)
    c = _train(ds, mi, 5)
    assert not np.array_equal(a.theta, c.theta)


def test_meta_train_moves_parameters_and_stays_finite(ds):
    mi = zero_meta_init(3, 8, tasks=15, inner_steps=3)
    out = _train(ds, mi, 6)
    assert not np.array_equal(out.theta, mi.theta)
    assert np.all(np.isfinite(out.theta))
    # hyperparameters ride along unchanged
    assert out.inner_lr == mi.inner_lr and out.tasks == mi.tasks


def test_meta_train_does_not_mutate_input(ds):
    mi = zero_meta_init(3, 8, tasks=5, inner_steps=2)
    _train(ds, mi, 7)
    assert np.array_equal(mi.theta, np.zeros((1, 3, 9)))


@pytest.mark.parametrize("strategy", ["none", "combined"])
def test_meta_train_matches_per_head_reference_loop(ds, strategy):
    # the same tasks adapted and stepped head by head, in probability space
    kb = make_kb(m=3, dim=8, seed=43)
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, ds.dim, 3, "linear")
    mi = zero_meta_init(3, predictor.head_input_dim, predictor.n_heads, inner_steps=5, tasks=4)
    trained = meta_train(ds, 3, 2, 4, cfg, mi, kb, np.random.default_rng(44))
    theta = mi.copy_theta()
    inner = FitConfig(iterations=5, batch_size=None, learning_rate=mi.inner_lr, weight_decay=0.0)
    rng = np.random.default_rng(44)
    for _ in range(mi.tasks):
        ep = sample_episode(ds, 3, 2, 4, rng)
        adapted = reference_fit(ep.support_x, ep.support_y, predictor, inner, init=theta)
        blocks = [
            np.stack([reference_inputs(predictor, x)[i] for x in ep.query_x])
            for i in range(predictor.n_heads)
        ]
        _, grads = reference_mixture(adapted, blocks, ep.query_y, 0.0)
        reference_step(theta, grads, mi.outer_lr)
    assert np.abs(trained.theta0[0].W).max() > 0.0
    for a, b in zip(trained.theta0, theta):
        assert np.allclose(a.W, b.W, rtol=0.0, atol=1e-12)
        assert np.allclose(a.b, b.b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "strategy,kind",
    [("none", "linear"), ("class", "linear"), ("combined", "linear"), ("combined", "cosine")],
)
def test_meta_train_equals_list_api_loop(ds, strategy, kind, tmp_path):
    # the stacked task loop against adapt -> mixture_loss_and_grads -> sgd_step
    # on lists of heads, task by task: the same bits and the same file
    kb = make_kb(m=3, dim=8, seed=45)
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, ds.dim, 3, kind)
    if kind == "linear":
        mi = zero_meta_init(
            3, predictor.head_input_dim, predictor.n_heads, inner_steps=5, outer_lr=0.05, tasks=6
        )
    else:
        start = fit_head(
            ds.features[:6], np.array([0, 1, 2] * 2), predictor,
            FitConfig(iterations=4, learning_rate=0.05),
        )
        mi = MetaInit(*stack_heads(start), inner_steps=5, outer_lr=0.05, tasks=6)
    trained = meta_train(ds, 3, 2, 3, cfg, mi, kb, np.random.default_rng(46))
    theta = mi.copy_theta()
    rng = np.random.default_rng(46)
    for _ in range(mi.tasks):
        ep = sample_episode(ds, 3, 2, 3, rng)
        adapted = adapt(theta, predictor, ep.support_x, ep.support_y, mi.inner_lr, mi.inner_steps)
        blocks = predictor.support_inputs(ep.query_x)
        _, grads = mixture_loss_and_grads(adapted, blocks, ep.query_y, 0.0)
        sgd_step(theta, grads, mi.outer_lr)
    assert not np.array_equal(trained.theta0[0].W, mi.theta0[0].W)
    for a, b in zip(trained.theta0, theta):
        assert np.array_equal(a.W, b.W)
        assert (a.b is None and b.b is None) or np.array_equal(a.b, b.b)
    save_meta(trained, tmp_path / "stacked.meta")
    save_meta(replace_theta(mi, theta), tmp_path / "list.meta")
    assert (tmp_path / "stacked.meta").read_bytes() == (tmp_path / "list.meta").read_bytes()


def _list_api_loop(ds, predictor, mi, rng, shot=1, query=4):
    """``mi.tasks`` meta-iterations task by task through the list API."""
    theta = mi.copy_theta()
    for _ in range(mi.tasks):
        ep = sample_episode(ds, 3, shot, query, rng)
        adapted = adapt(theta, predictor, ep.support_x, ep.support_y, mi.inner_lr, mi.inner_steps)
        blocks = predictor.support_inputs(ep.query_x)
        _, grads = mixture_loss_and_grads(adapted, blocks, ep.query_y, 0.0)
        sgd_step(theta, grads, mi.outer_lr)
    return theta


@pytest.mark.parametrize("tasks", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_meta_train_equals_list_api_loop_across_chunks(ds, kind, tasks):
    # tasks are drawn in chunks; the weights and the rng state left behind
    # are those of the task-by-task loop. On 64-dim features each of the 2
    # heads reads P' = 33 inputs, where BLAS kernels that read the batch in
    # another layout round differently, so every route must step through the
    # workspace's own layout
    wide = make_blob_dataset(n_classes=6, per_class=20, dim=64, seed=41)
    for data, kb in ((ds, make_kb(m=3, dim=8, seed=45)), (wide, make_kb(m=3, dim=64, seed=45))):
        cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=2, t=1e-3))
        predictor = Predictor(cfg, kb, data.dim, 3, kind)
        start = fit_head(
            data.features[:6], np.array([0, 1, 2] * 2), predictor,
            FitConfig(iterations=4, learning_rate=0.05),
        )
        mi = MetaInit(*stack_heads(start), inner_steps=3, outer_lr=0.05, tasks=tasks)
        rng = np.random.default_rng(50)
        trained = meta_train(data, 3, 1, 4, cfg, mi, kb, rng)
        ref_rng = np.random.default_rng(50)
        theta = _list_api_loop(data, predictor, mi, ref_rng)
        for a, b in zip(trained.theta0, theta):
            assert np.array_equal(a.W, b.W)
            assert (a.b is None and b.b is None) or np.array_equal(a.b, b.b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("split", [[1, 1, 1], [3, 5, 9], [_CHUNK, 2, _CHUNK + 3]])
def test_meta_train_calls_sharing_one_rng_equal_one_call(ds, split):
    kb = make_kb(m=3, dim=8, seed=45)
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, ds.dim, 3, "linear")
    whole = zero_meta_init(
        3, predictor.head_input_dim, predictor.n_heads, inner_steps=3, tasks=sum(split)
    )
    one = meta_train(ds, 3, 1, 4, cfg, whole, kb, np.random.default_rng(51))
    rng = np.random.default_rng(51)
    part = whole
    for tasks in split:
        part = meta_train(ds, 3, 1, 4, cfg, replace(part, tasks=tasks), kb, rng)
    assert np.array_equal(one.theta, part.theta)


@pytest.mark.parametrize("rows", ["support", "query"])
def test_meta_train_rejects_nan_written_after_construction(rows):
    # sampled episodes are not checked; the stratum inputs of both row sets are
    ds = make_blob_dataset(n_classes=3, per_class=2, dim=8, seed=52)
    mi = zero_meta_init(3, 8, tasks=1, inner_steps=2)
    rng = np.random.default_rng(53)
    first = sample_episode(ds, 3, 1, 1, np.random.default_rng(53))
    ds.features[first.support_idx if rows == "support" else first.query_idx, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        meta_train(ds, 3, 1, 1, AdjustmentConfig("none"), mi, None, rng)


@pytest.mark.parametrize("strategy", ["none", "class"])
def test_adapt_leaves_theta_unchanged(ds, strategy):
    # the fit steps its own copy with its own gradient buffers
    kb = make_kb(m=3, dim=8, seed=47)
    predictor = Predictor(AdjustmentConfig(strategy), kb, ds.dim, 3, "linear")
    rng = np.random.default_rng(48)
    W = rng.standard_normal((3, predictor.head_input_dim))
    theta = _unstack_heads("linear", np.column_stack([W, rng.standard_normal(3)])[None])
    before = [(h.W.copy(), h.b.copy()) for h in theta]
    adapted = adapt(theta, predictor, ds.features[:6], np.array([0, 1, 2] * 2), 0.05, 4)
    assert not np.array_equal(adapted[0].W, theta[0].W)
    for h, (W, b) in zip(theta, before):
        assert np.array_equal(h.W, W) and np.array_equal(h.b, b)


@pytest.mark.parametrize("bad", [-1, 3])
def test_adapt_rejects_labels_outside_way(ds, bad):
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "linear")
    theta = zero_meta_init(3, ds.dim).theta0
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\]"):
        adapt(theta, predictor, ds.features[:6], np.array([0, 1, 2, 0, 1, bad]), 0.05, 2)


def test_evaluate_inits_adapts_each_init_on_the_same_tasks(ds):
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "linear")
    mi = zero_meta_init(3, ds.dim, inner_steps=5)
    trained = meta_train(ds, 3, 1, 4, AdjustmentConfig("none"), mi, None, np.random.default_rng(3))
    inits = [trained.theta, mi.theta, trained.theta]
    accs = evaluate_inits(ds, 3, 1, 4, predictor, inits, 0.01, 5, 6, 21)
    assert [len(a) for a in accs] == [6, 6, 6]
    assert accs[0] == accs[2]
    for e in range(6):
        ep = sample_episode(ds, 3, 1, 4, episode_rng(21, e))
        adapted = adapt(mi.theta0, predictor, ep.support_x, ep.support_y, 0.01, 5)
        pred = predictor.probs_batch(adapted, ep.query_x).argmax(axis=1)
        assert accs[1][e] == 100.0 * float((pred == ep.query_y).mean())


@pytest.mark.parametrize("count", [0, -4])
def test_evaluate_inits_refuses_a_task_count_below_one(ds, count):
    # as run_arms refuses it, instead of returning no accuracies
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "linear")
    theta = zero_meta_init(3, ds.dim).theta
    with pytest.raises(ValueError, match=f"episode count must be >= 1, got {count}"):
        evaluate_inits(ds, 3, 1, 4, predictor, [theta], 0.01, 5, count, 21)


def test_evaluate_inits_refuses_centroid_heads(ds):
    # centroid heads are not fitted, so every init would score the same
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "centroid")
    theta = zero_meta_init(3, ds.dim).theta
    with pytest.raises(ValueError, match="parametric heads, got 'centroid'"):
        evaluate_inits(ds, 3, 1, 4, predictor, [theta], 0.01, 5, 2, 21)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_evaluate_inits_in_chunks_equals_one_task_at_a_time(ds, kind):
    kb = make_kb(m=3, dim=8, seed=45)
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, ds.dim, 3, kind)
    start = fit_head(
        ds.features[:6], np.array([0, 1, 2] * 2), predictor,
        FitConfig(iterations=4, learning_rate=0.05),
    )
    count = 2 * _CHUNK + 3
    (accs,) = evaluate_inits(ds, 3, 1, 4, predictor, [stack_heads(start)[1]], 0.05, 5, count, 22)
    expected = []
    for e in range(count):
        ep = sample_episode(ds, 3, 1, 4, episode_rng(22, e))
        adapted = adapt(start, predictor, ep.support_x, ep.support_y, 0.05, 5)
        pred = predictor.probs_batch(adapted, ep.query_x).argmax(axis=1)
        expected.append(100.0 * float((pred == ep.query_y).mean()))
    assert accs == expected


def test_head_layout_gives_the_same_bits(ds, tmp_path):
    # the heads of theta0 are slices of the one affine stack [W | b] of the
    # trained initialization, W and b strided views of it; the file bytes,
    # copy_theta and an sgd_step are the same bits as for heads built on
    # their own, each holding its own contiguous [W | b]
    adj = AdjustmentConfig("feature", partition=PartitionConfig(n=2))
    predictor = Predictor(adj, None, ds.dim, 3, "linear")
    mi = zero_meta_init(3, predictor.head_input_dim, predictor.n_heads, inner_steps=3, tasks=5)
    trained = meta_train(ds, 3, 1, 4, adj, mi, None, np.random.default_rng(5))
    views = trained.theta0
    for h in views:
        assert h.theta.base is trained.theta
        assert not h.W.flags.c_contiguous and not h.b.flags.c_contiguous
    contiguous = [_unstack_heads("linear", h.theta[None].copy())[0] for h in views]
    assert all(
        h.theta.flags.c_contiguous and not np.shares_memory(h.theta, trained.theta)
        for h in contiguous
    )
    other = replace_theta(trained, contiguous)
    save_meta(trained, tmp_path / "views.bin")
    save_meta(other, tmp_path / "contiguous.bin")
    assert (tmp_path / "views.bin").read_bytes() == (tmp_path / "contiguous.bin").read_bytes()
    assert meta_bytes(trained) == meta_bytes(other)
    for a, c in zip(trained.copy_theta(), other.copy_theta()):
        assert np.array_equal(a.W, c.W) and np.array_equal(a.b, c.b)
        assert not np.shares_memory(a.W, trained.theta0[0].W)
    ep = sample_episode(ds, 3, 1, 4, episode_rng(6, 0))
    _, grads = mixture_loss_and_grads(views, predictor.support_inputs(ep.query_x), ep.query_y)
    before = views[0].b.copy()
    for heads in (views, contiguous):
        sgd_step(heads, grads, 0.5)
    assert not np.array_equal(views[0].b, before)
    for a, c in zip(views, contiguous):
        assert np.array_equal(a.W, c.W) and np.array_equal(a.b, c.b)


def test_replace_theta_keeps_hyperparameters():
    mi = zero_meta_init(2, 3, inner_lr=0.5, inner_steps=9, outer_lr=0.25, tasks=7)
    new = _unstack_heads("linear", np.array([[[1.0, 1.0, 1.0, 2.0]] * 2]))
    out = replace_theta(mi, new)
    assert out.kind == "linear"
    assert np.array_equal(out.theta, [[[1.0, 1.0, 1.0, 2.0]] * 2])
    assert (out.inner_lr, out.inner_steps, out.outer_lr, out.tasks) == (0.5, 9, 0.25, 7)


# --- serialization -----------------------------------------------------------------


def _f32_meta(n_heads=2, way=3, dim=4, kind="linear"):
    width = dim + (kind == "linear")
    theta = np.random.default_rng(9).integers(-8, 8, size=(n_heads, way, width)) / 4.0
    return MetaInit(kind, theta, inner_lr=0.5, inner_steps=6, outer_lr=0.25, tasks=11)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_meta_round_trip(tmp_path, kind):
    mi = _f32_meta(kind=kind)
    path = tmp_path / "init.meta"
    save_meta(mi, path)
    back = load_meta(path)
    assert back.kind == kind
    assert np.array_equal(back.theta, mi.theta)  # quarter-integers survive f32 exactly
    assert back.inner_lr == 0.5 and back.outer_lr == 0.25
    assert back.inner_steps == 6 and back.tasks == 11


def test_meta_round_trip_rounds_rates_to_f32(tmp_path):
    mi = zero_meta_init(2, 3, inner_lr=0.01, outer_lr=0.01)
    path = tmp_path / "init.meta"
    save_meta(mi, path)
    back = load_meta(path)
    assert back.inner_lr == pytest.approx(0.01, abs=1e-8)
    assert back.inner_lr == float(np.float32(0.01))


def test_meta_file_size_matches_layout(tmp_path):
    mi = _f32_meta(n_heads=3, way=2, dim=5, kind="cosine")
    path = tmp_path / "init.meta"
    save_meta(mi, path)
    assert path.stat().st_size == 40 + 4 * 3 * (2 * 5)


@pytest.mark.parametrize("strategy", ["class", "combined"])
def test_concatenated_width_init_is_rejected(ds, strategy, tmp_path):
    # a class/combined file written when heads read [x, ctx] holds twice the
    # folded width; it loads, and is refused wherever it would be used
    kb = make_kb(m=3, dim=8, seed=42)
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, ds.dim, 3, "linear")
    old = zero_meta_init(3, 2 * predictor.head_input_dim, predictor.n_heads, tasks=2)
    save_meta(old, tmp_path / "old.meta")
    loaded = load_meta(tmp_path / "old.meta")
    match = f"head input dimension {2 * predictor.head_input_dim} does not match"
    with pytest.raises(ValueError, match=match):
        predictor.validate_heads(loaded.theta0)
    with pytest.raises(ValueError, match=match):
        meta_train(ds, 3, 1, 2, cfg, loaded, kb, np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        evaluate_inits(ds, 3, 1, 2, predictor, [loaded.theta], 0.01, 2, 2, 0)


@pytest.mark.parametrize("case", ["count", "way", "width", "kind"])
def test_one_refusal_for_every_entry(ds, case):
    # a start that does not fit the predictor (2 linear 3-way heads of input
    # width 4) gets Predictor.check_stack's one message, whichever call it
    # reaches; a kind can only be wrong where the heads carry it, in lists
    # of HeadParams (fit_head checks it with the same words): bare stacks
    # are read as the predictor's kind, and meta_train builds its predictor
    # for the start's kind
    kb = make_kb(m=3, dim=8, seed=42)
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, ds.dim, 3, "linear")
    kind, shape, match = {
        "count": ("linear", (3, 3, 5), "expected 2 heads, got 3"),
        "way": ("linear", (2, 4, 5), "head is 4-way, expected 3"),
        "width": (
            "linear", (2, 3, 9), "head input dimension 8 does not match strategy requirement 4"
        ),
        "kind": ("cosine", (2, 3, 4), "expected 'linear' heads, got 'cosine'"),
    }[case]
    mi = MetaInit(kind, np.full(shape, 0.1))
    X, y = ds.features[:6], np.array([0, 1, 2] * 2)
    entries = [
        lambda: predictor.validate_heads(mi.theta0),
        lambda: fit_head(X, y, predictor, FitConfig(iterations=2), init=mi.theta0),
    ]
    if case != "kind":
        entries += [
            lambda: fit_stack(
                predictor.support_inputs(X[None]), y[None], predictor, FitConfig(), [0], mi.theta
            ),
            lambda: evaluate_inits(ds, 3, 1, 2, predictor, [mi.theta], 0.01, 2, 2, 0),
            lambda: meta_train(
                ds, 3, 1, 2, cfg, replace(mi, tasks=2), kb, np.random.default_rng(0)
            ),
        ]
    for entry in entries:
        with pytest.raises(ValueError, match=match):
            entry()


def test_adapt_and_fit_head_check_a_start_once(ds, monkeypatch):
    # a supplied start goes through Predictor.check_stack once, in fit_stack;
    # fit_head itself checks only the kind, which a stack does not carry
    seen = []
    check = Predictor.check_stack

    def counted(self, kind, theta):
        seen.append(kind)
        check(self, kind, theta)

    monkeypatch.setattr(Predictor, "check_stack", counted)
    predictor = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "linear")
    start = zero_meta_init(3, ds.dim).theta0
    X, y = ds.features[:6], np.array([0, 1, 2] * 2)
    adapt(start, predictor, X, y, 0.01, 2)
    assert seen == ["linear"]
    fit_head(X, y, predictor, FitConfig(iterations=2), init=start)
    assert seen == ["linear"] * 2
    # a centroid start has a cosine start's width, and is refused by its kind
    cosine = Predictor(AdjustmentConfig("none"), None, ds.dim, 3, "cosine")
    centroids = _unstack_heads("centroid", np.ones((1, 3, ds.dim)))
    with pytest.raises(ValueError, match="expected 'cosine' heads, got 'centroid'"):
        fit_head(X, y, cosine, FitConfig(iterations=2), init=centroids)
    assert seen == ["linear"] * 2


def test_load_meta_bad_magic(tmp_path):
    path = tmp_path / "bad.meta"
    path.write_bytes(b"NOTMETA!" + bytes(40))
    with pytest.raises(FormatError, match="bad magic at byte 0"):
        load_meta(path)


def test_load_meta_truncated_header(tmp_path):
    path = tmp_path / "short.meta"
    path.write_bytes(META_MAGIC + bytes(10))
    with pytest.raises(FormatError, match="truncated header at byte 18"):
        load_meta(path)


def test_load_meta_unknown_kind_code(tmp_path):
    path = tmp_path / "kind.meta"
    payload = META_MAGIC + struct.pack("<IIII", 7, 1, 2, 3) + struct.pack("<ffII", 0.1, 0.1, 1, 1)
    path.write_bytes(payload + bytes(4 * (2 * 3 + 2)))
    with pytest.raises(FormatError, match="unknown head kind code 7 at byte 8"):
        load_meta(path)


def test_load_meta_degenerate_layout(tmp_path):
    path = tmp_path / "way1.meta"
    payload = META_MAGIC + struct.pack("<IIII", 0, 1, 1, 3) + struct.pack("<ffII", 0.1, 0.1, 1, 1)
    path.write_bytes(payload + bytes(4 * (1 * 3 + 1)))
    with pytest.raises(FormatError, match="degenerate layout"):
        load_meta(path)


def test_load_meta_size_mismatch(tmp_path):
    path = tmp_path / "size.meta"
    payload = META_MAGIC + struct.pack("<IIII", 0, 1, 2, 3) + struct.pack("<ffII", 0.1, 0.1, 1, 1)
    path.write_bytes(payload + bytes(30))  # linear 2x3 payload needs 32 bytes
    with pytest.raises(FormatError, match="expected 72 bytes"):
        load_meta(path)


def test_load_meta_non_finite_weight(tmp_path):
    # the first non-finite value in file order is named, with the byte where
    # its head's W or b ends: two linear 2x3 heads of 6 + 2 values each
    path = tmp_path / "nan.meta"
    header = META_MAGIC + struct.pack("<IIII", 0, 2, 2, 3) + struct.pack("<ffII", 0.1, 0.1, 1, 1)
    for bad, message in (
        ([0, 1, 2, 3, 4, 5], "weight in payload before byte 64"),
        ([14], "bias in payload before byte 104"),
        ([8], "weight in payload before byte 96"),
        ([6, 8], "bias in payload before byte 72"),
    ):
        payload = np.zeros(16, dtype="<f4")
        payload[bad] = [np.nan, np.inf][len(bad) % 2]
        path.write_bytes(header + payload.tobytes())
        with pytest.raises(FormatError, match=f"non-finite {message}"):
            load_meta(path)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_meta_payload_is_each_head_w_row_major_then_b(tmp_path, kind):
    # the expected bytes are built from the parts, not by load_meta: a round
    # trip cannot catch a writer and a reader that agree on a wrong order
    W = np.arange(24.0).reshape(2, 3, 4) / 4.0
    b = -np.arange(1.0, 7.0).reshape(2, 3)
    theta = np.concatenate((W, b[..., None]), axis=2) if kind == "linear" else W
    mi = MetaInit(kind, theta, inner_lr=0.5, inner_steps=6, outer_lr=0.25, tasks=11)
    expected = (
        META_MAGIC
        + struct.pack("<IIII", {"linear": 0, "cosine": 1}[kind], 2, 3, 4)
        + struct.pack("<ffII", 0.5, 0.25, 6, 11)
    )
    for i in range(2):
        expected += W[i].astype("<f4").tobytes()
        if kind == "linear":
            expected += b[i].astype("<f4").tobytes()
    assert meta_bytes(mi) == expected
    path = tmp_path / "init.meta"
    path.write_bytes(expected)
    assert np.array_equal(load_meta(path).theta, theta)


def _patched_rate(tmp_path, offset, value):
    path = tmp_path / "rate.meta"
    save_meta(_f32_meta(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.5])
def test_load_meta_rejects_bad_inner_lr(tmp_path, value):
    path = _patched_rate(tmp_path, 24, value)
    with pytest.raises(FormatError, match="inner_lr .* at byte 24"):
        load_meta(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.25])
def test_load_meta_rejects_bad_outer_lr(tmp_path, value):
    path = _patched_rate(tmp_path, 28, value)
    with pytest.raises(FormatError, match="outer_lr .* at byte 28"):
        load_meta(path)


def test_load_meta_accepts_zero_outer_lr(tmp_path):
    assert load_meta(_patched_rate(tmp_path, 28, 0.0)).outer_lr == 0.0


@pytest.mark.parametrize(
    "change,message",
    [
        (dict(inner_lr=1e-50), "inner_lr=1e-50 is stored as the f32 0.0"),
        (dict(inner_lr=1e39), "inner_lr=1e\\+39 is stored as the f32 inf"),
        (dict(outer_lr=1e39), "outer_lr=1e\\+39 is stored as the f32 inf"),
        (dict(tasks=2**32), "tasks=4294967296 does not fit"),
        (dict(inner_steps=2**40), "inner_steps=1099511627776 does not fit"),
    ],
)
def test_save_meta_refuses_what_load_meta_would_reject(tmp_path, change, message):
    mi = _f32_meta()
    for name, value in change.items():
        setattr(mi, name, value)
    path = tmp_path / "init.meta"
    with pytest.raises(ValueError, match=message):
        save_meta(mi, path)
    assert not path.exists()


def test_save_meta_refuses_weights_beyond_f32_and_bad_layouts(tmp_path):
    path = tmp_path / "init.meta"
    for at in ((1, 0, 0), (1, 2, 4)):  # a weight, a bias
        big = _f32_meta()
        big.theta[at] = 1e39
        with pytest.raises(ValueError, match="finite once rounded to f32"):
            save_meta(big, path)
    # a layout of input dimension 0 cannot be built, so it never reaches the file
    with pytest.raises(ValueError, match="P >= 1"):
        save_meta(MetaInit("linear", np.zeros((1, 3, 1))), path)
    assert not path.exists()


def _f32_or_inf(value: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.float32(value))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    inner_lr=st.floats(5e-324, 1e300) | st.sampled_from([1e-45, 7e-46, 3.4028235e38, 3.5e38]),
    outer_lr=st.floats(0.0, 1e300) | st.sampled_from([0.0, 1e-50, 3.4028235e38, 3.5e38]),
    inner_steps=st.integers(0, 2**33),
    tasks=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40]),
    weight=st.sampled_from([0.25, -3.4e38, 3.4028235e38, 3.5e38, 1e39]),
    kind=st.sampled_from(["linear", "cosine"]),
)
def test_a_written_meta_file_always_loads(inner_lr, outer_lr, inner_steps, tasks, weight, kind):
    mi = _f32_meta(kind=kind)
    mi.theta[0, 1, 2] = weight
    mi = MetaInit(kind, mi.theta, inner_lr, inner_steps, outer_lr, tasks)
    f32_inner, f32_outer = _f32_or_inf(inner_lr), _f32_or_inf(outer_lr)
    storable = (
        0.0 < f32_inner < math.inf and f32_outer < math.inf
        and inner_steps < 2**32 and tasks < 2**32 and abs(_f32_or_inf(weight)) < math.inf
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "init.meta"
        if not storable:
            with pytest.raises(ValueError):
                save_meta(mi, path)
            assert not path.exists()
            return
        save_meta(mi, path)
        back = load_meta(path)
    assert (back.inner_lr, back.outer_lr) == (f32_inner, f32_outer)
    assert (back.inner_steps, back.tasks) == (inner_steps, tasks)
    assert np.array_equal(back.theta, mi.theta.astype(np.float32))
