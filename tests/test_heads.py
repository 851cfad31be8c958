"""Head logits, analytic gradients against finite differences, and the SGD fit."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.adjust import STRATEGIES, AdjustmentConfig, Predictor, class_context
from ifsl.heads import (
    FitConfig,
    HeadParams,
    _Workspace,
    _class_means,
    _label_index,
    _logits,
    _split,
    _stack_inputs,
    _unstack_heads,
    batch_rows,
    fit_head,
    fit_stack,
    init_heads,
    init_stack,
    mixture_loss_and_grads,
    sgd_step,
    stack_heads,
    stack_loss_and_grads,
    stack_probs,
    stack_sgd_step,
)
from ifsl.knowledge import PartitionConfig
from ifsl.numerics import normalize_rows, softmax_rows
from ifsl.synth import sample_confounded_episode

from conftest import (
    ReferenceCycler,
    make_kb,
    reference_fit,
    reference_inputs,
    reference_mixture,
    reference_probs,
)


# --- logits ---------------------------------------------------------------------
# one head is a (K, P') slice of a stack, [W | b] for linear heads; single
# inputs are scored as one-row batches


def _logit_rows(kind, theta, Z):
    """(B, K) logits of the one head ``theta`` on a (B, P) block, through the
    input stack and logits that ``stack_probs`` scores."""
    theta = np.asarray(theta, dtype=np.float64)
    V = _stack_inputs(kind, np.asarray(Z)[None, None], theta.shape[-1] - (kind == "linear"))
    return _logits(kind, theta[None, None], V)[0, 0].T


def test_linear_logits_examples():
    zero = np.zeros((2, 3))
    assert np.array_equal(_logit_rows("linear", zero, [[5.0, -3.0]])[0], [0.0, 0.0])

    ident = np.column_stack([np.eye(2), np.zeros(2)])
    assert np.array_equal(_logit_rows("linear", ident, [[3.0, -1.0]])[0], [3.0, -1.0])

    h = [[1.0, 1.0, 1.0], [0.0, 2.0, 0.0]]
    assert np.array_equal(_logit_rows("linear", h, [[1.0, 1.0]])[0], [3.0, 2.0])


def test_cosine_logits_examples():
    out = _logit_rows("cosine", [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]])[0]
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0)

    scaled = [[2.0, 0.0], [0.0, 1.0]]
    assert _logit_rows("cosine", scaled, [[5.0, 0.0]])[0, 0] == pytest.approx(1.0)


def test_cosine_rescaling_invariance():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((3, 4))
    z = rng.standard_normal((1, 4))
    base = _logit_rows("cosine", W, z)
    scaled_rows = W * rng.uniform(0.5, 4.0, size=(3, 1))
    assert np.allclose(_logit_rows("cosine", scaled_rows, z), base, atol=1e-12)
    assert np.allclose(_logit_rows("cosine", W, 7.3 * z), base, atol=1e-12)


def test_centroid_logits_examples():
    h = [[0.0, 0.0], [1.0, 0.0]]
    out = _logit_rows("centroid", h, [[1.0, 0.0]])[0]
    assert np.array_equal(out, [-1.0, 0.0])
    assert out.argmax() == 1
    # sitting on a centroid scores 0, the maximum
    assert _logit_rows("centroid", h, [[0.0, 0.0]])[0, 0] == 0.0


def test_centroid_equals_expanded_linear_argmax():
    # -||z - c||^2 = 2 c.z - ||c||^2 - ||z||^2, so argmax matches W=2c, b=-||c||^2
    rng = np.random.default_rng(4)
    cents = rng.standard_normal((4, 6))
    lin_head = np.column_stack([2.0 * cents, -np.sum(cents * cents, axis=1)])
    for _ in range(100):
        z = rng.standard_normal((1, 6)) * rng.uniform(0.1, 5)
        expected = _logit_rows("linear", lin_head, z).argmax()
        assert _logit_rows("centroid", cents, z).argmax() == expected


def test_head_probs_sum_to_one():
    rng = np.random.default_rng(5)
    heads = [
        ("linear", np.column_stack([rng.standard_normal((3, 4)), rng.standard_normal(3)])),
        ("cosine", rng.standard_normal((3, 4))),
        ("centroid", rng.standard_normal((3, 4))),
    ]
    for kind, theta in heads:
        p = softmax_rows(_logit_rows(kind, theta, rng.standard_normal((1, 4))))[0]
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_head_params_validation():
    # heads are views that _unstack_heads builds from a stack, which it
    # refuses with fewer than 2 classes; a hand-made view of an unknown kind
    # is refused where it is stacked, and an input block of another width
    # where it is scored
    with pytest.raises(ValueError, match="at least 2 classes"):
        _unstack_heads("linear", np.zeros((1, 1, 4)))
    mlp = [HeadParams("mlp", np.zeros((2, 3)))]
    with pytest.raises(ValueError, match="unknown head kind 'mlp'"):
        stack_heads(mlp)
    predictor = Predictor(AdjustmentConfig("none"), None, 3, 2, "centroid")
    with pytest.raises(ValueError, match="unknown head kind 'mlp'"):
        predictor.probs_from_inputs(mlp, np.zeros((1, 1, 3)))
    with pytest.raises(ValueError, match="inputs of dimension 2"):
        stack_probs("linear", np.zeros((1, 1, 2, 3)), np.zeros((1, 1, 1, 3)))


# --- centroids --------------------------------------------------------------------


def test_centroid_init_means_support_rows():
    # a centroid head starts at, and stays, the per-class means of its support
    # rows; one episode of one head is the (1, 1, S, P) stack
    feats = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 1.0]])
    labels = np.array([0, 0, 1])
    cents = init_stack("centroid", 2, feats[None, None], labels[None])
    assert cents.shape == (1, 1, 2, 2)  # centroids only: no bias column
    assert np.array_equal(cents[0, 0], [[1.0, 1.0], [5.0, 1.0]])
    # one-shot centroid is the sample itself
    one = init_stack("centroid", 1, feats[None, None, 2:], labels[None, 2:] - 1)
    assert np.array_equal(one[0, 0], [[5.0, 1.0]])
    # sample order does not matter
    cents2 = init_stack("centroid", 2, feats[None, None, ::-1], labels[None, ::-1])
    assert np.allclose(cents, cents2, atol=1e-15)
    with pytest.raises(ValueError, match="no samples for class"):
        init_stack("centroid", 3, feats[None, None], labels[None])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    E=st.integers(1, 4),
    n=st.sampled_from([None, 1, 3]),
    way=st.integers(1, 5),
    shot=st.integers(1, 10),
    width=st.integers(1, 6),
    balanced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_class_means_equal_per_episode_masks(E, n, way, shot, width, balanced, seed):
    # one gather for a chunk gives each (episode, class) the bits of its own
    # masked mean, whatever order each episode lists its rows in; up to 10
    # rows a class and width 1, where numpy may sum a class's rows pairwise
    rng = np.random.default_rng(seed)
    S = way * shot
    labels = np.empty((E, S), dtype=np.int64)
    for e in range(E):
        row = np.repeat(np.arange(way), shot)
        if not balanced and S > way:
            row = np.concatenate([np.arange(way), rng.integers(0, way, S - way)])
        labels[e] = rng.permutation(row)
    mid = () if n is None else (n,)
    Z = rng.standard_normal((E, *mid, S, width)) * 10.0 ** rng.integers(-3, 4)
    means = _class_means(Z, labels, way)
    assert means.shape == (E, *mid, way, width)
    for e in range(E):
        for k in range(way):
            expected = Z[e][..., labels[e] == k, :].mean(axis=-2)
            assert means[e, ..., k, :].tobytes() == expected.tobytes()


def test_stacked_class_means_name_the_missing_class():
    labels = np.array([[0, 1, 2, 2], [0, 1, 1, 2]])
    with pytest.raises(ValueError, match="no samples for class 3"):
        _class_means(np.zeros((2, 4, 3)), labels, 4)
    with pytest.raises(ValueError, match="no samples for class 2"):
        _class_means(np.zeros((2, 4, 3)), np.array([[0, 1, 2, 2], [0, 1, 1, 0]]), 3)


# --- loss and gradients -------------------------------------------------------------
# a single head on a one-row batch is plain softmax cross-entropy


def _ce(h, z, y, weight_decay=0.0):
    return mixture_loss_and_grads([h], [np.array([z], dtype=float)], np.array([y]), weight_decay)


def test_ce_loss_zero_params_ln2():
    (h,) = _unstack_heads("linear", np.zeros((1, 2, 4)))
    loss, _ = _ce(h, [1.0, -4.0, 2.0], 0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_ce_loss_includes_weight_penalty():
    (h,) = _unstack_heads("linear", np.array([[[2.0, 2.0, 0.0], [2.0, 2.0, 0.0]]]))
    loss, _ = _ce(h, [0.0, 0.0], 0, weight_decay=0.1)
    assert loss == pytest.approx(math.log(2.0) + 0.05 * 16.0, abs=1e-12)


def test_ce_loss_invalid_label():
    (h,) = _unstack_heads("linear", np.zeros((1, 2, 4)))
    with pytest.raises(ValueError):
        _ce(h, [0.0, 0.0, 0.0], 2)


def test_saturated_head_small_loss_and_gradient():
    # logits strongly favor the true class: loss and gradient nearly vanish
    (h,) = _unstack_heads("linear", np.array([[[20.0, 0.0, 0.0], [-20.0, 0.0, 0.0]]]))
    loss, dtheta = _ce(h, [1.0, 0.0], 0)
    assert loss < 1e-3
    assert np.linalg.norm(dtheta) < 1e-2


def flatten_grads(grads):
    """The (n, K, P') list gradient in the order of ``_flatten_params``:
    each head's ``theta``, [W | b] row by row for linear heads."""
    return np.asarray(grads).ravel()


def _flatten_params(heads):
    return np.concatenate([h.theta.ravel() for h in heads])


def _set_params(heads, flat):
    pos = 0
    for h in heads:
        h.theta[...] = flat[pos : pos + h.theta.size].reshape(h.theta.shape)
        pos += h.theta.size


def fd_gradient(heads, inputs, labels, weight_decay, step=1e-6):
    """Central finite differences of the mixture loss over all parameters."""
    flat0 = _flatten_params(heads)
    grad = np.zeros_like(flat0)
    for i in range(flat0.size):
        for sign in (+1.0, -1.0):
            flat = flat0.copy()
            flat[i] += sign * step
            _set_params(heads, flat)
            loss, _ = mixture_loss_and_grads(heads, inputs, labels, weight_decay)
            grad[i] += sign * loss / (2.0 * step)
    _set_params(heads, flat0)
    return grad


def _random_heads(kind, n_heads, way, input_dim, rng):
    thetas = []
    for _ in range(n_heads):
        W = rng.standard_normal((way, input_dim))
        thetas.append(np.column_stack([W, rng.standard_normal(way)]) if kind == "linear" else W)
    return _unstack_heads(kind, np.array(thetas))


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(42)
    for trial in range(50):
        way = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 6))
        n_heads = int(rng.integers(1, 4))
        B = int(rng.integers(1, 5))
        heads = _random_heads(kind, n_heads, way, dim, rng)
        inputs = [rng.standard_normal((B, dim)) + 0.1 for _ in range(n_heads)]
        labels = rng.integers(0, way, size=B)
        wd = float(rng.choice([0.0, 1e-3, 0.1]))
        _, grads = mixture_loss_and_grads(heads, inputs, labels, wd)
        analytic = flatten_grads(grads)
        numeric = fd_gradient(heads, inputs, labels, wd)
        denom = max(np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5, f"trial {trial}"


@pytest.mark.parametrize("strategy", ["none", "feature", "class", "combined"])
@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_gradients_through_adjustment_predictors(strategy, kind):
    rng = np.random.default_rng(7)
    dim, way = 8, 3
    kb = make_kb(m=3, dim=dim, seed=21)
    cfg = AdjustmentConfig(strategy=strategy, partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, dim, way, kind)
    for trial in range(10):
        X = rng.standard_normal((3, dim)) + 0.2  # keep blocks away from zero norm
        y = rng.integers(0, way, size=3)
        blocks = predictor.support_inputs(X)
        heads = _random_heads(kind, predictor.n_heads, way, predictor.head_input_dim, rng)
        _, grads = mixture_loss_and_grads(heads, blocks, y, 1e-3)
        analytic = flatten_grads(grads)
        numeric = fd_gradient(heads, blocks, y, 1e-3)
        denom = max(np.linalg.norm(numeric), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5, f"trial {trial}"


def test_mixture_loss_validation():
    (h,) = _unstack_heads("linear", np.zeros((1, 2, 3)))
    with pytest.raises(ValueError, match="empty batch"):
        mixture_loss_and_grads([h], [np.zeros((0, 2))], np.array([], dtype=int))
    with pytest.raises(ValueError):
        mixture_loss_and_grads([h], [np.zeros((1, 2))], np.array([2]))
    with pytest.raises(ValueError, match="one input block per head"):
        mixture_loss_and_grads([h], [], np.array([0]))


@pytest.mark.parametrize("n_heads", [1, 2])
def test_large_logit_gap_gives_finite_loss_and_gradients(n_heads):
    # head i scores the true class 0 at 0 and class 1 at 1000 + 10 i, so the
    # true class's probability underflows in every head
    heads = _unstack_heads(
        "linear", np.array([[[0.0, 0.0], [1.0, 10.0 * i]] for i in range(n_heads)])
    )
    inputs = np.full((n_heads, 1, 1), 1000.0)
    loss, dtheta = mixture_loss_and_grads(heads, inputs, np.array([0]))
    dW, db = _split("linear", dtheta)
    # -log((1/n) sum_i exp(-(1000 + 10 i))), in closed form
    gaps = 1000.0 + 10.0 * np.arange(n_heads)
    expected = 1000.0 + math.log(n_heads) - math.log(np.sum(np.exp(1000.0 - gaps)))
    assert np.isfinite(loss)
    assert loss == pytest.approx(expected, rel=1e-15)
    assert np.all(np.isfinite(dW)) and np.all(np.isfinite(db))
    # p_i - onehot = (-1, 1) in every head, weighted by the responsibilities
    # r_i = softmax_i(-gap_i)
    r = np.exp(gaps.min() - gaps) / np.sum(np.exp(gaps.min() - gaps))
    assert np.allclose(db, r[:, None] * [-1.0, 1.0], rtol=1e-15, atol=0.0)
    assert np.allclose(dW[:, :, 0], 1000.0 * r[:, None] * [-1.0, 1.0], rtol=1e-15, atol=0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    strategy=st.sampled_from(["none", "feature", "class", "combined"]),
    kind=st.sampled_from(["linear", "cosine"]),
    n=st.sampled_from([1, 2, 4]),
    width=st.integers(1, 3),
    m=st.integers(1, 3),
    batch=st.integers(1, 5),
    weight_decay=st.sampled_from([0.0, 1e-3, 0.1]),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_gradients_match_finite_differences_property(
    strategy, kind, n, width, m, batch, weight_decay, zero_row, seed
):
    dim, way = n * width, 3
    rng = np.random.default_rng(seed)
    kb = make_kb(m=m, dim=dim, seed=seed % 1000)
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=n, t=1e-3))
    predictor = Predictor(cfg, kb, dim, way, kind)
    blocks = predictor.support_inputs(rng.standard_normal((batch, dim)) + 0.2)
    y = rng.integers(0, way, size=batch)
    heads = _random_heads(kind, predictor.n_heads, way, predictor.head_input_dim, rng)
    zeroed = zero_row and kind == "cosine"
    if zeroed:
        heads[-1].W[1] = 0.0  # a zero-norm cosine row scores 0 and must not move
    _, grads = mixture_loss_and_grads(heads, blocks, y, weight_decay)
    analytic = flatten_grads(grads)
    numeric = fd_gradient(heads, blocks, y, weight_decay)
    if zeroed:
        assert np.array_equal(grads[-1, 1], np.zeros(predictor.head_input_dim))
        # the loss has no derivative at a zero row: compare every other entry
        keep = np.ones(analytic.size, dtype=bool)
        row = analytic.size - grads[-1].size + predictor.head_input_dim
        keep[row : row + predictor.head_input_dim] = False
        analytic, numeric = analytic[keep], numeric[keep]
    denom = max(np.linalg.norm(numeric), 1e-8)
    assert np.linalg.norm(analytic - numeric) / denom < 1e-5


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    E=st.integers(1, 4),
    n=st.integers(1, 4),
    B=st.integers(1, 6),
    K=st.integers(2, 6),
    iterations=st.sampled_from([None, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_label_index_locates_class_outermost_true_labels(E, n, B, K, iterations, seed):
    # the flat index of entry [e, i, b] is logits[e, i, y[e, b], b] of (E, n, K, B)
    # logits held class-outermost, as the (K, E, n, B) workspace buffer holds
    # them, for one batch and for a leading axis of one batch per iteration
    rng = np.random.default_rng(seed)
    lead = () if iterations is None else (iterations,)
    y = rng.integers(0, K, size=lead + (E, B))
    idx = _label_index(y, n, K)
    assert idx.shape == lead + (E, n, B)
    logits = rng.standard_normal((E, n, K, B))
    buffer = np.ascontiguousarray(logits.transpose(2, 0, 1, 3))
    for at, labels in zip(idx.reshape(-1, E, n, B), y.reshape(-1, E, B)):
        expected = [
            [[logits[e, i, labels[e, b], b] for b in range(B)] for i in range(n)]
            for e in range(E)
        ]
        assert np.array_equal(buffer.reshape(-1)[at], expected)


# --- batch cycling -------------------------------------------------------------------


def test_batch_cycler_visits_all_before_repeating():
    draws = batch_rows(5, 10, 4, 3).reshape(-1)
    assert draws.size == 40
    for start in range(0, 40, 5):
        window = draws[start : start + 5]
        assert sorted(window.tolist()) == [0, 1, 2, 3, 4]


def test_batch_cycler_deterministic():
    a = batch_rows(6, 7, 4, 9)
    b = batch_rows(6, 7, 4, 9)
    assert a.shape == (7, 4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 7, 16])
@pytest.mark.parametrize("batch", [1, 3, 4, 9])
def test_batch_rows_equal_one_batch_at_a_time_cycler(n, batch):
    for seed in (0, 9, 123):
        cycler = ReferenceCycler(n, np.random.default_rng(seed))
        expect = np.stack([cycler.take(batch) for _ in range(11)])
        assert np.array_equal(batch_rows(n, 11, batch, seed), expect)
    assert batch_rows(n, 0, batch, 0).shape == (0, batch)


# --- fitting ------------------------------------------------------------------------


def _separable_support(seed=0, per_class=5):
    rng = np.random.default_rng(seed)
    means = np.array([[5.0, 0.0], [-5.0, 0.0]])
    X = np.concatenate([m + 0.1 * rng.standard_normal((per_class, 2)) for m in means])
    y = np.repeat([0, 1], per_class)
    return X, y


def test_fit_head_zero_iterations_returns_init():
    X, y = _separable_support()
    predictor = Predictor(AdjustmentConfig("none"), None, 2, 2, "linear")
    heads = fit_head(X, y, predictor, FitConfig(iterations=0))
    assert np.array_equal(heads[0].W, np.zeros((2, 2)))
    assert np.array_equal(heads[0].b, np.zeros(2))


def test_fit_head_separable_toy_support_accuracy():
    X, y = _separable_support()
    predictor = Predictor(AdjustmentConfig("none"), None, 2, 2, "linear")
    heads = fit_head(X, y, predictor, FitConfig())
    probs = predictor.probs_batch(heads, X)
    assert np.array_equal(probs.argmax(axis=1), y)


def test_fit_head_deterministic_given_seed():
    X, y = _separable_support()
    predictor = Predictor(AdjustmentConfig("none"), None, 2, 2, "linear")
    a = fit_head(X, y, predictor, FitConfig(seed=123))
    b = fit_head(X, y, predictor, FitConfig(seed=123))
    assert np.array_equal(a[0].W, b[0].W)
    assert np.array_equal(a[0].b, b[0].b)
    c = fit_head(X, y, predictor, FitConfig(seed=124))
    assert not np.array_equal(a[0].W, c[0].W)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
@pytest.mark.parametrize("strategy", ["none", "class", "feature"])
@pytest.mark.parametrize("batch_size", [3, None])
def test_fit_without_loss_callback_steps_the_same_weights(kind, strategy, batch_size):
    # without a callback a one-head step skips the true-label log-probability,
    # which only the loss reads; the weights keep their bits either way
    rng = np.random.default_rng(17)
    kb = make_kb(m=3, dim=8, seed=2)
    adj = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(adj, kb, 8, 3, kind)
    X, y = rng.standard_normal((3, 9, 8)), np.tile(np.repeat(np.arange(3), 3), (3, 1))
    cfg = FitConfig(iterations=25, batch_size=batch_size, learning_rate=0.05)
    Z, losses = predictor.support_inputs(X), []
    theta = fit_stack(Z, y, predictor, cfg, [1, 2, 3], loss_callback=lambda it, l: losses.append(l))
    theta0 = fit_stack(Z, y, predictor, cfg, [1, 2, 3])
    assert len(losses) == 25 and all(np.isfinite(l).all() for l in losses)
    assert theta.tobytes() == theta0.tobytes()


def test_fit_head_full_batch_loss_non_increasing():
    X, y = _separable_support()
    predictor = Predictor(AdjustmentConfig("none"), None, 2, 2, "linear")
    losses = []
    fit_head(
        X, y, predictor,
        FitConfig(iterations=60, batch_size=None, learning_rate=1e-2),
        loss_callback=lambda it, loss: losses.append(loss),
    )
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)


def test_fit_head_respects_init():
    X, y = _separable_support()
    predictor = Predictor(AdjustmentConfig("none"), None, 2, 2, "linear")
    init = _unstack_heads("linear", np.ones((1, 2, 3)))
    heads = fit_head(X, y, predictor, FitConfig(iterations=0), init=init)
    assert np.array_equal(heads[0].W, init[0].W)
    assert heads[0] is not init[0]  # fit works on a copy


def test_fit_head_rejects_empty_support_and_centroid():
    predictor = Predictor(AdjustmentConfig("none"), None, 2, 2, "linear")
    with pytest.raises(ValueError, match="empty"):
        fit_head(np.zeros((0, 2)), np.array([], dtype=int), predictor, FitConfig())
    cent = Predictor(AdjustmentConfig("none"), None, 2, 2, "centroid")
    X, y = _separable_support()
    with pytest.raises(ValueError, match="non-parametric"):
        fit_head(X, y, cent, FitConfig())


def test_init_heads_cosine_rows_unit_norm():
    X, y = _separable_support()
    (head,) = init_heads("cosine", 2, [X], y)
    norms = np.linalg.norm(head.W, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(iterations=-1)
    with pytest.raises(ValueError):
        FitConfig(batch_size=0)
    with pytest.raises(ValueError):
        FitConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        FitConfig(weight_decay=float("nan"))


def _random_init(kind, n_heads, way, width, rng):
    heads = _random_heads(kind, n_heads, way, width, rng)
    if kind == "linear":
        for h in heads:
            h.W[...] *= 0.1
    return heads


@pytest.mark.parametrize("strategy", ["none", "feature", "class", "combined"])
@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_fit_head_matches_per_head_reference(default_synth, strategy, kind):
    # the stacked fit against the head-by-head one on fixed confounded episodes,
    # mini-batch and full batch, fresh heads and a supplied init, at the
    # default weight decay and, for linear heads, at 0.1, which a decayed bias
    # would miss by far (under 0.1 * (1 + m^2) cosine rows shrink toward zero
    # norm, where the 1/|w| of their gradient amplifies rounding past 1e-12)
    novel, tags, kb = default_synth.novel, default_synth.novel_strata, default_synth.kb
    predictor = Predictor(AdjustmentConfig(strategy), kb, novel.dim, 5, kind)
    n, width = predictor.n_heads, predictor.head_input_dim
    rng = np.random.default_rng(50)
    worst, flips = 0.0, 0
    for e in range(3):
        ep, _ = sample_confounded_episode(novel, tags, 5, 1, 15, 1.0, np.random.default_rng(60 + e))
        X, y = ep.support_x, ep.support_y
        per_row = [reference_inputs(predictor, x) for x in ep.query_x]
        query_blocks = [np.stack([row[i] for row in per_row]) for i in range(n)]
        decays = (1e-3, 0.1) if kind == "linear" else (1e-3,)
        for batch_size, weight_decay in itertools.product((4, None), decays):
            cfg = FitConfig(batch_size=batch_size, weight_decay=weight_decay, seed=e)
            for init in (None, _random_init(kind, n, 5, width, rng)):
                fitted = fit_head(X, y, predictor, cfg, init=init)
                expected = reference_fit(X, y, predictor, cfg, init=init)
                for h, r in zip(fitted, expected):
                    worst = max(worst, float(np.max(np.abs(h.W - r.W))))
                    if kind == "linear":
                        worst = max(worst, float(np.max(np.abs(h.b - r.b))))
                predicted = predictor.probs_batch(fitted, ep.query_x).argmax(axis=1)
                reference = reference_probs(expected, query_blocks).argmax(axis=1)
                flips += int(np.sum(predicted != reference))
    assert worst <= 1e-12
    assert flips == 0


# --- predictor inputs and the context tie ------------------------------------------------


@pytest.mark.parametrize("strategy", ["none", "feature", "class", "combined"])
@pytest.mark.parametrize("kind", ["linear", "cosine"])
@pytest.mark.parametrize("batch_size", [4, None])
def test_stacked_fit_equals_per_episode_fit_head(default_synth, strategy, kind, batch_size):
    # E episodes fitted as one (E, n, K, P) stack give each episode the very
    # weights fit_head gives it alone, with its own seed; 2 strata of the
    # 64-dim features give heads of P' = 33 inputs, where BLAS kernels that
    # read the batch in different layouts round differently
    novel, tags, kb = default_synth.novel, default_synth.novel_strata, default_synth.kb
    eps = [
        sample_confounded_episode(novel, tags, 5, 1, 15, 1.0, np.random.default_rng(70 + e))[0]
        for e in range(6)
    ]
    seeds = [1000 + 17 * e for e in range(6)]
    cfg = FitConfig(iterations=40, batch_size=batch_size, learning_rate=5e-3)
    partitions = [PartitionConfig()]
    if strategy in ("feature", "combined"):
        partitions.append(PartitionConfig(n=2, t=1e-3))
    for partition in partitions:
        adj = AdjustmentConfig(strategy, partition=partition)
        predictor = Predictor(adj, kb, novel.dim, 5, kind)
        theta = fit_stack(
            predictor.support_inputs(np.stack([ep.support_x for ep in eps])),
            np.stack([ep.support_y for ep in eps]), predictor, cfg, seeds,
        )
        # linear stacks carry the bias as one more column
        width = predictor.head_input_dim + (kind == "linear")
        assert theta.shape == (6, predictor.n_heads, 5, width)
        W, b = _split(kind, theta)
        for e, (ep, seed) in enumerate(zip(eps, seeds)):
            alone = fit_head(ep.support_x, ep.support_y, predictor, replace(cfg, seed=seed))
            assert np.array_equal(W[e], np.stack([h.W for h in alone]))
            if kind == "linear":
                assert np.array_equal(b[e], np.stack([h.b for h in alone]))


def test_fit_stack_validates_its_stack():
    predictor = Predictor(AdjustmentConfig("none"), None, 4, 2, "linear")
    Z, y = np.zeros((3, 1, 2, 4)), np.zeros((3, 2), dtype=int)
    with pytest.raises(ValueError, match="E seeds"):
        fit_stack(Z, y, predictor, FitConfig(), [0, 1])
    with pytest.raises(ValueError, match="labels"):
        fit_stack(Z, y[:, :1], predictor, FitConfig(), [0, 1, 2])
    centroid = Predictor(AdjustmentConfig("none"), None, 4, 2, "centroid")
    with pytest.raises(ValueError, match="non-parametric"):
        fit_stack(Z, y, centroid, FitConfig(), [0, 1, 2])
    with pytest.raises(ValueError, match="one input block per head"):
        fit_stack(np.zeros((3, 2, 2, 4)), y, predictor, FitConfig(), [0, 1, 2])
    # an init must be the (n_heads, way, P') stack of the predictor's heads:
    # a linear stack without its bias column, a cosine stack with one, a
    # 3-way init for a 5-way predictor (labels 3 and 4 would read class 2's
    # rows) and 2 heads for 1
    cosine = Predictor(AdjustmentConfig("none"), None, 4, 2, "cosine")
    five_way = Predictor(AdjustmentConfig("none"), None, 4, 5, "linear")
    Z5, y5 = np.zeros((3, 1, 5, 4)), np.tile(np.arange(5), (3, 1))
    for fit_predictor, inputs, labels, init, match in (
        (predictor, Z, y, np.ones((1, 2, 4)), "head input dimension 3 does not match"),
        (cosine, Z, y, np.ones((1, 2, 5)), "head input dimension 5 does not match"),
        (five_way, Z5, y5, np.zeros((1, 3, 5)), "head is 3-way, expected 5"),
        (predictor, Z, y, np.zeros((2, 2, 5)), "expected 1 heads, got 2"),
    ):
        with pytest.raises(ValueError, match=match):
            fit_stack(inputs, labels, fit_predictor, FitConfig(), [0, 1, 2], init)


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("batch_size", [2, None])
def test_fits_reject_labels_outside_way(bad, batch_size):
    # a label's flat index would land in another head's or episode's rows
    # (or past the end), so it is rejected before any step
    adj = AdjustmentConfig("feature", partition=PartitionConfig(n=2))
    predictor = Predictor(adj, None, 4, 3, "linear")
    X = np.random.default_rng(51).standard_normal((6, 4))
    y = np.array([0, 1, 2, 0, 1, bad])
    cfg = FitConfig(iterations=3, batch_size=batch_size)
    match = r"labels must lie in \[0, 2\]"
    with pytest.raises(ValueError, match=match):
        fit_head(X, y, predictor, cfg)
    # the bad label in the first episode of an E = 2 stack
    good = np.array([0, 1, 2, 0, 1, 2])
    Z = predictor.support_inputs(np.stack([X, X]))
    with pytest.raises(ValueError, match=match):
        fit_stack(Z, np.stack([y, good]), predictor, cfg, [0, 1])
    with pytest.raises(ValueError, match=match):
        fit_stack(Z, np.stack([good, y]), predictor, cfg, [0, 1])


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_fits_leave_init_unchanged(kind):
    # steps write into the fit's own copy and gradient buffers, never the caller's init
    kb = make_kb(m=3, dim=8, seed=52)
    adj = AdjustmentConfig("combined", partition=PartitionConfig(n=2))
    predictor = Predictor(adj, kb, 8, 3, kind)
    rng = np.random.default_rng(53)
    X = rng.standard_normal((6, 8))
    y = np.array([0, 1, 2] * 2)
    cfg = FitConfig(iterations=5, batch_size=None, learning_rate=0.05)
    W = rng.standard_normal((predictor.n_heads, 3, predictor.head_input_dim))
    b = rng.standard_normal((predictor.n_heads, 3)) if kind == "linear" else None
    theta = W if b is None else np.concatenate([W, b[..., None]], axis=-1)
    init = theta.copy()
    Z = predictor.support_inputs(np.stack([X, X]))
    fitted = fit_stack(Z, np.stack([y, y]), predictor, cfg, [0, 1], init)
    assert not np.array_equal(_split(kind, fitted)[0][0], W)
    assert np.array_equal(init, theta)
    heads = _unstack_heads(kind, theta.copy())
    fit_head(X, y, predictor, cfg, init=heads)
    for i, h in enumerate(heads):
        assert np.array_equal(h.W, W[i]) and (b is None or np.array_equal(h.b, b[i]))


@pytest.mark.parametrize("batch_size", [3, None])
def test_bias_layout_gives_the_same_bits(batch_size):
    # a linear head stack is one array [W | b] whose last column is the bias;
    # a contiguous stack and a strided one give the same losses, gradients
    # and stepped weights, through the gradient call, through a step of the
    # whole stack or of its W and b views, and through a fit
    kb = make_kb(m=3, dim=8, seed=56)
    adj = AdjustmentConfig("combined", partition=PartitionConfig(n=2))
    predictor = Predictor(adj, kb, 8, 3, "linear")
    rng = np.random.default_rng(57)
    X = rng.standard_normal((2, 6, 8))
    y = np.array([[0, 1, 2] * 2, [2, 1, 0] * 2])
    W = rng.standard_normal((2, predictor.n_heads, 3, predictor.head_input_dim))
    b = rng.standard_normal((2, predictor.n_heads, 3))
    theta = np.concatenate([W, b[..., None]], axis=-1)
    wide = np.zeros((*theta.shape[:-1], theta.shape[-1] + 3))
    wide[..., 1:-2] = theta
    strided = wide[..., 1:-2]
    assert not strided.flags.c_contiguous and np.array_equal(strided, theta)
    Z = predictor.support_inputs(X)
    stepped = []
    for start in (theta, strided):
        loss, dtheta = stack_loss_and_grads("linear", start, Z, y, 1e-3)
        assert dtheta.shape == theta.shape
        theta1 = theta.copy()
        W1, b1 = _split("linear", theta1)
        dW, db = _split("linear", dtheta.copy())
        np.subtract(W1, 0.1 * dW, W1)
        np.subtract(b1, 0.1 * db, b1)
        theta2 = theta.copy()
        stack_sgd_step(theta2, dtheta.copy(), 0.1)
        assert np.array_equal(theta1, theta2)
        stepped.append((loss, dtheta, theta2))
    for a, c in zip(*stepped):
        assert np.array_equal(a, c)

    cfg = FitConfig(iterations=7, batch_size=batch_size, learning_rate=0.05, weight_decay=1e-3)
    fits = [fit_stack(Z, y, predictor, cfg, [3, 4], start[0]) for start in (theta, strided)]
    assert np.array_equal(*fits)
    fresh = fit_stack(Z, y, predictor, cfg, [3, 4])
    for fitted in (*fits, fresh):  # fits return one contiguous (E, n, K, P+1) stack
        assert fitted.shape == theta.shape and fitted.flags.c_contiguous
    # the heads of a fit are views of one stack whose last column is the
    # bias, and a list of views stacks back to the stack's bits
    heads = fit_head(X[0], y[0], predictor, replace(cfg, seed=3))
    for h in heads:
        assert h.theta.base is heads[0].theta.base and h.theta.base.shape[-1] == 5
        assert np.shares_memory(h.W, h.theta) and np.shares_memory(h.b, h.theta)
    assert np.array_equal(fresh[0], stack_heads(heads)[1])
    assert np.array_equal(stack_heads(_unstack_heads("linear", fresh[0]))[1], fresh[0])
    # the list gradient is the stack gradient without the episode axis
    _, dtheta = mixture_loss_and_grads(heads, Z[0], y[0], 1e-3)
    expected = stack_loss_and_grads("linear", fresh[:1], Z[:1], y[:1], 1e-3)[1][0]
    assert np.array_equal(dtheta, expected)


def test_sgd_step_leaves_grads_unchanged():
    # the learning rate is applied to the step's own copy of the gradient;
    # a step of views of a stack steps the stack as stack_sgd_step does, bit
    # for bit, and heads of mixed kinds are refused
    kb = make_kb(m=3, dim=8, seed=54)
    adj = AdjustmentConfig("combined", partition=PartitionConfig(n=2))
    predictor = Predictor(adj, kb, 8, 3, "linear")
    rng = np.random.default_rng(55)
    theta = rng.standard_normal((predictor.n_heads, 3, predictor.head_input_dim + 1))
    heads = _unstack_heads("linear", theta)
    X = rng.standard_normal((5, 8))
    y = np.array([0, 1, 2, 0, 1])
    _, dtheta = mixture_loss_and_grads(heads, predictor.support_inputs(X), y, 1e-3)
    assert dtheta.shape == theta.shape
    dtheta0, expected = dtheta.copy(), theta.copy()
    sgd_step(heads, dtheta, 0.1)
    assert np.array_equal(dtheta, dtheta0)
    stack_sgd_step(expected, dtheta0, 0.1)
    assert np.array_equal(theta, expected) and not np.array_equal(theta[0], dtheta0[0])
    mixed = [heads[0], *_unstack_heads("cosine", theta[1:, :, :-1])]
    with pytest.raises(ValueError, match="share a kind"):
        sgd_step(mixed, dtheta, 0.1)


@pytest.mark.parametrize("coupling", [-3.0, 0.0])
def test_list_calls_reject_a_context_coupling(coupling):
    # the context is folded into the head inputs; only None is accepted
    heads = _unstack_heads("linear", np.zeros((1, 2, 4)))
    grads = mixture_loss_and_grads(heads, np.ones((1, 2, 3)), np.array([0, 1]))[1]
    with pytest.raises(ValueError, match="coupling"):
        sgd_step(heads, grads, 0.1, coupling)
    with pytest.raises(ValueError, match="coupling"):
        init_heads("linear", 2, np.ones((1, 2, 3)), np.array([0, 1]), coupling)
    init_heads("linear", 2, np.ones((1, 2, 3)), np.array([0, 1]), None)
    sgd_step(heads, grads, 0.1, None)


@pytest.mark.parametrize("strategy", ["none", "feature", "class", "combined"])
def test_support_inputs_match_per_sample_reference(strategy):
    kb = make_kb(m=4, dim=16, seed=30)
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=4, t=0.25))
    predictor = Predictor(cfg, kb, 16, 3, "linear")
    X = np.random.default_rng(31).standard_normal((7, 16))
    X[0, :3] = [0.25, -0.25, 0.0]  # entries on the threshold stay masked
    batch = predictor.support_inputs(X)
    assert len(batch) == predictor.n_heads
    for i, Z in enumerate(batch):
        reference = np.stack([reference_inputs(predictor, row)[i] for row in X])
        assert Z.shape == (7, predictor.head_input_dim)
        # the batched context changes only the matmul's summation order
        assert np.allclose(Z, reference, rtol=0.0, atol=1e-12)
        if strategy in ("none", "feature"):
            assert np.array_equal(Z, reference)


def _tied_inputs(predictor, X):
    """(n, B, 2w) concatenated inputs of the tied design: [x, ctx] for
    ``class``, block i of [mask(x), mask(ctx)] for ``combined``."""
    ctx = class_context(predictor.kb, X)
    if predictor.cfg.strategy == "class":
        return np.concatenate([X, ctx], axis=-1)[None]
    n, t = predictor.cfg.partition.n, predictor.cfg.partition.t

    def strata(M):
        return np.where(np.abs(M) > t, M, 0.0).reshape(len(M), n, -1).swapaxes(0, 1)

    return np.concatenate([strata(X), strata(ctx)], axis=-1)


def _tied_fit(predictor, X, y, cfg):
    """Linear heads W = [U, -m * U] on the concatenated inputs, from zero: each
    step's gradient goes through the tie, dU = dW_x - m * dW_c, and the
    weights move by lr * [dU, -m * dU] under the unscaled weight decay."""
    Z, m = _tied_inputs(predictor, X), predictor.kb.m
    n, S, P = Z.shape
    theta = np.zeros((n, predictor.way, P + 1))
    W, b = _split("linear", theta)
    if cfg.batch_size is None:
        rows = np.tile(np.arange(S), (cfg.iterations, 1))
    else:
        rows = batch_rows(S, cfg.iterations, cfg.batch_size, cfg.seed)
    for r in rows:
        _, dtheta = stack_loss_and_grads(
            "linear", theta[None], Z[None][:, :, r], y[None, r], cfg.weight_decay
        )
        dW, db = _split("linear", dtheta[0])
        dU = dW[..., : P // 2] - m * dW[..., P // 2 :]
        W -= cfg.learning_rate * np.concatenate([dU, -m * dU], axis=-1)
        b -= cfg.learning_rate * db
    return theta


@pytest.mark.parametrize("strategy", ["class", "combined"])
@pytest.mark.parametrize("batch_size", [4, None])
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_folded_fit_matches_tied_oracle(default_synth, strategy, batch_size, weight_decay):
    # a head U on x - m * ctx, with its weight decay scaled by 1 + m^2, takes
    # the SGD path of the tied head [U, -m * U] on [x, ctx]
    novel, tags, kb = default_synth.novel, default_synth.novel_strata, default_synth.kb
    adj = AdjustmentConfig(strategy, partition=PartitionConfig(n=8, t=1e-3))
    predictor = Predictor(adj, kb, novel.dim, 5, "linear")
    worst, flips, largest = 0.0, 0, 0.0
    for e in range(3):
        ep, _ = sample_confounded_episode(novel, tags, 5, 1, 15, 1.0, np.random.default_rng(80 + e))
        cfg = FitConfig(batch_size=batch_size, learning_rate=5e-3, weight_decay=weight_decay, seed=e)
        heads = fit_head(ep.support_x, ep.support_y, predictor, cfg)
        theta = _tied_fit(predictor, ep.support_x, ep.support_y, cfg)
        W, b = _split("linear", theta)
        U = np.stack([h.W for h in heads])
        assert U.shape[-1] == W.shape[-1] // 2 == predictor.head_input_dim
        worst = max(
            worst,
            float(np.abs(U - W[..., : U.shape[-1]]).max()),
            float(np.abs(np.stack([h.b for h in heads]) - b).max()),
        )
        largest = max(largest, float(np.abs(U).max()))
        predicted = predictor.probs_batch(heads, ep.query_x).argmax(axis=1)
        tied = stack_probs("linear", theta[None], _tied_inputs(predictor, ep.query_x)[None])
        flips += int(np.sum(predicted != tied[0].argmax(axis=1)))
    assert largest > 1e-3
    assert worst <= 1e-15
    assert flips == 0


@pytest.mark.parametrize("strategy", ["class", "combined"])
@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_fitted_context_weights_are_tied(strategy, kind):
    # a fitted head U on the folded input is the tied head [U, -m * U] on the
    # concatenated input: the same linear logits, and for a cosine head the
    # same class ranking, since the two differ by a positive factor per row
    kb = make_kb(m=3, dim=8, seed=33)
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, kb, 8, 3, kind)
    rng = np.random.default_rng(34)
    X = rng.standard_normal((6, 8)) + 0.2
    y = np.array([0, 0, 1, 1, 2, 2])
    heads = fit_head(X, y, predictor, FitConfig(iterations=30, learning_rate=0.05))
    Q = rng.standard_normal((40, 8))
    for h, Z, C in zip(heads, predictor.support_inputs(Q), _tied_inputs(predictor, Q)):
        assert np.abs(h.W).max() > 0.0
        tied = np.concatenate([h.W, -3.0 * h.W], axis=1)
        if kind == "linear":
            tied = np.column_stack([tied, h.b])
        folded, concat = _logit_rows(kind, h.theta, Z), _logit_rows(kind, tied, C)
        if kind == "linear":
            assert np.allclose(folded, concat, rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(folded.argmax(axis=1), concat.argmax(axis=1))


def test_unadjusted_strategies_have_no_context_coupling():
    # no strategy couples a context any more; the adjusted ones scale their
    # weight decay by 1 + m^2 instead
    kb = make_kb(m=3, dim=8, seed=35)
    for strategy in STRATEGIES:
        cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=2, t=1e-3))
        predictor = Predictor(cfg, kb, 8, 3, "linear")
        assert predictor.context_coupling is None
        adjusted = strategy in ("class", "combined")
        assert predictor.weight_decay_scale == (10.0 if adjusted else 1.0)


def test_tied_class_head_is_baseline_head_on_stratum_removed_feature():
    # a class-wise linear head scores x - m * ctx(x) with the weight decay of
    # the tied head [U, -m * U], (1 + m^2) times the setting, so its SGD path
    # is a plain head's path on that feature under the scaled decay
    kb = make_kb(m=4, dim=8, seed=36)
    rng = np.random.default_rng(37)
    X = rng.standard_normal((10, 8))
    y = np.repeat(np.arange(5), 2)
    fit = FitConfig(iterations=60, learning_rate=0.05, weight_decay=1e-3, seed=5)
    cls = Predictor(AdjustmentConfig("class"), kb, 8, 5, "linear")
    (tied,) = fit_head(X, y, cls, fit)
    removed = X - kb.m * class_context(kb, X)
    base = Predictor(AdjustmentConfig("none"), None, 8, 5, "linear")
    (plain,) = fit_head(removed, y, base, replace(fit, weight_decay=1e-3 * (1 + kb.m**2)))
    (unscaled,) = fit_head(removed, y, base, fit)
    assert np.abs(plain.W).max() > 0.1
    assert np.array_equal(tied.W, plain.W)
    assert np.array_equal(tied.b, plain.b)
    assert not np.allclose(tied.W, unscaled.W, rtol=0.0, atol=1e-6)
    queries = rng.standard_normal((20, 8))
    q_removed = queries - kb.m * class_context(kb, queries)
    assert np.allclose(
        cls.probs_batch([tied], queries), base.probs_batch([plain], q_removed),
        rtol=0.0, atol=1e-10,
    )


# --- zero-norm cosine rows ------------------------------------------------------------


def test_cosine_head_fits_with_all_inactive_stratum_block():
    # rectified 1-shot support whose class-0 row is inactive on block 1: the
    # block-1 cosine head starts with a zero weight row for class 0
    rng = np.random.default_rng(40)
    X = np.maximum(rng.standard_normal((3, 8)), 0.0) + 0.1
    X[0, 4:] = 0.0
    y = np.array([0, 1, 2])
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=2, t=1e-3))
    predictor = Predictor(cfg, None, 8, 3, "cosine")
    start = init_heads("cosine", 3, predictor.support_inputs(X), y)
    assert start[0].theta.base is start[1].theta.base  # views of one stack
    assert np.array_equal(start[1].W[0], np.zeros(4))
    heads = fit_head(X, y, predictor, FitConfig(iterations=40, learning_rate=0.1))
    assert np.array_equal(heads[1].W[0], np.zeros(4))
    assert not np.array_equal(heads[1].W[1:], start[1].W[1:])
    queries = np.maximum(rng.standard_normal((6, 8)), 0.0)
    probs = predictor.probs_batch(heads, np.vstack([X, queries]))
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_cosine_zero_row_leaves_other_row_gradients_unchanged():
    # a weight row's gradient depends only on that row and on dL/dlogits, so
    # zeroing a row that already scored 0 against every input (it is
    # orthogonal to them all, so dL/dlogits stays the same) changes no other
    # row's gradient, bit for bit
    rng = np.random.default_rng(41)
    V = rng.standard_normal((1, 1, 5, 4))
    V[..., 3] = 0.0
    V = normalize_rows(V)
    W = rng.standard_normal((1, 1, 3, 4))
    W[0, 0, 1, :3] = 0.0
    ws = _Workspace("cosine", W, 5, 1e-3)
    at_label = _label_index(np.zeros((1, 5), dtype=np.int64), 1, 3)

    def gradient():
        ws.grads(V, at_label)  # reads W as it is now
        return ws.dtheta[0, 0].copy()

    full = gradient()
    W[0, 0, 1] = 0.0
    zeroed = gradient()
    assert np.any(full[1] != 0.0)
    assert np.array_equal(zeroed[1], np.zeros(4))
    assert np.array_equal(zeroed[[0, 2]], full[[0, 2]])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    E=st.integers(1, 3),
    n=st.integers(1, 4),
    K=st.integers(2, 5),
    B=st.integers(1, 6),
    width=st.integers(1, 6),
    weight_decay=st.sampled_from([0.0, 1e-3, 0.1]),
    zero_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_cosine_gradients_match_two_pass_reference(
    E, n, K, B, width, weight_decay, zero_rows, seed
):
    # the one-pass stacked gradient against the head-by-head reference, which
    # normalises on its own and recomputes the scores F for the row sums of G * F
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((E, n, K, width))
    Z = rng.standard_normal((E, n, B, width))
    if zero_rows:
        W[rng.random((E, n, K)) < 0.3] = 0.0
        W[:, 0, K - 1] = 0.0
        Z[rng.random((E, n, B)) < 0.3] = 0.0
    y = rng.integers(0, K, size=(E, B))
    _, dW = stack_loss_and_grads("cosine", W, Z, y, weight_decay)
    assert dW.shape == W.shape  # cosine heads have no bias column
    expected = np.empty_like(W)
    for e in range(E):
        heads = _unstack_heads("cosine", W[e].copy())
        _, grads = reference_mixture(heads, list(Z[e]), y[e], weight_decay)
        expected[e] = [g for g, _ in grads]
    norms = np.linalg.norm(W, axis=-1)
    live = norms > 0.0
    # both terms of a row's projected gradient are at most 1/|w| (each row of
    # |dL/dlogits| sums to at most 1 and the inputs are unit rows), and they
    # cancel exactly at width 1, so rounding is measured against that scale
    err = np.abs(dW - expected).max(axis=-1)
    scale = 1.0 / norms[live] + np.abs(expected).max(axis=-1)[live]
    assert np.all(err[live] <= 1e-12 * scale)
    assert np.array_equal(dW[~live], np.zeros(((~live).sum(), width)))
