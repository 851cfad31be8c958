"""Stratified adjustment: selection masks, contexts, exactness, and collapse identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.adjust import (
    STRATEGIES,
    AdjustmentConfig,
    Predictor,
    backdoor_exact_classwise,
    class_context,
    nwgm,
)
from ifsl.heads import FitConfig, HeadParams, fit_head, fit_stack, init_heads, logits_batch
from ifsl.knowledge import KnowledgeBase, PartitionConfig
from ifsl.meta import evaluate_inits, meta_train, zero_meta_init
from ifsl.numerics import softmax, softmax_rows

from conftest import make_blob_dataset, make_kb, reference_inputs


def _head_probs(h: HeadParams, z: np.ndarray) -> np.ndarray:
    """One head's softmax output for a single input, scored as a one-row batch."""
    return softmax_rows(logits_batch(h, z[None, :]))[0]


def _feature_strata(X, n, t):
    """Per-stratum input blocks of the ``feature`` strategy for a raw matrix."""
    X = np.asarray(X, dtype=np.float64)
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=n, t=t))
    return Predictor(cfg, None, X.shape[1], 2, "linear").support_inputs(X)


# --- stratum masks ------------------------------------------------------------------


def test_select_masks_outside_intersection():
    # blocks {0,1} and {2,3}; entries at or below t = 1 in magnitude are masked
    first, second = _feature_strata([[3.0, -1.0, 2.0, 7.0], [3.0, -1.0, 0.5, 1.0]], 2, 1.0)
    assert np.array_equal(first[0], [3.0, 0.0])
    # a fully active block is a plain slice
    assert np.array_equal(second[0], [2.0, 7.0])
    # a fully inactive block is zeroed
    assert np.array_equal(second[1], [0.0, 0.0])


def test_select_output_dim_is_block_size():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    x[[4, 7]] = 0.0  # inactive: block {4..7} keeps only entries 5 and 6
    blocks = _feature_strata(x[None, :], 3, 1e-3)
    assert blocks[1].shape == (1, 4)
    assert np.array_equal(blocks[1][0], [0.0, x[5], x[6], 0.0])


# --- contexts ---------------------------------------------------------------------


def test_feature_contexts_example():
    # dim 4, two blocks {0,1} and {2,3}; active set of x is {0, 3}
    blocks = _feature_strata([[1.0, 0.0, 0.0, 1.0]], 2, 0.5)
    assert len(blocks) == 2
    assert np.array_equal(np.flatnonzero(blocks[0][0]), [0])
    assert np.array_equal(2 + np.flatnonzero(blocks[1][0]), [3])


def test_feature_contexts_threshold_excludes_small_entries():
    blocks = _feature_strata([[1.0, 0.2, 0.0, 0.0]], 2, 0.5)
    assert np.array_equal(np.flatnonzero(blocks[0][0]), [0])
    assert np.flatnonzero(blocks[1][0]).size == 0


def test_active_index_set_strict_threshold():
    (block,) = _feature_strata([[0.5, 0.5], [-2.0, 0.6]], 1, 0.5)
    assert np.array_equal(np.flatnonzero(block[0]), [])
    assert np.array_equal(np.flatnonzero(block[1]), [0, 1])


def test_class_context_single_class_is_that_mean():
    kb = KnowledgeBase(
        class_means=np.array([[2.0, 4.0]]),
        pre_weights=np.array([[1.0, 0.0]]),
        pre_bias=np.array([0.0]),
    )
    ctx = class_context(kb, np.array([[9.0, 9.0]]))
    assert np.allclose(ctx, [[2.0, 4.0]], atol=1e-15)


def test_class_context_symmetric_input_hand_value():
    # two opposite class means and an input equidistant from both:
    # probabilities are (0.5, 0.5) so the average cancels to zero
    kb = KnowledgeBase(
        class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_weights=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_bias=np.zeros(2),
    )
    ctx = class_context(kb, np.array([[0.0, 3.0]]))
    assert np.allclose(ctx, [[0.0, 0.0]], atol=1e-15)


def test_class_context_hand_computed_weighted_mean():
    # logits (0, 0) give probs (0.5, 0.5); context = mean of means / m = 2
    # then tilt: W x = (ln 9, 0) gives probs (0.9, 0.1)
    kb = KnowledgeBase(
        class_means=np.array([[1.0, 0.0], [0.0, 1.0]]),
        pre_weights=np.array([[np.log(9.0), 0.0], [0.0, 0.0]]),
        pre_bias=np.zeros(2),
    )
    ctx = class_context(kb, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(ctx, [[0.45, 0.05], [0.25, 0.25]], atol=1e-12)


# --- nwgm -------------------------------------------------------------------------


def test_nwgm_single_stratum_is_softmax():
    logits = np.array([[2.0, -1.0, 0.5]])
    out = nwgm(logits, np.array([1.0]))
    assert np.allclose(out, softmax(logits[0]), atol=1e-15)


def test_nwgm_two_strata_hand_value():
    # equal priors over logits (2,0) and (0,1): weighted logit sum is (1, 0.5)
    logits = np.array([[2.0, 0.0], [0.0, 1.0]])
    out = nwgm(logits, np.array([0.5, 0.5]))
    expect = softmax(np.array([1.0, 0.5]))
    assert np.allclose(out, expect, atol=1e-15)
    assert out[0] == pytest.approx(0.6224593312018546, abs=1e-12)


def test_nwgm_product_route_equals_softmax_route():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        s = int(rng.integers(1, 12))
        logits = rng.standard_normal((s, k)) * rng.uniform(0.5, 5.0)
        priors = rng.dirichlet(np.ones(s))
        via_product = nwgm(logits, priors)
        via_softmax = softmax(priors @ logits)
        assert np.max(np.abs(via_product - via_softmax)) < 1e-12


def test_nwgm_prior_validation():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError, match="sum to 1"):
        nwgm(logits, np.array([0.7, 0.7]))
    with pytest.raises(ValueError, match="non-negative"):
        nwgm(logits, np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="expected a vector of length"):
        nwgm(logits, np.array([1.0]))


# --- predictor shapes and probabilities -----------------------------------------------


@pytest.fixture
def kb16():
    return make_kb(m=4, dim=16, seed=5)


def _probe_heads(predictor, seed=0):
    rng = np.random.default_rng(seed)
    heads = []
    for _ in range(predictor.n_heads):
        W = rng.standard_normal((predictor.way, predictor.head_input_dim))
        heads.append(HeadParams("linear", W=W, b=rng.standard_normal(predictor.way)))
    return heads


@pytest.mark.parametrize(
    "strategy,n_heads,in_dim",
    [("none", 1, 16), ("feature", 4, 4), ("class", 1, 16), ("combined", 4, 4)],
)
def test_predictor_head_geometry(strategy, n_heads, in_dim, kb16):
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 5, "linear")
    assert p.n_heads == n_heads
    assert p.head_input_dim == in_dim


@pytest.mark.parametrize("strategy", ["none", "feature", "class", "combined"])
def test_predictor_probs_are_distributions(strategy, kb16):
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p)
    probs = p.probs_batch(heads, np.random.default_rng(2).standard_normal((20, 16)))
    assert probs.shape == (20, 3)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(probs >= 0)


def test_predictor_probs_batch_matches_single(kb16):
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=3)
    X = np.random.default_rng(4).standard_normal((6, 16))
    batch = p.probs_batch(heads, X)
    for i, x in enumerate(X):
        assert np.allclose(batch[i], p.probs_batch(heads, x[None, :])[0], atol=1e-12)


def test_predictor_validates_head_shapes(kb16):
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    bad = _probe_heads(Predictor(cfg, kb16, 16, 3, "linear"))[:2]
    with pytest.raises(ValueError, match="expected 4 heads"):
        p.probs_batch(bad, np.zeros((1, 16)))
    wrong_dim = [HeadParams("linear", W=np.zeros((3, 5)), b=np.zeros(3)) for _ in range(4)]
    with pytest.raises(ValueError, match="input dim"):
        p.probs_batch(wrong_dim, np.zeros((1, 16)))


@pytest.mark.parametrize("entry", [
    "check_stack", "validate_heads", "fit_stack", "fit_head", "evaluate_inits", "meta_train",
])
def test_a_non_finite_head_stack_is_refused(entry):
    # every entry point that takes a start stack refuses NaN, as MetaInit does,
    # rather than adapt from it and score chance accuracy
    ds = make_blob_dataset(n_classes=5, per_class=6, dim=4, seed=3)
    p = Predictor(AdjustmentConfig("none"), None, 4, 5, "linear")
    stack = np.full((1, 5, 5), np.nan)
    heads = [HeadParams("linear", np.zeros((5, 4)), np.zeros(5))]
    heads[0].theta[0, 0] = np.nan  # HeadParams(...) refuses NaN; a later write does not
    mi = zero_meta_init(5, 4, tasks=2)
    mi.theta[0, 0, 0] = np.nan
    cfg = FitConfig(iterations=2, batch_size=None, learning_rate=0.01, weight_decay=0.0)
    support_x, support_y = ds.features[:5], np.arange(5)
    calls = {
        "check_stack": lambda: p.check_stack("linear", stack),
        "validate_heads": lambda: p.validate_heads(heads),
        "fit_stack": lambda: fit_stack(
            p.support_inputs(support_x[None]), support_y[None], p, cfg, [0], init=stack
        ),
        "fit_head": lambda: fit_head(support_x, support_y, p, cfg, init=heads),
        "evaluate_inits": lambda: evaluate_inits(ds, 5, 1, 5, p, [stack], 0.01, 5, 8, 0),
        "meta_train": lambda: meta_train(
            ds, 5, 1, 1, AdjustmentConfig("none"), mi, None, np.random.default_rng(0)
        ),
    }
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        calls[entry]()


def test_predictor_rejects_unknown_head_kind(kb16):
    with pytest.raises(ValueError, match=r"unknown head kind 'bogus', expected one of \('linear'"):
        Predictor(AdjustmentConfig("none"), None, 16, 3, "bogus")
    with pytest.raises(ValueError, match="unknown head kind"):
        Predictor(AdjustmentConfig("class"), kb16, 16, 3, "Linear")


def test_predictor_requires_kb_when_strategy_uses_it():
    with pytest.raises(ValueError, match="knowledge base"):
        Predictor(AdjustmentConfig("class"), None, 16, 3, "linear")
    # "none" has no kb dependency
    Predictor(AdjustmentConfig("none"), None, 16, 3, "linear")


def test_partition_must_divide_dim(kb16):
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=5, t=1e-3))
    with pytest.raises(ValueError, match="divide"):
        Predictor(cfg, kb16, 16, 3, "linear")


# --- collapse identities --------------------------------------------------------------


def test_feature_single_stratum_zero_threshold_collapses_to_baseline(kb16):
    # one block spanning every coordinate plus t=0 keeps the whole input:
    # the feature mixture has a single term equal to the unadjusted head
    base = Predictor(AdjustmentConfig("none"), kb16, 16, 3, "linear")
    feat = Predictor(
        AdjustmentConfig("feature", partition=PartitionConfig(n=1, t=0.0)), kb16, 16, 3, "linear"
    )
    heads = _probe_heads(base, seed=6)
    rng = np.random.default_rng(7)
    X = np.stack([rng.standard_normal(16) * rng.uniform(0.5, 3.0) for _ in range(50)])
    pb = base.probs_batch(heads, X)
    pf = feat.probs_batch(heads, X)
    assert np.max(np.abs(pb - pf)) <= 1e-15


def test_combined_single_class_single_stratum_collapses_to_classwise():
    kb1 = make_kb(m=1, dim=16, seed=8)
    cls = Predictor(AdjustmentConfig("class"), kb1, 16, 3, "linear")
    comb = Predictor(
        AdjustmentConfig("combined", partition=PartitionConfig(n=1, t=0.0)), kb1, 16, 3, "linear"
    )
    heads = _probe_heads(cls, seed=9)
    X = np.random.default_rng(10).standard_normal((50, 16))
    assert np.max(np.abs(cls.probs_batch(heads, X) - comb.probs_batch(heads, X))) <= 1e-15


def test_classwise_single_class_context_is_that_mean():
    kb1 = make_kb(m=1, dim=16, seed=12)
    p = Predictor(AdjustmentConfig("class"), kb1, 16, 3, "linear")
    x = np.random.default_rng(13).standard_normal(16)
    # with one class the context is that class's mean, and the head reads x without it
    (ctx_input,) = p.support_inputs(x[None, :])
    assert ctx_input.shape == (1, 16)
    assert np.allclose(ctx_input[0], x - kb1.class_means[0], rtol=0.0, atol=1e-15)


# --- exact averaging -------------------------------------------------------------------


def test_linear_head_stratum_mean_equals_exact_mixture(kb16):
    # with a shared linear head, softmax of the mean of per-stratum inputs is
    # NOT the mean of softmaxes in general; but the predictor mixes
    # probabilities, so compare against the explicit mean over strata.
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=14)
    X = np.random.default_rng(15).standard_normal((100, 16))
    probs = p.probs_batch(heads, X)
    for x, fast in zip(X, probs):
        inputs = reference_inputs(p, x)
        manual = np.mean(
            [_head_probs(h, z) for h, z in zip(heads, inputs)], axis=0
        )
        assert np.max(np.abs(manual - fast)) < 1e-12


def test_backdoor_exact_classwise_single_class_matches_predict():
    kb1 = make_kb(m=1, dim=16, seed=16)
    cfg = AdjustmentConfig("class")
    p = Predictor(cfg, kb1, 16, 3, "linear")
    heads = _probe_heads(p, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(50):
        x = rng.standard_normal(16)
        exact = backdoor_exact_classwise(heads[0], x, kb1)
        assert np.allclose(exact, p.probs_batch(heads, x[None, :])[0], atol=1e-12)


def test_backdoor_exact_classwise_symmetric_two_strata():
    # opposite means with a balanced input: each stratum term is the
    # mirrored softmax, so the exact mixture is symmetric in the two classes
    kb = KnowledgeBase(
        class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_weights=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_bias=np.zeros(2),
    )
    head = HeadParams("linear", W=np.array([[1.0, 0.0], [-1.0, 0.0]]), b=np.zeros(2))
    out = backdoor_exact_classwise(head, np.array([0.0, 2.0]), kb)
    assert out[0] == pytest.approx(0.5, abs=1e-12)
    assert out[1] == pytest.approx(0.5, abs=1e-12)


def test_backdoor_exact_classwise_argmax_agreement():
    # per-class contexts weighted into a single averaged context (the fast
    # path) rarely flips the argmax of the exact per-class mixture on
    # well-separated problems; verify agreement on instances where the exact
    # mixture is confident.
    rng = np.random.default_rng(19)
    agree = 0
    confident = 0
    kb = make_kb(m=3, dim=8, seed=20)
    cfg = AdjustmentConfig("class")
    p = Predictor(cfg, kb, 8, 3, "linear")
    for _ in range(200):
        heads = _probe_heads(p, seed=int(rng.integers(0, 2**31)))
        x = rng.standard_normal(8)
        exact = backdoor_exact_classwise(heads[0], x, kb)
        fast = p.probs_batch(heads, x[None, :])[0]
        if exact.max() > 0.6:
            confident += 1
            agree += int(exact.argmax() == fast.argmax())
    assert confident > 50
    assert agree / confident > 0.95


# --- stratum ordering ------------------------------------------------------------------


def test_probs_invariant_to_head_stratum_pairing_order(kb16):
    # summing contributions in ascending stratum order is an implementation
    # detail; permuting (head, input) pairs together must not change the mix
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=22)
    x = np.random.default_rng(23).standard_normal(16)
    inputs = [Z[0] for Z in p.support_inputs(x[None, :])]
    base = np.mean([_head_probs(h, z) for h, z in zip(heads, inputs)], axis=0)
    perm = [2, 0, 3, 1]
    permuted = np.mean(
        [_head_probs(heads[i], inputs[i]) for i in perm], axis=0
    )
    assert np.allclose(base, permuted, atol=1e-15)
    assert np.allclose(p.probs_batch(heads, x[None, :])[0], base, atol=1e-12)


def test_empty_stratum_contributes_head_at_zero(kb16):
    # an all-zero block still evaluates its head at the zero vector rather
    # than being dropped, keeping the mixture weights at exactly 1/n
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e10))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=24)
    X = np.random.default_rng(25).standard_normal((3, 16))
    expect = np.mean([_head_probs(h, np.zeros(4)) for h in heads], axis=0)
    assert np.allclose(p.probs_batch(heads, X), expect, atol=1e-15)


def test_adjustment_config_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        AdjustmentConfig("both")


def test_init_heads_matches_predictor_geometry(kb16):
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "cosine")
    rng = np.random.default_rng(26)
    X = rng.standard_normal((6, 16))
    y = np.array([0, 0, 1, 1, 2, 2])
    heads = init_heads("cosine", 3, p.support_inputs(X), y)
    assert len(heads) == p.n_heads
    for h in heads:
        assert h.W.shape == (3, p.head_input_dim)


# --- whole-matrix inputs against the per-row reference -------------------------------


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    strategy=st.sampled_from(STRATEGIES),
    n=st.sampled_from([1, 2, 4]),
    width=st.integers(1, 4),
    m=st.integers(1, 4),
    rows=st.integers(1, 6),
    t=st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_inputs_property_matches_per_row_reference(strategy, n, width, m, rows, t, seed):
    dim = n * width
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase(
        class_means=rng.standard_normal((m, dim)),
        pre_weights=rng.standard_normal((m, dim)),
        pre_bias=rng.standard_normal(m),
    )
    X = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 3.0)
    X[rng.random((rows, dim)) < 0.2] = t  # entries on the threshold stay masked
    X[rng.random(rows) < 0.3] = rng.uniform(-t, t, dim)  # all-inactive rows
    cfg = AdjustmentConfig(strategy, partition=PartitionConfig(n=n, t=t))
    p = Predictor(cfg, kb, dim, 2, "linear")
    blocks = p.support_inputs(X)
    assert len(blocks) == p.n_heads
    for r, x in enumerate(X):
        for Z, ref in zip(blocks, reference_inputs(p, x)):
            if strategy in ("none", "feature"):
                assert np.array_equal(Z[r], ref)
            else:
                # the batched context changes only the matmul's summation order;
                # an entry masked wrongly would be off by at least m * t
                assert np.allclose(Z[r], ref, rtol=0.0, atol=1e-12)
