"""Stratified adjustment: selection masks, contexts, exactness, and collapse identities."""

import numpy as np
import pytest

from ifsl.adjust import (
    AdjustmentConfig,
    Predictor,
    backdoor_exact_classwise,
    class_context,
    feature_contexts,
    nwgm,
    predict,
    select,
)
from ifsl.heads import HeadParams, init_heads, logits_batch
from ifsl.knowledge import KnowledgeBase, PartitionConfig, active_index_set, feature_partition
from ifsl.numerics import softmax, softmax_rows

from conftest import make_kb


def _head_probs(h: HeadParams, z: np.ndarray) -> np.ndarray:
    """One head's softmax output for a single input, scored as a one-row batch."""
    return softmax_rows(logits_batch(h, z[None, :]))[0]


# --- select -----------------------------------------------------------------------


def test_select_masks_outside_intersection():
    x = np.array([3.0, -1.0, 2.0, 7.0])
    out = select(x, np.array([0]), np.array([0, 1]))
    assert np.array_equal(out, [3.0, 0.0])
    # full block acts as a plain slice
    out = select(x, np.array([2, 3]), np.array([2, 3]))
    assert np.array_equal(out, [2.0, 7.0])
    # empty selection zeroes the block
    out = select(x, np.array([], dtype=int), np.array([1, 2]))
    assert np.array_equal(out, [0.0, 0.0])


def test_select_requires_subset():
    x = np.arange(4.0)
    with pytest.raises(ValueError, match="subset of the block"):
        select(x, np.array([0, 2]), np.array([0, 1]))


def test_select_output_dim_is_block_size():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(12)
    block = np.arange(4, 8)
    picked = np.array([5, 6])
    out = select(x, picked, block)
    assert out.shape == (4,)
    assert np.array_equal(out, [0.0, x[5], x[6], 0.0])


# --- contexts ---------------------------------------------------------------------


def test_feature_contexts_example():
    # dim 4, two blocks {0,1} and {2,3}; active set of x is {0, 3}
    x = np.array([1.0, 0.0, 0.0, 1.0])
    contexts = feature_contexts(x, PartitionConfig(n=2, t=0.5))
    assert len(contexts) == 2
    assert np.array_equal(contexts[0], [0])
    assert np.array_equal(contexts[1], [3])


def test_feature_contexts_threshold_excludes_small_entries():
    x = np.array([1.0, 0.2, 0.0, 0.0])
    contexts = feature_contexts(x, PartitionConfig(n=2, t=0.5))
    assert np.array_equal(contexts[0], [0])
    assert contexts[1].size == 0


def test_active_index_set_strict_threshold():
    assert np.array_equal(active_index_set(np.array([0.5, 0.5]), 0.5), [])
    assert np.array_equal(active_index_set(np.array([-2.0, 0.6]), 0.5), [0, 1])


def test_class_context_single_class_is_that_mean():
    kb = KnowledgeBase(
        class_means=np.array([[2.0, 4.0]]),
        pre_weights=np.array([[1.0, 0.0]]),
        pre_bias=np.array([0.0]),
    )
    ctx = class_context(kb, np.array([9.0, 9.0]))
    assert np.allclose(ctx, [2.0, 4.0], atol=1e-15)


def test_class_context_symmetric_input_hand_value():
    # two opposite class means and an input equidistant from both:
    # probabilities are (0.5, 0.5) so the average cancels to zero
    kb = KnowledgeBase(
        class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_weights=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_bias=np.zeros(2),
    )
    ctx = class_context(kb, np.array([0.0, 3.0]))
    assert np.allclose(ctx, [0.0, 0.0], atol=1e-15)


def test_class_context_hand_computed_weighted_mean():
    # logits (0, 0) give probs (0.5, 0.5); context = mean of means / 1
    # then tilt: W x = (ln 9, 0) gives probs (0.9, 0.1)
    kb = KnowledgeBase(
        class_means=np.array([[1.0, 0.0], [0.0, 1.0]]),
        pre_weights=np.array([[np.log(9.0), 0.0], [0.0, 0.0]]),
        pre_bias=np.zeros(2),
    )
    ctx = class_context(kb, np.array([1.0, 0.0]))
    assert np.allclose(ctx, [0.45, 0.05], atol=1e-12)


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
    [("none", 1, 16), ("feature", 4, 4), ("class", 1, 32), ("combined", 4, 8)],
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
    rng = np.random.default_rng(2)
    for _ in range(20):
        probs = p.probs(heads, rng.standard_normal(16))
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0)


def test_predictor_probs_batch_matches_single(kb16):
    cfg = AdjustmentConfig("combined", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=3)
    X = np.random.default_rng(4).standard_normal((6, 16))
    batch = p.probs_batch(heads, X)
    for i, x in enumerate(X):
        assert np.allclose(batch[i], p.probs(heads, x), atol=1e-12)


def test_predictor_validates_head_shapes(kb16):
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    bad = _probe_heads(Predictor(cfg, kb16, 16, 3, "linear"))[:2]
    with pytest.raises(ValueError, match="expected 4 heads"):
        p.probs(bad, np.zeros(16))
    wrong_dim = [HeadParams("linear", W=np.zeros((3, 5)), b=np.zeros(3)) for _ in range(4)]
    with pytest.raises(ValueError, match="input dim"):
        p.probs(wrong_dim, np.zeros(16))


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
    for _ in range(50):
        x = rng.standard_normal(16) * rng.uniform(0.5, 3.0)
        pb = base.probs(heads, x)
        pf = feat.probs(heads, x)
        assert np.max(np.abs(pb - pf)) <= 1e-15


def test_combined_single_class_single_stratum_collapses_to_classwise():
    kb1 = make_kb(m=1, dim=16, seed=8)
    cls = Predictor(AdjustmentConfig("class"), kb1, 16, 3, "linear")
    comb = Predictor(
        AdjustmentConfig("combined", partition=PartitionConfig(n=1, t=0.0)), kb1, 16, 3, "linear"
    )
    heads = _probe_heads(cls, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.standard_normal(16)
        assert np.max(np.abs(cls.probs(heads, x) - comb.probs(heads, x))) <= 1e-15


def test_classwise_single_class_context_is_that_mean():
    kb1 = make_kb(m=1, dim=16, seed=12)
    p = Predictor(AdjustmentConfig("class"), kb1, 16, 3, "linear")
    x = np.random.default_rng(13).standard_normal(16)
    (ctx_input,) = p.context_inputs(x)
    assert np.allclose(ctx_input[16:], kb1.class_means[0], atol=1e-15)
    assert np.array_equal(ctx_input[:16], x)


# --- exact averaging -------------------------------------------------------------------


def test_linear_head_stratum_mean_equals_exact_mixture(kb16):
    # with a shared linear head, softmax of the mean of per-stratum inputs is
    # NOT the mean of softmaxes in general; but the predictor mixes
    # probabilities, so compare against the explicit mean over strata.
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e-3))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = rng.standard_normal(16)
        inputs = p.context_inputs(x)
        manual = np.mean(
            [_head_probs(h, z) for h, z in zip(heads, inputs)], axis=0
        )
        assert np.max(np.abs(manual - p.probs(heads, x))) < 1e-12


def test_backdoor_exact_classwise_single_class_matches_predict():
    kb1 = make_kb(m=1, dim=16, seed=16)
    cfg = AdjustmentConfig("class")
    p = Predictor(cfg, kb1, 16, 3, "linear")
    heads = _probe_heads(p, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(50):
        x = rng.standard_normal(16)
        exact = backdoor_exact_classwise(heads[0], x, kb1)
        assert np.allclose(exact, predict(heads, x, kb1, cfg), atol=1e-12)


def test_backdoor_exact_classwise_symmetric_two_strata():
    # opposite means with a balanced input: each stratum term is the
    # mirrored softmax, so the exact mixture is symmetric in the two classes
    kb = KnowledgeBase(
        class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_weights=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        pre_bias=np.zeros(2),
    )
    head = HeadParams(
        "linear",
        W=np.array([[1.0, 0.0, 1.0, 0.0], [-1.0, 0.0, -1.0, 0.0]]),
        b=np.zeros(2),
    )
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
        fast = p.probs(heads, x)
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
    inputs = p.context_inputs(x)
    base = np.mean([_head_probs(h, z) for h, z in zip(heads, inputs)], axis=0)
    perm = [2, 0, 3, 1]
    permuted = np.mean(
        [_head_probs(heads[i], inputs[i]) for i in perm], axis=0
    )
    assert np.allclose(base, permuted, atol=1e-15)
    assert np.allclose(p.probs(heads, x), base, atol=1e-12)


def test_empty_stratum_contributes_head_at_zero(kb16):
    # an all-zero block still evaluates its head at the zero vector rather
    # than being dropped, keeping the mixture weights at exactly 1/n
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=4, t=1e10))
    p = Predictor(cfg, kb16, 16, 3, "linear")
    heads = _probe_heads(p, seed=24)
    x = np.random.default_rng(25).standard_normal(16)
    expect = np.mean([_head_probs(h, np.zeros(4)) for h in heads], axis=0)
    assert np.allclose(p.probs(heads, x), expect, atol=1e-15)


def test_adjustment_config_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        AdjustmentConfig("both")
    with pytest.raises(ValueError, match="prior"):
        AdjustmentConfig("feature", prior="empirical")


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
