"""Numeric kernel behavior: stability, conventions, validation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.evalmetrics import query_hardness
from ifsl.heads import init_stack
from ifsl.numerics import (
    as_matrix,
    as_rows,
    as_vector,
    normalize_rows,
    normalize_rows_with_divisors,
    softmax,
)

from conftest import reference_unit_rows


def _cosines(A, B):
    """Cosine matrix of two row sets, as the cosine heads and hardness compute it."""
    return normalize_rows(np.asarray(A, dtype=float)) @ normalize_rows(np.asarray(B, dtype=float)).T


def test_softmax_symmetry():
    assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_large_logits_stable():
    # max-subtraction keeps exp() in range
    out = softmax([1000.0, 1000.0])
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)
    assert np.all(np.isfinite(softmax([1e300, 0.0])))


def test_softmax_two_zero_hand_value():
    # e^2 / (e^2 + 1)
    out = softmax([2.0, 0.0])
    assert abs(out[0] - 0.8808) < 1e-4
    assert abs(out[1] - 0.1192) < 1e-4
    assert abs(out[0] - math.exp(2) / (math.exp(2) + 1)) < 1e-12


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.standard_normal(rng.integers(1, 12)) * 10
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)
        shift = rng.standard_normal() * 50
        assert np.allclose(p, softmax(z + shift), atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax([])


def test_cosine_similarity_examples():
    cos = _cosines([[1, 0], [0, 0]], [[1, 0], [0, 1]])
    assert cos[0, 0] == pytest.approx(1.0)
    assert cos[0, 1] == pytest.approx(0.0)
    assert cos[1, 0] == 0.0  # zero-norm convention
    assert np.array_equal(normalize_rows(np.zeros((1, 3))), np.zeros((1, 3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    width=st.integers(1, 8),
    log_scale=st.integers(-170, 150),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_normalize_rows_equals_literal_form(lead, width, log_scale, zero_share, seed):
    # the same values as np.linalg.norm plus divide-where wherever that form
    # is exact: on zero rows, which stay zero, and on rows whose nonzero
    # squares are all normal floats (smaller squares lose bits, and such rows
    # are rescaled instead); width-1 rows whose square is a normal float come
    # out exactly +-1
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((*lead, width)) * 10.0**log_scale
    m[rng.random(lead) < zero_share] = 0.0
    exact = ((m * m >= np.finfo(float).tiny) | (m == 0.0)).all(axis=-1)
    expected = reference_unit_rows(m)[exact]
    U, d = normalize_rows_with_divisors(m)
    assert np.array_equal(normalize_rows(m)[exact], expected)
    assert np.array_equal(U[exact], expected)
    norms = np.linalg.norm(m, axis=-1, keepdims=True)
    assert np.array_equal(d[exact], np.where(norms > 0.0, norms, np.inf)[exact])
    if width == 1:
        normal = m * m >= np.finfo(float).tiny
        assert np.array_equal(np.abs(U[normal]), np.ones(normal.sum()))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    width=st.integers(1, 8),
    log_scale=st.floats(-324.0, 300.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_normalize_rows_every_nonzero_row_is_unit(width, log_scale, seed):
    # down to subnormal entries (5e-324), whose squares underflow to 0, and
    # up to entries of 1e300, whose squares overflow
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, width)) * 10.0**log_scale
    m[0, 0] = 5e-324
    m[1] = 0.0
    nonzero = (m != 0.0).any(axis=-1)
    U, d = normalize_rows_with_divisors(m)
    assert np.array_equal(normalize_rows(m), U)
    assert np.all(np.abs(np.linalg.norm(U[nonzero], axis=-1) - 1.0) <= 1e-15)
    assert np.array_equal(U[~nonzero], np.zeros_like(U[~nonzero]))
    # the divisors are the row norms (rounded where those are subnormal)
    assert np.all(np.isinf(d[~nonzero])) and np.all(d[nonzero] > 0.0)
    assert np.allclose(U[nonzero] * d[nonzero], m[nonzero], rtol=1e-15, atol=1e-320)


def test_normalize_rows_tiny_rows_come_out_unit():
    tiny = np.array([[1e-162], [-5e-324], [3e-160]])
    assert np.array_equal(normalize_rows(tiny), [[1.0], [-1.0], [1.0]])
    U = normalize_rows(np.array([[5e-324, 5e-324], [3e-170, 4e-170]]))
    assert np.allclose(U, [[0.5**0.5, 0.5**0.5], [0.6, 0.8]], rtol=0.0, atol=3e-16)


def test_normalize_rows_huge_rows_come_out_unit():
    # squares of these rows overflow: the norms are 1e200 and 5e154
    U, d = normalize_rows_with_divisors(np.array([[1e200, 0.0], [3e154, 4e154]]))
    assert np.allclose(U, [[1.0, 0.0], [0.6, 0.8]], rtol=0.0, atol=3e-16)
    assert np.allclose(d, [[1e200], [5e154]], rtol=1e-15, atol=0.0)
    assert np.array_equal(normalize_rows(np.array([[1e200, 0.0], [3e154, 4e154]])), U)
    # beside them, ordinary, tiny and zero rows keep their own treatment
    mixed = np.array([[3.0, 4.0], [1e200, 0.0], [0.0, 0.0], [3e-170, 4e-170]])
    assert np.allclose(normalize_rows(mixed), [[0.6, 0.8], [1.0, 0.0], [0.0, 0.0], [0.6, 0.8]],
                       rtol=0.0, atol=3e-16)
    assert np.array_equal(normalize_rows(mixed)[0], normalize_rows(mixed[:1])[0])


@pytest.mark.parametrize(
    "rows",
    [[[1e200, 0.0], [3e154, 4e154]], [[1e154, 1e154]], [[5e-324, 0.0], [3e-170, 4e-170]],
     [[1.7e308, -1.7e308]]],
)
def test_normalize_rows_huge_and_tiny_rows_raise_no_floating_point_error(rows):
    # the squares (or their sum) that find these rows overflow or underflow;
    # neither numpy's "raise" setting nor warnings turned into errors may refuse them
    m = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = normalize_rows(m)
        with np.errstate(over="raise", under="raise"):
            assert np.array_equal(normalize_rows(m), expected)
    assert np.allclose(np.linalg.norm(expected, axis=-1), 1.0, rtol=0.0, atol=3e-16)


def test_cosine_similarity_properties():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((200, 6))
    B = rng.standard_normal((200, 6))
    scale = rng.uniform(0.1, 10, size=(200, 1))
    s = np.diag(_cosines(A, B))
    assert np.all((-1.0 - 1e-12 <= s) & (s <= 1.0 + 1e-12))
    assert np.allclose(s, np.diag(_cosines(B, A)), rtol=0.0, atol=1e-15)
    assert np.allclose(s, np.diag(_cosines(scale * A, B)), rtol=0.0, atol=1e-12)


def test_cosine_similarity_dimension_mismatch():
    with pytest.raises(ValueError):
        query_hardness([[1, 0]], [[1, 0, 0]], [0])


# rectification: hardness compares the rectified (ReLU) logits, so a
# negative entry counts as 0


def _rectified_hardness(r):
    profiles = np.eye(len(r)) + 0.5
    return query_hardness([r], profiles, [0])[0]


def test_relu_examples():
    for v, rectified in (
        ([-1.0, 2.0], [0.0, 2.0]),
        ([0.0, 0.0], [0.0, 0.0]),
        ([3.0, -0.5, 0.0], [3.0, 0.0, 0.0]),
    ):
        assert _rectified_hardness(v) == _rectified_hardness(rectified)


def test_relu_idempotent():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(50)
    once = np.maximum(v, 0.0)
    assert _rectified_hardness(v) == _rectified_hardness(once)


# class means: hardness profiles and centroid heads average the support rows
# of each class


def test_mean_vector_examples():
    # one head's one-class centroid on one episode: the (1, 1, S, P) stack
    mean = init_stack("centroid", 1, [[[[0.0, 0.0], [2.0, 2.0]]]], [[0, 0]])
    assert np.array_equal(mean[0, 0], [[1.0, 1.0]])
    mean = init_stack("centroid", 1, [[[[1.0, 1.0]]]], [[0]])
    assert np.array_equal(mean[0, 0], [[1.0, 1.0]])
    mean = init_stack("centroid", 1, [[[[1, 0], [0, 1], [-1, -1]]]], [[0, 0, 0]])
    assert np.allclose(mean[0, 0], [[0.0, 0.0]], atol=1e-15)


def test_mean_vector_empty_rejected():
    with pytest.raises(ValueError):
        init_stack("centroid", 1, np.zeros((1, 1, 0, 2)), np.zeros((1, 0), dtype=int))


def test_mean_vector_mixed_dims_rejected():
    with pytest.raises(ValueError):
        init_stack("centroid", 1, [[[[1.0, 2.0], [1.0, 2.0, 3.0]]]], [[0, 0]])


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])  # not 1-D
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], size=3)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])  # not 2-D
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)), rows=3)
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)), cols=2)
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.zeros((1, 2, 3)))


def test_as_rows_validation():
    stack = as_rows(np.ones((4, 2, 3), dtype=np.float32), cols=3)
    assert stack.dtype == np.float64 and stack.shape == (4, 2, 3)
    assert as_rows([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(ValueError, match="rows of a matrix"):
        as_rows([1.0, 2.0])
    with pytest.raises(ValueError, match="expected 2 columns"):
        as_rows(np.zeros((4, 2, 3)), cols=2)
    with pytest.raises(ValueError, match="finite"):
        as_rows(np.full((2, 2, 2), np.inf))
