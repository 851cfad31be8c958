"""Every binary writer refuses what its loader would refuse: for any finite
float64 values it either writes a file that loads as the f32-rounded object,
or raises ValueError and leaves no file behind."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsl.knowledge import (
    FeatureDataset,
    KnowledgeBase,
    load_features,
    load_kb,
    save_features,
    save_kb,
)
from ifsl.meta import MetaInit, load_meta, save_meta

# the largest f32, two values beyond it, and subnormals of f64 and of f32
EDGES = (3.4028235e38, -3.4028235e38, 1e39, -1e39, 5e-324, -2.2e-310, 1e-45, -1e-40)
VALUE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
REFUSAL = "must be finite once rounded to f32"


def _values(n: int):
    return st.lists(VALUE, min_size=n, max_size=n).map(np.array)


def _f32(values: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return values.astype(np.float32).astype(np.float64)


def _round_trip(save, load, obj, values: np.ndarray):
    """The loaded object when ``values`` fit f32, else None after checking the refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.bin"
        if np.isfinite(_f32(values)).all():
            save(obj, path)
            return load(path)
        with pytest.raises(ValueError, match=REFUSAL):
            save(obj, path)
        assert not path.exists()
        return None


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_values(6))
@example(np.array([0.0, 1e39, 0.0, 0.0, 0.0, 0.0]))
def test_feature_writer_round_trips_or_refuses(values):
    ds = FeatureDataset(values.reshape(3, 2), np.array([0, 1, 1]), 2)
    loaded = _round_trip(save_features, load_features, ds, values)
    if loaded is not None:
        np.testing.assert_array_equal(loaded.features, _f32(ds.features))
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.n_classes == 2


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_values(10))
@example(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1e39, 0.0]))
def test_kb_writer_round_trips_or_refuses(values):
    kb = KnowledgeBase(values[:4].reshape(2, 2), values[4:8].reshape(2, 2), values[8:])
    loaded = _round_trip(save_kb, load_kb, kb, values)
    if loaded is not None:
        for got, want in zip(
            (loaded.class_means, loaded.pre_weights, loaded.pre_bias),
            (kb.class_means, kb.pre_weights, kb.pre_bias),
        ):
            np.testing.assert_array_equal(got, _f32(want))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_values(6), st.sampled_from(("linear", "cosine")))
@example(np.array([0.0, 0.0, 1e39, 0.0, 0.0, 0.0]), "linear")
def test_meta_writer_round_trips_or_refuses(values, kind):
    mi = MetaInit(kind, values.reshape(1, 2, 3), 0.5, 3, 0.25, 7)
    loaded = _round_trip(save_meta, load_meta, mi, values)
    if loaded is not None:
        assert loaded.kind == kind
        np.testing.assert_array_equal(loaded.theta, _f32(mi.theta))
        assert (loaded.inner_lr, loaded.inner_steps, loaded.outer_lr, loaded.tasks) == (
            0.5, 3, 0.25, 7,
        )


def test_writers_write_rows_in_order_whatever_the_memory_layout(tmp_path):
    # a column-major knowledge base or dataset is written row by row all the same
    rng = np.random.default_rng(4)
    means, weights, feats = (rng.standard_normal(shape) for shape in ((3, 4), (3, 4), (4, 3)))
    bias, labels = rng.standard_normal(3), np.array([0, 1, 1, 0])
    for save, make in (
        (save_kb, lambda f: KnowledgeBase(f(means), f(weights), bias)),
        (save_features, lambda f: FeatureDataset(f(feats), labels, 2)),
    ):
        save(make(np.ascontiguousarray), tmp_path / "c.bin")
        save(make(np.asfortranarray), tmp_path / "f.bin")
        assert (tmp_path / "c.bin").read_bytes() == (tmp_path / "f.bin").read_bytes()
