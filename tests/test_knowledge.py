"""Knowledge-base structures, feature partitions, and file format round-trips."""

import struct
from dataclasses import fields

import numpy as np
import pytest

from ifsl.adjust import AdjustmentConfig, Predictor
from ifsl.knowledge import (
    FEATURE_MAGIC,
    KB_MAGIC,
    FeatureDataset,
    FormatError,
    KnowledgeBase,
    PartitionConfig,
    csv_header,
    load_features,
    load_features_csv,
    load_kb,
    pretrain_probs,
    save_features,
    save_features_csv,
    save_kb,
)

from conftest import make_kb


# --- partitions ----------------------------------------------------------------


def _index_blocks(dim, n):
    """Feature indices of each stratum block, read off the ``feature`` predictor's
    inputs for the row 1, 2, ..., dim (every entry above the threshold)."""
    cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=n, t=0.5))
    blocks = Predictor(cfg, None, dim, 2, "linear").support_inputs(np.arange(1.0, dim + 1.0)[None])
    return [Z[0].astype(np.int64) - 1 for Z in blocks]


def test_feature_partition_512_by_8():
    blocks = _index_blocks(512, 8)
    assert len(blocks) == 8
    assert np.array_equal(blocks[0], np.arange(0, 64))
    assert np.array_equal(blocks[7], np.arange(448, 512))


def test_feature_partition_single_stratum():
    (block,) = _index_blocks(4, 1)
    assert np.array_equal(block, [0, 1, 2, 3])


def test_feature_partition_singletons():
    blocks = _index_blocks(4, 4)
    assert [b.tolist() for b in blocks] == [[0], [1], [2], [3]]


def test_feature_partition_is_a_partition():
    for dim, n in [(512, 8), (64, 4), (12, 3), (6, 6)]:
        blocks = _index_blocks(dim, n)
        sizes = {b.size for b in blocks}
        assert sizes == {dim // n}
        joined = np.concatenate(blocks)
        assert np.array_equal(np.sort(joined), np.arange(dim))


def test_feature_partition_divisibility_required():
    with pytest.raises(ValueError, match="does not divide"):
        _index_blocks(512, 7)


def test_partition_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(n=0)
    with pytest.raises(ValueError):
        PartitionConfig(t=-1.0)
    with pytest.raises(ValueError, match="does not divide"):
        PartitionConfig(n=7).validate_dim(512)
    PartitionConfig(n=8).validate_dim(512)


def test_active_index_set_examples():
    # a single feature stratum keeps exactly the entries with |x_k| > t
    def active(x, t):
        cfg = AdjustmentConfig("feature", partition=PartitionConfig(n=1, t=t))
        (block,) = Predictor(cfg, None, len(x), 2, "linear").support_inputs([x])
        return np.flatnonzero(block[0])

    assert active([0.0005, -0.5, 2.0], 1e-3).tolist() == [1, 2]
    assert active([0.0, 0.0], 1e-3).size == 0
    assert active([1.0, 1.0], 0.0).tolist() == [0, 1]


# --- pre-trained classifier ------------------------------------------------------


def test_pretrain_probs_zero_params_uniform():
    kb = KnowledgeBase(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))
    assert np.allclose(pretrain_probs(kb, [[1.0, -2.0, 0.5]]), [[0.5, 0.5]], atol=1e-15)


def test_pretrain_probs_aligned_class_dominates():
    weights = np.array([[10.0, 0.0], [0.0, 10.0]])
    kb = KnowledgeBase(np.zeros((2, 2)), weights, np.zeros(2))
    probs = pretrain_probs(kb, [[1.0, 0.0], [0.0, 1.0]])
    assert probs[0, 0] > 0.99
    assert probs[1, 1] > 0.99


def test_pretrain_probs_single_class():
    kb = KnowledgeBase(np.ones((1, 2)), np.ones((1, 2)), np.zeros(1))
    assert np.array_equal(pretrain_probs(kb, [[3.0, 4.0]]), [[1.0]])


def test_pretrain_probs_bias_shift_invariant():
    kb = make_kb()
    shifted = KnowledgeBase(kb.class_means, kb.pre_weights, kb.pre_bias + 17.5)
    X = np.random.default_rng(3).standard_normal((20, kb.dim))
    p = pretrain_probs(kb, X)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
    assert np.allclose(p, pretrain_probs(shifted, X), atol=1e-12)


def test_pretrain_probs_dimension_mismatch():
    kb = make_kb(dim=16)
    with pytest.raises(ValueError):
        pretrain_probs(kb, np.zeros((1, 15)))
    with pytest.raises(ValueError):
        pretrain_probs(kb, np.zeros(16))  # one vector, not a (B, dim) matrix


# --- structure validation --------------------------------------------------------


def test_feature_dataset_validation():
    feats = np.zeros((4, 3))
    with pytest.raises(ValueError, match="missing classes"):
        FeatureDataset(feats, [0, 0, 1, 1], n_classes=3)
    with pytest.raises(ValueError):
        FeatureDataset(feats, [0, 0, 1, 2], n_classes=2)  # label out of range
    with pytest.raises(ValueError):
        FeatureDataset(feats, [0, 1], n_classes=2)  # misaligned labels
    ds = FeatureDataset(feats, [0, 0, 1, 1], n_classes=2)
    assert ds.class_indices(1).tolist() == [2, 3]
    with pytest.raises(ValueError):
        ds.class_indices(2)


def test_class_indices_is_a_read_only_row_index():
    # shuffled labels: the index built with the dataset equals a scan of the
    # labels for every class, and hands out read-only views of itself
    rng = np.random.default_rng(60)
    labels = rng.permutation(np.repeat(np.arange(7), [1, 5, 2, 9, 3, 1, 4]))
    ds = FeatureDataset(rng.standard_normal((labels.size, 2)), labels, n_classes=7)
    for c in range(7):
        rows = ds.class_indices(c)
        assert np.array_equal(rows, np.flatnonzero(labels == c))
        assert not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0
    assert np.array_equal(ds.vectors_of(3), ds.features[labels == 3])
    # the dataset owns its labels: the caller's array may change, the index may not
    labels[:] = 0
    assert np.array_equal(ds.class_indices(0), np.flatnonzero(ds.labels == 0))
    assert ds.class_indices(0).size == 1
    with pytest.raises(ValueError, match="read-only"):
        ds.labels[0] = 1
    # the public face of the dataclass is unchanged
    assert [f.name for f in fields(FeatureDataset)] == ["features", "labels", "n_classes"]
    assert repr(ds).startswith("FeatureDataset(features=array(")
    assert repr(ds).endswith("n_classes=7)") and "_class_rows" not in repr(ds)


def test_knowledge_base_validation():
    with pytest.raises(ValueError):
        KnowledgeBase(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        KnowledgeBase(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        KnowledgeBase(np.full((2, 3), np.nan), np.zeros((2, 3)), np.zeros(2))


# --- binary feature files ---------------------------------------------------------


def _f32_dataset(seed: int = 7, n_classes: int = 3, per: int = 4, dim: int = 5):
    # float32-representable values so a save/load round-trip is bit-exact
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n_classes * per, dim)).astype(np.float32).astype(np.float64)
    labels = np.repeat(np.arange(n_classes), per)
    return FeatureDataset(feats, labels, n_classes)


def test_features_round_trip_bit_identical(tmp_path):
    ds = _f32_dataset()
    path = tmp_path / "a.features"
    save_features(ds, path)
    back = load_features(path)
    assert back.n_classes == ds.n_classes
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.features, ds.features)


def test_features_file_bytes_match_the_record_layout(tmp_path):
    # float64 features rounded to f32 on the way out: the file is the magic,
    # the header and each (u32 label, dim x f32) record, byte for byte
    rng = np.random.default_rng(9)
    ds = FeatureDataset(rng.standard_normal((7, 5)) * 1e3, [0, 1, 2, 0, 1, 2, 2], 3)
    path = tmp_path / "r.features"
    save_features(ds, path)
    records = b"".join(
        struct.pack("<I", int(label)) + row.astype("<f4").tobytes()
        for label, row in zip(ds.labels, ds.features)
    )
    header = FEATURE_MAGIC + struct.pack("<IIQ", 5, 3, 7)
    assert path.read_bytes() == header + records


def test_features_wrong_magic(tmp_path):
    path = tmp_path / "bad.features"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic at byte 0"):
        load_features(path)


def test_features_truncated_header(tmp_path):
    path = tmp_path / "short.features"
    path.write_bytes(FEATURE_MAGIC + b"\x00" * 4)
    with pytest.raises(FormatError, match="truncated header at byte 12"):
        load_features(path)


def test_features_truncated_payload_names_offset(tmp_path):
    ds = _f32_dataset()
    path = tmp_path / "cut.features"
    save_features(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(FormatError, match=f"found {len(raw) - 3}"):
        load_features(path)


def test_features_label_out_of_range_names_offset(tmp_path):
    dim, n_classes = 2, 2
    header = FEATURE_MAGIC + struct.pack("<IIQ", dim, n_classes, 2)
    rec = struct.Struct("<I2f")
    payload = rec.pack(0, 1.0, 2.0) + rec.pack(9, 3.0, 4.0)
    path = tmp_path / "label.features"
    path.write_bytes(header + payload)
    # second record starts at 8 + 16 + 12
    with pytest.raises(FormatError, match="label 9 out of range .* at byte 36"):
        load_features(path)


def test_features_nan_payload_names_offset(tmp_path):
    dim, n_classes = 2, 1
    header = FEATURE_MAGIC + struct.pack("<IIQ", dim, n_classes, 1)
    payload = struct.pack("<I2f", 0, 1.0, float("nan"))
    path = tmp_path / "nan.features"
    path.write_bytes(header + payload)
    # offset = 24 (header) + 4 (label) + 4 (first feature)
    with pytest.raises(FormatError, match="non-finite feature value at byte 32"):
        load_features(path)


def test_features_zero_dim_rejected(tmp_path):
    path = tmp_path / "zdim.features"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<IIQ", 0, 1, 0))
    with pytest.raises(FormatError, match="zero feature dimension"):
        load_features(path)


@pytest.mark.parametrize("dim", [2**29, 2**30, 2**31, 2**32 - 1])
@pytest.mark.parametrize("n_samples", [1, 3])
def test_features_huge_dim_is_format_error_at_byte_8(tmp_path, dim, n_samples):
    # the record size is checked in Python integers, before numpy sees it
    path = tmp_path / "huge.features"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<IIQ", dim, 2, n_samples) + bytes(12 * n_samples))
    with pytest.raises(FormatError, match=f"dimension {dim} \\(header at byte 8\\)"):
        load_features(path)


def test_features_zero_samples_rejected(tmp_path):
    path = tmp_path / "empty.features"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<IIQ", 2**32 - 1, 1, 0))
    with pytest.raises(FormatError, match="zero sample count at byte 16"):
        load_features(path)


def test_features_huge_class_count_is_not_enumerated(tmp_path):
    header = FEATURE_MAGIC + struct.pack("<IIQ", 1, 2**32 - 1, 2)
    rec = struct.Struct("<If")
    path = tmp_path / "classes.features"
    path.write_bytes(header + rec.pack(0, 1.0) + rec.pack(2, 2.0))
    with pytest.raises(FormatError, match=r"missing classes \[1, 3, 4\] and more"):
        load_features(path)


def test_features_missing_class_is_format_error(tmp_path):
    dim = 1
    header = FEATURE_MAGIC + struct.pack("<IIQ", dim, 3, 2)
    rec = struct.Struct("<If")
    path = tmp_path / "gap.features"
    path.write_bytes(header + rec.pack(0, 1.0) + rec.pack(2, 2.0))
    with pytest.raises(FormatError, match="missing classes"):
        load_features(path)


# --- binary knowledge-base files ---------------------------------------------------


def test_kb_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(9)
    m, dim = 4, 6
    kb = KnowledgeBase(
        rng.standard_normal((m, dim)).astype(np.float32).astype(np.float64),
        rng.standard_normal((m, dim)).astype(np.float32).astype(np.float64),
        rng.standard_normal(m).astype(np.float32).astype(np.float64),
    )
    path = tmp_path / "kb.bin"
    save_kb(kb, path)
    back = load_kb(path)
    assert np.array_equal(back.class_means, kb.class_means)
    assert np.array_equal(back.pre_weights, kb.pre_weights)
    assert np.array_equal(back.pre_bias, kb.pre_bias)


def test_kb_wrong_magic(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
    with pytest.raises(FormatError, match="bad magic at byte 0"):
        load_kb(path)


def test_kb_size_mismatch_names_offset(tmp_path):
    path = tmp_path / "short.kb"
    path.write_bytes(KB_MAGIC + struct.pack("<II", 3, 2) + b"\x00" * 10)
    with pytest.raises(FormatError, match="expected 72 bytes"):
        load_kb(path)


def test_kb_non_finite_names_offset(tmp_path):
    m, dim = 1, 2
    values = [1.0, 2.0, 3.0, 4.0, float("inf")]
    path = tmp_path / "inf.kb"
    path.write_bytes(KB_MAGIC + struct.pack("<II", dim, m) + struct.pack("<5f", *values))
    with pytest.raises(FormatError, match="non-finite value at byte 32"):
        load_kb(path)


# --- CSV ingestion ------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    ds = _f32_dataset(seed=13)
    path = tmp_path / "ds.csv"
    save_features_csv(ds, path)
    back = load_features_csv(path)
    assert back.n_classes == ds.n_classes
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.features, ds.features)


def test_csv_header_shape():
    assert csv_header(3) == ["label", "f0", "f1", "f2"]


def test_csv_bad_header_line_1(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x0,x1\n0,1.0,2.0\n")
    with pytest.raises(FormatError, match="line 1"):
        load_features_csv(path)


def test_csv_field_count_names_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_features_csv(path)


def test_csv_unparseable_names_line(tmp_path):
    path = tmp_path / "garbage.csv"
    path.write_text("label,f0\n0,1.0\nx,2.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_features_csv(path)


def test_csv_non_finite_names_line(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("label,f0\n0,nan\n1,1.0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_features_csv(path)


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(FormatError, match="line 1"):
        load_features_csv(path)
