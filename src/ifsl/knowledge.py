"""Pre-trained knowledge and datasets: class statistics, feature strata, file I/O.

Binary formats are little-endian with fixed magics so loaders can fail fast
and name the exact byte offset of the first problem. The rules all three formats
share live here, :mod:`ifsl.meta`'s included: prologue, exact length, f32 payload.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import as_matrix, as_rows, as_vector, softmax_rows

FEATURE_MAGIC = b"IFSLFEA1"
KB_MAGIC = b"IFSLKB01"

_FEATURE_HEADER = struct.Struct("<IIQ")  # dim, n_classes, n_samples
_KB_HEADER = struct.Struct("<II")  # dim, m


class FormatError(Exception):
    """A feature / knowledge-base / meta-initialization file is malformed."""


def _read_prologue(path, magic: bytes, header: struct.Struct) -> tuple[bytes, str, tuple]:
    """A binary file's bytes, name and header fields (at byte 8), its magic checked."""
    raw, name = Path(path).read_bytes(), str(path)
    if len(raw) < 8 or raw[:8] != magic:
        raise FormatError(f"{name}: bad magic at byte 0, expected {magic!r}")
    if len(raw) < 8 + header.size:
        raise FormatError(f"{name}: truncated header at byte {len(raw)}")
    return raw, name, header.unpack_from(raw, 8)


def _check_length(raw: bytes, name: str, expected: int, layout: str = "") -> None:
    if len(raw) != expected:
        raise FormatError(
            f"{name}: expected {expected} bytes{layout}, found {len(raw)} "
            f"(payload ends at byte {len(raw)})"
        )


def _check_f32(what: str, *arrays: np.ndarray) -> None:
    """Refuse, with a ValueError, a value that rounds to a non-finite f32;
    rounding is monotonic, so each array's extremes decide."""
    with np.errstate(over="ignore"):  # the overflow is the refusal below
        ends = np.float32([f(a) for a in arrays for f in (np.min, np.max)])
    if not np.isfinite(ends).all():
        raise ValueError(f"every {what} must be finite once rounded to f32")


def _write(path, parts) -> None:
    """Write the parts (bytes or arrays) of an encoder, which has refused first."""
    with open(path, "wb") as fh:
        fh.writelines(parts)


@dataclass(frozen=True)
class PartitionConfig:
    """Feature-stratum partition: ``n`` equal index blocks, activation threshold ``t``."""

    n: int = 8
    t: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"stratum count must be a positive integer, got {self.n!r}")
        if not np.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"activation threshold must be finite and >= 0, got {self.t!r}")

    def validate_dim(self, dim: int) -> None:
        if dim % self.n != 0:
            raise ValueError(
                f"stratum count {self.n} does not divide feature dimension {dim}"
            )


@dataclass(frozen=True)
class KnowledgeBase:
    """Per-class feature means plus the pre-trained linear classifier."""

    class_means: np.ndarray  # (m, dim)
    pre_weights: np.ndarray  # (m, dim)
    pre_bias: np.ndarray  # (m,)

    def __post_init__(self):
        means = as_matrix(self.class_means)
        m, dim = means.shape
        if m < 1:
            raise ValueError("knowledge base needs at least one class")
        if dim < 1:
            raise ValueError("zero feature dimension")
        weights = as_matrix(self.pre_weights, rows=m, cols=dim)
        bias = as_vector(self.pre_bias, size=m)
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "pre_weights", weights)
        object.__setattr__(self, "pre_bias", bias)

    @property
    def m(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


@dataclass(frozen=True)
class FeatureDataset:
    """Labeled feature vectors; labels are 0-based and contiguous."""

    features: np.ndarray  # (n_samples, dim)
    labels: np.ndarray  # (n_samples,) int64
    n_classes: int

    def __post_init__(self):
        feats = as_matrix(self.features)
        if feats.shape[1] < 1:
            raise ValueError("zero feature dimension")
        # an owned, read-only copy: the per-class index below must not go stale
        labels = np.array(self.labels, dtype=np.int64)
        labels.flags.writeable = False
        if labels.ndim != 1 or labels.size != feats.shape[0]:
            raise ValueError("labels must be a 1-D array aligned with features")
        if self.n_classes < 1:
            raise ValueError("dataset needs at least one class")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes - 1}], "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        present = np.unique(labels)
        if present.size != self.n_classes:
            # the three smallest missing ids lie below present.size + 3, so a
            # huge class count is never enumerated
            missing = np.setdiff1d(np.arange(min(self.n_classes, present.size + 3)), present)
            more = " and more" if self.n_classes - present.size > missing.size else ""
            raise ValueError(
                f"every class must be non-empty; missing classes {missing.tolist()}{more}"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        # rows of class c, ascending: _class_rows[_class_starts[c]:_class_starts[c + 1]]
        rows = np.argsort(labels, kind="stable")
        rows.flags.writeable = False
        starts = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=self.n_classes))])
        object.__setattr__(self, "_class_rows", rows)
        object.__setattr__(self, "_class_starts", starts)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_indices(self, label: int) -> np.ndarray:
        """Ascending row indices of one class: a read-only view of an index
        built with the dataset, equal to ``np.flatnonzero(labels == label)``."""
        if not 0 <= label < self.n_classes:
            raise ValueError(f"class {label} out of range [0, {self.n_classes - 1}]")
        return self._class_rows[self._class_starts[label] : self._class_starts[label + 1]]

    def vectors_of(self, label: int) -> np.ndarray:
        return self.features[self.class_indices(label)]


def pretrain_logits(kb: KnowledgeBase, X) -> np.ndarray:
    """Pre-trained classifier logits X W^T + b: one row of m per row of a (..., B, dim) array."""
    return as_rows(X, cols=kb.dim) @ kb.pre_weights.T + kb.pre_bias


def pretrain_probs(kb: KnowledgeBase, X) -> np.ndarray:
    """Pre-trained classifier posteriors softmax(X W^T + b) over the m base classes, per row."""
    return softmax_rows(pretrain_logits(kb, X))


# --- binary feature files ---------------------------------------------------


def feature_parts(ds: FeatureDataset) -> tuple[bytes, np.ndarray]:
    """Magic and header, then the per-sample (u32 label, dim x f32) records, that
    :func:`save_features` writes; ValueError for a dataset its loader would refuse."""
    _check_f32("feature value", ds.features)
    rec = np.dtype([("label", "<u4"), ("feat", "<f4", (ds.dim,))])
    out = np.empty(ds.n_samples, dtype=rec)
    # field assignment casts in small buffered blocks, so no full-size
    # f32 copy is made, and the records go to the file without a bytes copy
    out["label"] = ds.labels
    out["feat"] = ds.features
    return FEATURE_MAGIC + _FEATURE_HEADER.pack(ds.dim, ds.n_classes, ds.n_samples), out


def save_features(ds: FeatureDataset, path) -> None:
    _write(path, feature_parts(ds))


def load_features(path) -> FeatureDataset:
    raw, name, (dim, n_classes, n_samples) = _read_prologue(path, FEATURE_MAGIC, _FEATURE_HEADER)
    header_end = 8 + _FEATURE_HEADER.size
    if dim == 0:
        raise FormatError(f"{name}: zero feature dimension at byte 8")
    if n_classes == 0:
        raise FormatError(f"{name}: zero class count at byte 12")
    if n_samples == 0:
        raise FormatError(f"{name}: zero sample count at byte 16")
    # sizes in Python integers: a huge dim must fail here, not in numpy
    record = 4 + 4 * dim  # u32 label, then dim x f32
    _check_length(
        raw, name, header_end + n_samples * record,
        f" for {n_samples} records of dimension {dim} (header at byte 8)",
    )
    words = np.frombuffer(raw, dtype="<u4", offset=header_end).reshape(n_samples, 1 + dim)
    labels = words[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        r = int(bad[0])
        off = header_end + r * record
        raise FormatError(
            f"{name}: label {int(labels[r])} out of range [0, {n_classes - 1}] at byte {off}"
        )
    feats = words[:, 1:].view("<f4").astype(np.float64)
    nonfinite = np.argwhere(~np.isfinite(feats))
    if nonfinite.size:
        r, k = (int(v) for v in nonfinite[0])
        off = header_end + r * record + 4 + 4 * k
        raise FormatError(f"{name}: non-finite feature value at byte {off}")
    try:
        return FeatureDataset(feats, labels, int(n_classes))
    except ValueError as exc:
        raise FormatError(f"{name}: {exc}") from exc


# --- binary knowledge-base files --------------------------------------------


def kb_parts(kb: KnowledgeBase) -> tuple:
    """Magic and header, then f32 class means, weights and bias, that :func:`save_kb`
    writes; ValueError for a knowledge base its loader would refuse."""
    arrays = (kb.class_means, kb.pre_weights, kb.pre_bias)
    _check_f32("knowledge-base value", *arrays)
    header = KB_MAGIC + _KB_HEADER.pack(kb.dim, kb.m)
    return (header, *(a.astype("<f4", order="C") for a in arrays))


def save_kb(kb: KnowledgeBase, path) -> None:
    _write(path, kb_parts(kb))


def load_kb(path) -> KnowledgeBase:
    raw, name, (dim, m) = _read_prologue(path, KB_MAGIC, _KB_HEADER)
    header_end = 8 + _KB_HEADER.size
    if dim == 0:
        raise FormatError(f"{name}: zero feature dimension at byte 8")
    if m == 0:
        raise FormatError(f"{name}: zero class count at byte 12")
    _check_length(raw, name, header_end + 4 * (2 * m * dim + m), f" for dim={dim} m={m}")
    flat = np.frombuffer(raw, dtype="<f4", count=2 * m * dim + m, offset=header_end)
    nonfinite = np.flatnonzero(~np.isfinite(flat))
    if nonfinite.size:
        off = header_end + 4 * int(nonfinite[0])
        raise FormatError(f"{name}: non-finite value at byte {off}")
    means = flat[: m * dim].astype(np.float64).reshape(m, dim)
    weights = flat[m * dim : 2 * m * dim].astype(np.float64).reshape(m, dim)
    bias = flat[2 * m * dim :].astype(np.float64)
    return KnowledgeBase(means, weights, bias)


# --- CSV feature files (hand-written fixtures) -------------------------------


def csv_header(dim: int) -> list[str]:
    return ["label"] + [f"f{i}" for i in range(dim)]


def save_features_csv(ds: FeatureDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(ds.dim))
        for label, row in zip(ds.labels, ds.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_features_csv(path) -> FeatureDataset:
    name = str(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{name}: empty file, missing header at line 1") from None
        dim = len(header) - 1
        if dim < 1 or header != csv_header(dim):
            raise FormatError(
                f"{name}: header at line 1 must be 'label,f0,...,f{{dim-1}}', got {header!r}"
            )
        labels: list[int] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise FormatError(
                    f"{name}: expected {dim + 1} fields at line {lineno}, got {len(row)}"
                )
            try:
                label = int(row[0])
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise FormatError(f"{name}: unparseable value at line {lineno}: {exc}") from exc
            if label < 0:
                raise FormatError(f"{name}: negative label at line {lineno}")
            if not all(np.isfinite(values)):
                raise FormatError(f"{name}: non-finite feature value at line {lineno}")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise FormatError(f"{name}: no data rows after the header")
    n_classes = max(labels) + 1
    try:
        return FeatureDataset(np.array(rows), np.array(labels), n_classes)
    except ValueError as exc:
        raise FormatError(f"{name}: {exc}") from exc
