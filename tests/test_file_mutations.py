"""Mutated binary files: every loader either loads or raises FormatError.

Random byte flips and truncations of valid ``.features``, knowledge-base and
``IFSLMET1`` files, and explicit values in the header dimension fields, must
never escape a loader as another exception; ``ifsl episodes`` on a mutated
file exits 0 or 3.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsl.cli import main
from ifsl.heads import HeadParams
from ifsl.knowledge import FormatError, load_features, load_kb, save_features, save_kb
from ifsl.meta import MetaInit, load_meta, save_meta

from conftest import make_blob_dataset, make_kb

_LOADERS = {"features": load_features, "kb": load_kb, "meta": load_meta}
# offset of every u32 header field that sizes the payload (features: dim,
# classes, low half of the sample count; kb: dim, m; meta: heads, way, dim)
_SIZE_FIELDS = {"features": (8, 12, 16), "kb": (8, 12), "meta": (12, 16, 20)}
_DIM_FIELD = {"features": 8, "kb": 8, "meta": 20}
_EDGE_VALUES = [0, 1, 2, 3, 2**29, 2**30, 2**31, 2**32 - 1]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Directory holding one valid file of each kind, and their bytes."""
    root = tmp_path_factory.mktemp("mutations")
    save_features(make_blob_dataset(n_classes=3, per_class=6, dim=4, seed=3), root / "ok.features")
    save_kb(make_kb(m=3, dim=4, seed=4), root / "ok.kb")
    heads = [HeadParams("linear", W=np.full((2, 4), 0.5), b=np.zeros(2)) for _ in range(2)]
    save_meta(MetaInit(heads), root / "ok.meta")
    return root, {kind: (root / f"ok.{kind}").read_bytes() for kind in _LOADERS}


@st.composite
def mutations(draw, raw: bytes, size_fields) -> bytes:
    """``raw`` with a header size field set, bytes flipped, and a cut."""
    raw = bytearray(raw)
    if draw(st.booleans()):
        offset = draw(st.sampled_from(size_fields))
        value = draw(st.sampled_from(_EDGE_VALUES) | st.integers(0, 2**32 - 1))
        struct.pack_into("<I", raw, offset, value)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(raw) - 1))
        raw[pos] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        raw = raw[: draw(st.integers(0, len(raw)))]
    return bytes(raw)


def _loads(root, kind: str, raw: bytes) -> bool:
    """True if ``raw`` loads as ``kind``, False on FormatError; anything else propagates."""
    path = root / f"mutated.{kind}"
    path.write_bytes(raw)
    try:
        _LOADERS[kind](path)
    except FormatError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_unmutated_files_load(files, kind):
    root, originals = files
    assert _loads(root, kind, originals[kind])


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@pytest.mark.parametrize("value", _EDGE_VALUES)
def test_header_dimension_field_loads_or_raises_format_error(files, kind, value):
    root, originals = files
    raw = bytearray(originals[kind])
    struct.pack_into("<I", raw, _DIM_FIELD[kind], value)
    assert _loads(root, kind, bytes(raw)) == (value == 4)  # every original is 4 wide


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data(), kind=st.sampled_from(sorted(_LOADERS)))
def test_mutated_files_load_or_raise_format_error(files, data, kind):
    root, originals = files
    _loads(root, kind, data.draw(mutations(originals[kind], _SIZE_FIELDS[kind])))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data(), kind=st.sampled_from(["features", "kb"]))
def test_cli_on_mutated_files_exits_0_or_3(files, data, kind):
    root, originals = files
    mutated = root / f"cli.{kind}"
    mutated.write_bytes(data.draw(mutations(originals[kind], _SIZE_FIELDS[kind])))
    paths = {"features": root / "ok.features", "kb": root / "ok.kb", kind: mutated}
    code = main([
        "episodes", "--features", str(paths["features"]), "--kb", str(paths["kb"]),
        "--way", "2", "--shot", "1", "--query", "2", "--episodes", "2", "--iterations", "3",
        "--out", str(root / "report.json"),
    ])
    assert code in (0, 3)
