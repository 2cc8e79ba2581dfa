import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.tensor_store import (
    StoreError,
    load_store,
    save_store,
    slice_rows,
)


def test_empty_store_roundtrip(tmp_path):
    path = tmp_path / "empty.agqt"
    save_store({}, path)
    assert load_store(path) == {}


def test_roundtrip_small_tensor(tmp_path):
    t = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "w.agqt"
    save_store({"w": t}, path)
    loaded = load_store(path)
    assert list(loaded) == ["w"]
    np.testing.assert_array_equal(loaded["w"], t)
    assert loaded["w"].dtype == np.float32


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.agqt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(StoreError, match="^bad magic b'XXXX'$"):
        load_store(path)


def test_save_deterministic(tmp_path):
    t = np.ones((3, 2), dtype=np.float32)
    p1, p2 = tmp_path / "a.agqt", tmp_path / "b.agqt"
    save_store({"t": t}, p1)
    save_store({"t": t}, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_payload_little_endian(tmp_path):
    path = tmp_path / "one.agqt"
    save_store({"x": np.array([[3.5]], dtype=np.float32)}, path)
    assert struct.pack("<f", 3.5) in path.read_bytes()


def test_names_sorted(tmp_path):
    path = tmp_path / "two.agqt"
    save_store(
        {"b": np.zeros((1, 1), dtype=np.float32), "a": np.ones((1, 1), dtype=np.float32)},
        path,
    )
    blob = path.read_bytes()
    assert blob.index(b"\x01\x00a") < blob.index(b"\x01\x00b")


GOOD_TENSOR = np.ones((2, 3), dtype=np.float32)


@pytest.mark.parametrize("store", [
    {"x\ud800": GOOD_TENSOR},  # a lone surrogate has no UTF-8 form
    {1: GOOD_TENSOR},
    {1: GOOD_TENSOR, "b": GOOD_TENSOR},
    {"x": [[1.0, 2.0]]},
    {"x": np.ones((2, 3, 4), dtype=np.float32)},
    {"x": np.ones(3, dtype=np.float32)},
    {"x": np.full((2, 2), np.nan, dtype=np.float32)},
    {"x": GOOD_TENSOR.astype(np.float64)},
    {"": GOOD_TENSOR},
    {"x" * 257: GOOD_TENSOR},
], ids=["surrogate-name", "int-name", "mixed-names", "list-value", "3-D", "1-D", "nan",
        "float64", "empty-name", "long-name"])
def test_save_refuses_with_store_error(tmp_path, store):
    """What the format cannot hold raises a StoreError, and nothing is written."""
    path = tmp_path / "s.agqt"
    with pytest.raises(StoreError):
        save_store(store, path)
    assert not path.exists()


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.agqt"
    save_store({"x": np.zeros((4, 4), dtype=np.float32)}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(StoreError, match="^payload for 'x' truncated$"):
        load_store(path)


def test_dimension_overflow(tmp_path):
    # hand-craft a header declaring a 2^16 x 2^16 tensor
    path = tmp_path / "big.agqt"
    header = b"AGQT" + struct.pack("<II", 1, 1)
    entry = struct.pack("<H", 1) + b"x" + struct.pack("<BII", 0, 2**16, 2**16)
    path.write_bytes(header + entry)
    with pytest.raises(StoreError, match="^65536x65536 exceeds element cap$"):
        load_store(path)


def test_slice_rows_identity():
    t = np.arange(6, dtype=np.float32).reshape(3, 2)
    np.testing.assert_array_equal(slice_rows(t, [0, 1, 2]), t)


def test_slice_rows_subset():
    t = np.arange(6, dtype=np.float32).reshape(3, 2)
    np.testing.assert_array_equal(slice_rows(t, [0, 2]), t[[0, 2]])


def test_slice_rows_empty():
    t = np.arange(6, dtype=np.float32).reshape(3, 2)
    out = slice_rows(t, [])
    assert out.shape == (0, 2)


def test_slice_rows_errors():
    t = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        slice_rows(t, [2, 1])
    with pytest.raises(ValueError):
        slice_rows(t, [0, 3])
    # floats and bools are refused, never truncated to rows 0, 1, 2
    for keep in ([0.5, 1.5, 2.9], [0, 1.0], np.array([0.0, 2.0]), [True], [0, np.True_]):
        with pytest.raises(ValueError, match="must be integers"):
            slice_rows(t, keep)
    np.testing.assert_array_equal(slice_rows(t, np.array([0, 2])), t[[0, 2]])


names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12
)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        names,
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1)),
        max_size=5,
    )
)
def test_roundtrip_property(tmp_path_factory, layout):
    store = {}
    for name, (r, c, seed) in layout.items():
        rng = np.random.default_rng(seed)
        if seed % 2:
            store[name] = rng.standard_normal((r, c)).astype(np.float32)
        else:
            store[name] = rng.integers(0, 256, (r, c)).astype(np.uint8)
    path = tmp_path_factory.mktemp("prop") / "s.agqt"
    save_store(store, path)
    loaded = load_store(path)
    assert set(loaded) == set(store)
    for name in store:
        np.testing.assert_array_equal(loaded[name], store[name])
        assert loaded[name].dtype == store[name].dtype


def _valid_blob():
    store = {
        "w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "codes": np.arange(4, dtype=np.uint8).reshape(4, 1),
    }
    blob = b"AGQT" + struct.pack("<II", 1, len(store))
    for name in sorted(store):
        t = store[name]
        blob += struct.pack("<H", len(name)) + name.encode()
        blob += struct.pack("<BII", int(t.dtype == np.uint8), *t.shape) + t.tobytes()
    return blob


VALID_BLOB = _valid_blob()


def test_valid_blob_matches_writer(tmp_path):
    path = tmp_path / "v.agqt"
    path.write_bytes(VALID_BLOB)
    save_store(load_store(path), tmp_path / "again.agqt")
    assert (tmp_path / "again.agqt").read_bytes() == VALID_BLOB


def _flip(flips):
    blob = bytearray(VALID_BLOB)
    for pos, mask in flips:
        blob[pos] ^= mask
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(0, len(VALID_BLOB) - 1).map(lambda n: VALID_BLOB[:n]),
        st.lists(st.tuples(st.integers(0, len(VALID_BLOB) - 1), st.integers(1, 255)),
                 min_size=1, max_size=4).map(_flip),
        st.binary(min_size=1, max_size=8).map(lambda tail: VALID_BLOB + tail),
    )
)
def test_corrupt_bytes_raise_only_store_error(tmp_path_factory, blob):
    """Truncated, bit-flipped or extended stores either load or raise a
    StoreError, never another exception."""
    path = tmp_path_factory.mktemp("fuzz") / "c.agqt"
    path.write_bytes(blob)
    try:
        load_store(path)
    except StoreError:
        pass
