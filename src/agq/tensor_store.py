"""Dense 2-D float32 tensors and the binary named-tensor store format.

Tensors are plain ``numpy.ndarray`` objects: 2-D, row-major, float32 for
activations/weights and uint8 for integer code payloads. The store format is
a small self-describing binary container (magic ``AGQT``).
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"AGQT"
FORMAT_VERSION = 1
MAX_ELEMENTS = 2**31

_DTYPE_CODES = {0: np.float32, 1: np.uint8}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.uint8): 1}


class StoreError(Exception):
    """A tensor-store failure: bad magic, a truncated file, a tensor past the
    element cap or any other malformed or unwritable content."""


def as_tensor2d(data, dtype=np.float32) -> np.ndarray:
    """Validate and return a 2-D contiguous array of the given dtype.

    Raises ValueError on non-2-D input or non-finite float values, and
    StoreError on tensors larger than the element cap.
    """
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D tensor, got {arr.ndim}-D")
    if arr.size > MAX_ELEMENTS:
        raise StoreError(f"tensor has {arr.size} elements, cap is {MAX_ELEMENTS}")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains NaN or Inf")
    return arr


def slice_rows(t: np.ndarray, keep) -> np.ndarray:
    """Return the rows of ``t`` listed in ``keep`` (strictly increasing
    integers; a float or a bool is refused, not truncated)."""
    keep = list(keep)
    prev = -1
    for i in keep:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValueError(f"keep indices must be integers, got {i!r}")
        if i <= prev:
            raise ValueError("keep indices must be strictly increasing")
        if i >= t.shape[0]:
            raise ValueError(f"row index {i} out of range for {t.shape[0]} rows")
        prev = i
    if not keep:
        return np.empty((0, t.shape[1]), dtype=t.dtype)
    return t[np.asarray(keep, dtype=np.intp), :].copy()


def save_store(store: dict[str, np.ndarray], path) -> None:
    """Write a name -> tensor mapping to ``path``.

    Names are serialized in lexicographic order so output bytes are
    deterministic for a given store. Anything the format cannot hold (a name
    that is not a UTF-8 string of 1..256 bytes, a value that is not a finite
    2-D float32 or uint8 array) raises a :class:`StoreError`.
    """
    bad = [name for name in store if not isinstance(name, str)]
    if bad:  # before sorting, which a mix of str and other keys would break
        raise StoreError(f"tensor name {bad[0]!r} is not a string")
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(store))]
    for name in sorted(store):
        try:
            raw = name.encode("utf-8")
        except UnicodeEncodeError as e:
            raise StoreError(f"tensor name {name!r} is not UTF-8: {e.reason}") from e
        if not 1 <= len(raw) <= 256:
            raise StoreError(f"tensor name length {len(raw)} outside 1..256 bytes")
        t = store[name]
        if not isinstance(t, np.ndarray):
            raise StoreError(f"tensor {name!r} is a {type(t).__name__}, not a numpy array")
        dtype_code = _DTYPE_TO_CODE.get(t.dtype)
        if dtype_code is None:
            raise StoreError(f"unsupported dtype {t.dtype}")
        try:
            t = as_tensor2d(t, dtype=t.dtype)
        except ValueError as e:
            raise StoreError(f"tensor {name!r}: {e}") from e
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<BII", dtype_code, t.shape[0], t.shape[1]))
        chunks.append(t.astype(t.dtype, copy=False).tobytes(order="C"))
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def load_store(path) -> dict[str, np.ndarray]:
    """Read a store written by :func:`save_store`; bit-exact round trip.

    Everything :func:`save_store` would refuse to write (bad names, unknown
    dtypes, oversized or non-finite tensors) and every malformed byte string
    raises a :class:`StoreError`.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise StoreError(f"bad magic {blob[:4]!r}")
    off = 4
    try:
        version, count = struct.unpack_from("<II", blob, off)
    except struct.error as e:
        raise StoreError("header truncated") from e
    if version != FORMAT_VERSION:
        raise StoreError(f"unsupported format version {version}")
    off += 8
    store: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            if len(blob) < off + name_len:
                raise StoreError("name truncated")
            raw_name = blob[off : off + name_len]
            off += name_len
            dtype_code, rows, cols = struct.unpack_from("<BII", blob, off)
            off += 9
        except struct.error as e:
            raise StoreError("tensor header truncated") from e
        if not 1 <= name_len <= 256:
            raise StoreError(f"tensor name length {name_len} outside 1..256 bytes")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as e:
            raise StoreError(f"tensor name {raw_name!r} is not UTF-8") from e
        dtype = _DTYPE_CODES.get(dtype_code)
        if dtype is None:
            raise StoreError(f"unknown dtype code {dtype_code}")
        if rows * cols > MAX_ELEMENTS:
            raise StoreError(f"{rows}x{cols} exceeds element cap")
        nbytes = rows * cols * np.dtype(dtype).itemsize
        payload = blob[off : off + nbytes]
        if len(payload) < nbytes:
            raise StoreError(f"payload for {name!r} truncated")
        off += nbytes
        if name in store:
            raise StoreError(f"duplicate tensor name {name!r}")
        t = np.frombuffer(payload, dtype=dtype).reshape(rows, cols).copy()
        if dtype is np.float32 and not np.all(np.isfinite(t)):
            raise StoreError(f"tensor {name!r} contains NaN or Inf")
        store[name] = t
    if off != len(blob):
        raise StoreError(f"{len(blob) - off} trailing bytes after the last tensor")
    return store
