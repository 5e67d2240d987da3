"""Dense tensor primitives: seeded sampling and container I/O.

Tensors are plain float64 numpy arrays in row-major layout, channel-last for
3D data. The Fourier transforms (unnormalized forward, 1/n inverse) live
with the binding algebra in ``vsa``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, ShapeError

MAGIC = b"HBT1"
DTYPE_F32 = 1
DTYPE_F64 = 2

_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_F64: np.dtype("<f8")}
_DTYPE_CODES = {"f32": DTYPE_F32, "f64": DTYPE_F64}


@dataclass(frozen=True)
class RngStream:
    """Immutable handle into a counter-based random stream.

    Backed by the Philox4x32 counter generator keyed by (seed, counter), so
    the same (seed, counter) pair yields the same samples on any platform.
    Draws never mutate the stream; they return a successor instead.
    """

    seed: int
    counter: int = 0

    def _generator(self) -> np.random.Generator:
        key = (int(self.seed) & 0xFFFFFFFFFFFFFFFF) + ((int(self.counter) & 0xFFFFFFFFFFFFFFFF) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def next(self) -> "RngStream":
        """Successor stream: same seed, counter advanced by one."""
        return RngStream(self.seed, self.counter + 1)

    def normal(self, dims, variance: float = 1.0):
        """Draw i.i.d. N(0, variance) samples; returns (tensor, successor)."""
        if variance <= 0:
            raise ParameterError(f"variance must be positive, got {variance}")
        arr = self._generator().normal(0.0, np.sqrt(variance), size=tuple(dims))
        return arr, self.next()

    def uniform(self, dims):
        """Draw U[0, 1) samples; returns (tensor, successor)."""
        arr = self._generator().uniform(0.0, 1.0, size=tuple(dims))
        return arr, self.next()

    def integers(self, low: int, high: int, count: int):
        """Draw ``count`` integers in [low, high); returns (array, successor)."""
        arr = self._generator().integers(low, high, size=count)
        return arr, self.next()

    def permutation(self, n: int):
        """Random permutation of range(n); returns (array, successor)."""
        arr = self._generator().permutation(n)
        return arr, self.next()


def tensor_to_bytes(t: np.ndarray, dtype: str = "f64") -> bytes:
    """Serialize into the HBT1 container.

    Layout: magic "HBT1" | dtype u8 (1=f32, 2=f64) | ndim u8 | ndim × u32
    little-endian extents | row-major payload of little-endian scalars.
    """
    t = np.asarray(t)
    if not np.all(np.isfinite(t)):
        raise ParameterError("refusing to serialize non-finite values")
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        raise ParameterError(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'")
    if t.ndim > 255:
        raise ShapeError("too many dimensions for container format")
    header = MAGIC + struct.pack("<BB", code, t.ndim)
    header += struct.pack(f"<{t.ndim}I", *t.shape)
    payload = np.ascontiguousarray(t, dtype=_DTYPES[code]).tobytes()
    return header + payload


def tensor_from_bytes(data: bytes) -> np.ndarray:
    """Parse an HBT1 container, returning a float64 tensor.

    f32 payloads upcast exactly; errors carry the byte offset of the fault.
    """
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    if len(data) < 6:
        raise FormatError("truncated header", offset=len(data))
    code, ndim = struct.unpack_from("<BB", data, 4)
    np_dtype = _DTYPES.get(code)
    if np_dtype is None:
        raise FormatError(f"unknown dtype code {code}", offset=4)
    dims_end = 6 + 4 * ndim
    if len(data) < dims_end:
        raise FormatError("truncated extents", offset=len(data))
    dims = struct.unpack_from(f"<{ndim}I", data, 6)
    if any(d == 0 for d in dims):
        raise FormatError(f"zero extent in dims {dims}", offset=6)
    count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    expected = dims_end + count * np_dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes total, got {len(data)}",
            offset=min(len(data), expected),
        )
    values = np.frombuffer(data, dtype=np_dtype, count=count, offset=dims_end)
    return values.astype(np.float64).reshape(dims)


def container_size(dims, dtype: str = "f64") -> int:
    """Exact container byte length for the given extents and scalar width."""
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        raise ParameterError(f"unknown dtype {dtype!r}")
    count = int(np.prod(np.asarray(dims, dtype=np.int64)))
    return 4 + 1 + 1 + 4 * len(tuple(dims)) + count * _DTYPES[code].itemsize


def write_tensor(t: np.ndarray, path, dtype: str = "f64") -> None:
    """Write a tensor container to ``path``."""
    data = tensor_to_bytes(t, dtype)
    with open(path, "wb") as fh:
        fh.write(data)


def read_tensor(path) -> np.ndarray:
    """Read a tensor container from ``path``."""
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
