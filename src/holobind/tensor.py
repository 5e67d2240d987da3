"""Dense tensor primitives: seeded sampling and container I/O.

Tensors are plain float64 numpy arrays in row-major layout, channel-last for
3D data. The Fourier transforms (unnormalized forward, 1/n inverse) live
with the binding algebra in ``vsa``.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError

MAGIC = b"HBT1"
DTYPE_F32 = 1
DTYPE_F64 = 2

_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_F64: np.dtype("<f8")}
_DTYPE_CODES = {"f32": DTYPE_F32, "f64": DTYPE_F64}

_U64 = 0xFFFFFFFFFFFFFFFF
MAX_EXTENT = 0xFFFFFFFF  # a container stores each extent as a u32
# One Philox generator per thread. Each draw sets its whole state first, so
# no draw depends on what an earlier one left behind.
_THREAD = threading.local()


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
        """This thread's generator, re-keyed to (seed, counter).

        A Philox stream is its key, so setting the key with a zero counter
        and an empty buffer gives the draws of
        ``Generator(Philox(key=seed + (counter << 64)))`` at a fraction of
        the cost of building one.
        """
        gen = getattr(_THREAD, "generator", None)
        if gen is None:
            gen = _THREAD.generator = np.random.Generator(np.random.Philox())
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0),
                      "key": (int(self.seed) & _U64, int(self.counter) & _U64)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        return gen

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
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        raise ParameterError(f"unknown dtype {dtype!r}, expected 'f32' or 'f64'")
    with np.errstate(over="ignore"):  # a value beyond the dtype's range casts to inf
        values = np.ascontiguousarray(t, dtype=_DTYPES[code])
    if not np.isfinite(values).all():
        raise ParameterError(f"refusing to serialize non-finite values as {dtype}")
    header = MAGIC + struct.pack("<BB", code, t.ndim)
    header += struct.pack(f"<{t.ndim}I", *t.shape)
    return header + values.tobytes()


def tensor_from_bytes(data: bytes) -> np.ndarray:
    """Parse an HBT1 container, returning a float64 tensor.

    f32 payloads upcast exactly. A NaN or an infinity is refused, as
    ``tensor_to_bytes`` refuses to write one; errors carry the byte offset
    of the fault.
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
    count = math.prod(dims)  # exact, and far cheaper per message than np.prod
    expected = dims_end + count * np_dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"payload length mismatch: expected {expected} bytes total, got {len(data)}",
            offset=min(len(data), expected),
        )
    values = np.frombuffer(data, dtype=np_dtype, count=count, offset=dims_end)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FormatError(f"non-finite value at index {bad}",
                          offset=dims_end + bad * np_dtype.itemsize)
    values = values.astype(np.float64)
    try:
        return values.reshape(dims)
    except ValueError as err:  # more dims than numpy arrays can have
        raise FormatError(f"{ndim} dims: {err}", offset=5) from err


def container_size(dims, dtype: str = "f64") -> int:
    """Exact container byte length for the given extents and scalar width."""
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        raise ParameterError(f"unknown dtype {dtype!r}")
    dims = tuple(int(d) for d in dims)
    return 4 + 1 + 1 + 4 * len(dims) + math.prod(dims) * _DTYPES[code].itemsize


def write_tensor(t: np.ndarray, path) -> None:
    """Write a float64 tensor container to ``path``."""
    data = tensor_to_bytes(t)
    with open(path, "wb") as fh:
        fh.write(data)


def read_tensor(path) -> np.ndarray:
    """Read a tensor container from ``path``."""
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
