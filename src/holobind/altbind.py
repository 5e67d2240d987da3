"""Ablation binding operators: VTB, orthogonal iVTB, and Hilbert+1D HRR.

VTB binds by a block-diagonal matrix built from the secret vector. The
block is the vector reshaped to m x m and scaled by d^(1/4); with N(0, 1/d)
entries that scaling makes the block approximately orthogonal, so applying
the transpose per chunk works as an approximate inverse. The improved
variant draws the block from a QR decomposition instead, making that
inverse exact. The Hilbert route linearizes a 2^k x 2^k image along a
space-filling curve and applies the ordinary 1D binding algebra.

``operator_secret`` and ``operator_apply`` draw, bind and unbind under each
of the ``OPERATORS`` (with 2D and 1D HRR) for the CLI and the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import RngStream
from .vsa import _product, _reciprocal, _secret_tensor, bind, cosine, from_spectrum
from .vsa import sample_secret, spectrum, unbind


def _square_side(d: int) -> int:
    m = int(np.sqrt(d))
    if m * m != d:
        raise ShapeError(f"VTB needs a perfect-square dimension, got {d}")
    return m


def vtb_block(key: np.ndarray) -> np.ndarray:
    """The VTB key vector reshaped to its m x m block and scaled by d^(1/4)."""
    m = _square_side(key.size)
    return key.size ** 0.25 * key.reshape(m, m)


def vtb_secret(d: int, rng: RngStream) -> tuple[np.ndarray, RngStream]:
    """Plain VTB key: N(0, 1/d) vector whose scaled block is only
    approximately orthogonal."""
    _square_side(d)
    return rng.normal([d], 1.0 / d)


def ivtb_secret(d: int, rng: RngStream) -> tuple[np.ndarray, RngStream]:
    """Improved VTB key: block is the orthogonal factor of a Gaussian QR.

    The R factor's diagonal is forced positive so the factorization (and
    hence the key) is unique and platform-stable.
    """
    m = _square_side(d)
    raw, rng = rng.normal([m, m], 1.0)
    q, r = np.linalg.qr(raw)
    signs = np.where(np.diag(r) >= 0, 1.0, -1.0)
    q = q * signs
    return (d ** -0.25) * q.reshape(-1), rng


def _vtb_chunks(x: np.ndarray, key: np.ndarray, undo: bool) -> np.ndarray:
    """Multiply each consecutive m-chunk of x by the key's block, or its transpose."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != np.size(key):
        name = "vtb_unbind" if undo else "vtb_bind"
        raise ShapeError(f"{name} expects a length-{np.size(key)} vector, got {x.shape}")
    block = vtb_block(key)
    return (x.reshape(block.shape) @ (block if undo else block.T)).reshape(-1)


def vtb_bind(x: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Multiply each consecutive m-chunk of x by the key's block."""
    return _vtb_chunks(x, key, undo=False)


def vtb_unbind(z: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Apply the transposed block per chunk; exact for an iVTB key."""
    return _vtb_chunks(z, key, undo=True)


# ------------------------------------------------------------- Hilbert curve

def _rank_to_cell(order: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # iterative Gray-code construction over every rank at once; visit order
    # at order 1 is (0,0),(0,1),(1,1),(1,0) in (row, col) coordinates
    t = np.asarray(ranks, dtype=np.int64)
    r = np.zeros_like(t)
    c = np.zeros_like(t)
    for level in range(order):
        s = 1 << level
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        flip = (ry == 0) & (rx == 1)
        r = np.where(flip, s - 1 - r, r)
        c = np.where(flip, s - 1 - c, c)
        r, c = np.where(ry == 0, c, r), np.where(ry == 0, r, c)
        r += s * rx
        c += s * ry
        t = t >> 2
    return r, c


@dataclass(frozen=True)
class HilbertMap:
    """Bijection between curve ranks and cells of a 2^order square grid."""

    order: int
    forward: np.ndarray  # (4^order, 2) rank -> (row, col)
    inverse: np.ndarray  # (side, side) cell -> rank


@lru_cache(maxsize=None)
def hilbert_map(order: int) -> HilbertMap:
    if order < 1:
        raise ShapeError(f"hilbert order must be >= 1, got {order}")
    side = 1 << order
    ranks = np.arange(side * side, dtype=np.int64)
    r, c = _rank_to_cell(order, ranks)
    inverse = np.empty((side, side), dtype=np.int64)
    inverse[r, c] = ranks
    return HilbertMap(order, np.stack([r, c], axis=1), inverse)


def _padded_order(h: int, w: int) -> int:
    return max(1, (max(h, w) - 1).bit_length())


def hilbert_encode(img: np.ndarray) -> np.ndarray:
    """Linearize an HxW or HxWxC image along the Hilbert curve: (L,) or (L, C).

    Non-power-of-two inputs are zero-padded to the next 2^k square; callers
    keep the original dims for cropping on decode.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ShapeError(f"hilbert_encode expects an HxW or HxWxC image, got {img.ndim}D")
    h, w = img.shape[:2]
    order = _padded_order(h, w)
    side = 1 << order
    img = np.pad(img, [(0, side - h), (0, side - w)] + [(0, 0)] * (img.ndim - 2))
    m = hilbert_map(order)
    return img[m.forward[:, 0], m.forward[:, 1]]


def hilbert_decode(vec: np.ndarray, dims=None) -> np.ndarray:
    """Invert :func:`hilbert_encode` ((L,) or (L, C)), cropping to HxW ``dims`` when given."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim not in (1, 2):
        raise ShapeError(f"hilbert_decode expects an L or LxC encoding, got {vec.ndim}D")
    side = int(round(np.sqrt(vec.shape[0])))
    if side * side != vec.shape[0] or side & (side - 1):
        raise ShapeError(f"encoded length {vec.shape[0]} is not a power-of-four grid")
    order = side.bit_length() - 1
    m = hilbert_map(order)
    img = np.zeros((side, side) + vec.shape[1:])
    img[m.forward[:, 0], m.forward[:, 1]] = vec
    if dims is not None:
        if len(dims) != 2 or not all(1 <= e <= side for e in dims):
            raise ShapeError(f"crop dims {tuple(dims)} are not an HxW within {side}x{side}")
        img = img[:dims[0], :dims[1]].copy()
    return img


def _bind_columns(cols: np.ndarray, s1d, undo: bool) -> np.ndarray:
    """1D-bind, or unbind, every column of an (L,) or (L, C) encoding with the one key."""
    key = _secret_tensor(s1d)
    if key.shape != cols.shape[:1]:
        raise ShapeError(f"secret length {key.shape} != encoded length {cols.shape[:1]}")
    key_spec = _reciprocal(spectrum(key)) if undo else spectrum(key)
    # rows are channels: each row's product sees the contiguous operands of a one-channel bind
    return from_spectrum(_product(spectrum(cols.T, 1), key_spec), 1).T


def hilbert_hrr_bind(img: np.ndarray, s1d) -> np.ndarray:
    """1D-bind the Hilbert linearization; every channel binds with the one key."""
    return np.ascontiguousarray(_bind_columns(hilbert_encode(img), s1d, undo=False))


def hilbert_hrr_unbind(bound: np.ndarray, s1d, dims) -> np.ndarray:
    """Retrieve the image: 1D-unbind every channel, then decode and crop to ``dims``."""
    return hilbert_decode(_bind_columns(np.asarray(bound), s1d, undo=True), dims)


# ----------------------------------------------------------------- operators

OPERATORS = ("hrr2d", "hrr1d", "vtb", "ivtb", "hilbert")


def operator_secret(op: str, dims, rng: RngStream) -> tuple[np.ndarray, RngStream]:
    """Draw ``op``'s key for a tensor of extents ``dims``; returns (key, successor).

    An hrr2d key has the extents ``dims``; an hrr1d, vtb or ivtb key is one
    vector of the tensor's size; a hilbert key spans the padded curve of the
    image's HxW. Keys are plain arrays, the form they take on disk.
    """
    if op not in OPERATORS:
        raise ParameterError(f"unknown binding operator {op!r}")
    if op in ("vtb", "ivtb"):
        return (ivtb_secret if op == "ivtb" else vtb_secret)(int(np.prod(dims)), rng)
    if op == "hrr1d":
        dims = (int(np.prod(dims)),)
    elif op == "hilbert":
        dims = hilbert_encode(np.zeros(tuple(dims)[:2])).shape
    secret, rng = sample_secret(dims, rng)
    return secret.tensor, rng


def operator_apply(op: str, x: np.ndarray, s, undo: bool = False, dims=None) -> np.ndarray:
    """Bind ``x`` with the key ``s`` under ``op``, or unbind it when ``undo``.

    Flat operators keep ``x``'s shape. A hilbert bind gives (L,) or (L, C),
    and its unbind crops to the HxW ``dims`` when given; other operators
    ignore ``dims``.
    """
    x, s = np.asarray(x), np.asarray(s)
    if op == "hrr2d":
        return (unbind if undo else bind)(x, s)
    if op == "hrr1d":
        return (unbind if undo else bind)(x.reshape(-1), s.reshape(-1)).reshape(x.shape)
    if op in ("vtb", "ivtb"):
        key = s.reshape(-1)
        if op == "ivtb":
            block = vtb_block(key)
            if np.max(np.abs(block.T @ block - np.eye(len(block)))) > 1e-9:
                raise ParameterError("secret block is not orthogonal; not an ivtb secret")
        return (vtb_unbind if undo else vtb_bind)(x.reshape(-1), key).reshape(x.shape)
    if op == "hilbert":
        if undo:
            return hilbert_hrr_unbind(x, s.reshape(-1), dims)
        return hilbert_hrr_bind(x, s.reshape(-1))
    raise ParameterError(f"unknown binding operator {op!r}")


# ------------------------------------------------------------------ ablation

ABLATION_SIDE = 16  # extent of the ablation's square image


def ablation_rows(seed: int) -> list[dict]:
    """Bind/retrieve one image under every operator; rows ready for CSV.

    reconstruction_cosine compares the retrieved image with the original;
    bound_input_cosine shows how little the bound tensor resembles it.
    """
    rng = RngStream(seed)
    img, rng = rng.normal((ABLATION_SIDE, ABLATION_SIDE), 1.0)
    img /= np.linalg.norm(img)
    noise, rng = rng.normal((ABLATION_SIDE, ABLATION_SIDE), 0.09)
    img = img + noise
    rows = []
    for op in OPERATORS:
        key, rng = operator_secret(op, img.shape, rng)
        bound = operator_apply(op, img, key)
        rec = operator_apply(op, bound, key, undo=True, dims=img.shape)
        rows.append({
            "operator": op,
            "reconstruction_cosine": cosine(img, rec),
            "bound_input_cosine": cosine(img.reshape(-1), bound.reshape(-1)),
        })
    return rows
