"""HRR binding algebra: projection, binding, inverses, bundles, probes.

Binding is circular convolution computed as pointwise spectral
multiplication; 1D tensors use the 1D transform, 2D the 2D transform, and
3D (H×W×D, channel-last) tensors bind each channel independently with its
own 2D transform; axes in front of an item are batch axes. A projected
secret has unit spectral magnitude at every frequency, which makes
unbinding exact rather than approximate.

A bundle is a plain tensor, the sum of its bound pairs. The bundle probe
draws each pair once per seed: every bundle size reads the running bundle,
and both modes read the same raw draws. It works on half spectra from the
draw to the score, takes one real transform per drawn batch and no inverse
transform, and scores each pair by a Parseval cosine, so its rows equal a
per-item loop's within rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    NearSingularInverseError,
    ParameterError,
    ShapeError,
)
from .tensor import RngStream

# Spectral magnitudes below this are treated as degenerate for projection
# and reciprocal inversion.
EPS_PROJ = 1e-12

# Resample attempts in sample_secret before giving up on a degenerate draw.
_SAMPLE_RETRIES = 3


_AXES = {1: (-1,), 2: (-2, -1), 3: (-3, -2)}  # an item's transform axes by its rank


def _axes(ndim: int, rank: int | None) -> tuple:
    rank = ndim if rank is None else rank
    if rank not in _AXES or ndim < rank:
        raise ShapeError(f"binding algebra supports 1D-3D items, got {rank}D in {ndim}D")
    return _AXES[rank]


def spectrum(t: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Forward transform of every rank-``rank`` item (default: the whole tensor)."""
    t = np.asarray(t, dtype=np.float64)
    return np.fft.fftn(t, axes=_axes(t.ndim, rank))


def _half_spectrum(t: np.ndarray, rank: int) -> np.ndarray:
    """:func:`spectrum` of real items cut to the last axis's non-negative frequencies."""
    t = np.asarray(t, dtype=np.float64)
    return np.fft.rfftn(t, axes=_axes(t.ndim, rank))


def from_spectrum(s: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Inverse of :func:`spectrum`; discards the tiny imaginary residue."""
    s = np.asarray(s, dtype=np.complex128)
    return np.fft.ifftn(s, axes=_axes(s.ndim, rank)).real.copy()


def _magnitudes(spec: np.ndarray, error, consequence: str) -> np.ndarray:
    mags = np.abs(spec)
    if np.min(mags) < EPS_PROJ:
        raise error(f"spectral magnitude {np.min(mags):.3e} below {EPS_PROJ:.0e}; {consequence}")
    return mags


def unit_spectrum(spec: np.ndarray) -> np.ndarray:
    """Unit-magnitude projection: each coefficient over its magnitude, none below EPS_PROJ."""
    return spec / _magnitudes(spec, DegenerateSpectrumError, "cannot project to unit magnitude")


@dataclass(frozen=True)
class Secret:
    """A client-held binding key."""

    tensor: np.ndarray

    def erase(self) -> None:
        """Best-effort scrub of the key material in place."""
        self.tensor.fill(0.0)


def _secret_tensor(s) -> np.ndarray:
    return s.tensor if isinstance(s, Secret) else np.asarray(s, dtype=np.float64)


def _operands(op: str, t: np.ndarray, s):
    t, st = np.asarray(t, dtype=np.float64), _secret_tensor(s)
    if t.shape != st.shape:
        raise ShapeError(f"{op} shape mismatch: {t.shape} vs {st.shape}")
    return t, st


def project(v: np.ndarray) -> np.ndarray:  # perfbench wraps this
    """Normalize every spectral coefficient to unit magnitude.

    Idempotent and scale-invariant. A channel whose spectrum touches zero
    (e.g. an exactly constant channel) cannot be projected and raises
    DegenerateSpectrumError.
    """
    return from_spectrum(unit_spectrum(spectrum(v)))


def bind(x: np.ndarray, s) -> np.ndarray:
    """Circular convolution of ``x`` with the secret tensor.

    Commutative and linear in both arguments; with a unit impulse secret it
    is the identity.
    """
    x, st = _operands("bind", x, s)
    return from_spectrum(spectrum(x) * spectrum(st))


def _reciprocal(spec: np.ndarray) -> np.ndarray:
    _magnitudes(spec, NearSingularInverseError, "reciprocal inverse is near-singular")
    return 1.0 / spec


def inverse(s) -> "Secret | np.ndarray":
    """Reciprocal-spectrum inverse: binding with it undoes binding with s.

    For projected secrets the reciprocal equals the conjugate, so the
    inverse is projected too and is an involution.
    """
    inv = from_spectrum(_reciprocal(spectrum(_secret_tensor(s))))
    return Secret(inv) if isinstance(s, Secret) else inv


def unbind(b: np.ndarray, s) -> np.ndarray:
    """Retrieve a bound component: bind with the inverse secret.

    Exact (to float precision) when the secret is projected; approximate
    retrieval from multi-term bundles degrades with term count.
    """
    b, st = _operands("unbind", b, s)
    return from_spectrum(spectrum(b) * _reciprocal(spectrum(st)))


def _secret_dims(dims):
    dims = tuple(int(d) for d in dims)
    d = int(np.prod(dims))
    if d <= 0:
        raise ShapeError(f"invalid dims {dims}")
    return dims, d


def sample_secret(dims, rng: RngStream) -> tuple[Secret, RngStream]:
    """Draw a fresh projected secret; returns (secret, successor stream).

    Samples N(0, 1/d) and projects (projection is scale-invariant, so the
    variance choice is immaterial). A degenerate draw is retried on the
    successor stream up to 3 times.
    """
    dims, d = _secret_dims(dims)
    for attempt in range(1 + _SAMPLE_RETRIES):
        raw, successor = rng.normal(dims, 1.0 / d)
        try:
            return Secret(project(raw)), successor
        except DegenerateSpectrumError:
            if attempt == _SAMPLE_RETRIES:
                raise
            rng = successor


def sample_secret_spectra(dims, k: int, rng: RngStream) -> tuple[np.ndarray, RngStream]:
    """(unit spectra, successor) of the secrets k sample_secret calls draw.

    The caller scrubs the stacked spectra; the raw draws are zeroed here. A
    degenerate draw redoes all k through sample_secret, retry included.
    """
    dims, d = _secret_dims(dims)
    start = rng
    raw = np.empty((k,) + dims)
    try:
        for i in range(k):
            raw[i], rng = rng.normal(dims, 1.0 / d)
        try:
            return unit_spectrum(spectrum(raw, len(dims))), rng
        except DegenerateSpectrumError:
            rng = start
        for i in range(k):
            secret, rng = sample_secret(dims, rng)
            raw[i] = secret.tensor
            secret.erase()
        return unit_spectrum(spectrum(raw, len(dims))), rng
    finally:
        raw.fill(0.0)


def batch_bind(x: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Bind every item of a batch (one leading axis) with its own unit spectrum."""
    return from_spectrum(spectrum(x, x.ndim - 1) * spectra, x.ndim - 1)


def batch_unbind(r: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    return from_spectrum(spectrum(r, r.ndim - 1) / spectra, r.ndim - 1)


def batch_unbind_transpose(g: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Adjoint of batch_unbind w.r.t. its tensor argument."""
    return from_spectrum(spectrum(g, g.ndim - 1) * np.conj(1.0 / spectra), g.ndim - 1)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two equal-shape tensors, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"cosine shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ParameterError("cosine undefined for zero-norm input")
    return float(np.clip(np.vdot(a.ravel(), b.ravel()) / (na * nb), -1.0, 1.0))


def bundle_add(bundle: np.ndarray, x: np.ndarray, y) -> np.ndarray:  # perfbench wraps this
    """Add one bound pair to a bundle tensor, empty as ``np.zeros(dims)`` (pure)."""
    bound = bind(x, y)
    if np.shape(bundle) != bound.shape:
        raise ShapeError(f"bundle shape mismatch: {np.shape(bundle)} vs {bound.shape}")
    return bundle + bound


def presence_probe(bundle: np.ndarray, y, x_candidate: np.ndarray) -> float:
    """Score whether the pair (x_candidate, y) is present in the bundle tensor.

    Returns cosine(unbind(bundle, y), x_candidate): near 1 for the present
    pair of a single-term bundle, near 0 for absent pairs.
    """
    return cosine(unbind(bundle, y), x_candidate)


# Counters per seed: pair j at 2j and 2j + 1, the absent pair at the last two.
_PROBE_BLOCK = 4096


def _probe_dims(d: int):
    side = int(np.sqrt(d))
    if side * side == d:
        return (side, side)
    return (d,)


def probe_curves(d: int, ks, n_seeds: int, seed: int,
                 modes=("projected", "naive")) -> list[dict]:
    """Monte-Carlo present/absent retrieval curves over bundle sizes.

    Each seed draws pairs 0 .. max(ks)-1 and one absent pair, once. The
    k-row probes the bundle of the first k pairs with pair 0 and with the
    absent pair. Naive binds the raw draws and projected their unit
    spectra, so the two modes are paired. Pair j of seed i sits at counters
    i*4096 + 2j and + 1, the absent pair at the block's last two, so a row
    depends only on (d, seed, n_seeds, mode, k), and k >= 2048 raises
    ParameterError. Perfect-square d runs the 2D algebra on a sqrt(d) x
    sqrt(d) grid, other d the 1D one. Returns one row per (mode, k),
    mode-major in ``ks`` order, with mean/std of both scores, ready for CSV.
    All seeds run as one batch in the half spectrum, so the rows equal a
    per-item loop over ``bundle_add`` and ``presence_probe`` within rounding.
    """
    ks = [int(k) for k in ks]
    if d < 1 or n_seeds < 1:
        raise ParameterError(f"probe needs d >= 1 and n_seeds >= 1, got {d} and {n_seeds}")
    if not ks or min(ks) < 1:
        raise ParameterError(f"probe needs at least one bundle size, each >= 1, got {ks}")
    if max(ks) >= _PROBE_BLOCK // 2:
        raise ParameterError(
            f"probe bundle sizes must be below {_PROBE_BLOCK // 2}, got {max(ks)}")
    for mode in modes:
        if mode not in ("projected", "naive"):
            raise ParameterError(f"unknown probe mode {mode!r}")
    dims = _probe_dims(int(d))
    var = 1.0 / int(d)

    def draw(offset):
        """{mode: (X, Y)}: the half spectra of every seed's pair at ``offset``."""
        raw = np.empty((2, n_seeds) + dims)
        for i in range(n_seeds):
            raw[0, i], successor = RngStream(seed, i * _PROBE_BLOCK + offset).normal(dims, var)
            raw[1, i], _ = successor.normal(dims, var)
        x, y = _half_spectrum(raw, len(dims))
        # Projecting the half spectrum checks every frequency: each bin
        # left out is the conjugate of a kept one, with the same magnitude.
        return {mode: (unit_spectrum(x), unit_spectrum(y)) if mode == "projected" else (x, y)
                for mode in modes}

    first, absent = draw(0), draw(_PROBE_BLOCK - 2)
    bundles = dict.fromkeys(modes, 0.0)
    stats = {}
    for j in range(max(ks)):
        for mode, (x, y) in (draw(2 * j) if j else first).items():
            bundles[mode] += x * y
            if j + 1 in ks:
                present = _half_cosines(bundles[mode], *first[mode], dims)
                missing = _half_cosines(bundles[mode], *absent[mode], dims)
                stats[mode, j + 1] = {
                    "present_mean": float(np.mean(present)),
                    "absent_mean": float(np.mean(missing)),
                    "present_std": float(np.std(present)),
                    "absent_std": float(np.std(missing)),
                }
    return [{"k": k, "mode": mode, **stats[mode, k]} for mode in modes for k in ks]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a * b into a fresh array, as the per-item ops compute it. Written
    # inline with a temporary over 256 KiB as b, numpy would compute b *= a
    # in place, and with fused multiply-adds a complex product is not
    # bitwise commutative.
    return np.multiply(a, b, out=np.empty_like(a))


def _half_cosines(b, x, y, dims) -> np.ndarray:
    """cosine(unbind(b, y), x) for every item of a batch of half spectra.

    By Parseval an inner product of two real items is the sum over their
    half spectra of Re(U * conj(V)), with weight 2 on each column that also
    stands for its conjugate: all but DC and, for an even last extent,
    Nyquist. The common 1/n factor cancels.
    """
    r = b * _reciprocal(y)
    cols = np.arange(r.shape[-1])
    w = np.where((cols == 0) | (2 * cols == dims[-1]), 1.0, 2.0)
    axes = _axes(r.ndim, len(dims))

    def inner(u, v):
        return np.sum(w * (u.real * v.real + u.imag * v.imag), axis=axes)

    rr, xx = inner(r, r), inner(x, x)
    if np.any(rr == 0.0) or np.any(xx == 0.0):
        raise ParameterError("cosine undefined for zero-norm input")
    return np.clip(inner(r, x) / (np.sqrt(rr) * np.sqrt(xx)), -1.0, 1.0)
