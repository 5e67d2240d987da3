"""HRR binding algebra: projection, binding, inverses, bundles, probes.

Binding is circular convolution computed as pointwise spectral
multiplication; 1D tensors use the 1D transform, 2D the 2D transform, and
3D (H×W×D, channel-last) tensors bind each channel independently with its
own 2D transform; axes in front of an item are batch axes. A projected
secret has unit spectral magnitude at every frequency, which makes
unbinding exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    """A client-held binding key plus the stream state that generated it."""

    tensor: np.ndarray
    seed: int = 0
    counter: int = 0
    projected: bool = False

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


def bind_transpose(g: np.ndarray, s) -> np.ndarray:
    """Adjoint of ``x -> bind(x, s)``: circular correlation with the secret.

    This is the backward rule when binding is treated as a fixed linear map.
    """
    g, st = _operands("bind_transpose", g, s)
    return from_spectrum(spectrum(g) * np.conj(spectrum(st)))


def _reciprocal_spectrum(st: np.ndarray) -> np.ndarray:
    spec = spectrum(st)
    _magnitudes(spec, NearSingularInverseError, "reciprocal inverse is near-singular")
    return 1.0 / spec


def inverse(s) -> "Secret | np.ndarray":
    """Reciprocal-spectrum inverse: binding with it undoes binding with s.

    For projected secrets the reciprocal equals the conjugate, so the
    inverse is projected too and is an involution.
    """
    inv = from_spectrum(_reciprocal_spectrum(_secret_tensor(s)))
    return replace(s, tensor=inv) if isinstance(s, Secret) else inv


def unbind(b: np.ndarray, s) -> np.ndarray:
    """Retrieve a bound component: bind with the inverse secret.

    Exact (to float precision) when the secret is projected; approximate
    retrieval from multi-term bundles degrades with term count.
    """
    b, st = _operands("unbind", b, s)
    return from_spectrum(spectrum(b) * _reciprocal_spectrum(st))


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
            return Secret(project(raw), rng.seed, rng.counter, projected=True), successor
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


@dataclass
class Bundle:
    """Superposition of bound pairs; retrieval noise grows with term_count."""

    tensor: np.ndarray
    term_count: int = 0

    @classmethod
    def empty(cls, dims) -> "Bundle":
        return cls(np.zeros(tuple(dims), dtype=np.float64), 0)


def bundle_add(bundle: Bundle, x: np.ndarray, y) -> Bundle:  # perfbench wraps this
    """Accumulate one bound pair into the bundle (pure; returns a new one)."""
    bound = bind(x, y)
    if bundle.tensor.shape != bound.shape:
        raise ShapeError(
            f"bundle shape mismatch: {bundle.tensor.shape} vs {bound.shape}"
        )
    return Bundle(bundle.tensor + bound, bundle.term_count + 1)


def presence_probe(bundle: Bundle, y, x_candidate: np.ndarray, use_projection: bool = True) -> float:
    """Score whether the pair (x_candidate, y) is present in the bundle.

    Returns cosine(unbind(bundle, y), x_candidate): near 1 for the present
    pair of a single-term bundle, near 0 for absent pairs. The flag must
    match how the probe pair was drawn; it guards against mixing the
    projected and naive harness modes.
    """
    if isinstance(y, Secret) and y.projected != use_projection:
        raise ParameterError(
            f"probe mode mismatch: secret projected={y.projected}, "
            f"use_projection={use_projection}"
        )
    return cosine(unbind(bundle.tensor, y), x_candidate)


def _probe_dims(d: int):
    side = int(np.sqrt(d))
    if side * side == d:
        return (side, side)
    return (d,)


def probe_curves(d: int = 1024, ks=(1, 2, 4, 8, 16, 32), n_seeds: int = 100,
                 seed: int = 0, modes=("projected", "naive")) -> list[dict]:
    """Monte-Carlo present/absent retrieval curves over bundle sizes.

    For each seed and bundle size k, binds k random pairs, then probes one
    present pair and one fresh absent pair. Perfect-square d runs the 2D
    algebra on a sqrt(d) x sqrt(d) grid, other d fall back to 1D. Returns
    one row per (k, mode) with mean/std of both scores, ready for CSV.
    """
    dims = _probe_dims(int(d))
    var = 1.0 / int(d)
    rows = []
    for mode_idx, mode in enumerate(modes):
        if mode not in ("projected", "naive"):
            raise ParameterError(f"unknown probe mode {mode!r}")
        projected = mode == "projected"
        for k_idx, k in enumerate(ks):
            present, absent = [], []
            for i in range(n_seeds):
                # Disjoint counter blocks keep every (mode, k, seed) draw
                # independent and reproducible.
                base = ((mode_idx * 64 + k_idx) * n_seeds + i) * 4096
                rng = RngStream(seed, counter=base)
                bundle = Bundle.empty(dims)
                pairs = []
                for _ in range(int(k)):
                    x, rng = _draw_probe_vector(dims, var, projected, rng)
                    y, rng = _draw_probe_secret(dims, var, projected, rng)
                    pairs.append((x, y))
                    bundle = bundle_add(bundle, x, y)
                xa, rng = _draw_probe_vector(dims, var, projected, rng)
                ya, rng = _draw_probe_secret(dims, var, projected, rng)
                present.append(presence_probe(bundle, pairs[0][1], pairs[0][0], projected))
                absent.append(presence_probe(bundle, ya, xa, projected))
            rows.append({
                "k": int(k),
                "mode": mode,
                "present_mean": float(np.mean(present)),
                "absent_mean": float(np.mean(absent)),
                "present_std": float(np.std(present)),
                "absent_std": float(np.std(absent)),
            })
    return rows


def _draw_probe_vector(dims, var, projected, rng):
    raw, rng = rng.normal(dims, var)
    return (project(raw) if projected else raw), rng


def _draw_probe_secret(dims, var, projected, rng):
    tensor, successor = _draw_probe_vector(dims, var, projected, rng)
    return Secret(tensor, rng.seed, rng.counter, projected=projected), successor
