"""Adversary toolkit: everything here sees only worker-side observables.

Four audits of the obfuscation: unsupervised clustering scored by adjusted
Rand index, a strong adversary retraining a fresh head on labeled backbone
outputs, projected gradient descent inversion of the secret against a
Frechet realism score over pixel statistics, and a least-squares regression
from bound tensors to secrets. Each attack also has a planted-solution mode
in the tests that must succeed, so a low score on genuine traffic means the
defense held, not that the attack is broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .tensor import RngStream
# Imported by name, so a benchmark that wraps trainer.adam_step or vsa.project
# times only the training steps or the probe.
from .trainer import _HIDDEN, AdamState, _head_backward, _head_forward, adam_step
from .vsa import (Secret, cosine, from_spectrum, inverse, project, spectrum, unbind,
                  unit_spectrum)

EPS_PSD = 1e-8
KMEANS_MAX_ITER = 100  # Lloyd iterations at most
KMEANS_TOL = 1e-6  # largest center move that counts as converged
RECOVERY_THRESHOLD = 0.2  # inversion recovery cosine at or below which the defense held
FD_EPS = 1e-6  # finite-difference step of the inversion gradient check
FD_TOL = 1e-3  # relative error the inversion gradient check allows
FRESH_HEAD_EPOCHS = 60  # passes over the strong adversary's training set
FRESH_HEAD_BATCH = 32  # minibatch of the strong adversary's fresh head
FRESH_HEAD_LR = 1e-3  # Adam step size of the strong adversary's fresh head
STRONG_THRESHOLD = 0.45  # strong-adversary accuracy at or below which the defense held
CLUSTER_THRESHOLD = 0.05  # clustering ARI at or below which the defense held
REGRESSION_THRESHOLD = 0.15  # held-out regression cosine at or below which the defense held


# ----------------------------------------------------------------- reporting

@dataclass(frozen=True)
class AttackReport:
    """Outcome of one attack run.

    A run repeats from (inputs, seed) at a fixed BLAS thread count. Another
    thread count may sum a product or a least-squares solve in another
    order, which moves a score in its last bits: one regression audit read
    a mean cosine of 0.024256255302934102 with two OpenBLAS threads and
    0.0242562553029341 with one. Its verdict did not move.
    """

    name: str
    score: float
    score_kind: str
    seed: int
    threshold: float
    verdict: str  # "pass" when the defense held at the threshold
    params: dict = field(default_factory=dict)


def _verdict(score: float, threshold: float) -> str:
    return "pass" if score <= threshold else "fail"


# ------------------------------------------------------------ gaussian stats

@dataclass(frozen=True)
class GaussianStats:
    """First and second moments of a point cloud; covariance kept PSD."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.mean.ndim != 1 or self.cov.shape != (self.mean.size, self.mean.size):
            raise ParameterError("mean must be length-p and cov p x p")


def fit_gaussian_stats(points: np.ndarray) -> GaussianStats:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ParameterError("need at least two points to fit statistics")
    mean = points.mean(axis=0)
    centered = points - mean
    cov = centered.T @ centered / (points.shape[0] - 1)
    return GaussianStats(mean, 0.5 * (cov + cov.T))


def _psd_eigh(mat: np.ndarray):
    """Eigenvalues and eigenvectors of mat's symmetric part, which must be PSD within EPS_PSD."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    if np.min(w) < -EPS_PSD * max(1.0, float(np.max(np.abs(w)))):
        raise ParameterError(f"matrix is not PSD within tolerance (min eig {np.min(w):.3e})")
    return w, v


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = _psd_eigh(mat)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _frechet(stats: GaussianStats, ref: GaussianStats, ref_root: np.ndarray):
    """(squared 2-Wasserstein distance, transport map) from stats to ref.

    One symmetric eigendecomposition of K = R^1/2 S R^1/2 gives both, as
    tr((S^1/2 R S^1/2)^1/2) = tr(K^1/2) (Dowson & Landau, 1982). The score
    clamps K's eigenvalues at 0; the map T = R^1/2 K^-1/2 R^1/2, which
    carries N(S) onto N(R) and makes the score's S-gradient I - T, floors
    them at 1e-12. ``ref_root`` is R^1/2.
    """
    w, v = _psd_eigh(ref_root @ stats.cov @ ref_root)
    mean_term = float(np.sum((stats.mean - ref.mean) ** 2))
    cross = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    score = mean_term + float(np.trace(stats.cov) + np.trace(ref.cov) - 2.0 * cross)
    transport = ref_root @ ((v / np.sqrt(np.clip(w, 1e-12, None))) @ v.T) @ ref_root
    return score, transport


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """Squared 2-Wasserstein distance between Gaussians.

    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2), with
    matrix square roots by symmetric eigendecomposition and negative
    eigenvalues clamped to zero.
    """
    if a.mean.shape != b.mean.shape:
        raise ParameterError(f"dimension mismatch: {a.mean.shape} vs {b.mean.shape}")
    return _frechet(a, b, _psd_sqrt(b.cov))[0]


# -------------------------------------------------------------------- kmeans

def kmeans(points, k: int, rng: RngStream, return_history: bool = False):  # perfbench wraps this
    """Lloyd iterations from k-means++ seeding; deterministic given rng.

    Empty clusters are re-seeded from the point farthest from its center.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        pts = pts.reshape(len(pts), -1)
    n = pts.shape[0]
    if k > n:
        raise ParameterError(f"k={k} exceeds the number of points {n}")

    # k-means++ seeding
    first, rng = rng.integers(0, n, 1)
    centers = [pts[first[0]]]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0:
            pick, rng = rng.integers(0, n, 1)
            idx = pick[0]
        else:
            u, rng = rng.uniform([1])
            idx = int(np.searchsorted(np.cumsum(d2 / total), u[0]))
            idx = min(idx, n - 1)
        centers.append(pts[idx])
        d2 = np.minimum(d2, np.sum((pts - centers[-1]) ** 2, axis=1))
    centers = np.stack(centers)

    history = []
    labels = np.zeros(n, dtype=np.int64)
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITER):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        inertia = float(dists[np.arange(n), labels].sum())
        history.append(inertia)
        new_centers = centers.copy()
        for c in range(k):
            members = labels == c
            if np.any(members):
                new_centers[c] = pts[members].mean(axis=0)
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                new_centers[c] = pts[farthest]
        if np.max(np.abs(new_centers - centers)) < KMEANS_TOL and inertia <= prev_inertia:
            centers = new_centers
            break
        centers = new_centers
        prev_inertia = inertia
    if return_history:
        return labels, centers, history
    return labels


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index from the contingency table."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError("labelings must be equal-length 1D sequences")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0  # both labelings degenerate and identical in structure
    return float((sum_ij - expected) / (maximum - expected))


def clustering_attack(outputs, true_labels, k: int, rng: RngStream) -> AttackReport:
    """Cluster worker-visible tensors and score label recovery by ARI."""
    flat = np.asarray(outputs, dtype=np.float64).reshape(len(outputs), -1)
    labels = kmeans(flat, k, rng)
    score = ari(labels, true_labels)
    return AttackReport(
        name="cluster",
        score=score,
        score_kind="ari",
        seed=rng.seed,
        threshold=CLUSTER_THRESHOLD,
        verdict=_verdict(score, CLUSTER_THRESHOLD),
        params={"k": k, "n": len(flat)},
    )


# ----------------------------------------------------------- strong adversary

def _train_fresh_head(x_flat, labels, n_classes, seed):  # perfbench wraps this
    """Train a head with the adversarial architecture from scratch; returns its predictor."""
    n, d = x_flat.shape
    rng = RngStream(seed, counter=7 << 32)
    w1, rng = rng.normal((_HIDDEN, d), 2.0 / d)
    w2, rng = rng.normal((n_classes, _HIDDEN), 1.0 / _HIDDEN)
    params = {"a_w1": w1, "a_b1": np.zeros(_HIDDEN), "a_w2": w2, "a_b2": np.zeros(n_classes)}
    state = AdamState.zeros_like(params)
    for _ in range(FRESH_HEAD_EPOCHS):
        order, rng = rng.permutation(n)
        for start in range(0, n, FRESH_HEAD_BATCH):
            idx = order[start:start + FRESH_HEAD_BATCH]
            probs, cache = _head_forward(params, "a", x_flat[idx])
            grads = {}
            _head_backward(params, "a", cache, probs, labels[idx], grads)
            params, state = adam_step(params, grads, state, FRESH_HEAD_LR)

    def predict(xq):
        probs, _ = _head_forward(params, "a", xq)
        return np.argmax(probs, axis=1)

    return predict


def strong_adversary(train_r, train_labels, test_r, test_labels, seed: int,
                     n_classes: int) -> AttackReport:
    """Retrain an adversarial-architecture head on labeled backbone outputs."""
    train_flat = np.asarray(train_r, dtype=np.float64).reshape(len(train_r), -1)
    test_flat = np.asarray(test_r, dtype=np.float64).reshape(len(test_r), -1)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    predict = _train_fresh_head(train_flat, train_labels, n_classes, seed)
    score = float(np.mean(predict(test_flat) == test_labels))
    return AttackReport(
        name="strong",
        score=score,
        score_kind="accuracy",
        seed=seed,
        threshold=STRONG_THRESHOLD,
        verdict=_verdict(score, STRONG_THRESHOLD),
        params={"n_train": len(train_flat), "n_test": len(test_flat), "classes": n_classes},
    )


# ----------------------------------------------------------------- inversion

@dataclass(frozen=True)
class ReferencePrior:
    """What the adversary believes real inputs look like: a PCA of the
    flattened pixels of its data, and the Gaussian statistics of the data's
    coordinates ``(flat - center) @ components.T``."""

    center: np.ndarray
    components: np.ndarray  # (p, d)
    stats: GaussianStats


def build_reference(images: np.ndarray, p: int) -> ReferencePrior:
    flat = np.asarray(images, dtype=np.float64).reshape(len(images), -1)
    if p > min(flat.shape):
        raise ParameterError(f"cannot keep {p} components from data of shape {flat.shape}")
    center = flat.mean(axis=0)
    _, _, vt = np.linalg.svd(flat - center, full_matrices=False)
    components = vt[:p]
    return ReferencePrior(center, components, fit_gaussian_stats((flat - center) @ components.T))


@dataclass
class InversionResult:
    secret: Secret
    trajectory: list
    report: AttackReport
    recovery_cosine: float | None = None


def _inversion_objective(batch: np.ndarray, reference: ReferencePrior):
    """Score and gradient of a candidate real unbinding filter f.

    The unbound batch (each bound tensor circularly convolved with f) enters
    the score only through its PCA coordinates, which are linear in f:
    ``z = A @ f - center @ components.T``, where row (n, p) of the real
    (n*p, h*w) matrix A is bound tensor n circularly correlated with
    component p. A step is two real products and one Frechet evaluation.
    """
    n, h, w = batch.shape
    components = reference.components
    if components.shape[1] != h * w:
        raise ShapeError(f"reference components of size {components.shape[1]} "
                         f"do not fit {h}x{w} bound tensors")
    comps = spectrum(components.reshape(-1, h, w), 2)
    a = from_spectrum(np.conj(spectrum(batch, 2))[:, None] * comps, 2).reshape(-1, h * w)
    offset = reference.center @ components.T
    ref = reference.stats
    ref_root = _psd_sqrt(ref.cov)
    identity = np.eye(len(ref.mean))

    def score_and_grad(f):
        z = (a @ f.ravel()).reshape(n, -1) - offset
        stats = fit_gaussian_stats(z)
        score, transport = _frechet(stats, ref, ref_root)
        grad_z = (2.0 / n) * (stats.mean - ref.mean)[None, :] + \
            (2.0 / (n - 1)) * (z - stats.mean) @ (identity - transport)
        return score, (grad_z.ravel() @ a).reshape(h, w)

    return score_and_grad


def inversion_attack(bound, reference: ReferencePrior, steps: int, lr: float,
                     rng: RngStream, x_true=None, s_init: Secret | None = None,
                     validate_gradient: bool = True) -> InversionResult:  # perfbench wraps this
    """Projected gradient descent on a real unbinding filter.

    ``bound`` is the batch of bound tensors the adversary collected; one
    shared filter is optimized to make the whole unbound batch look like
    the reference distribution. After every step the filter is re-projected
    to unit spectral magnitude. ``lr`` is a step on the filter's spectrum,
    which the unnormalized transform makes h*w times a step on the filter.
    The analytic gradient is finite-difference checked once at the start.
    ``steps`` of 0 scores the starting filter; a negative count is refused.
    """
    if steps < 0:
        raise ParameterError(f"inversion steps must be >= 0, got {steps}")
    batch = np.asarray(bound, dtype=np.float64)
    if batch.ndim == 4 and batch.shape[-1] == 1:
        batch = batch[..., 0]
    if batch.ndim != 3:
        raise ShapeError(f"expected a batch of 2D bound tensors, got shape {batch.shape}")
    n, h, w = batch.shape
    score_and_grad = _inversion_objective(batch, reference)

    if s_init is not None:
        filt = inverse(s_init.tensor.reshape(h, w))
    else:
        raw, rng = rng.normal((h, w), 1.0)
        filt = from_spectrum(np.conj(unit_spectrum(spectrum(raw))))

    if validate_gradient:
        _validate_inversion_gradient(score_and_grad, filt, rng)

    trajectory = []
    score, grad = score_and_grad(filt)
    trajectory.append(score)
    for step in range(steps):
        if not np.all(np.isfinite(grad)):
            raise ParameterError(f"non-finite inversion gradient at step {step}")
        filt = project(filt - (lr / (h * w)) * grad)
        score, grad = score_and_grad(filt)
        trajectory.append(score)

    s_hat = Secret(from_spectrum(np.conj(spectrum(filt))))
    recovery = None
    if x_true is not None:
        x0 = np.asarray(x_true, dtype=np.float64).reshape(h, w)
        recovery = cosine(x0, unbind(batch[0], s_hat))
    report = AttackReport(
        name="invert",
        score=trajectory[-1],
        score_kind="frechet",
        seed=rng.seed,
        threshold=RECOVERY_THRESHOLD,
        verdict=_verdict(recovery, RECOVERY_THRESHOLD) if recovery is not None else "n/a",
        params={"steps": steps, "lr": lr, "batch": n,
                "recovery_cosine": recovery},
    )
    return InversionResult(s_hat, trajectory, report, recovery)


def _validate_inversion_gradient(score_and_grad, filt, rng):
    """FD-check the analytic filter gradient at three drawn entries; perfbench wraps it."""
    _, grad = score_and_grad(filt)
    idx, _ = rng.integers(0, filt.size, 3)
    for i in idx:
        probe = filt.copy().ravel()
        probe[i] += FD_EPS
        hi, _ = score_and_grad(probe.reshape(filt.shape))
        probe[i] -= 2 * FD_EPS
        lo, _ = score_and_grad(probe.reshape(filt.shape))
        fd = (hi - lo) / (2 * FD_EPS)
        analytic = grad.ravel()[i]
        if abs(fd - analytic) > FD_TOL * max(1.0, abs(fd)):
            raise ParameterError(
                f"inversion gradient check failed at index {i}: "
                f"analytic {analytic:.6g} vs finite-difference {fd:.6g}"
            )


# ---------------------------------------------------------- secret regression

def secret_regression_attack(pairs, n_holdout: int, seed: int = 0) -> AttackReport:
    """Least-squares linear map from bound tensors to their secrets.

    Fits on all but the last ``n_holdout`` pairs and reports the held-out
    normalized residual and cosine. Needs at least 2d training pairs for a
    d-dimensional flattened space.
    """
    if n_holdout < 2:
        raise ParameterError("need at least 2 held-out pairs")
    if len(pairs) <= n_holdout:
        raise ParameterError("not enough pairs for a holdout split")
    bound = np.stack([np.asarray(b, dtype=np.float64).reshape(-1) for b, _ in pairs])
    secrets = np.stack([
        (s.tensor if isinstance(s, Secret) else np.asarray(s)).reshape(-1)
        for _, s in pairs
    ])
    d = bound.shape[1]
    train_b, test_b = bound[:-n_holdout], bound[-n_holdout:]
    train_s, test_s = secrets[:-n_holdout], secrets[-n_holdout:]
    if train_b.shape[0] < 2 * d:
        raise ParameterError(
            f"need >= {2 * d} training pairs for d={d}, got {train_b.shape[0]}"
        )
    mapping, _, rank, _ = np.linalg.lstsq(train_b, train_s, rcond=None)
    pred = test_b @ mapping
    residuals = np.linalg.norm(pred - test_s, axis=1) / np.linalg.norm(test_s, axis=1)
    cosines = [cosine(p, s) for p, s in zip(pred, test_s)]
    mean_cos = float(np.mean(cosines))
    return AttackReport(
        name="regress",
        score=float(np.mean(residuals)),
        score_kind="residual",
        seed=seed,
        threshold=REGRESSION_THRESHOLD,
        verdict=_verdict(mean_cos, REGRESSION_THRESHOLD),
        params={
            "mean_cosine": mean_cos,
            "n_train": len(train_b),
            "n_holdout": n_holdout,
            "rank_deficient": bool(rank < d),
        },
    )
