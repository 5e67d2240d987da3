import numpy as np
import pytest

from holobind import attacks
from holobind.attacks import (
    GaussianStats,
    ari,
    build_reference,
    clustering_attack,
    fit_gaussian_stats,
    frechet_distance,
    inversion_attack,
    kmeans,
    secret_regression_attack,
    strong_adversary,
)
from holobind.errors import ParameterError, ShapeError
from holobind.tensor import RngStream
from holobind.trainer import synth_dataset
from holobind.vsa import (
    Secret,
    bind,
    from_spectrum,
    project,
    sample_secret,
    spectrum,
    unit_spectrum,
)

from oracles import (
    spectrum_inversion,
    transform_inversion_objective,
    two_pass_frechet_score_and_mean_grad,
)


# ------------------------------------------------------------------- frechet

def test_frechet_identical_stats_zero():
    pts = np.random.default_rng(0).normal(size=(50, 4))
    stats = fit_gaussian_stats(pts)
    assert frechet_distance(stats, stats) <= 1e-8


def test_frechet_pure_mean_term():
    mu_a = np.array([1.0, 2.0, 3.0])
    mu_b = np.array([0.0, 0.0, -1.0])
    zero = np.zeros((3, 3))
    a = GaussianStats(mu_a, zero)
    b = GaussianStats(mu_b, zero)
    assert frechet_distance(a, b) == pytest.approx(np.sum((mu_a - mu_b) ** 2))


def test_frechet_diagonal_case():
    mu = np.zeros(3)
    a = GaussianStats(mu, np.eye(3))
    b = GaussianStats(mu, 4.0 * np.eye(3))
    # tr(I + 4I - 2*2I) = 3
    assert frechet_distance(a, b) == pytest.approx(3.0, abs=1e-10)


def test_frechet_symmetric_and_positive_when_different():
    g = np.random.default_rng(1)
    a = fit_gaussian_stats(g.normal(size=(40, 5)))
    b = fit_gaussian_stats(g.normal(size=(40, 5)) * 2 + 1)
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) <= 1e-8
    assert frechet_distance(a, b) > 0.1


def test_frechet_dimension_mismatch():
    a = GaussianStats(np.zeros(2), np.eye(2))
    b = GaussianStats(np.zeros(3), np.eye(3))
    with pytest.raises(ParameterError):
        frechet_distance(a, b)


def test_frechet_clamps_tiny_negative_eigenvalues():
    cov = np.eye(2)
    cov[0, 0] = -1e-10  # within clamping tolerance
    a = GaussianStats(np.zeros(2), cov)
    b = GaussianStats(np.zeros(2), np.eye(2))
    assert np.isfinite(frechet_distance(a, b))
    bad = GaussianStats(np.zeros(2), -np.eye(2))
    with pytest.raises(ParameterError):
        frechet_distance(bad, b)


# -------------------------------------------------------------------- kmeans

def test_kmeans_two_separated_pairs():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    labels = kmeans(pts, 2, RngStream(3))
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_identical_points_zero_inertia():
    pts = np.ones((6, 3))
    labels, centers, history = kmeans(pts, 2, RngStream(4), return_history=True)
    assert history[-1] == 0.0
    assert len(labels) == 6


def test_kmeans_recovers_separated_gaussians():
    for seed in range(20):
        g = np.random.default_rng(seed)
        centers = g.normal(size=(4, 8)) * 10
        pts = np.concatenate([centers[c] + g.normal(size=(25, 8)) for c in range(4)])
        truth = np.repeat(np.arange(4), 25)
        labels = kmeans(pts, 4, RngStream(seed))
        assert ari(labels, truth) >= 0.99


def test_kmeans_k_larger_than_n():
    with pytest.raises(ParameterError):
        kmeans(np.ones((3, 2)), 4, RngStream(5))


def test_kmeans_inertia_non_increasing():
    g = np.random.default_rng(6)
    pts = g.normal(size=(100, 5))
    _, _, history = kmeans(pts, 3, RngStream(6), return_history=True)
    assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))


def test_kmeans_deterministic():
    pts = np.random.default_rng(7).normal(size=(40, 3))
    a = kmeans(pts, 3, RngStream(8))
    b = kmeans(pts, 3, RngStream(8))
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------- ari

def test_ari_identical_labelings():
    labels = np.array([0, 0, 1, 2, 2, 1])
    assert ari(labels, labels) == pytest.approx(1.0)


def test_ari_constant_labeling_is_zero():
    assert ari([0, 0, 0, 0], [0, 1, 2, 1]) == pytest.approx(0.0)


def test_ari_hand_computed_negative():
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_symmetric_and_permutation_invariant():
    g = np.random.default_rng(9)
    a = g.integers(0, 3, 30)
    b = g.integers(0, 4, 30)
    assert ari(a, b) == pytest.approx(ari(b, a))
    remap = np.array([2, 0, 1])
    assert ari(remap[a], b) == pytest.approx(ari(a, b))


def test_ari_length_mismatch():
    with pytest.raises(ParameterError):
        ari([0, 1], [0, 1, 2])


# --------------------------------------------------------------- clustering

def test_clustering_control_on_noiseless_images():
    data = synth_dataset(11, noise_sigma=0.0, n_train=64, n_test=64)
    report = clustering_attack(data.test_images, data.test_labels, 4, RngStream(11))
    assert report.score >= 0.9  # the attack works when nothing is hidden
    assert report.verdict == "fail"
    assert report.score_kind == "ari"


# ----------------------------------------------------------- strong adversary

def test_strong_adversary_planted_signal():
    # r literally contains the one-hot label: the retrained head must win
    g = np.random.default_rng(12)
    labels = g.integers(0, 4, 160)
    r = np.eye(4)[labels] * 5 + g.normal(0, 0.1, size=(160, 4))
    report = strong_adversary(r[:120], labels[:120], r[120:], labels[120:],
                              seed=12, n_classes=4)
    assert report.score >= 0.95
    assert report.verdict == "fail"  # the defense did not hold (by design)


def test_strong_adversary_shuffled_labels_control():
    g = np.random.default_rng(13)
    labels = g.integers(0, 4, 160)
    r = np.eye(4)[labels] * 5 + g.normal(0, 0.1, size=(160, 4))
    shuffled = g.permutation(labels)
    report = strong_adversary(r[:120], shuffled[:120], r[120:], shuffled[120:],
                              seed=13, n_classes=4)
    assert abs(report.score - 0.25) <= 0.1


def test_strong_adversary_fails_on_trained_model(dataset, trained):
    # calibrated audit: knowing data, labels and scheme but not the
    # per-prediction secrets leaves the retrained head near chance
    from holobind.tensor import RngStream as RS
    from holobind.trainer import evaluate, worker_views

    model, _ = trained
    _, r_train, _, rng = worker_views(model, dataset.train_images, RS(51))
    _, r_test, _, _ = worker_views(model, dataset.test_images, rng)
    report = strong_adversary(r_train, dataset.train_labels,
                              r_test, dataset.test_labels, seed=51,
                              n_classes=dataset.n_classes)
    assert report.score <= 0.45
    assert evaluate(model, dataset, "with_secret") - report.score >= 0.40
    assert report.verdict == "pass"


# ------------------------------------------------------------------ inversion

def _planted_setup(n=24, side=8, seed=14):
    g = np.random.default_rng(seed)
    images = np.stack([project(g.normal(size=(side, side))) + g.normal(size=(side, side)) * 0.1
                       for _ in range(n)])
    secret, _ = sample_secret((side, side), RngStream(seed))
    bound = np.stack([bind(images[i], secret) for i in range(n)])
    reference = build_reference(images, p=8)
    return images, secret, bound, reference


def test_inversion_planted_solution_recovers():
    images, secret, bound, reference = _planted_setup()
    result = inversion_attack(bound, reference, steps=25, lr=0.05,
                              rng=RngStream(15), x_true=images[0], s_init=secret)
    assert result.recovery_cosine >= 0.99
    assert result.trajectory[0] <= 1e-6  # score floor at the true secret
    assert result.trajectory[-1] <= 1e-6
    assert len(result.trajectory) == 26


def test_inversion_refuses_a_negative_step_count():
    _, _, bound, reference = _planted_setup(seed=16)
    with pytest.raises(ParameterError, match="steps must be >= 0"):
        inversion_attack(bound, reference, steps=-3, lr=0.05, rng=RngStream(17))


def test_inversion_zero_steps_returns_initialization():
    images, secret, bound, reference = _planted_setup(seed=16)
    result = inversion_attack(bound, reference, steps=0, lr=0.05,
                              rng=RngStream(17), s_init=secret)
    assert len(result.trajectory) == 1
    assert np.max(np.abs(result.secret.tensor - secret.tensor)) <= 1e-9


def test_inversion_score_decreases_from_random_init():
    images, secret, bound, reference = _planted_setup(seed=18)
    result = inversion_attack(bound, reference, steps=40, lr=0.05,
                              rng=RngStream(19), x_true=images[0])
    assert result.trajectory[-1] < result.trajectory[0]
    assert result.report.params["recovery_cosine"] == result.recovery_cosine


def test_one_pass_frechet_gradient_matches_two_pass():
    g = np.random.default_rng(40)
    for case in range(50):
        p = int(g.integers(2, 17))
        z = g.normal(size=(int(g.integers(p + 2, 64)), p)) * g.uniform(0.1, 3.0, size=p)
        ref = fit_gaussian_stats(g.normal(size=(3 * p, p)) + g.normal(size=p))
        n, stats = len(z), fit_gaussian_stats(z)
        score, transport = attacks._frechet(stats, ref, attacks._psd_sqrt(ref.cov))
        grad = (2.0 / n) * (stats.mean - ref.mean) + \
            (2.0 / (n - 1)) * (z - stats.mean) @ (np.eye(p) - transport)
        want_score, want_grad = two_pass_frechet_score_and_mean_grad(z, ref)
        assert abs(score - want_score) <= 1e-13 * abs(want_score), case
        assert np.max(np.abs(grad - want_grad)) <= 1e-11 * np.max(np.abs(want_grad)), case
    # so a whole inversion takes the earlier spectrum-domain steps to the same secret
    _, _, bound, reference = _planted_setup(seed=18)
    result = inversion_attack(bound, reference, steps=40, lr=0.05, rng=RngStream(19),
                              validate_gradient=False)
    trajectory, secret = spectrum_inversion(bound, reference, 40, 0.05, RngStream(19))
    assert np.allclose(result.trajectory, trajectory, rtol=1e-10, atol=0)
    assert np.max(np.abs(result.secret.tensor - secret)) <= 1e-10


def test_one_eigendecomposition_per_inversion_step(monkeypatch):
    _, _, bound, reference = _planted_setup(seed=18)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    inversion_attack(bound, reference, steps=10, lr=0.05, rng=RngStream(19),
                     validate_gradient=False)
    assert len(calls) == 11 + 1  # one per scored filter, one for the reference's root


def test_inversion_rejects_bad_shapes():
    reference = build_reference(np.random.default_rng(20).normal(size=(10, 4, 4)), p=4)
    with pytest.raises(Exception):
        inversion_attack(np.ones((4, 4)), reference, steps=1, lr=0.1, rng=RngStream(2))
    with pytest.raises(ShapeError):  # a reference fitted on other-sized images
        inversion_attack(np.ones((3, 8, 8)), reference, steps=1, lr=0.1, rng=RngStream(2))


def test_filter_inversion_objective_matches_the_transform_form():
    _, _, bound, reference = _planted_setup(n=12, seed=41)
    fast = attacks._inversion_objective(bound, reference)
    slow = transform_inversion_objective(spectrum(bound, 2), reference)
    raw, _ = RngStream(42).normal((8, 8), 1.0)
    filt = from_spectrum(np.conj(unit_spectrum(spectrum(raw))))
    for step in range(51):  # the inversion's update, scored both ways
        score, grad = fast(filt)
        want_score, grad_psi = slow(spectrum(filt))
        want_grad = 64 * from_spectrum(grad_psi)  # the filter's gradient is h*w ifft(D)
        assert abs(score - want_score) <= 1e-12 * abs(want_score), step
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad)), step
        filt = project(filt - (0.05 / 64) * grad)
    assert score < fast(from_spectrum(np.conj(unit_spectrum(spectrum(raw)))))[0]  # it descended


def test_inversion_gradient_passes_the_finite_difference_check(monkeypatch):
    _, _, bound, reference = _planted_setup(seed=43)
    checked = []
    validate = attacks._validate_inversion_gradient
    monkeypatch.setattr(attacks, "_validate_inversion_gradient",
                        lambda *a, **kw: checked.append(validate(*a, **kw)))
    inversion_attack(bound, reference, steps=3, lr=0.05, rng=RngStream(44),
                     validate_gradient=True)
    assert checked == [None]
    # and the check does fail a wrong gradient
    score_and_grad = attacks._inversion_objective(bound, reference)
    filt = RngStream(45).normal((8, 8), 1.0)[0]
    with pytest.raises(ParameterError, match="gradient check failed"):
        validate(lambda f: (score_and_grad(f)[0], 2.0 * score_and_grad(f)[1]), filt,
                 RngStream(46))


# ----------------------------------------------------------- secret regression

def test_regression_identity_task_recovers():
    # bound == secret: the least-squares map is the identity
    g = np.random.default_rng(21)
    d = 16
    secrets = [Secret(g.normal(size=(4, 4))) for _ in range(2 * d + 8)]
    pairs = [(s.tensor.copy(), s) for s in secrets]
    report = secret_regression_attack(pairs, n_holdout=8)
    assert report.score <= 1e-8
    assert report.params["mean_cosine"] >= 0.999
    assert report.verdict == "fail"  # oracle case: the map is learnable


def test_regression_parameter_errors():
    g = np.random.default_rng(22)
    pairs = [(g.normal(size=(2, 2)), Secret(g.normal(size=(2, 2)))) for _ in range(12)]
    with pytest.raises(ParameterError):
        secret_regression_attack(pairs, n_holdout=1)
    with pytest.raises(ParameterError):
        secret_regression_attack(pairs[:3], n_holdout=2)
    with pytest.raises(ParameterError):
        # 4-dim space needs 8 training pairs; only 6 remain after holdout
        secret_regression_attack(pairs[:8], n_holdout=2)


# ----------------------------------------------------------------------- pca

def test_pixel_pca_projection_shape():
    images = np.random.default_rng(23).normal(size=(30, 6, 6))
    reference = build_reference(images, p=5)
    z = (images.reshape(30, -1) - reference.center) @ reference.components.T
    assert z.shape == (30, 5)
    assert reference.center.shape == (36,) and reference.components.shape == (5, 36)
    assert np.allclose(reference.stats.mean, z.mean(axis=0), rtol=0, atol=1e-12)


def test_pixel_pca_rejects_excess_components():
    with pytest.raises(ParameterError):
        build_reference(np.ones((4, 3, 3)), p=8)


def test_fit_gaussian_stats_needs_two_points():
    with pytest.raises(ParameterError):
        fit_gaussian_stats(np.ones((1, 3)))
