import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobind.errors import (
    DegenerateSpectrumError,
    NearSingularInverseError,
    ParameterError,
    ShapeError,
)
from holobind.tensor import RngStream
from holobind.vsa import (
    _half_cosines,
    _half_spectrum,
    batch_unbind,
    batch_unbind_transpose,
    bind,
    bundle_add,
    cosine,
    from_spectrum,
    inverse,
    presence_probe,
    probe_curves,
    project,
    sample_secret,
    sample_secret_spectra,
    spectrum,
    unbind,
)

from oracles import (
    circulant_matrix,
    direct_circconv1d,
    direct_circconv2d,
    per_item_probe_curves,
)


def _image_like(seed, dims):
    # the toolkit's synthetic-image distribution: unit-norm pattern + noise
    g = np.random.default_rng(seed)
    p = g.normal(size=dims)
    p /= np.linalg.norm(p)
    return p + g.normal(0, 0.3, size=dims)


# ---------------------------------------------------------------- projection

def test_project_impulse_unchanged():
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    assert np.allclose(project(t), t, atol=1e-12)


def test_project_idempotent():
    v = np.random.default_rng(2).normal(size=(8, 8))
    once = project(v)
    assert np.max(np.abs(project(once) - once)) <= 1e-10


def test_project_constant_is_degenerate():
    with pytest.raises(DegenerateSpectrumError):
        project(np.ones((4, 4)))


def test_project_scale_invariant():
    v = np.random.default_rng(3).normal(size=(8, 8))
    for c in (0.5, 2.0, 1e6):
        assert np.max(np.abs(project(c * v) - project(v))) <= 1e-10


def test_project_unit_magnitudes_per_channel():
    v = np.random.default_rng(4).normal(size=(8, 8, 3))
    mags = np.abs(spectrum(project(v)))
    assert np.max(np.abs(mags - 1.0)) <= 1e-9


# ------------------------------------------------------------------- binding

@pytest.mark.parametrize("dims", [(16,), (8, 8), (8, 8, 3)])
def test_spectrum_batch_axes_match_single_items(dims):
    items = np.random.default_rng(40).normal(size=(5,) + dims)
    spec = spectrum(items, len(dims))
    assert np.array_equal(spec, np.stack([spectrum(t) for t in items]))
    assert np.array_equal(from_spectrum(spec, len(dims)),
                          np.stack([from_spectrum(s) for s in spec]))


def test_spectrum_rank_must_fit_the_array():
    with pytest.raises(ShapeError):
        spectrum(np.zeros((2, 4, 4, 1, 1)))  # 4D items
    with pytest.raises(ShapeError):
        spectrum(np.zeros((4, 4)), 3)  # fewer axes than the item rank


def test_bind_impulse_identity():
    x = np.random.default_rng(5).normal(size=(8, 8))
    imp = np.zeros((8, 8))
    imp[0, 0] = 1.0
    assert np.max(np.abs(bind(x, imp) - x)) <= 1e-12


def test_bind_matches_2d_convolution_oracle():
    g = np.random.default_rng(6)
    for dims in [(4, 4), (8, 8), (5, 7)]:
        x, s = g.normal(size=dims), g.normal(size=dims)
        assert np.max(np.abs(bind(x, s) - direct_circconv2d(x, s))) <= 1e-9


def test_bind_matches_circulant_oracle_1d():
    g = np.random.default_rng(7)
    for d in range(2, 9):
        x, s = g.normal(size=d), g.normal(size=d)
        assert np.max(np.abs(bind(x, s) - circulant_matrix(s) @ x)) <= 1e-9
        assert np.max(np.abs(bind(x, s) - direct_circconv1d(x, s))) <= 1e-9


def test_bind_commutative():
    g = np.random.default_rng(8)
    x = g.normal(size=(4, 4))
    s, _ = sample_secret((4, 4), RngStream(8))
    roles_swapped = bind(s.tensor, x)
    assert np.max(np.abs(bind(x, s) - roles_swapped)) <= 1e-10


def test_bind_bilinear():
    g = np.random.default_rng(9)
    x, z, s = (g.normal(size=(6, 6)) for _ in range(3))
    a, b = 2.5, -1.25
    lhs = bind(a * x + b * z, s)
    rhs = a * bind(x, s) + b * bind(z, s)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_bind_shape_mismatch():
    with pytest.raises(ShapeError):
        bind(np.zeros((4, 4)), np.zeros((4, 5)))


def test_batch_unbind_transpose_is_adjoint():
    # <batch_unbind(r, S), g> == <r, batch_unbind_transpose(g, S)> defines the
    # adjoint: the binding backward that training runs
    g = np.random.default_rng(10)
    spectra, _ = sample_secret_spectra((6, 6, 2), 3, RngStream(10))
    r, up = (g.normal(size=(3, 6, 6, 2)) for _ in range(2))
    lhs = np.sum(batch_unbind(r, spectra) * up)
    rhs = np.sum(r * batch_unbind_transpose(up, spectra))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@given(st.integers(2, 8), st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_bind_commutativity_property(d, seed):
    g = np.random.default_rng(seed)
    x, y = g.normal(size=d), g.normal(size=d)
    assert np.max(np.abs(bind(x, y) - bind(y, x))) <= 1e-10


# ------------------------------------------------------------------ inverses

def test_inverse_of_projected_is_projected():
    s, _ = sample_secret((8, 8), RngStream(11))
    inv = inverse(s)
    assert np.max(np.abs(np.abs(spectrum(inv.tensor)) - 1.0)) <= 1e-9


def test_impulse_is_own_inverse():
    imp = np.zeros((4, 4))
    imp[0, 0] = 1.0
    assert np.max(np.abs(inverse(imp) - imp)) <= 1e-12


def test_double_inverse_round_trip():
    s, _ = sample_secret((8, 8), RngStream(12))
    back = inverse(inverse(s))
    assert np.max(np.abs(back.tensor - s.tensor)) <= 1e-9


def test_inverse_near_singular_rejected():
    # one spectral magnitude forced to ~1e-15
    spec = np.fft.fft2(np.random.default_rng(13).normal(size=(4, 4)))
    spec[1, 1] = 1e-15
    spec[-1, -1] = 1e-15  # keep conjugate symmetry
    t = np.fft.ifft2(spec).real
    with pytest.raises(NearSingularInverseError):
        inverse(t)


# ----------------------------------------------------------------- unbinding

def test_exact_retrieval_3d():
    x = np.random.default_rng(14).normal(size=(16, 16, 3))
    s, _ = sample_secret((16, 16, 3), RngStream(14))
    assert np.max(np.abs(unbind(bind(x, s), s) - x)) <= 1e-9


@pytest.mark.parametrize("dims", [(16, 16, 1), (32, 32, 3), (28, 28, 1), (64, 64, 3)])
def test_exact_retrieval_invariant(dims):
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=dims)
        s, _ = sample_secret(dims, RngStream(seed))
        assert np.max(np.abs(unbind(bind(x, s), s) - x)) <= 1e-9


def test_bound_image_structureless_and_wrong_secret_uninformative():
    # Monte-Carlo over 1000 seeds at image-like shapes: both the bound
    # tensor and a wrong-secret retrieval stay nearly orthogonal to x.
    for dims, base in [((28, 28, 1), 20_000), ((32, 32, 3), 30_000)]:
        ok_bound = ok_wrong = 0
        n = 1000
        for i in range(n):
            x = _image_like(base + i, dims)
            s, rng = sample_secret(dims, RngStream(base + i))
            wrong, _ = sample_secret(dims, rng)
            b = bind(x, s)
            ok_bound += abs(cosine(x, b)) < 0.15
            ok_wrong += abs(cosine(x, unbind(b, wrong))) < 0.15
        assert ok_bound / n >= 0.95, dims
        assert ok_wrong / n >= 0.95, dims


def test_one_time_pad_ambiguity():
    # any candidate input explains any bound output under some secret
    g = np.random.default_rng(15)
    x = g.normal(size=(8, 8))
    s, _ = sample_secret((8, 8), RngStream(15))
    b = bind(x, s)
    x_alt = g.normal(size=(8, 8))
    s_alt = unbind(b, x_alt)  # solve b = x_alt (*) s_alt by spectral division
    assert np.max(np.abs(bind(x_alt, s_alt) - b)) <= 1e-8


# ------------------------------------------------------------------- secrets

def test_sample_secret_unit_magnitudes():
    s, _ = sample_secret((16, 16, 1), RngStream(1))
    mags = np.abs(spectrum(s.tensor))
    assert mags.size == 256
    assert np.max(np.abs(mags - 1.0)) <= 1e-9


def test_sample_secret_deterministic():
    a, next_a = sample_secret((8, 8), RngStream(42))
    b, next_b = sample_secret((8, 8), RngStream(42))
    assert np.array_equal(a.tensor, b.tensor)
    assert next_a == next_b


def test_successive_secrets_nearly_orthogonal():
    ok = 0
    n = 300
    for seed in range(n):
        s1, rng = sample_secret((16, 16, 1), RngStream(seed))
        s2, _ = sample_secret((16, 16, 1), rng)
        ok += abs(cosine(s1.tensor, s2.tensor)) < 0.15
    assert ok / n >= 0.95


@pytest.mark.parametrize("dims", [(16,), (8, 8), (8, 8, 3)])
def test_sample_secret_spectra_match_successive_sample_secret(dims):
    spectra, rng = sample_secret_spectra(dims, 4, RngStream(5))
    ref_rng = RngStream(5)
    for spec in spectra:
        secret, ref_rng = sample_secret(dims, ref_rng)
        assert np.max(np.abs(spec - spectrum(secret.tensor))) <= 1e-12
    assert rng == ref_rng
    assert np.max(np.abs(np.abs(spectra) - 1.0)) <= 1e-12


def test_sample_secret_spectra_rejects_empty_dims():
    with pytest.raises(ShapeError):
        sample_secret_spectra((4, 0), 2, RngStream(6))


def test_secret_erase_zeroes_buffer():
    s, _ = sample_secret((4, 4), RngStream(3))
    s.erase()
    assert np.all(s.tensor == 0.0)


# -------------------------------------------------------------------- cosine

def test_cosine_trivial_values():
    a = np.array([1.0, 2.0, 3.0])
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, -a) == pytest.approx(-1.0)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert cosine(e1, e2) == pytest.approx(0.0)


def test_cosine_errors():
    with pytest.raises(ParameterError):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(ShapeError):
        cosine(np.ones(3), np.ones(4))


# ------------------------------------------------------------------- bundles

def test_bundle_single_pair_equals_bind():
    g = np.random.default_rng(16)
    x = g.normal(size=(8, 8))
    y, _ = sample_secret((8, 8), RngStream(16))
    b = bundle_add(np.zeros((8, 8)), x, y)
    assert np.array_equal(b, bind(x, y))
    with pytest.raises(ShapeError, match="bundle shape mismatch"):
        bundle_add(np.zeros((4, 4)), x, y)


def test_bundle_order_independent():
    g = np.random.default_rng(17)
    pairs = []
    rng = RngStream(17)
    for _ in range(3):
        x = g.normal(size=(8, 8))
        y, rng = sample_secret((8, 8), rng)
        pairs.append((x, y))
    fwd = rev = np.zeros((8, 8))
    for x, y in pairs:
        fwd = bundle_add(fwd, x, y)
    for x, y in reversed(pairs):
        rev = bundle_add(rev, x, y)
    assert np.max(np.abs(fwd - rev)) <= 1e-10


# -------------------------------------------------------------------- probes

def test_presence_probe_single_pair_exact():
    g = np.random.default_rng(18)
    x = project(g.normal(size=(16, 16)))
    y, _ = sample_secret((16, 16), RngStream(18))
    b = bundle_add(np.zeros((16, 16)), x, y)
    assert presence_probe(b, y, x) >= 0.999


def test_probe_curves_match_bundle_theory():
    # Retrieval cosine from a k-term bundle of projected pairs decays like
    # 1/sqrt(k): the target plus k-1 unit-norm, nearly orthogonal
    # interference terms. The 1/sqrt(k) value is analytic; absent pairs
    # stay near zero.
    rows = probe_curves(d=1024, ks=(1, 2, 4, 8), n_seeds=40, seed=9)
    proj = {r["k"]: r for r in rows if r["mode"] == "projected"}
    naive = {r["k"]: r for r in rows if r["mode"] == "naive"}
    for k in (1, 2, 4, 8):
        assert abs(proj[k]["present_mean"] - 1 / np.sqrt(k)) <= 0.05
        assert abs(proj[k]["absent_mean"]) <= 0.1
        assert abs(naive[k]["absent_mean"]) <= 0.1
    # naive retrieval is strictly worse once the bundle has competing terms
    assert naive[8]["present_mean"] < proj[8]["present_mean"]
    assert naive[2]["present_mean"] < proj[2]["present_mean"]


def test_probe_curves_deterministic():
    a = probe_curves(d=64, ks=(1, 2), n_seeds=5, seed=3)
    b = probe_curves(d=64, ks=(1, 2), n_seeds=5, seed=3)
    assert a == b
    cols = {"k", "mode", "present_mean", "absent_mean", "present_std", "absent_std"}
    assert all(set(r) == cols for r in a)


def test_probe_curves_non_square_d_runs_1d():
    # 48 has no integer square root, so the harness uses the 1D algebra
    rows = probe_curves(d=48, ks=(1,), n_seeds=5, seed=4, modes=("projected",))
    assert rows[0]["present_mean"] >= 0.999


def test_probe_curves_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        probe_curves(d=16, ks=(1,), n_seeds=2, seed=0, modes=("psychic",))


# 8x8, 1D even, 7x7, 1D odd: half spectra with and without a Nyquist column
@pytest.mark.parametrize("d", [64, 48, 49, 47])
def test_probe_curves_match_the_per_item_probe(d):
    # Parseval sums over half spectra round differently from time-domain
    # cosines, so the rows agree within rounding rather than bitwise.
    rows = probe_curves(d=d, ks=(1, 3), n_seeds=7, seed=5)
    ref = per_item_probe_curves(d, (1, 3), 7, 5)
    assert [(r["k"], r["mode"]) for r in rows] == [(r["k"], r["mode"]) for r in ref] == [
        (1, "projected"), (3, "projected"), (1, "naive"), (3, "naive")]
    for row, want in zip(rows, ref):
        assert set(row) == set(want)
        for col in ("present_mean", "absent_mean", "present_std", "absent_std"):
            assert abs(row[col] - want[col]) <= 1e-12, (row["k"], row["mode"], col)


@pytest.mark.parametrize("dims", [(16,), (15,), (6, 8), (5, 7), (6, 7), (5, 8)])
def test_half_spectrum_cosines_equal_time_domain_cosines(dims):
    g = np.random.default_rng(30)
    b, x, y = (g.normal(size=(5,) + dims) for _ in range(3))
    rank = len(dims)
    full = spectrum(b, rank)
    assert np.max(np.abs(_half_spectrum(b, rank) - full[..., : dims[-1] // 2 + 1])) <= 1e-12
    scores = _half_cosines(full[..., : dims[-1] // 2 + 1], _half_spectrum(x, rank),
                           _half_spectrum(y, rank), dims)
    for i in range(5):
        want = cosine(unbind(from_spectrum(full[i]), y[i]), x[i])
        assert abs(scores[i] - want) <= 1e-12


def test_probe_curves_refuse_overlapping_counter_blocks():
    # A seed owns 4096 counters: pair j at 2j and 2j + 1, the absent pair at
    # 4094 and 4095, so k = 2048 would draw its last pair on the absent one.
    probe_curves(d=4, ks=(2047,), n_seeds=2, seed=0, modes=("naive",))
    with pytest.raises(ParameterError):
        probe_curves(d=4, ks=(2048,), n_seeds=2, seed=0)
    # The bundle sizes own no counters, so any number of them runs.
    rows = probe_curves(d=4, ks=range(1, 66), n_seeds=1, seed=0)
    assert [r["k"] for r in rows] == list(range(1, 66)) * 2


def test_probe_rows_depend_only_on_mode_and_k():
    alone = probe_curves(d=64, ks=(4,), n_seeds=5, seed=3, modes=("naive",))
    among = probe_curves(d=64, ks=(1, 2, 4), n_seeds=5, seed=3)
    assert alone == [r for r in among if (r["mode"], r["k"]) == ("naive", 4)]


def test_probe_curves_draw_each_pair_once(monkeypatch):
    draws = []
    normal = RngStream.normal

    def counted(self, *args):
        draws.append(self.counter)
        return normal(self, *args)

    monkeypatch.setattr(RngStream, "normal", counted)
    with pytest.raises(ParameterError):
        probe_curves(d=16, ks=(1,), n_seeds=3, seed=0, modes=("naive", "psychic"))
    assert draws == []  # every mode is checked before the first draw
    probe_curves(d=16, ks=(1, 2, 4, 8), n_seeds=3, seed=0)
    # per seed: the 8 pairs of the largest bundle and the absent pair
    assert len(draws) == len(set(draws)) == 3 * (2 * 8 + 2)


def test_probe_curves_zero_bundle_raises():
    # At d=1 the projected keys are +-1, so a 4-term bundle can sum to zero.
    with pytest.raises(ParameterError, match="zero-norm"):
        probe_curves(d=1, ks=(4,), n_seeds=7, seed=5)


@pytest.mark.parametrize("ks", [(), (0,), (1, -2)])
def test_probe_curves_rejects_bundle_sizes_below_1(ks):
    with pytest.raises(ParameterError):
        probe_curves(d=16, ks=ks, n_seeds=2, seed=0)
