import numpy as np
import pytest

from holobind import altbind
from holobind.altbind import (
    OPERATORS,
    ablation_rows,
    hilbert_decode,
    hilbert_encode,
    hilbert_hrr_bind,
    hilbert_hrr_unbind,
    hilbert_map,
    ivtb_secret,
    operator_apply,
    operator_secret,
    vtb_bind,
    vtb_block,
    vtb_secret,
    vtb_unbind,
)
from holobind.errors import NearSingularInverseError, ParameterError, ShapeError
from holobind.tensor import RngStream
from holobind.vsa import cosine, sample_secret
from oracles import (
    five_way_ablation_rows,
    loop_hilbert_map,
    per_channel_hilbert_bind,
    per_channel_hilbert_unbind,
)


# ----------------------------------------------------------------------- VTB

def test_vtb_identity_block():
    y = 4 ** -0.25 * np.eye(2).reshape(-1)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(vtb_bind(x, y), x, atol=1e-12)
    assert np.allclose(vtb_unbind(x, y), x, atol=1e-12)


def test_vtb_permutation_block():
    y = 4 ** -0.25 * np.array([[0.0, 1.0], [1.0, 0.0]]).reshape(-1)
    z = vtb_bind(np.array([1.0, 2.0, 3.0, 4.0]), y)
    assert np.allclose(z, [2.0, 1.0, 4.0, 3.0], atol=1e-12)


def test_vtb_matches_dense_block_diagonal_oracle():
    d, m = 16, 4
    y, _ = vtb_secret(d, RngStream(5))
    x = np.random.default_rng(5).normal(size=d)
    dense = np.zeros((d, d))
    for j in range(m):
        dense[j * m:(j + 1) * m, j * m:(j + 1) * m] = vtb_block(y)
    assert np.max(np.abs(vtb_bind(x, y) - dense @ x)) <= 1e-10


def test_vtb_linear_in_x():
    d = 16
    y, _ = vtb_secret(d, RngStream(6))
    g = np.random.default_rng(6)
    x, z = g.normal(size=d), g.normal(size=d)
    lhs = vtb_bind(2.0 * x - 0.5 * z, y)
    rhs = 2.0 * vtb_bind(x, y) - 0.5 * vtb_bind(z, y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_vtb_rejects_non_square_dimension():
    with pytest.raises(ShapeError):
        vtb_secret(10, RngStream(1))
    y, _ = vtb_secret(16, RngStream(1))
    with pytest.raises(ShapeError):
        vtb_bind(np.zeros(10), y)


def test_plain_vtb_reconstruction_noisy_but_correlated():
    # calibrated band: reconstruction correlates but is far from exact
    for seed in range(100):
        x = np.random.default_rng(seed).normal(size=64)
        y, _ = vtb_secret(64, RngStream(seed))
        c = cosine(vtb_unbind(vtb_bind(x, y), y), x)
        assert 0.3 < c < 0.95


# ---------------------------------------------------------------------- iVTB

def test_ivtb_block_orthogonal():
    y, _ = ivtb_secret(4, RngStream(2))
    assert np.max(np.abs(vtb_block(y).T @ vtb_block(y) - np.eye(2))) <= 1e-12


def test_ivtb_deterministic():
    a, _ = ivtb_secret(64, RngStream(9))
    b, _ = ivtb_secret(64, RngStream(9))
    assert np.array_equal(a, b)


def test_ivtb_determinant_is_unit():
    for seed in range(10):
        y, _ = ivtb_secret(64, RngStream(seed))
        assert abs(abs(np.linalg.det(vtb_block(y))) - 1.0) <= 1e-9


@pytest.mark.parametrize("d", [4, 16, 64, 256])
def test_ivtb_exact_round_trip(d):
    x = np.random.default_rng(d).normal(size=d)
    y, _ = ivtb_secret(d, RngStream(d))
    assert np.max(np.abs(vtb_unbind(vtb_bind(x, y), y) - x)) <= 1e-9


def test_ivtb_secret_refuses_a_block_that_is_not_orthogonal():
    plain, _ = vtb_secret(64, RngStream(4))
    x = np.random.default_rng(4).normal(size=(8, 8))
    for undo in (False, True):
        with pytest.raises(ParameterError, match="not orthogonal"):
            operator_apply("ivtb", x, plain, undo=undo)


def test_plain_vtb_error_exceeds_ivtb_on_matched_seeds():
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=64)
        plain, _ = vtb_secret(64, RngStream(seed))
        ortho, _ = ivtb_secret(64, RngStream(seed))
        err_plain = np.max(np.abs(vtb_unbind(vtb_bind(x, plain), plain) - x))
        err_ortho = np.max(np.abs(vtb_unbind(vtb_bind(x, ortho), ortho) - x))
        assert err_plain > err_ortho


# ------------------------------------------------------------------- Hilbert

def test_hilbert_order1_visit_order():
    a, b, c, d = 1.0, 2.0, 3.0, 4.0
    img = np.array([[a, b], [d, c]])
    assert np.array_equal(hilbert_encode(img), [a, b, c, d])


def test_hilbert_bijection_bitwise():
    img = np.random.default_rng(3).normal(size=(4, 4))
    assert np.array_equal(hilbert_decode(hilbert_encode(img)), img)


@pytest.mark.parametrize("order", range(1, 10))
def test_hilbert_map_equals_the_per_rank_loop(order):
    forward, inverse = loop_hilbert_map(order)
    m = hilbert_map(order)
    assert np.array_equal(m.forward, forward) and m.forward.dtype == forward.dtype
    assert np.array_equal(m.inverse, inverse) and m.inverse.dtype == inverse.dtype


@pytest.mark.parametrize("order", range(1, 7))
def test_hilbert_permutation_properties(order):
    m = hilbert_map(order)
    side = 1 << order
    # bijection: inverse of forward is the identity ranking
    ranks = m.inverse[m.forward[:, 0], m.forward[:, 1]]
    assert np.array_equal(ranks, np.arange(side * side))
    # adjacency: consecutive ranks are 4-neighbours
    steps = np.abs(np.diff(m.forward, axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_hilbert_padding_round_trip():
    img = np.random.default_rng(4).normal(size=(28, 28))
    vec = hilbert_encode(img)
    assert vec.size == 32 * 32
    assert np.array_equal(hilbert_decode(vec, dims=(28, 28)), img)


def test_hilbert_hrr_round_trip():
    img = np.random.default_rng(5).normal(size=(16, 16))
    s, _ = sample_secret([256], RngStream(5))
    bound = hilbert_hrr_bind(img, s)
    back = hilbert_hrr_unbind(bound, s, (16, 16))
    assert np.max(np.abs(back - img)) <= 1e-9


def test_hilbert_hrr_per_channel_independent():
    img = np.random.default_rng(6).normal(size=(16, 16, 3))
    s, _ = sample_secret([256], RngStream(6))
    bound = hilbert_hrr_bind(img, s)
    assert bound.shape == (256, 3)
    for c in range(3):
        expected = hilbert_hrr_bind(img[..., c], s)
        assert np.array_equal(bound[..., c], expected)
    back = hilbert_hrr_unbind(bound, s, (16, 16))
    assert np.max(np.abs(back - img)) <= 1e-9


def test_hilbert_hrr_bound_vector_structureless():
    ok = 0
    n = 200
    for seed in range(n):
        g = np.random.default_rng(seed)
        img = g.normal(size=(16, 16))
        s, _ = sample_secret([256], RngStream(7000 + seed))
        bound = hilbert_hrr_bind(img, s)
        ok += abs(cosine(hilbert_encode(img), bound)) < 0.15
    assert ok / n >= 0.90


def test_hilbert_hrr_length_mismatch():
    s, _ = sample_secret([64], RngStream(8))
    with pytest.raises(ShapeError):
        hilbert_hrr_bind(np.zeros((16, 16)), s)


@pytest.mark.parametrize("shape", [(16, 16), (16, 16, 3), (28, 28), (28, 28, 2), (5, 7),
                                   (5, 7, 3), (16, 16, 1)])
def test_hilbert_hrr_equals_the_per_channel_route_bitwise(shape):
    side = 1 << max(1, (max(shape[:2]) - 1).bit_length())
    for seed in range(3):
        img = np.random.default_rng(seed).normal(size=shape)
        s, _ = sample_secret([side * side], RngStream(40 + seed))
        bound = hilbert_hrr_bind(img, s)
        expected = per_channel_hilbert_bind(img, s)
        assert bound.shape == expected.shape and np.array_equal(bound, expected)
        for dims in (shape[:2], None):
            back = hilbert_hrr_unbind(bound, s, dims)
            oracle = per_channel_hilbert_unbind(expected, s, dims)
            assert back.shape == oracle.shape and np.array_equal(back, oracle)
        assert np.max(np.abs(hilbert_hrr_unbind(bound, s, shape[:2]) - img)) <= 1e-9


def test_hilbert_channels_encode_and_decode_in_one_pass():
    img = np.random.default_rng(11).normal(size=(5, 7, 3))
    vec = hilbert_encode(img)
    assert vec.shape == (64, 3)
    for c in range(3):
        assert np.array_equal(vec[:, c], hilbert_encode(img[..., c]))
    assert np.array_equal(hilbert_decode(vec, dims=(5, 7)), img)
    full = hilbert_decode(vec)  # the padding is zeros in every channel
    assert full.shape == (8, 8, 3) and not full[5:].any() and not full[:, 7:].any()


@pytest.mark.parametrize("dims", [(20, 20), (16, 17), (0, 4), (16, 16, 3)])
def test_hilbert_decode_refuses_crop_dims_outside_the_grid(dims):
    vec = hilbert_encode(np.ones((16, 16)))
    with pytest.raises(ShapeError, match="crop dims"):
        hilbert_decode(vec, dims=dims)


def test_hilbert_unbind_keeps_the_near_singular_refusal():
    key = np.zeros(256)
    key[0], key[1] = 1.0, 1.0  # the spectrum 1 + e^{-i w} vanishes at w = pi
    bound = hilbert_hrr_bind(np.ones((16, 16, 2)), key)
    with pytest.raises(NearSingularInverseError):
        hilbert_hrr_unbind(bound, key, (16, 16))


# ------------------------------------------------------------------ operators

@pytest.mark.parametrize("seed, side", [(seed, 16) for seed in range(20)]
                         + [(2, 4), (2, 8), (2, 32)])
def test_ablation_rows_equal_the_five_way_dispatch(monkeypatch, seed, side):
    monkeypatch.setattr(altbind, "ABLATION_SIDE", side)
    assert ablation_rows(seed) == five_way_ablation_rows(seed, side)


@pytest.mark.parametrize("op", OPERATORS)
def test_operator_round_trip_keeps_the_input_shape(op):
    img = np.random.default_rng(12).normal(size=(16, 16))
    key, rng = operator_secret(op, img.shape, RngStream(12))
    assert rng != RngStream(12)
    bound = operator_apply(op, img, key)
    back = operator_apply(op, bound, key, undo=True, dims=img.shape)
    assert back.shape == img.shape
    assert cosine(back, img) >= (0.3 if op == "vtb" else 1 - 1e-12)


def test_operator_secret_key_shapes():
    rng = RngStream(13)
    assert operator_secret("hrr2d", (16, 16, 1), rng)[0].shape == (16, 16, 1)
    assert operator_secret("hrr1d", (16, 16, 1), rng)[0].shape == (256,)
    assert operator_secret("vtb", (16, 16), rng)[0].shape == (256,)
    assert operator_secret("ivtb", (16, 16), rng)[0].shape == (256,)
    assert operator_secret("hilbert", (5, 7, 3), rng)[0].shape == (64,)


def test_unknown_operator_is_refused():
    with pytest.raises(ParameterError):
        operator_secret("hrr3d", (4, 4), RngStream(0))
    with pytest.raises(ParameterError):
        operator_apply("hrr3d", np.ones((4, 4)), np.ones((4, 4)))
