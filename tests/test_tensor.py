import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobind.errors import FormatError, ParameterError
from holobind.tensor import (
    RngStream,
    container_size,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)
from holobind.vsa import from_spectrum, spectrum

from oracles import direct_dft2, direct_idft2


def test_fft2_unit_impulse_is_all_ones():
    t = np.zeros((4, 4))
    t[0, 0] = 1.0
    assert np.allclose(spectrum(t), np.ones((4, 4)), atol=1e-12)


def test_fft2_constant_is_dc_only():
    c = 2.5
    spec = spectrum(np.full((4, 4), c))
    assert spec[0, 0] == pytest.approx(16 * c)
    spec[0, 0] = 0
    assert np.max(np.abs(spec)) < 1e-10


def test_fft2_parseval():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(8, 8))
    spec = spectrum(t)
    lhs = np.sum(t ** 2)
    rhs = np.sum(np.abs(spec) ** 2) / 64
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (4, 4), (8, 8), (7, 8)])
def test_fft2_matches_direct_dft_oracle(dims):
    rng = np.random.default_rng(hash(dims) % 2**32)
    t = rng.normal(size=dims)
    expected = direct_dft2(t)
    assert np.max(np.abs(spectrum(t) - expected)) <= 1e-9


def test_ifft2_all_ones_is_impulse():
    out = from_spectrum(np.ones((4, 4), dtype=complex))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(out, expected, atol=1e-12)


def test_ifft2_hand_built_symmetric_spectrum():
    spec = np.array([[4.0 + 0j, 0j], [0j, 0j]])
    assert np.allclose(from_spectrum(spec), np.ones((2, 2)), atol=1e-12)
    assert np.allclose(from_spectrum(spec), direct_idft2(spec).real, atol=1e-12)


@pytest.mark.parametrize("dims", [(8, 8), (28, 28), (33, 17), (64, 64)])
def test_round_trip(dims):
    rng = np.random.default_rng(11)
    t = rng.normal(size=dims)
    assert np.max(np.abs(from_spectrum(spectrum(t)) - t)) <= 1e-10


@given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(h, w, seed):
    t = np.random.default_rng(seed).normal(size=(h, w))
    assert np.max(np.abs(from_spectrum(spectrum(t)) - t)) <= 1e-10


def test_gaussian_tensor_deterministic():
    a, _ = RngStream(7).normal([4], 1.0)
    b, _ = RngStream(7).normal([4], 1.0)
    assert np.array_equal(a, b)


def test_gaussian_tensor_rejects_nonpositive_variance():
    with pytest.raises(ParameterError):
        RngStream(1).normal([2, 2], 0.0)
    with pytest.raises(ParameterError):
        RngStream(1).normal([2, 2], -1.0)


def test_gaussian_tensor_moment_intervals():
    # Monte-Carlo gate: the stated mean/variance windows must hold for at
    # least 99% of seeds.
    d = 1024
    hits = 0
    n_seeds = 1000
    for seed in range(n_seeds):
        t, _ = RngStream(seed).normal([d], 1.0 / d)
        ok_mean = -0.01 < t.mean() < 0.01
        ok_var = 0.8 / d < t.var(ddof=1) < 1.2 / d
        hits += ok_mean and ok_var
    assert hits / n_seeds >= 0.99


def test_rng_stream_successor_differs():
    rng = RngStream(5)
    a, nxt = rng.normal([8])
    b, _ = nxt.normal([8])
    assert not np.array_equal(a, b)
    # replaying the original stream reproduces the first draw bitwise
    c, _ = RngStream(5).normal([8])
    assert np.array_equal(a, c)


def test_container_zero_tensor_size():
    t = np.zeros((2, 3))
    data = tensor_to_bytes(t, "f64")
    assert len(data) == 4 + 1 + 1 + 8 + 48
    assert np.array_equal(tensor_from_bytes(data), t)


def test_container_bitwise_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.normal(size=(16, 16, 1))
    path = tmp_path / "t.hbt"
    write_tensor(t, path)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, t)


def test_container_f32_round_trip():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64)
    back = tensor_from_bytes(tensor_to_bytes(t, "f32"))
    assert np.array_equal(back, t)


def test_container_size_matches_encoding():
    t = np.zeros((16, 16, 1))
    assert container_size((16, 16, 1), "f32") == len(tensor_to_bytes(t, "f32"))
    assert container_size((16, 16, 1), "f32") == 4 + 1 + 1 + 12 + 1024


def test_container_truncation_reports_lengths():
    data = tensor_to_bytes(np.ones((2, 2)))
    with pytest.raises(FormatError) as err:
        tensor_from_bytes(data[:-1])
    msg = str(err.value)
    assert str(len(data)) in msg and str(len(data) - 1) in msg


def test_container_bad_magic():
    data = b"XXXX" + tensor_to_bytes(np.ones(2))[4:]
    with pytest.raises(FormatError) as err:
        tensor_from_bytes(data)
    assert err.value.offset == 0


def test_container_unknown_dtype_code():
    data = bytearray(tensor_to_bytes(np.ones(2)))
    data[4] = 9
    with pytest.raises(FormatError) as err:
        tensor_from_bytes(bytes(data))
    assert err.value.offset == 4


def test_container_rejects_nonfinite():
    with pytest.raises(ParameterError):
        tensor_to_bytes(np.array([1.0, np.inf]))


@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(["f32", "f64"]))
@settings(max_examples=25, deadline=None)
def test_container_round_trip_property(h, w, dtype):
    t = np.random.default_rng(h * 7 + w).normal(size=(h, w))
    if dtype == "f32":
        t = t.astype(np.float32).astype(np.float64)
    assert np.array_equal(tensor_from_bytes(tensor_to_bytes(t, dtype)), t)
