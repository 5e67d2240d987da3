import struct
import sys
import threading

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


def _philox(seed, counter):
    """A generator built afresh for (seed, counter), the stream's definition."""
    u64 = 2 ** 64 - 1
    return np.random.Generator(np.random.Philox(key=(seed & u64) + ((counter & u64) << 64)))


_DRAWS = {  # name: (draw from a stream, the same draw from a Generator)
    "normal": (lambda s: s.normal((5, 3), 2.0), lambda g: g.normal(0.0, np.sqrt(2.0), (5, 3))),
    "uniform": (lambda s: s.uniform([7]), lambda g: g.uniform(0.0, 1.0, (7,))),
    "integers_u32": (lambda s: s.integers(0, 7, 9), lambda g: g.integers(0, 7, 9)),
    "integers_u64": (lambda s: s.integers(1, 2 ** 40, 5), lambda g: g.integers(1, 2 ** 40, 5)),
    "permutation": (lambda s: s.permutation(20), lambda g: g.permutation(20)),
}


@pytest.mark.parametrize("counter", [0, (9 << 32) + 1, 2 ** 64 - 1])
@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5, -3])
def test_rng_stream_draws_equal_a_freshly_built_philox(seed, counter):
    for name, (draw, reference) in _DRAWS.items():
        # odd-sized draws leave the thread's generator part-way through its
        # 64-bit buffer and holding a spare 32-bit half
        RngStream(1, 2).normal([3])
        RngStream(1, 3).integers(0, 5, 3)
        arr, successor = draw(RngStream(seed, counter))
        assert np.array_equal(arr, reference(_philox(seed, counter))), name
        assert successor == RngStream(seed, counter + 1)


def test_rng_streams_in_concurrent_threads_match_sequential_draws():
    def draws(seed):
        out, rng = [], RngStream(seed)
        for _ in range(2000):
            a, rng = rng.normal([17])
            b, rng = rng.integers(0, 5, 3)
            out += [a, b]
        return out

    expected = [draws(seed) for seed in (1, 2)]
    results = [None, None]
    barrier = threading.Barrier(2, timeout=10.0)

    def run(i):
        barrier.wait()
        results[i] = draws(i + 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between draws, not once per run
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


def test_container_size_past_int64_is_exact():
    dims = (2 ** 21, 2 ** 21, 2 ** 21)  # 2**63 values, past int64's range
    assert container_size(dims, "f64") == 4 + 1 + 1 + 12 + 8 * 2 ** 63
    assert container_size(np.array(dims), "f32") == 4 + 1 + 1 + 12 + 4 * 2 ** 63


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


@pytest.mark.parametrize("fault, data, offset", [
    ("truncated header", b"HBT1\x02", 5),
    ("truncated extents", b"HBT1\x02\x03" + struct.pack("<I", 2), 10),
    ("zero extent", b"HBT1\x02\x02" + struct.pack("<2I", 2, 0), 6),
    # more extents than a numpy array can have, each 1, with its one value
    ("65 dims", b"HBT1\x02\x41" + struct.pack("<65I", *[1] * 65) + struct.pack("<d", 1.0), 5),
])
def test_container_reader_fault_offsets(fault, data, offset):
    with pytest.raises(FormatError) as err:
        tensor_from_bytes(data)
    assert err.value.offset == offset, fault


def test_container_writer_refuses_an_unknown_dtype():
    with pytest.raises(ParameterError, match="unknown dtype"):
        tensor_to_bytes(np.ones(2), "f16")
    with pytest.raises(ParameterError, match="unknown dtype"):
        container_size((2,), "f16")


def test_container_rejects_nonfinite():
    with pytest.raises(ParameterError):
        tensor_to_bytes(np.array([1.0, np.inf]))


def test_container_refuses_a_value_beyond_the_f32_range():
    t = np.array([1.0, 1e39])  # finite in f64, inf once cast to f32
    assert np.array_equal(tensor_from_bytes(tensor_to_bytes(t, "f64")), t)
    with pytest.raises(ParameterError, match="non-finite"):
        tensor_to_bytes(t, "f32")


@pytest.mark.parametrize("dtype, itemsize", [("f32", 4), ("f64", 8)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_container_reader_refuses_nonfinite_at_its_offset(dtype, itemsize, value):
    data = bytearray(tensor_to_bytes(np.zeros((2, 3)), dtype))
    header = 6 + 4 * 2
    data[header + 4 * itemsize:header + 5 * itemsize] = \
        np.array([value], dtype=f"<f{itemsize}").tobytes()
    with pytest.raises(FormatError, match="non-finite") as err:
        tensor_from_bytes(bytes(data))
    assert err.value.offset == header + 4 * itemsize


@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(["f32", "f64"]))
@settings(max_examples=25, deadline=None)
def test_container_round_trip_property(h, w, dtype):
    t = np.random.default_rng(h * 7 + w).normal(size=(h, w))
    if dtype == "f32":
        t = t.astype(np.float32).astype(np.float64)
    assert np.array_equal(tensor_from_bytes(tensor_to_bytes(t, dtype)), t)
