import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from holobind.backbone import (
    _ARITY,
    FORWARD_BLOCK,
    BackboneSpec,
    CircConv2d,
    Identity,
    circconv_backward,
    circconv_forward,
    conv_chain,
    count_flops,
    fft_flops,
    identity_spec,
    leaky_relu_backward,
    leaky_relu_forward,
    parse_spec,
    toy_fw_spec,
    transform_cost,
)
from holobind.errors import ShapeError, SpecError
from holobind.tensor import RngStream
from holobind.trainer import init_toy_model
from holobind.vsa import sample_secret

from oracles import (
    blocked_reference_backbone_backward,
    central_difference_at,
    direct_circ_crosscorr2d,
    linear_circconv_commutation_check,
    linear_circconv_spec,
    reference_backbone_backward,
    reference_backbone_forward,
    roll_circconv_backward,
    roll_circconv_forward,
)


def _delta_kernel(kh=3, kw=3):
    k = np.zeros((kh, kw, 1, 1))
    k[kh // 2, kw // 2, 0, 0] = 1.0
    return k


# Every kernel path (cin < cout, cin > cout, cin == cout) over several kernel
# shapes, unbatched and batched. The 2 x 3 and 1 x 2 images are smaller than
# the 5 x 5 kernel; on the 1 x 2 image its half-width exceeds the image, so
# the padding wraps more than once. The 2 x 3 and 4 x 2 kernels put an even
# extent on each axis, where the input gradient's flipped kernel has its
# origin on the other side of the center than the forward's.
CHANNELS = [(1, 3), (3, 1), (2, 2)]
KERNELS = [(1, 1), (2, 3), (4, 2), (3, 3), (5, 5)]
IMAGES = [(6, 5), (2, 3), (1, 2)]


def _grid(cin, cout, seed):
    g = np.random.default_rng(seed)
    for kh, kw in KERNELS:
        for image in IMAGES:
            for lead in ((), (2,)):
                x = g.normal(size=lead + image + (cin,))
                kernel = g.normal(size=(kh, kw, cin, cout))
                up = g.normal(size=lead + image + (cout,))
                yield x, kernel, up


def _oracle_forward(kernel, x):
    """Modular-index oracle summed over input channels, per batch element."""
    if x.ndim == 4:
        return np.stack([_oracle_forward(kernel, xn) for xn in x])
    cin, cout = kernel.shape[2:]
    return np.stack([
        sum(direct_circ_crosscorr2d(x[..., c], kernel[:, :, c, o]) for c in range(cin))
        for o in range(cout)
    ], axis=-1)


# ------------------------------------------------------------------- forward

def test_identity_spec_apply():
    spec = identity_spec((4, 4, 1))
    t = np.random.default_rng(0).normal(size=(4, 4, 1))
    assert np.array_equal(spec(t), t)


def test_delta_kernel_is_identity():
    t = np.random.default_rng(1).normal(size=(8, 8, 1))
    out = circconv_forward(_delta_kernel(), t)
    assert np.max(np.abs(out - t)) <= 1e-12


def test_circconv_matches_modular_index_oracle():
    for cin, cout in CHANNELS:
        for x, kernel, _ in _grid(cin, cout, seed=2):
            out = circconv_forward(kernel, x)
            assert out.shape == x.shape[:-1] + (cout,)
            assert np.max(np.abs(out - _oracle_forward(kernel, x))) <= 1e-9


@pytest.mark.parametrize("cin,cout", CHANNELS + [(1, 16), (16, 16), (16, 1)])
def test_circconv_matches_roll_reference(cin, cout):
    # The kernel paths may sum each output's n = kh * kw * cin products in
    # another order than the roll kernel's tap by tap loop (cin <= cout
    # takes them as one dot product), so each side is within gamma_n of
    # the exact sum (Higham, "Accuracy and Stability of Numerical
    # Algorithms", 3.1) and they differ by at most 2 gamma_n
    # (|kernel| * |x|). The kernel gradient runs the roll kernel's products
    # in its order. The input gradient is the forward with the flipped
    # kernel, which sums each pixel's n = kh * kw * cout products in the
    # forward path's order, so it is held to the same bound on the
    # absolute values.
    eps = np.finfo(np.float64).eps

    def gamma2(n):
        return 2 * n * eps / (1 - n * eps)

    cases = list(_grid(cin, cout, seed=12))
    g = np.random.default_rng(13)
    x = g.normal(size=(4, 16, 16, cin))  # the toy backbone's layer shapes
    cases.append((x, g.normal(size=(3, 3, cin, cout)), g.normal(size=(4, 16, 16, cout))))
    for x, kernel, up in cases:
        out = circconv_forward(kernel, x)
        expected = roll_circconv_forward(kernel, x)
        n = kernel.shape[0] * kernel.shape[1] * cin
        bound = gamma2(n) * roll_circconv_forward(np.abs(kernel), np.abs(x))
        assert np.all(np.abs(out - expected) <= bound)
        grad_k, grad_in = circconv_backward(kernel, x, up)
        want_k, want_in = roll_circconv_backward(kernel, x, up)
        assert np.array_equal(grad_k, want_k)
        n = kernel.shape[0] * kernel.shape[1] * cout
        magnitude = roll_circconv_backward(np.abs(kernel), np.abs(x), np.abs(up))[1]
        assert np.all(np.abs(grad_in - want_in) <= gamma2(n) * magnitude)


def test_circconv_multichannel_matches_per_channel_sum():
    g = np.random.default_rng(3)
    x = g.normal(size=(6, 6, 2))
    kernel = g.normal(size=(3, 3, 2, 1))
    out = circconv_forward(kernel, x)
    expected = sum(
        direct_circ_crosscorr2d(x[..., i], kernel[..., i, 0]) for i in range(2)
    )
    assert np.max(np.abs(out[..., 0] - expected)) <= 1e-9


def test_circconv_batched_matches_single():
    g = np.random.default_rng(4)
    x = g.normal(size=(5, 6, 6, 2))
    kernel = g.normal(size=(3, 3, 2, 3))
    batched = circconv_forward(kernel, x)
    for n in range(5):
        assert np.allclose(batched[n], circconv_forward(kernel, x[n]), atol=1e-12)


def test_circconv_channel_mismatch():
    with pytest.raises(ShapeError):
        circconv_forward(np.zeros((3, 3, 2, 1)), np.zeros((4, 4, 1)))


# ------------------------------------------------------------------ backward

def test_delta_kernel_backward_passes_gradient():
    g = np.random.default_rng(5)
    x = g.normal(size=(6, 6, 1))
    up = g.normal(size=(6, 6, 1))
    _, grad_in = circconv_backward(_delta_kernel(), x, up)
    assert np.max(np.abs(grad_in - up)) <= 1e-12


def test_1x1_kernel_gradient_is_input_weighted_sum():
    g = np.random.default_rng(6)
    x = g.normal(size=(5, 5, 1))
    up = g.normal(size=(5, 5, 1))
    kernel = np.full((1, 1, 1, 1), 0.7)
    grad_k, grad_in = circconv_backward(kernel, x, up)
    assert grad_k[0, 0, 0, 0] == pytest.approx(np.sum(up * x))
    assert np.allclose(grad_in, 0.7 * up, atol=1e-12)


@pytest.mark.parametrize("cin,cout", CHANNELS)
def test_circconv_backward_is_the_adjoint(cin, cout):
    # the forward map is linear in x and in the kernel, so both gradients
    # of <forward(k, x), up> must satisfy the adjoint identity exactly
    for x, kernel, up in _grid(cin, cout, seed=8):
        grad_k, grad_in = circconv_backward(kernel, x, up)
        assert grad_k.shape == kernel.shape and grad_in.shape == x.shape
        inner = np.sum(circconv_forward(kernel, x) * up)
        assert np.sum(x * grad_in) == pytest.approx(inner, abs=1e-10)
        assert np.sum(kernel * grad_k) == pytest.approx(inner, abs=1e-10)


def test_circconv_gradients_match_finite_differences():
    g = np.random.default_rng(7)
    x = g.normal(size=(6, 6, 1))
    kernel = g.normal(size=(3, 3, 1, 1))
    target = g.normal(size=(6, 6, 1))

    def loss_wrt_kernel(k):
        return float(np.sum((circconv_forward(k.reshape(3, 3, 1, 1), x) - target) ** 2))

    def loss_wrt_input(xf):
        return float(np.sum((circconv_forward(kernel, xf.reshape(6, 6, 1)) - target) ** 2))

    out = circconv_forward(kernel, x)
    up = 2.0 * (out - target)
    grad_k, grad_in = circconv_backward(kernel, x, up)

    idx = g.choice(kernel.size, size=9, replace=False)
    fd = central_difference_at(loss_wrt_kernel, kernel.reshape(-1), idx)
    for i, val in fd.items():
        assert abs(grad_k.reshape(-1)[i] - val) <= 1e-4 * max(1.0, abs(val))

    idx = g.choice(x.size, size=20, replace=False)
    fd = central_difference_at(loss_wrt_input, x.reshape(-1), idx)
    for i, val in fd.items():
        assert abs(grad_in.reshape(-1)[i] - val) <= 1e-4 * max(1.0, abs(val))


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0, 2.0, -0.3])
def test_leaky_relu_forward_is_the_three_way_select_bit_for_bit(alpha):
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 3.0, -3.0],
        np.random.default_rng(40).normal(size=4096),
    ]).reshape(2, -1, 1, 1)
    expected = np.where(x > 0, x, alpha * x)
    assert np.array_equal(leaky_relu_forward(x, alpha).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 1.0, 2.0, -0.3])
def test_leaky_relu_backward_multiplies_by_one_or_alpha_and_zeroes_nan(alpha):
    # for any x but NaN the multiplier is np.where(x > 0, 1.0, alpha) bit for
    # bit; a NaN x is neither > 0 nor <= 0 and gets multiplier 0
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, np.inf, -np.inf],
        np.random.default_rng(41).normal(size=4096),
    ]).reshape(2, -1, 1, 1)
    up = np.random.default_rng(42).normal(size=x.shape)
    expected = up * np.where(x > 0, 1.0, alpha)
    got = leaky_relu_backward(x, up, alpha)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(leaky_relu_backward(np.array([np.nan, 1.0]), np.array([2.0, 3.0]), alpha),
                          [0.0, 3.0])


def test_leaky_relu_gradients():
    g = np.random.default_rng(8)
    y = g.normal(size=(10,)) + 0.1  # keep clear of the kink
    upl = g.normal(size=(10,))
    grad = leaky_relu_backward(y, upl, 0.1)

    def loss_lrelu(v):
        return float(np.sum(leaky_relu_forward(v, 0.1) * upl))

    fd = central_difference_at(loss_lrelu, y, range(y.size))
    for i, val in fd.items():
        assert abs(grad[i] - val) <= 1e-6 * max(1.0, abs(val))


# --------------------------------------------------------------- commutation

def test_commutation_identity_spec():
    spec = identity_spec((8, 8, 1))
    x = np.random.default_rng(9).normal(size=(8, 8, 1))
    s, _ = sample_secret((8, 8, 1), RngStream(9))
    assert linear_circconv_commutation_check(spec, x, s) <= 1e-9


@pytest.mark.parametrize("side", [16, 32])
def test_commutation_linear_circconv(side):
    spec = linear_circconv_spec((side, side, 1), n_layers=2, seed=50)
    x = np.random.default_rng(side).normal(size=(side, side, 1))
    s, _ = sample_secret((side, side, 1), RngStream(side))
    assert linear_circconv_commutation_check(spec, x, s) <= 1e-8


def test_commutation_rejects_nonlinear_spec():
    spec = toy_fw_spec()
    x = np.random.default_rng(10).normal(size=(16, 16, 1))
    s, _ = sample_secret((16, 16, 1), RngStream(10))
    with pytest.raises(SpecError):
        linear_circconv_commutation_check(spec, x, s)


# ---------------------------------------------------------------------- spec

def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_toy_spec_text():
    """The spec file README shows, the fenced block that starts '# the toy backbone'."""
    return _readme().split("```\n# the toy backbone\n", 1)[1].split("```", 1)[0]


def test_readme_lists_every_layer_kind_with_its_words():
    # the spec paragraph's list, up to the example's fence, names each kind
    # parse_spec reads, with as many words after the kind as it takes
    paragraph = _readme().split("A backbone spec file", 1)[1].split("```", 1)[0]
    listed = {}
    for line in re.findall(r"^- `([^`]+)`", paragraph, flags=re.M):
        kind, *words = line.split()
        listed[kind] = len(words)
    assert listed == {kind: n for kind, n in _ARITY.items() if kind != "input"}


def test_readme_spec_parses_to_toy_fw_spec():
    # README's toy spec text materializes toy_fw_spec() bit for bit
    spec = toy_fw_spec()
    again = parse_spec(_readme_toy_spec_text())
    assert again.input_dims == spec.input_dims
    assert [type(layer) for layer in again.layers] == [type(layer) for layer in spec.layers]
    for ours, theirs in zip(spec.layers, again.layers):
        if isinstance(ours, CircConv2d):
            assert np.array_equal(ours.kernel, theirs.kernel)
        else:
            assert ours == theirs
    x = np.random.default_rng(11).normal(size=(16, 16, 1))
    assert np.array_equal(spec(x), again(x))
    assert again.shape_preserving


def test_spec_shape_chain_validated_at_load():
    bad = "input 8 8 1\ncircconv2d 3 3 4 4 7\n"
    with pytest.raises(SpecError):
        parse_spec(bad)
    with pytest.raises(SpecError):
        parse_spec("circconv2d 3 3 1 1 7\n")
    with pytest.raises(SpecError):
        parse_spec("input 8 8 1\nwarp 1 2\n")
    with pytest.raises(SpecError, match="unknown layer kind 'dense'"):
        parse_spec("input 4 4 1\ndense 10 16 3\n")
    # a field that is not a positive integer (a seed may be 0), a line with
    # too many or too few words, and a non-finite alpha
    for line in ["input 16 a 1", "input 16 16 0", "input 16 16 1 2",
                 "input 16 16 1\ncircconv2d 3 3 0 16 1", "input 16 16 1\ncircconv2d 0 3 1 1 1",
                 "input 16 16 1\ncircconv2d 3 3 1 1 -1", "input 16 16 1\ncircconv2d 3 3 1 1",
                 "input 16 16 1\ncircconv2d 3 3 1 1 1 extra",
                 "input 16 16 1\ncircconv2d 3 3 1 1 1.5", "input 16 16 1\npointwise leaky_relu",
                 "input 16 16 1\npointwise leaky_relu inf",
                 "input 16 16 1\npointwise leaky_relu nan", "input 16 16 1\nidentity 1",
                 "input 16 16 1\ninput 16 16 1"]:
        with pytest.raises(SpecError):
            parse_spec(line + "\n")
    seeded_0 = parse_spec("input 4 4 1\ncircconv2d 3 3 1 1 0\n")
    assert np.array_equal(seeded_0.layers[0].kernel, CircConv2d.from_seed(3, 3, 1, 1, 0).kernel)
    # a comment runs from its '#' to the end of the line, wherever it starts
    commented = parse_spec("# toy\ninput 4 4 1\n  # indented comment\nidentity  # trailing\n")
    assert commented.input_dims == (4, 4, 1) and commented.layers == (Identity(),)


def test_spec_apply_rejects_wrong_input_dims():
    spec = toy_fw_spec()
    with pytest.raises(ShapeError):
        spec(np.zeros((8, 8, 1)))


# Every layer kind: identity; circconv2d with Cin below, equal to and above
# Cout, and pointwise (the toy stack on two channels).
LAYER_KIND_SPECS = {
    "identity": "input 4 4 2\nidentity\n",
    "conv_pointwise": ("input 4 4 2\ncircconv2d 3 3 2 16 100\npointwise leaky_relu 0.1\n"
                       "circconv2d 3 3 16 16 101\npointwise leaky_relu 0.1\n"
                       "circconv2d 3 3 16 2 102\n"),
}


def _kind_spec(kind):
    return toy_fw_spec() if kind == "toy" else parse_spec(LAYER_KIND_SPECS[kind])


@pytest.mark.parametrize("kind", sorted(LAYER_KIND_SPECS) + ["toy"])
def test_batched_forward_matches_per_item_apply(kind):
    spec = _kind_spec(kind)
    # 37 items run as blocks of FORWARD_BLOCK, the last one partial
    assert 37 % FORWARD_BLOCK and 37 > 2 * FORWARD_BLOCK
    for n in (5, 37):
        batch = np.random.default_rng(12).normal(size=(n,) + spec.input_dims)
        out, inputs = spec.forward(batch)
        assert inputs == [] and out.shape == (n,) + spec.output_dims
        for item, row in zip(batch, out):
            assert np.array_equal(spec(item), row)
        assert np.array_equal(spec.forward(batch, keep_inputs=True)[0], out)


@pytest.mark.parametrize("kind", sorted(LAYER_KIND_SPECS) + ["toy"])
def test_forward_keeping_inputs_returns_each_full_batch_input(kind):
    spec = _kind_spec(kind)
    batch = np.random.default_rng(13).normal(size=(37,) + spec.input_dims)
    out, tape = spec.forward(batch, keep_inputs=True)
    # 37 items run as blocks of FORWARD_BLOCK, the last one partial, and
    # each block's inputs, joined over the blocks, are the full-batch ones
    assert [len(inputs[0]) for inputs in tape] == \
        [FORWARD_BLOCK] * (37 // FORWARD_BLOCK) + [37 % FORWARD_BLOCK]
    assert np.array_equal(np.concatenate([inputs[0] for inputs in tape]), batch)
    for start, inputs in zip(range(0, 37, FORWARD_BLOCK), tape):
        assert len(inputs) == len(spec.layers)
        block_out = out[start:start + FORWARD_BLOCK]
        for layer, t, t_next in zip(spec.layers, inputs, inputs[1:] + [block_out]):
            assert np.array_equal(layer.forward(t), t_next)


@pytest.mark.parametrize("kind", ["conv_pointwise", "identity", "toy"])
def test_zero_item_batch_gives_no_outputs_and_zero_kernel_gradients(kind):
    spec = _kind_spec(kind)
    batch = np.zeros((0,) + spec.input_dims)
    assert spec.forward(batch)[0].shape == (0,) + spec.output_dims
    out, tape = spec.forward(batch, keep_inputs=True)
    assert out.shape == (0,) + spec.output_dims
    grads = spec.backward(tape, np.zeros(out.shape))
    assert len(grads) == len(spec.layers)
    for layer, grad in zip(spec.layers, grads):
        if isinstance(layer, CircConv2d):
            assert grad.shape == layer.kernel.shape and not grad.any()
        else:
            assert grad is None


def test_forward_memory_stays_bounded_by_its_blocks():
    spec = toy_fw_spec()
    batch = np.random.default_rng(16).normal(size=(64,) + spec.input_dims)
    spec.forward(batch[:1])  # the tap tables are built once per shape, before the count
    tracemalloc.start()
    try:
        out, _ = spec.forward(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == batch.shape
    # a block's gathered conv2 taps are 1.2 MB; a 64-item pass at once needs 19 MB
    assert peak <= 2 * 2 ** 20


def test_backward_memory_stays_bounded_by_its_blocks():
    model = init_toy_model(5)
    spec = model.backbone
    g = np.random.default_rng(17)
    batch = g.normal(size=(64,) + spec.input_dims)
    grad_r = g.normal(size=(64,) + spec.output_dims)
    _, one = spec.forward(batch[:1], keep_inputs=True)
    spec.backward(one, grad_r[:1])  # the tap tables are built once per shape, before the count
    _, inputs = spec.forward(batch, keep_inputs=True)
    tracemalloc.start()
    try:
        grads = spec.backward(inputs, grad_r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [grad is None for grad in grads] == [False, True, False, True, False]
    # a block's gathered conv2 taps are 1.2 MB; a 64-item pass at once needs 19 MB
    assert peak <= 2 * 2 ** 20


def test_backward_sums_its_blocks_in_order():
    model = init_toy_model(5)
    g = np.random.default_rng(18)
    # 37 items run as blocks of FORWARD_BLOCK, the last one partial
    xb = g.normal(size=(37, 16, 16, 1))
    grad_r = g.normal(size=(37, 16, 16, 1))
    _, inputs = model.backbone.forward(xb, keep_inputs=True)
    grads = [grad for grad in model.backbone.backward(inputs, grad_r) if grad is not None]
    _, cache = reference_backbone_forward(model.params, xb)
    blocked = blocked_reference_backbone_backward(model.params, cache, grad_r)
    for mine, theirs in zip(grads, blocked, strict=True):
        assert np.array_equal(mine, theirs)


def test_spec_forward_rejects_wrong_item_dims():
    with pytest.raises(ShapeError):
        toy_fw_spec().forward(np.zeros((2, 8, 8, 1)))


def test_spec_backward_matches_finite_differences():
    spec = parse_spec("input 3 3 2\ncircconv2d 3 3 2 3 5\npointwise leaky_relu 0.1\n"
                      "circconv2d 3 3 3 2 6\nidentity\n")
    g = np.random.default_rng(14)
    batch = g.normal(size=(2, 3, 3, 2))
    up = g.normal(size=(2, 3, 3, 2))
    _, inputs = spec.forward(batch, keep_inputs=True)
    grads = spec.backward(inputs, up)
    assert [grad is None for grad in grads] == [False, True, False, True]
    for i, layer in enumerate(spec.layers):
        if grads[i] is None:
            continue
        weight = layer.kernel

        def loss(flat):
            layers = list(spec.layers)
            layers[i] = replace(layer, kernel=flat.reshape(weight.shape))
            out, _ = BackboneSpec(spec.input_dims, tuple(layers)).forward(batch)
            return float(np.sum(out * up))

        fd = central_difference_at(loss, weight.reshape(-1), range(0, weight.size, 5))
        for j, val in fd.items():
            assert abs(grads[i].reshape(-1)[j] - val) <= 1e-6 * max(1.0, abs(val))


class _NoInputGradConv(CircConv2d):
    def input_grad(self, t, grad_out):
        raise AssertionError("the first layer's input gradient was computed")


def test_spec_backward_never_computes_the_first_layers_input_gradient():
    params = init_toy_model(5).params
    spec = conv_chain((16, 16, 1), [_NoInputGradConv(params["conv1"]),
                                    CircConv2d(params["conv2"]), CircConv2d(params["conv3"])])
    g = np.random.default_rng(15)
    xb = g.normal(size=(4, 16, 16, 1))
    grad_r = g.normal(size=(4, 16, 16, 1))
    _, inputs = spec.forward(xb, keep_inputs=True)
    grads = [grad for grad in spec.backward(inputs, grad_r) if grad is not None]
    _, cache = reference_backbone_forward(params, xb)
    for mine, theirs in zip(grads, reference_backbone_backward(params, cache, grad_r), strict=True):
        assert np.array_equal(mine, theirs)


# --------------------------------------------------------------------- flops

def test_flops_identity_zero():
    assert count_flops(identity_spec((16, 16, 1))) == 0


def test_flops_toy_fw():
    spec = toy_fw_spec()
    expected = 256 * 9 * 1 * 16 + 256 * 9 * 16 * 16 + 256 * 9 * 16 * 1
    assert count_flops(spec) == expected


def test_count_flops_sums_each_layers_flops():
    spec = parse_spec("input 3 3 2\ncircconv2d 3 3 2 3 5\npointwise leaky_relu 0.1\n"
                      "circconv2d 3 3 3 2 6\nidentity\n")
    dims, per_layer = spec.input_dims, []
    for layer in spec.layers:
        per_layer.append(layer.flops(dims))
        dims = layer.output_dims(dims)
    assert per_layer == [9 * 9 * 2 * 3, 0, 9 * 9 * 3 * 2, 0]
    assert count_flops(spec) == sum(per_layer)


def test_transform_cost_convention():
    assert fft_flops(256) == 5 * 256 * 8
    assert transform_cost((16, 16, 1)) == 3 * fft_flops(256)
    assert transform_cost((16, 16, 3)) == 9 * fft_flops(256)
