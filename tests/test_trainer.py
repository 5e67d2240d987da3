import struct

import numpy as np
import pytest

from holobind.errors import FormatError, ParameterError, TrainingDivergedError
from holobind.tensor import RngStream, tensor_to_bytes
from holobind.trainer import (
    _PARAM_NAMES,
    MODEL_MAGIC,
    REVERSAL_WEIGHT,
    AdamState,
    TrainConfig,
    adam_step,
    backbone_applier,
    backward_batch,
    bound_views,
    cross_entropy,
    draw_secret_spectra,
    evaluate,
    forward_batch,
    init_toy_model,
    linear_adversary_demo,
    load_model,
    reverse_grad,
    reverse_grad_backward,
    save_model,
    softmax,
    synth_dataset,
    train_toy_model,
    worker_views,
)
from holobind.vsa import batch_bind, batch_unbind

from oracles import (
    blocked_reference_backbone_backward,
    central_difference_at,
    copy_model,
    reference_backbone_backward,
    reference_backbone_forward,
    reference_kernel_grad_magnitudes,
)


# ------------------------------------------------------------------- dataset

def test_synth_dataset_deterministic():
    a = synth_dataset(3)
    b = synth_dataset(3)
    assert np.array_equal(a.train_images, b.train_images)
    assert np.array_equal(a.test_labels, b.test_labels)


def test_synth_dataset_balanced_and_shaped():
    data = synth_dataset(5)
    assert data.train_images.shape == (1024, 16, 16, 1)
    assert data.test_images.shape == (256, 16, 16, 1)
    for c in range(4):
        assert np.sum(data.train_labels == c) == 256
        assert np.sum(data.test_labels == c) == 64


def test_synth_dataset_noiseless_exactly_separable():
    data = synth_dataset(4, noise_sigma=0.0)
    # every image equals its class pattern exactly
    for c in range(4):
        imgs = data.train_images[data.train_labels == c]
        assert np.max(np.abs(imgs - data.patterns[c])) == 0.0
    assert linear_adversary_demo(data, 1, "unbound") == 1.0


def test_synth_dataset_linear_probe_gate():
    # committed dataset seed clears the 95% separability gate
    data = synth_dataset(2)
    assert linear_adversary_demo(data, 1, "unbound") >= 0.95


def test_synth_dataset_rejects_unbalanced_sizes():
    with pytest.raises(ParameterError):
        synth_dataset(1, n_classes=4, n_train=510)


# -------------------------------------------------------------- reverse grad

def test_reverse_grad_forward_identity():
    t = np.random.default_rng(0).normal(size=(3, 3))
    assert np.array_equal(reverse_grad(t), t)


def test_reverse_grad_backward_negates():
    g = np.random.default_rng(1).normal(size=(4,))
    assert np.array_equal(reverse_grad_backward(g), -g)


def test_reverse_grad_composite_matches_negated_direct():
    # two-parameter toy: loss through the reversal has exactly the negated
    # gradient of the direct path
    w = np.array([[1.5, -0.5], [0.25, 2.0]])
    theta = np.array([0.3, -0.7])

    def direct_grad(th):
        u = w @ th
        return 2.0 * w.T @ u

    g_direct = direct_grad(theta)
    g_reversed = reverse_grad_backward(g_direct)
    assert np.max(np.abs(g_reversed + g_direct)) <= 1e-10

    def loss(th):
        return float(np.sum((w @ th) ** 2))

    fd = central_difference_at(loss, theta, [0, 1])
    for i, val in fd.items():
        assert abs(g_reversed[i] + val) <= 1e-6 * max(1.0, abs(val))


# ---------------------------------------------------------------------- adam

def test_adam_zero_gradient_is_identity():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    state = AdamState.zeros_like(params)
    new_params, _ = adam_step(params, grads, state, lr=0.1)
    assert np.array_equal(new_params["w"], params["w"])


def test_adam_first_step_is_signed_lr():
    params = {"w": np.zeros(3)}
    grads = {"w": np.array([0.5, -2.0, 10.0])}
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, grads, state, lr=1e-3)
    assert np.allclose(new_params["w"], -1e-3 * np.sign(grads["w"]), atol=1e-8)
    assert new_state.step == 1


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    grads = {"w": np.zeros(4)}
    with pytest.raises(ParameterError):
        adam_step(params, grads, AdamState.zeros_like(params), lr=0.1)


# ------------------------------------------------------------------ training

def test_zero_epochs_returns_initialization():
    data = synth_dataset(2, n_train=64, n_test=32)
    model, metrics = train_toy_model(data, TrainConfig(epochs=0, seed=9))
    reference = init_toy_model(9, data.n_classes, data.dims)
    assert metrics == []
    for name in reference.params:
        assert np.array_equal(model.params[name], reference.params[name])


def test_training_deterministic_bitwise():
    data = synth_dataset(2, n_train=64, n_test=32)
    cfg = TrainConfig(epochs=2, seed=5)
    m1, met1 = train_toy_model(data, cfg)
    m2, met2 = train_toy_model(data, cfg)
    assert met1 == met2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_loss_decreases_over_first_epochs():
    data = synth_dataset(2)
    _, metrics = train_toy_model(data, TrainConfig(epochs=5, seed=1))
    losses = [m["train_loss"] for m in metrics]
    assert all(losses[i + 1] < losses[i] for i in range(4))


def test_nan_loss_aborts_with_diagnostics():
    data = synth_dataset(2, n_train=64, n_test=32)
    with pytest.raises(TrainingDivergedError) as err:
        with np.errstate(all="ignore"):
            train_toy_model(data, TrainConfig(epochs=3, seed=1, lr=1e200))
    assert err.value.epoch >= 0
    assert err.value.param_norm > 0


def test_gradient_reversal_path_identity():
    # joint backward equals pred-only plus adv-only path gradients; one-hot
    # labels passed as a head's probs give that head a logit gradient of
    # exactly zero, which isolates the other path
    data = synth_dataset(3, n_train=64, n_test=32)
    model = init_toy_model(4, data.n_classes, data.dims)
    x = data.train_images[:16]
    y = data.train_labels[:16]
    spectra, _ = draw_secret_spectra(16, data.dims, RngStream(11))
    p_probs, a_probs, caches = forward_batch(model, x, spectra)
    one_hot = np.eye(data.n_classes)[y]
    joint = backward_batch(model, caches, p_probs, a_probs, y)
    pred_only = backward_batch(model, caches, p_probs, one_hot, y)
    adv_only = backward_batch(model, caches, one_hot, a_probs, y)
    for name in ("a_w1", "a_b1", "a_w2", "a_b2"):
        assert not np.any(pred_only[name]), name
    for name in ("p_w1", "p_b1", "p_w2", "p_b2"):
        assert not np.any(adv_only[name]), name
    for name in joint:
        combined = pred_only[name] + adv_only[name]
        assert np.max(np.abs(joint[name] - combined)) <= 1e-10, name


def test_full_graph_gradient_matches_finite_differences():
    # End-to-end check through bind, backbone, unbind, heads and reversal.
    # Head parameters follow the true loss; backbone parameters follow the
    # reversed objective CE_P - REVERSAL_WEIGHT * CE_A, which is what the
    # weighted reversal trains.
    data = synth_dataset(5, n_train=64, n_test=32)
    model = init_toy_model(6, data.n_classes, data.dims)
    x = data.train_images[:8]
    y = data.train_labels[:8]
    spectra, _ = draw_secret_spectra(8, data.dims, RngStream(12))
    p_probs, a_probs, caches = forward_batch(model, x, spectra)
    grads = backward_batch(model, caches, p_probs, a_probs, y)

    def loss_for(name, adv_sign):
        def f(flat):
            probe = copy_model(model)
            probe.params[name] = flat.reshape(model.params[name].shape)
            pp, ap, _ = forward_batch(probe, x, spectra)
            return cross_entropy(pp, y) + adv_sign * cross_entropy(ap, y)
        return f

    rng = np.random.default_rng(13)
    for name, adv_sign in (("conv1", -REVERSAL_WEIGHT), ("conv3", -REVERSAL_WEIGHT),
                           ("p_w1", 1.0), ("a_w1", 1.0)):
        flat = model.params[name].reshape(-1)
        idx = rng.choice(flat.size, size=5, replace=False)
        # a fixed step can straddle a leaky-relu kink; accept the best of
        # three scales, which a genuine gradient bug cannot satisfy
        per_eps = [central_difference_at(loss_for(name, adv_sign), flat, idx, eps=e)
                   for e in (1e-5, 1e-6, 1e-7)]
        for i in idx:
            analytic = grads[name].reshape(-1)[i]
            err = min(abs(analytic - fd[i]) / max(1.0, abs(fd[i])) for fd in per_eps)
            assert err <= 1e-4, name


@pytest.mark.parametrize("batch", [1, 32])
def test_model_backbone_matches_reference_bitwise(batch):
    model = init_toy_model(5)
    g = np.random.default_rng(batch)
    xb = g.normal(size=(batch, 16, 16, 1))
    grad_r = g.normal(size=(batch, 16, 16, 1))
    spec = model.backbone
    out, inputs = spec.forward(xb, keep_inputs=True)
    ref, cache = reference_backbone_forward(model.params, xb)
    assert np.array_equal(out, ref)
    assert np.array_equal(spec.forward(xb)[0], ref)
    ref_one, _ = reference_backbone_forward(model.params, xb[:1])
    assert np.array_equal(backbone_applier(model)(xb[0]), ref_one[0])
    grads = [grad for grad in spec.backward(inputs, grad_r) if grad is not None]
    assert len(grads) == 3
    # backward sums each kernel gradient over blocks of FORWARD_BLOCK items,
    # so it equals the blocked reference bit for bit. The whole-batch
    # reference sums the same n products per entry in another order: each
    # side is within gamma_n of the exact sum, so they differ by at most
    # 2 gamma_n (sum of |products|), with unit roundoff u = eps / 2.
    n = batch * 16 * 16
    u = np.finfo(np.float64).eps / 2
    gamma2 = 2 * n * u / (1 - n * u)
    blocked = blocked_reference_backbone_backward(model.params, cache, grad_r)
    whole = reference_backbone_backward(model.params, cache, grad_r)
    magnitudes = reference_kernel_grad_magnitudes(model.params, cache, grad_r)
    for mine, theirs, ref, mag in zip(grads, blocked, whole, magnitudes, strict=True):
        assert np.array_equal(mine, theirs)
        assert np.all(np.abs(mine - ref) <= gamma2 * mag)


# ---------------------------------------------------------------- evaluation

def test_untrained_model_scores_near_chance():
    data = synth_dataset(2)
    model = init_toy_model(1, data.n_classes, data.dims)
    for mode in ("with_secret", "adversary_raw"):
        acc = evaluate(model, data, mode)
        assert abs(acc - 0.25) <= 0.08, mode


def test_evaluate_unknown_mode():
    data = synth_dataset(2, n_train=64, n_test=32)
    model = init_toy_model(1, data.n_classes, data.dims)
    with pytest.raises(ParameterError):
        evaluate(model, data, "telepathy")


def test_linear_demo_modes():
    data = synth_dataset(2)
    assert linear_adversary_demo(data, 1, "unbound") >= 0.95
    assert linear_adversary_demo(data, 1, "shared") >= 0.90
    assert abs(linear_adversary_demo(data, 1, "fresh") - 0.25) <= 0.05
    with pytest.raises(ParameterError):
        linear_adversary_demo(data, 1, "sideways")


# ------------------------------------------------------------------ binding

def test_batch_bind_unbind_round_trip():
    x = np.random.default_rng(14).normal(size=(6, 16, 16, 1))
    spectra, _ = draw_secret_spectra(6, (16, 16, 1), RngStream(15))
    assert np.max(np.abs(batch_unbind(batch_bind(x, spectra), spectra) - x)) <= 1e-9


def test_secret_spectra_unit_magnitude():
    spectra, _ = draw_secret_spectra(4, (8, 8, 1), RngStream(16))
    assert np.max(np.abs(np.abs(spectra) - 1.0)) <= 1e-12


def test_softmax_rows_normalized():
    z = np.random.default_rng(17).normal(size=(5, 4)) * 10
    probs = softmax(z)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs > 0)


# ----------------------------------------------------------------- model file

def test_model_save_load_round_trip(tmp_path):
    model = init_toy_model(8)
    path = tmp_path / "toy.model"
    save_model(model, path)
    back = load_model(path)
    assert back.n_classes == model.n_classes
    assert back.input_dims == model.input_dims
    assert back.seed == model.seed
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name])


def test_model_file_bad_magic(tmp_path):
    path = tmp_path / "bad.model"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_model(path)


def _model_file(model, entries=None, tail=b""):
    """Model file bytes laid out as save_model writes them, from any entries."""
    if entries is None:
        entries = [(n.encode(), tensor_to_bytes(model.params[n], "f64")) for n in _PARAM_NAMES]
    h, w, d = model.input_dims
    out = MODEL_MAGIC + struct.pack("<HIIIIqI", 1, model.n_classes, h, w, d, model.seed,
                                    len(entries))
    for raw, blob in entries:
        out += struct.pack("<BI", len(raw), len(blob)) + raw + blob
    return out + tail


def test_model_file_layout_matches_save_model(tmp_path):
    model = init_toy_model(8)
    path = tmp_path / "toy.model"
    save_model(model, path)
    assert path.read_bytes() == _model_file(model)


def test_truncated_model_file_is_format_error(tmp_path):
    data = _model_file(init_toy_model(8))
    first_blob = 34 + 5 + len(b"conv1")  # header, entry lengths, name
    (blob_len,) = struct.unpack_from("<I", data, 35)
    cuts = list(range(first_blob)) + [
        first_blob + 3, first_blob + blob_len // 2, first_blob + blob_len - 1,
        len(data) // 2, len(data) - 9, len(data) - 1]
    path = tmp_path / "cut.model"
    for cut in cuts:
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert err.value.offset is not None and 0 <= err.value.offset <= cut, cut


def _faulty_entries(model, fault):
    entries = [(n.encode(), tensor_to_bytes(model.params[n], "f64")) for n in _PARAM_NAMES]
    if fault == "undecodable_name":
        entries[0] = (b"\xff\xfe", entries[0][1])
    elif fault == "unknown_name":
        entries[0] = (b"conv9", entries[0][1])
    elif fault == "duplicate_name":
        entries.append(entries[0])
    elif fault == "missing_name":
        entries.pop()
    elif fault == "wrong_shape_p_w1":
        other = init_toy_model(8, dims=(8, 8, 1)).params["p_w1"]
        entries[_PARAM_NAMES.index("p_w1")] = (b"p_w1", tensor_to_bytes(other, "f64"))
    return entries


@pytest.mark.parametrize("fault", ["undecodable_name", "unknown_name", "duplicate_name",
                                   "missing_name", "wrong_shape_p_w1", "trailing_bytes"])
def test_malformed_model_file_is_format_error(tmp_path, fault):
    model = init_toy_model(8)
    path = tmp_path / "bad.model"
    tail = b"\x00" if fault == "trailing_bytes" else b""
    path.write_bytes(_model_file(model, _faulty_entries(model, fault), tail))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert 34 <= err.value.offset <= path.stat().st_size


def test_model_file_fault_offsets(tmp_path):
    # an unsupported version is reported at the version field; a bad
    # parameter container at the fault's offset inside its blob
    model = init_toy_model(8)
    path = tmp_path / "bad.model"
    data = bytearray(_model_file(model))
    data[4:6] = struct.pack("<H", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="version 2") as err:
        load_model(path)
    assert err.value.offset == 4
    entries = [(n.encode(), tensor_to_bytes(model.params[n], "f64")) for n in _PARAM_NAMES]
    blob = bytearray(entries[1][1])
    blob[4] = 9  # an unknown dtype code, at offset 4 of conv2's container
    entries[1] = (entries[1][0], bytes(blob))
    path.write_bytes(_model_file(model, entries))
    conv2_blob = 34 + 5 + len(b"conv1") + len(entries[0][1]) + 5 + len(b"conv2")
    with pytest.raises(FormatError, match="bad conv2 container") as err:
        load_model(path)
    assert err.value.offset == conv2_blob + 4


def test_bound_views_match_worker_views():
    model = init_toy_model(3)
    images = synth_dataset(4, n_train=8, n_test=4).train_images
    bound, secrets, rng = bound_views(model.input_dims, images, RngStream(5, counter=9 << 32))
    w_bound, _, w_secrets, w_rng = worker_views(model, images, RngStream(5, counter=9 << 32))
    assert np.array_equal(bound, w_bound)
    assert np.array_equal(secrets, w_secrets)
    assert np.array_equal(rng.normal((4,))[0], w_rng.normal((4,))[0])
