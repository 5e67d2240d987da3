"""Toy-scale adversarially regularized training of the three-network stack.

Per example the loop samples a fresh projected secret, binds the input,
runs the backbone, then feeds the unbound output to the prediction head and
the raw output (through gradient reversal) to the adversarial head. The
loss is the sum of both cross-entropies, averaged over the mini-batch. Each
head descends its own cross-entropy; the backbone descends CE_P minus
``REVERSAL_WEIGHT`` times CE_A (the reversal layer's lambda in Ganin &
Lempitsky, ICML 2015).
Backpropagation is handwritten for this fixed architecture; binding and
unbinding are constant linear maps per example, so their backward rule is
the circulant transpose (circular correlation with the same filter).
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .backbone import (
    circconv_backward,
    circconv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
)
from .errors import FormatError, ParameterError, TrainingDivergedError
from .tensor import RngStream, tensor_from_bytes, tensor_to_bytes

MODEL_MAGIC = b"HBTM"
MODEL_VERSION = 1

LEAKY_ALPHA = 0.1
# With the full reversed gradient the backbone raises the adversary's loss
# by inflating its output norm (and so the prediction head's input), which
# destabilizes training; this weight damps that push. The adversary head
# itself always trains on its full loss.
REVERSAL_WEIGHT = 0.3


# ------------------------------------------------------------------- dataset

@dataclass(frozen=True)
class SynthDataset:
    """Class-balanced synthetic images: fixed unit-norm pattern per class
    plus i.i.d. Gaussian pixel noise."""

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    patterns: np.ndarray
    seed: int
    n_classes: int

    @property
    def dims(self):
        return self.train_images.shape[1:]


def synth_dataset(seed: int, n_classes: int = 4, n_train: int = 1024,
                  n_test: int = 256, noise_sigma: float = 0.3,
                  dims=(16, 16, 1)) -> SynthDataset:
    """Generate the committed toy classification task."""
    if n_train % n_classes or n_test % n_classes:
        raise ParameterError("set sizes must be divisible by the class count")
    rng = RngStream(seed)
    patterns = []
    for _ in range(n_classes):
        p, rng = rng.normal(dims, 1.0)
        patterns.append(p / np.linalg.norm(p))
    patterns = np.stack(patterns)

    def make_split(count, rng):
        labels = np.repeat(np.arange(n_classes), count // n_classes)
        noise, rng = rng.normal((count,) + tuple(dims), 1.0)
        images = patterns[labels] + noise_sigma * noise
        order, rng = rng.permutation(count)
        return images[order], labels[order], rng

    train_x, train_y, rng = make_split(n_train, rng)
    test_x, test_y, rng = make_split(n_test, rng)
    return SynthDataset(train_x, train_y, test_x, test_y, patterns, seed, n_classes)


# --------------------------------------------------------------------- model

@dataclass(frozen=True)
class TrainConfig:
    """Training recipe; the defaults train the model the acceptance suite audits."""

    epochs: int = 16
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 1
    lr_decay_epoch: int = 10
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size <= 0 or self.lr <= 0:
            raise ParameterError("epochs, batch size and learning rate must be positive")


_PARAM_NAMES = (
    "conv1", "conv2", "conv3",
    "p_w1", "p_b1", "p_w2", "p_b2",
    "a_w1", "a_b1", "a_w2", "a_b2",
)


@dataclass
class ToyModel:
    """Parameters of backbone + prediction head + adversarial head.

    The two heads share an architecture (flatten, dense to 64, leaky-relu,
    dense to n_classes, softmax) but never share parameters.
    """

    params: dict
    n_classes: int
    input_dims: tuple
    seed: int

    def copy(self) -> "ToyModel":
        return ToyModel({k: v.copy() for k, v in self.params.items()},
                        self.n_classes, self.input_dims, self.seed)


def init_toy_model(seed: int, n_classes: int = 4, dims=(16, 16, 1)) -> ToyModel:
    h, w, d = dims
    flat = h * w * d
    hidden = 64
    rng = RngStream(seed)
    params = {}

    def draw(name, shape, variance):
        nonlocal rng
        arr, rng = rng.normal(shape, variance)
        params[name] = arr

    draw("conv1", (3, 3, d, 16), 1.0 / (9 * d))
    draw("conv2", (3, 3, 16, 16), 1.0 / (9 * 16))
    draw("conv3", (3, 3, 16, d), 1.0 / (9 * 16))
    for prefix in ("p", "a"):
        # 0.75 input-layer gain from the committed calibration run
        draw(f"{prefix}_w1", (hidden, flat), 0.75 / flat)
        params[f"{prefix}_b1"] = np.zeros(hidden)
        draw(f"{prefix}_w2", (n_classes, hidden), 1.0 / hidden)
        params[f"{prefix}_b2"] = np.zeros(n_classes)
    return ToyModel(params, n_classes, tuple(dims), seed)


# ------------------------------------------------------- batched binding ops

def _bspec(t):
    return np.fft.fft2(t, axes=(1, 2))


def _breal(spec):
    return np.fft.ifft2(spec, axes=(1, 2)).real


def draw_secret_spectra(batch: int, dims, rng: RngStream):
    """Unit-magnitude secret spectra for a batch; returns (spectra, rng)."""
    raw, rng = rng.normal((batch,) + tuple(dims), 1.0)
    spec = _bspec(raw)
    mags = np.abs(spec)
    if np.min(mags) < 1e-12:  # pragma: no cover - measure-zero draw
        raise ParameterError("degenerate secret draw")
    return spec / mags, rng


def batch_bind(x, secret_spectra):
    return _breal(_bspec(x) * secret_spectra)


def batch_unbind(r, secret_spectra):
    return _breal(_bspec(r) / secret_spectra)


def batch_unbind_transpose(g, secret_spectra):
    """Adjoint of batch_unbind w.r.t. its tensor argument."""
    return _breal(_bspec(g) * np.conj(1.0 / secret_spectra))


# ------------------------------------------------------------- reverse grad

def reverse_grad(t: np.ndarray) -> np.ndarray:
    """Forward identity; its backward rule negates the gradient."""
    return t


def reverse_grad_backward(grad: np.ndarray) -> np.ndarray:
    return -grad


# ------------------------------------------------------------------ numerics

def softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    n = probs.shape[0]
    return float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))


def _head_forward(params, prefix, x_flat):
    z1 = x_flat @ params[f"{prefix}_w1"].T + params[f"{prefix}_b1"]
    a1 = leaky_relu_forward(z1, LEAKY_ALPHA)
    z2 = a1 @ params[f"{prefix}_w2"].T + params[f"{prefix}_b2"]
    return softmax(z2), (x_flat, z1, a1)


def _head_backward(params, prefix, cache, probs, labels, grads):
    x_flat, z1, a1 = cache
    n = probs.shape[0]
    dz2 = probs.copy()
    dz2[np.arange(n), labels] -= 1.0
    dz2 /= n
    grads[f"{prefix}_w2"] = dz2.T @ a1
    grads[f"{prefix}_b2"] = dz2.sum(axis=0)
    da1 = dz2 @ params[f"{prefix}_w2"]
    dz1 = leaky_relu_backward(z1, da1, LEAKY_ALPHA)
    grads[f"{prefix}_w1"] = dz1.T @ x_flat
    grads[f"{prefix}_b1"] = dz1.sum(axis=0)
    return dz1 @ params[f"{prefix}_w1"]


def _backbone_forward(params, xb):
    h1 = circconv_forward(params["conv1"], xb)
    a1 = leaky_relu_forward(h1, LEAKY_ALPHA)
    h2 = circconv_forward(params["conv2"], a1)
    a2 = leaky_relu_forward(h2, LEAKY_ALPHA)
    r = circconv_forward(params["conv3"], a2)
    return r, (xb, h1, a1, h2, a2)


def _backbone_backward(params, cache, grad_r, grads):
    xb, h1, a1, h2, a2 = cache
    gk3, ga2 = circconv_backward(params["conv3"], a2, grad_r)
    gh2 = leaky_relu_backward(h2, ga2, LEAKY_ALPHA)
    gk2, ga1 = circconv_backward(params["conv2"], a1, gh2)
    gh1 = leaky_relu_backward(h1, ga1, LEAKY_ALPHA)
    gk1, _ = circconv_backward(params["conv1"], xb, gh1)
    grads["conv1"] = gk1
    grads["conv2"] = gk2
    grads["conv3"] = gk3


def forward_batch(model: ToyModel, x, secret_spectra):
    """Full bound-pipeline forward pass; returns (pred_probs, adv_probs, caches)."""
    params = model.params
    xb = batch_bind(x, secret_spectra)
    r, bb_cache = _backbone_forward(params, xb)
    u = batch_unbind(r, secret_spectra)
    n = x.shape[0]
    p_probs, p_cache = _head_forward(params, "p", u.reshape(n, -1))
    adv_in = reverse_grad(r)
    a_probs, a_cache = _head_forward(params, "a", adv_in.reshape(n, -1))
    return p_probs, a_probs, (bb_cache, p_cache, a_cache, secret_spectra, r.shape)


def backward_batch(model: ToyModel, caches, p_probs, a_probs, labels,
                   use_pred: bool = True, use_adv: bool = True) -> dict:
    """Gradients of the summed-head mean cross-entropy.

    ``use_pred``/``use_adv`` isolate one loss path; the full gradient is
    exactly the sum of the two isolated paths (reversal included), which
    the tests exploit. The reversed adversary gradient that reaches the
    backbone is scaled by ``REVERSAL_WEIGHT``.
    """
    params = model.params
    bb_cache, p_cache, a_cache, secret_spectra, r_shape = caches
    grads = {name: np.zeros_like(params[name]) for name in _PARAM_NAMES}
    grad_r = np.zeros(r_shape)
    if use_pred:
        g_u_flat = _head_backward(params, "p", p_cache, p_probs, labels, grads)
        grad_r += batch_unbind_transpose(g_u_flat.reshape(r_shape), secret_spectra)
    if use_adv:
        g_a_flat = _head_backward(params, "a", a_cache, a_probs, labels, grads)
        grad_r += REVERSAL_WEIGHT * reverse_grad_backward(g_a_flat.reshape(r_shape))
    _backbone_backward(params, bb_cache, grad_r, grads)
    return grads


# ---------------------------------------------------------------------- adam

@dataclass(frozen=True)
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dict) -> "AdamState":
        return cls(
            {k: np.zeros_like(v) for k, v in params.items()},
            {k: np.zeros_like(v) for k, v in params.items()},
            0,
        )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam update; pure, returns (params, state)."""
    t = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ParameterError(f"gradient shape mismatch for {name}")
        m = beta1 * state.m[name] + (1 - beta1) * g
        v = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(new_m, new_v, t)


def adam_state_to_bytes(state: AdamState) -> bytes:
    out = io.BytesIO()
    out.write(struct.pack("<I", state.step))
    entries = [("m." + k, v) for k, v in sorted(state.m.items())]
    entries += [("v." + k, v) for k, v in sorted(state.v.items())]
    out.write(struct.pack("<I", len(entries)))
    for name, arr in entries:
        blob = tensor_to_bytes(arr, "f64") if arr.size else b""
        raw = name.encode()
        out.write(struct.pack("<BI", len(raw), len(blob)))
        out.write(raw)
        out.write(blob)
    return out.getvalue()


def adam_state_from_bytes(data: bytes) -> AdamState:
    buf = io.BytesIO(data)
    step, count = struct.unpack("<II", buf.read(8))
    m, v = {}, {}
    for _ in range(count):
        nlen, blen = struct.unpack("<BI", buf.read(5))
        name = buf.read(nlen).decode()
        arr = tensor_from_bytes(buf.read(blen))
        (m if name.startswith("m.") else v)[name[2:]] = arr
    return AdamState(m, v, step)


# ------------------------------------------------------------------ training

def train_toy_model(data: SynthDataset, cfg: TrainConfig):
    """Run the training loop; returns (model, per-epoch metric rows)."""
    model = init_toy_model(cfg.seed, data.n_classes, data.dims)
    state = AdamState.zeros_like(model.params)
    order_rng = RngStream(cfg.seed, counter=1 << 32)
    secret_rng = RngStream(cfg.seed, counter=2 << 32)
    metrics = []
    n = data.train_images.shape[0]
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (cfg.lr_decay_factor if epoch >= cfg.lr_decay_epoch else 1.0)
        perm, order_rng = order_rng.permutation(n)
        losses, p_hits, a_hits, seen = [], 0, 0, 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            x = data.train_images[idx]
            y = data.train_labels[idx]
            spectra, secret_rng = draw_secret_spectra(len(idx), data.dims, secret_rng)
            p_probs, a_probs, caches = forward_batch(model, x, spectra)
            loss = cross_entropy(p_probs, y) + cross_entropy(a_probs, y)
            if not np.isfinite(loss):
                norm = float(np.sqrt(sum(np.sum(p * p) for p in model.params.values())))
                raise TrainingDivergedError(epoch, start // cfg.batch_size, norm)
            grads = backward_batch(model, caches, p_probs, a_probs, y)
            model.params, state = adam_step(
                model.params, grads, state, lr, cfg.beta1, cfg.beta2, cfg.eps
            )
            losses.append(loss)
            p_hits += int(np.sum(np.argmax(p_probs, axis=1) == y))
            a_hits += int(np.sum(np.argmax(a_probs, axis=1) == y))
            seen += len(idx)
        metrics.append({
            "epoch": epoch,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "pred_acc": p_hits / seen if seen else float("nan"),
            "adv_acc": a_hits / seen if seen else float("nan"),
        })
    return model, metrics


def evaluate(model: ToyModel, data: SynthDataset, mode: str,
             rng: RngStream | None = None) -> float:
    """Test accuracy under one of the audit views.

    with_secret: the full bind/backbone/unbind path with fresh secrets.
    adversary_raw: the adversarial head reading the backbone output alone.
    plain: the prediction head on raw images (sanity baseline).
    """
    x, y = data.test_images, data.test_labels
    n = x.shape[0]
    params = model.params
    if mode in ("with_secret", "adversary_raw"):
        rng = rng or RngStream(data.seed, counter=3 << 32)
        spectra, _ = draw_secret_spectra(n, data.dims, rng)
        r, _ = _backbone_forward(params, batch_bind(x, spectra))
        if mode == "with_secret":
            u = batch_unbind(r, spectra)
            probs, _ = _head_forward(params, "p", u.reshape(n, -1))
        else:
            probs, _ = _head_forward(params, "a", r.reshape(n, -1))
    elif mode == "plain":
        probs, _ = _head_forward(params, "p", x.reshape(n, -1))
    else:
        raise ParameterError(f"unknown evaluate mode {mode!r}")
    return float(np.mean(np.argmax(probs, axis=1) == y))


# ------------------------------------------------------- linear demonstration

def _train_linear_softmax(x_flat, labels, n_classes, iters=600, lr=0.1, l2=0.1):
    """Full-batch Adam on an L2-regularized multinomial logistic model."""
    n, d = x_flat.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    m_w = np.zeros_like(w); v_w = np.zeros_like(w)
    m_b = np.zeros_like(b); v_b = np.zeros_like(b)
    onehot = np.eye(n_classes)[labels]
    for t in range(1, iters + 1):
        probs = softmax(x_flat @ w.T + b)
        dz = (probs - onehot) / n
        gw = dz.T @ x_flat + l2 * w
        gb = dz.sum(axis=0)
        for g, p, m, v in ((gw, w, m_w, v_w), (gb, b, m_b, v_b)):
            m *= 0.9; m += 0.1 * g
            v *= 0.999; v += 0.001 * g * g
            p -= lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    return w, b


def linear_adversary_demo(data: SynthDataset, seed: int, mode: str = "fresh") -> float:
    """Test accuracy of a linear classifier against the binding defense.

    fresh: per-example secrets on train and test (the defended setting).
    unbound: raw images (separability gate for the task itself).
    shared: one secret reused everywhere; a single fixed circulant is an
    invertible linear map, so the linear model learns straight through it.
    """
    dims = data.dims
    rng = RngStream(seed, counter=5 << 32)
    if mode == "unbound":
        train_x, test_x = data.train_images, data.test_images
    elif mode == "fresh":
        spectra, rng = draw_secret_spectra(data.train_images.shape[0], dims, rng)
        train_x = batch_bind(data.train_images, spectra)
        spectra, rng = draw_secret_spectra(data.test_images.shape[0], dims, rng)
        test_x = batch_bind(data.test_images, spectra)
    elif mode == "shared":
        spectra, rng = draw_secret_spectra(1, dims, rng)
        train_x = batch_bind(data.train_images, spectra)
        test_x = batch_bind(data.test_images, spectra)
    else:
        raise ParameterError(f"unknown demo mode {mode!r}")
    n_tr = train_x.shape[0]
    w, b = _train_linear_softmax(train_x.reshape(n_tr, -1), data.train_labels,
                                 data.n_classes)
    n_te = test_x.shape[0]
    preds = np.argmax(test_x.reshape(n_te, -1) @ w.T + b, axis=1)
    return float(np.mean(preds == data.test_labels))


# ------------------------------------------------------------ model file I/O

def save_model(model: ToyModel, path) -> None:
    """Versioned binary model file: magic, config echo, named containers."""
    out = io.BytesIO()
    out.write(MODEL_MAGIC)
    out.write(struct.pack("<H", MODEL_VERSION))
    h, w, d = model.input_dims
    out.write(struct.pack("<IIIIq", model.n_classes, h, w, d, model.seed))
    out.write(struct.pack("<I", len(model.params)))
    for name in _PARAM_NAMES:
        blob = tensor_to_bytes(model.params[name], "f64")
        raw = name.encode()
        out.write(struct.pack("<BI", len(raw), len(blob)))
        out.write(raw)
        out.write(blob)
    with open(path, "wb") as fh:
        fh.write(out.getvalue())


def load_model(path) -> ToyModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MODEL_MAGIC:
        raise FormatError(f"bad model magic {data[:4]!r}", offset=0)
    (version,) = struct.unpack_from("<H", data, 4)
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}", offset=4)
    n_classes, h, w, d, seed = struct.unpack_from("<IIIIq", data, 6)
    (count,) = struct.unpack_from("<I", data, 30)
    pos = 34
    params = {}
    for _ in range(count):
        nlen, blen = struct.unpack_from("<BI", data, pos)
        pos += 5
        name = data[pos:pos + nlen].decode()
        pos += nlen
        params[name] = tensor_from_bytes(data[pos:pos + blen])
        pos += blen
    missing = set(_PARAM_NAMES) - set(params)
    if missing:
        raise FormatError(f"model file missing parameters {sorted(missing)}")
    return ToyModel(params, n_classes, (h, w, d), seed)


def backbone_applier(model: ToyModel):
    """Single-tensor forward of the trained backbone, for serving."""

    def applier(t: np.ndarray) -> np.ndarray:
        r, _ = _backbone_forward(model.params, t[None, ...])
        return r[0]

    return applier


def bound_views(dims, images: np.ndarray, rng: RngStream):
    """The bound inputs a worker would receive for a batch, and the secrets.

    Returns (bound_inputs, secrets, successor_rng) and draws from ``rng``
    exactly as ``worker_views`` does, without running the backbone; audits
    that read only the bound tensors use this.
    """
    spectra, rng = draw_secret_spectra(images.shape[0], dims, rng)
    bound = batch_bind(images, spectra)
    secrets = _breal(spectra)  # spatial tensor whose spectrum is `spectra`
    return bound, secrets, rng


def worker_views(model: ToyModel, images: np.ndarray, rng: RngStream):
    """Everything the worker sees for a batch, plus the secrets used.

    Returns (bound_inputs, backbone_outputs, secrets, successor_rng); the
    secrets are the spatial tensors, handed out only so audits can build
    planted oracles and regression targets.
    """
    bound, secrets, rng = bound_views(model.input_dims, images, rng)
    r, _ = _backbone_forward(model.params, bound)
    return bound, r, secrets, rng
