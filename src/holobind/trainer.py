"""Toy-scale adversarially regularized training of the three-network stack.

Per example the loop samples a fresh projected secret, binds the input,
runs the backbone, then feeds the unbound output to the prediction head and
the raw output (through gradient reversal) to the adversarial head. The
loss is the sum of both cross-entropies, averaged over the mini-batch. Each
head descends its own cross-entropy; the backbone descends CE_P minus
``REVERSAL_WEIGHT`` times CE_A (the reversal layer's lambda in Ganin &
Lempitsky, ICML 2015).
The backbone is a BackboneSpec built from the model's kernels, whose layers
carry their own backward passes; the heads' backpropagation is handwritten.
Binding and unbinding are constant linear maps per example, so their
backward rule is the circulant transpose (circular correlation with the
same filter).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .backbone import (
    LEAKY_ALPHA,
    BackboneSpec,
    CircConv2d,
    conv_chain,
    leaky_relu_backward,
    leaky_relu_forward,
)
from .backbone import circconv_backward, circconv_forward  # unused here; perfbench wraps them
from .errors import FormatError, ParameterError, TrainingDivergedError
from .tensor import RngStream, tensor_from_bytes, tensor_to_bytes
from .vsa import (batch_bind, batch_unbind, batch_unbind_transpose, from_spectrum, spectrum,
                  unit_spectrum)

MODEL_MAGIC = b"HBTM"
MODEL_VERSION = 1

# With the full reversed gradient the backbone raises the adversary's loss
# by inflating its output norm (and so the prediction head's input), which
# destabilizes training; this weight damps that push. The adversary head
# itself always trains on its full loss.
REVERSAL_WEIGHT = 0.3

LINEAR_ITERS = 600  # full-batch Adam steps of the linear-adversary demo
LINEAR_LR = 0.1  # Adam step size of the linear-adversary demo
LINEAR_L2 = 0.1  # L2 weight of the linear-adversary demo


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


_CONV_NAMES = ("conv1", "conv2", "conv3")
_PARAM_NAMES = _CONV_NAMES + (
    "p_w1", "p_b1", "p_w2", "p_b2",
    "a_w1", "a_b1", "a_w2", "a_b2",
)
_HIDDEN = 64


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

    @property
    def backbone(self) -> BackboneSpec:
        """The backbone as a spec over the current conv kernels."""
        return conv_chain(self.input_dims, [CircConv2d(self.params[n]) for n in _CONV_NAMES])


def _param_shapes(n_classes: int, dims) -> dict:
    """The shape of every parameter, in ``_PARAM_NAMES`` order."""
    h, w, d = dims
    shapes = {"conv1": (3, 3, d, 16), "conv2": (3, 3, 16, 16), "conv3": (3, 3, 16, d)}
    for prefix in ("p", "a"):
        shapes.update({f"{prefix}_w1": (_HIDDEN, h * w * d), f"{prefix}_b1": (_HIDDEN,),
                       f"{prefix}_w2": (n_classes, _HIDDEN), f"{prefix}_b2": (n_classes,)})
    return shapes


def init_toy_model(seed: int, n_classes: int = 4, dims=(16, 16, 1)) -> ToyModel:
    """Fan-in scaled Gaussian weights, drawn in ``_PARAM_NAMES`` order, zero biases."""
    rng = RngStream(seed)
    params = {}
    for name, shape in _param_shapes(n_classes, dims).items():
        if name.endswith(("_b1", "_b2")):
            params[name] = np.zeros(shape)
            continue
        fan_in = 9 * shape[2] if name in _CONV_NAMES else shape[1]
        gain = 0.75 if name.endswith("_w1") else 1.0  # from the committed calibration run
        params[name], rng = rng.normal(shape, gain / fan_in)
    return ToyModel(params, n_classes, tuple(dims), seed)


# ------------------------------------------------------- batched binding ops

def draw_secret_spectra(batch: int, dims, rng: RngStream):  # perfbench wraps this
    """Unit-magnitude secret spectra for a batch; returns (spectra, rng)."""
    raw, rng = rng.normal((batch,) + tuple(dims), 1.0)
    return unit_spectrum(spectrum(raw, len(dims))), rng


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


def _head_forward(params, prefix, x_flat):  # perfbench wraps this
    z1 = x_flat @ params[f"{prefix}_w1"].T + params[f"{prefix}_b1"]
    a1 = leaky_relu_forward(z1, LEAKY_ALPHA)
    z2 = a1 @ params[f"{prefix}_w2"].T + params[f"{prefix}_b2"]
    return softmax(z2), (x_flat, z1, a1)


def _logit_grad(probs, labels):
    """Gradient of the mean cross-entropy w.r.t. the logits of a softmax."""
    n = probs.shape[0]
    dz = probs.copy()
    dz[np.arange(n), labels] -= 1.0
    dz /= n
    return dz


def _head_backward(params, prefix, cache, probs, labels, grads):
    """Fill ``grads`` with the head's parameter gradients; returns the input gradient."""
    x_flat, z1, a1 = cache
    dz2 = _logit_grad(probs, labels)
    grads[f"{prefix}_w2"] = dz2.T @ a1
    grads[f"{prefix}_b2"] = dz2.sum(axis=0)
    da1 = dz2 @ params[f"{prefix}_w2"]
    dz1 = leaky_relu_backward(z1, da1, LEAKY_ALPHA)
    grads[f"{prefix}_w1"] = dz1.T @ x_flat
    grads[f"{prefix}_b1"] = dz1.sum(axis=0)
    return dz1 @ params[f"{prefix}_w1"]


def forward_batch(model: ToyModel, x, secret_spectra):  # perfbench wraps this
    """Full bound-pipeline forward pass; returns (pred_probs, adv_probs, caches)."""
    params = model.params
    backbone = model.backbone
    r, tape = backbone.forward(batch_bind(x, secret_spectra), keep_inputs=True)
    u = batch_unbind(r, secret_spectra)
    n = x.shape[0]
    p_probs, p_cache = _head_forward(params, "p", u.reshape(n, -1))
    adv_in = reverse_grad(r)
    a_probs, a_cache = _head_forward(params, "a", adv_in.reshape(n, -1))
    return p_probs, a_probs, (backbone, tape, p_cache, a_cache, secret_spectra,
                              r.shape)


def backward_batch(model: ToyModel, caches, p_probs, a_probs, labels) -> dict:  # perfbench wraps this
    """Gradients of the summed-head mean cross-entropy.

    The reversed adversary gradient that reaches the backbone is scaled by
    ``REVERSAL_WEIGHT``.
    """
    params = model.params
    backbone, tape, p_cache, a_cache, secret_spectra, r_shape = caches
    grads = {}
    g_u_flat = _head_backward(params, "p", p_cache, p_probs, labels, grads)
    grad_r = batch_unbind_transpose(g_u_flat.reshape(r_shape), secret_spectra)
    g_a_flat = _head_backward(params, "a", a_cache, a_probs, labels, grads)
    grad_r += REVERSAL_WEIGHT * reverse_grad_backward(g_a_flat.reshape(r_shape))
    conv_grads = [g for g in backbone.backward(tape, grad_r) if g is not None]
    grads.update(zip(_CONV_NAMES, conv_grads))
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
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):  # perfbench wraps this
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


def evaluate(model: ToyModel, data: SynthDataset, mode: str) -> float:
    """Test accuracy under one of the audit views.

    with_secret: the full bind/backbone/unbind path with fresh secrets, drawn
    from a stream keyed by the dataset's seed.
    adversary_raw: the adversarial head reading the backbone output alone.
    plain: the prediction head on raw images (sanity baseline).
    """
    x, y = data.test_images, data.test_labels
    n = x.shape[0]
    params = model.params
    if mode in ("with_secret", "adversary_raw"):
        spectra, _ = draw_secret_spectra(n, data.dims, RngStream(data.seed, counter=3 << 32))
        r, _ = model.backbone.forward(batch_bind(x, spectra))
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

def _train_linear_softmax(x_flat, labels, n_classes):
    """Full-batch Adam on an L2-regularized multinomial logistic model."""
    params = {"w": np.zeros((n_classes, x_flat.shape[1])), "b": np.zeros(n_classes)}
    state = AdamState.zeros_like(params)
    for _ in range(LINEAR_ITERS):
        w, b = params["w"], params["b"]
        dz = _logit_grad(softmax(x_flat @ w.T + b), labels)
        grads = {"w": dz.T @ x_flat + LINEAR_L2 * w, "b": dz.sum(axis=0)}
        params, state = adam_step(params, grads, state, LINEAR_LR)
    return params["w"], params["b"]


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
    h, w, d = model.input_dims
    out = [MODEL_MAGIC, struct.pack("<HIIIIqI", MODEL_VERSION, model.n_classes, h, w, d,
                                    model.seed, len(model.params))]
    for name in _PARAM_NAMES:
        blob = tensor_to_bytes(model.params[name], "f64")
        out += [struct.pack("<BI", len(name), len(blob)), name.encode(), blob]
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def load_model(path) -> ToyModel:
    """Parse a model file; a malformed one raises FormatError at its byte offset.

    Each parameter must have the shape ``init_toy_model`` gives the header.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(data):
            raise FormatError("model file is truncated", offset=len(data))
        pos += count
        return data[pos - count:pos]

    if take(4) != MODEL_MAGIC:
        raise FormatError(f"bad model magic {data[:4]!r}", offset=0)
    version, n_classes, h, w, d, seed, count = struct.unpack("<HIIIIqI", take(30))
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}", offset=4)
    shapes, params = _param_shapes(n_classes, (h, w, d)), {}
    for _ in range(count):
        nlen, blen = struct.unpack("<BI", take(5))
        name = take(nlen).decode(errors="replace")  # an undecodable name is unknown
        if name not in shapes or name in params:
            raise FormatError(f"unknown or repeated parameter {name!r}", offset=pos - nlen)
        blob_at, blob = pos, take(blen)
        try:
            params[name] = tensor_from_bytes(blob)
        except FormatError as err:
            raise FormatError(f"bad {name} container", offset=blob_at + (err.offset or 0)) from err
        if params[name].shape != shapes[name]:
            raise FormatError(f"{name} has shape {params[name].shape}, expected "
                              f"{shapes[name]}", offset=blob_at)
    if len(params) < len(shapes):
        raise FormatError(f"model file missing {sorted(set(shapes) - set(params))}", offset=pos)
    if pos != len(data):
        raise FormatError("trailing bytes after the last parameter", offset=pos)
    return ToyModel(params, n_classes, (h, w, d), seed)


def backbone_applier(model: ToyModel) -> BackboneSpec:  # perfbench wraps this
    """The trained backbone, for serving; the spec is called on one item."""
    return model.backbone


def bound_views(dims, images: np.ndarray, rng: RngStream):
    """The bound inputs a worker would receive for a batch, and the secrets.

    Returns (bound_inputs, secrets, successor_rng) and draws from ``rng``
    exactly as ``worker_views`` does, without running the backbone; audits
    that read only the bound tensors use this.
    """
    spectra, rng = draw_secret_spectra(images.shape[0], dims, rng)
    bound = batch_bind(images, spectra)
    secrets = from_spectrum(spectra, len(dims))  # spatial tensors with these spectra
    return bound, secrets, rng


def worker_views(model: ToyModel, images: np.ndarray, rng: RngStream):  # perfbench wraps this
    """Everything the worker sees for a batch, plus the secrets used.

    Returns (bound_inputs, backbone_outputs, secrets, successor_rng); the
    secrets are the spatial tensors, handed out only so audits can build
    planted oracles and regression targets.
    """
    bound, secrets, rng = bound_views(model.input_dims, images, rng)
    r, _ = model.backbone.forward(bound)
    return bound, r, secrets, rng
