"""Worker-side tensor-to-tensor functions and their layer primitives.

A backbone is a chain of layers with a validated shape chain; specs used in
the split-inference protocol must preserve the input shape so the client's
secret matches the output. Convolutions use circular padding throughout,
which keeps every linear backbone inside the circulant algebra that binding
relies on. Layers carry their forward and backward passes, so the toy trainer
trains the same BackboneSpec a worker serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError, ShapeError
from .tensor import RngStream
from .vsa import bind, unbind

LEAKY_ALPHA = 0.1  # negative slope of the toy backbone's and heads' leaky-relu

# Items per block of an inference forward: a block's layer outputs stay in
# cache, where a batch of hundreds spills them to memory between layers.
FORWARD_BLOCK = 16


# ------------------------------------------------------------ layer kernels

def _wrap_pad(t: np.ndarray, top: int, left: int, kh: int, kw: int) -> np.ndarray:
    """Extend ``t`` (..., H, W, C) circularly to (..., H + kh - 1, W + kw - 1, C).

    Padded pixel (r, c) holds pixel ((r - top) % H, (c - left) % W), so the
    padding wraps as often as needed when the kernel is larger than the image.
    """
    h, w = t.shape[-3], t.shape[-2]
    rows = np.arange(-top, h + kh - 1 - top) % h
    cols = np.arange(-left, w + kw - 1 - left) % w
    pixels = t.reshape(t.shape[:-3] + (h * w, t.shape[-1]))
    return pixels.take(rows[:, None] * w + cols, axis=-2)


def circconv_forward(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Circular cross-correlation with a centered kernel.

    ``kernel`` has shape (KH, KW, Cin, Cout); ``x`` is (..., H, W, Cin) with
    an optional leading batch axis. Stride 1, wrap-around padding: output
    (a, b) is the sum over taps (i, j) of
    ``x[(a + i - KH//2) % H, (b + j - KW//2) % W] @ kernel[i, j]``.

    The path follows from the channel counts alone:

    - Cin < Cout: the KH*KW taps of the wrap-padded input are gathered side
      by side once, then multiplied by the kernel as one
      (KH*KW*Cin, Cout) matrix.
    - Cin > Cout: one product with the taps stacked as a
      (Cin, KH*KW*Cout) matrix, then the per-tap outputs are shifted into
      place and summed.
    - Cin == Cout: per-tap products on slices of the wrap-padded input,
      accumulated in tap order (gathering the taps would copy the input
      KH*KW times).

    Either unequal path sums each output in another order than the tap by
    tap loop, so results can differ from it in the last bits.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape[:2]
    return _correlate(kernel, x, kh // 2, kw // 2)


def _correlate(kernel: np.ndarray, x: np.ndarray, top: int, left: int) -> np.ndarray:
    """``circconv_forward`` with the kernel's origin at tap (top, left)."""
    x = np.asarray(x, dtype=np.float64)
    kh, kw, cin, cout = kernel.shape
    if x.shape[-1] != cin:
        raise ShapeError(f"input channels {x.shape[-1]} != kernel cin {cin}")
    h, w = x.shape[-3], x.shape[-2]
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    if cin > cout:
        out = np.zeros(x.shape[:-1] + (cout,))
        stacked = kernel.transpose(2, 0, 1, 3).reshape(cin, kh * kw * cout)
        per_tap = _wrap_pad(x @ stacked, top, left, kh, kw)
        for t, (i, j) in enumerate(taps):
            out += per_tap[..., i:i + h, j:j + w, t * cout:(t + 1) * cout]
        return out
    padded = _wrap_pad(x, top, left, kh, kw)
    if cin < cout:
        gathered = np.concatenate(
            [padded[..., i:i + h, j:j + w, :] for i, j in taps], axis=-1)
        return gathered @ kernel.reshape(kh * kw * cin, cout)
    out = np.zeros(x.shape[:-1] + (cout,))
    product = np.empty_like(out)
    for i, j in taps:
        np.matmul(padded[..., i:i + h, j:j + w, :], kernel[i, j], out=product)
        out += product
    return out


def circconv_backward(kernel: np.ndarray, x: np.ndarray, grad_out: np.ndarray):
    """Gradients of circconv_forward w.r.t. kernel and input.

    Returns (grad_kernel, grad_input); shapes mirror the forward arguments.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    return _circconv_kernel_grad(kernel, x, grad_out), _circconv_input_grad(kernel, grad_out)


def _circconv_kernel_grad(kernel: np.ndarray, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Per tap, the wrap-shifted input's channels against ``grad_out``'s."""
    x = np.asarray(x, dtype=np.float64)
    kh, kw, cin, cout = kernel.shape
    h, w = x.shape[-3], x.shape[-2]
    x_pad = _wrap_pad(x, kh // 2, kw // 2, kh, kw)
    g_flat = grad_out.reshape(-1, cout)
    grad_kernel = np.zeros_like(kernel)
    for i in range(kh):
        for j in range(kw):
            x_tap = x_pad[..., i:i + h, j:j + w, :]
            grad_kernel[i, j] = x_tap.reshape(-1, cin).T @ g_flat
    return grad_kernel


def _circconv_input_grad(kernel: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """The transposed convolution: ``grad_out`` correlated with the flipped kernel.

    Input pixel p receives ``grad_out[p - i + KH//2] @ kernel[i].T`` from
    tap i (one axis shown), which is tap KH-1-i of a correlation whose
    origin sits at KH-1-KH//2; that origin keeps even-sized kernels right.
    The flipped kernel is copied, because its strided view slows the
    Cin == Cout path's per-tap products. Each pixel's sum runs in the
    forward path's order, not tap by tap.
    """
    kh, kw = kernel.shape[:2]
    flipped = np.ascontiguousarray(kernel[::-1, ::-1].transpose(0, 1, 3, 2))
    return _correlate(flipped, grad_out, kh - 1 - kh // 2, kw - 1 - kw // 2)


def leaky_relu_forward(x: np.ndarray, alpha: float) -> np.ndarray:
    if 0.0 < alpha <= 1.0:
        # x where x > 0 and alpha * x elsewhere, bit for bit; a three-way
        # np.where branches per element and costs about 10x more at batch 8
        return np.maximum(x, alpha * x)
    return np.where(x > 0, x, alpha * x)


def leaky_relu_backward(x: np.ndarray, grad_out: np.ndarray, alpha: float) -> np.ndarray:
    """``grad_out`` times 1 where x > 0 and alpha where x <= 0.

    The mask sum gives the multipliers of ``np.where(x > 0, 1.0, alpha)`` bit
    for bit on any x but NaN, without a per-element select. A NaN in x is
    neither > 0 nor <= 0, so its multiplier is 0. Training never reaches that
    case: ``train_toy_model`` raises ``TrainingDivergedError`` on a non-finite
    loss before any backward runs.
    """
    return grad_out * ((x > 0) + alpha * (x <= 0))


def dense_forward(weight: np.ndarray, x_flat: np.ndarray) -> np.ndarray:
    """Affine-free dense map on flattened input: out = x @ weight.T."""
    return x_flat @ weight.T


# ------------------------------------------------------------------- layers
#
# Every layer method takes a batch: a leading batch axis in front of the
# item dims. ``param_grad(t, grad_out)`` and ``input_grad(t, grad_out)`` get
# the layer's forward input and return its parameter gradient (None where it
# has none) and its input gradient; they are separate so that the first
# layer's input gradient, which nothing uses, is never computed.

@dataclass(frozen=True)
class Identity:
    def output_dims(self, dims):
        return dims

    def forward(self, t):
        return t

    def param_grad(self, t, grad_out):
        return None

    def input_grad(self, t, grad_out):
        return grad_out


@dataclass(frozen=True)
class CircConv2d:
    kernel: np.ndarray
    seed: int | None = None  # None for a trained kernel

    @classmethod
    def from_seed(cls, kh, kw, cin, cout, seed):
        """Materialize a fan-in-scaled Gaussian kernel from its seed."""
        kernel = RngStream(seed).normal([kh, kw, cin, cout], 1.0 / (kh * kw * cin))[0]
        return cls(kernel, seed)

    def output_dims(self, dims):
        if len(dims) != 3:
            raise SpecError(f"circconv2d needs H x W x D input, got {dims}")
        kh, kw, cin, cout = self.kernel.shape
        if dims[2] != cin:
            raise SpecError(f"circconv2d cin {cin} does not chain from input depth {dims[2]}")
        return (dims[0], dims[1], cout)

    def forward(self, t):
        return circconv_forward(self.kernel, t)

    def param_grad(self, t, grad_out):
        return _circconv_kernel_grad(self.kernel, t, grad_out)

    def input_grad(self, t, grad_out):
        return _circconv_input_grad(self.kernel, grad_out)


@dataclass(frozen=True)
class Pointwise:
    alpha: float

    def output_dims(self, dims):
        return dims

    def forward(self, t):
        return leaky_relu_forward(t, self.alpha)

    def param_grad(self, t, grad_out):
        return None

    def input_grad(self, t, grad_out):
        return leaky_relu_backward(t, grad_out, self.alpha)


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray
    seed: int | None = None  # None for a trained weight

    @classmethod
    def from_seed(cls, rows, cols, seed):
        weight = RngStream(seed).normal([rows, cols], 1.0 / cols)[0]
        return cls(weight, seed)

    def output_dims(self, dims):
        size = int(np.prod(dims))
        rows, cols = self.weight.shape
        if size != cols:
            raise SpecError(f"dense cols {cols} does not chain from input size {size}")
        return (rows,)

    def forward(self, t):
        # one product per item, so an item's output does not depend on its batch
        return dense_forward(self.weight, t.reshape(len(t), 1, -1))[:, 0]

    def param_grad(self, t, grad_out):
        return grad_out.T @ t.reshape(len(t), -1)

    def input_grad(self, t, grad_out):
        return (grad_out @ self.weight).reshape(t.shape)


@dataclass(frozen=True)
class BackboneSpec:
    """Validated layer chain; immutable and safe to share across threads."""

    input_dims: tuple
    layers: tuple
    output_dims: tuple = field(init=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.input_dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise SpecError(f"input dims must be three positive extents, got {dims}")
        object.__setattr__(self, "input_dims", dims)
        for layer in self.layers:
            dims = layer.output_dims(dims)
        object.__setattr__(self, "output_dims", tuple(dims))

    @property
    def shape_preserving(self) -> bool:
        return self.output_dims == self.input_dims

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Forward of one item whose shape must be exactly ``input_dims``."""
        t = np.asarray(t, dtype=np.float64)
        if t.shape != self.input_dims:
            raise ShapeError(f"input dims {t.shape} != spec input {self.input_dims}")
        out, _ = self.forward(t[None])
        return out[0]

    def forward(self, batch: np.ndarray, keep_inputs: bool = False):
        """Forward of a batch of items; returns (outputs, layer inputs).

        The layer inputs, which ``backward`` needs, are kept only when
        ``keep_inputs`` is set. Otherwise no inputs are returned, and the
        layers run over blocks of FORWARD_BLOCK items; every layer treats
        items independently, so the outputs are those of one full pass.
        """
        t = np.asarray(batch, dtype=np.float64)
        if t.shape[1:] != self.input_dims:
            raise ShapeError(f"batch item dims {t.shape[1:]} != spec input {self.input_dims}")
        if not keep_inputs and len(t) > FORWARD_BLOCK:
            return np.concatenate([self.forward(t[i:i + FORWARD_BLOCK])[0]
                                   for i in range(0, len(t), FORWARD_BLOCK)]), []
        inputs = []
        for layer in self.layers:
            if keep_inputs:
                inputs.append(t)
            t = layer.forward(t)
        return t, inputs

    def backward(self, inputs, grad_out: np.ndarray) -> list:
        """Each layer's parameter gradient (None where it has none).

        ``inputs`` are the layer inputs from ``forward(..., keep_inputs=True)``
        and ``grad_out`` is the gradient of the loss w.r.t. its outputs. The
        gradient w.r.t. the batch itself is not computed.
        """
        grads = []
        for k in reversed(range(len(self.layers))):
            layer, t = self.layers[k], inputs[k]
            grads.insert(0, layer.param_grad(t, grad_out))
            if k:
                grad_out = layer.input_grad(t, grad_out)
        return grads


# -------------------------------------------------------------- text format

# values after the kind word on each line
_ARITY = {"input": 3, "identity": 0, "circconv2d": 5, "pointwise": 2, "dense": 3}


def _integer(word: str, least: int = 1) -> int:
    value = int(word)
    if value < least:
        raise ValueError(f"{word} is below {least}")
    return value


def parse_spec(text: str) -> BackboneSpec:
    """Parse the line-oriented spec format.

    First non-empty line: ``input H W D``; then one layer per line:
    ``circconv2d kh kw cin cout seed`` | ``pointwise leaky_relu alpha`` |
    ``dense rows cols seed`` | ``identity``. Extents are positive integers,
    seeds non-negative ones and alpha is finite; any other line is a
    SpecError. A ``#`` starts a comment that runs to the end of its line,
    and blank lines are skipped. Weights come deterministically from the
    per-layer seeds. Shape errors surface here, not at call time.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split()[0] != "input":
        raise SpecError("spec must start with an 'input H W D' line")
    input_dims, layers = None, []
    for ln in lines:
        kind, *args = ln.split()
        if kind not in _ARITY or (kind == "input") != (input_dims is None):
            raise SpecError(f"unknown layer kind {kind!r}")
        try:
            if len(args) != _ARITY[kind]:
                raise ValueError(f"{kind} takes {_ARITY[kind]} values, got {len(args)}")
            if kind == "input":
                input_dims = tuple(_integer(v) for v in args)
            elif kind == "identity":
                layers.append(Identity())
            elif kind == "pointwise":
                if args[0] != "leaky_relu":
                    raise SpecError(f"unknown pointwise op {args[0]!r}")
                alpha = float(args[1])
                if not np.isfinite(alpha):
                    raise ValueError(f"alpha {args[1]} is not finite")
                layers.append(Pointwise(alpha))
            else:  # the extents, then the seed
                layer = CircConv2d if kind == "circconv2d" else DenseLayer
                extents = (_integer(v) for v in args[:-1])
                layers.append(layer.from_seed(*extents, _integer(args[-1], 0)))
        except ValueError as err:
            raise SpecError(f"bad line {ln!r}: {err}") from err
    return BackboneSpec(input_dims, tuple(layers))


def serialize_spec(spec: BackboneSpec) -> str:
    """Text form of a seeded spec; a trained layer has no seed and is refused."""
    lines = ["input {} {} {}".format(*spec.input_dims)]
    for layer in spec.layers:
        if getattr(layer, "seed", 0) is None:
            raise SpecError(f"{type(layer).__name__} holds trained weights with no seed")
        if isinstance(layer, Identity):
            lines.append("identity")
        elif isinstance(layer, CircConv2d):
            kh, kw, cin, cout = layer.kernel.shape
            lines.append(f"circconv2d {kh} {kw} {cin} {cout} {layer.seed}")
        elif isinstance(layer, Pointwise):
            lines.append(f"pointwise leaky_relu {layer.alpha}")
        elif isinstance(layer, DenseLayer):
            rows, cols = layer.weight.shape
            lines.append(f"dense {rows} {cols} {layer.seed}")
        else:
            raise SpecError(f"unknown layer type {type(layer).__name__}")
    return "\n".join(lines) + "\n"


def load_spec(path) -> BackboneSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def identity_spec(dims) -> BackboneSpec:
    return BackboneSpec(tuple(dims), (Identity(),))


def conv_chain(dims, convs) -> BackboneSpec:
    """CircConv2d layers with a leaky-relu (LEAKY_ALPHA) between each two."""
    layers = [convs[0]]
    for conv in convs[1:]:
        layers += [Pointwise(LEAKY_ALPHA), conv]
    return BackboneSpec(tuple(dims), tuple(layers))


def toy_fw_spec(dims=(16, 16, 1), seed: int = 100) -> BackboneSpec:
    """Reference nonlinear stack: the toy trainer's architecture with seeded kernels."""
    d = dims[2]
    channels = ((d, 16), (16, 16), (16, d))
    return conv_chain(dims, [CircConv2d.from_seed(3, 3, cin, cout, seed + i)
                             for i, (cin, cout) in enumerate(channels)])


def linear_circconv_spec(dims, n_layers: int = 1, seed: int = 200) -> BackboneSpec:
    """Purely linear single-channel circconv chain (commutes with binding)."""
    layers = tuple(
        CircConv2d.from_seed(3, 3, 1, 1, seed + i) for i in range(n_layers)
    )
    return BackboneSpec(tuple(dims), layers)


# ---------------------------------------------------------------- contracts

def linear_circconv_commutation_check(spec: BackboneSpec, x: np.ndarray, s) -> float:
    """Residual of f(x (*) s) (*) s^-1 == f(x) for a linear circconv chain.

    Circular convolutions are simultaneously diagonalized by the Fourier
    basis, so a purely linear single-channel backbone commutes with binding
    exactly; any nonlinearity voids the contract.
    """
    for layer in spec.layers:
        ok = isinstance(layer, Identity) or (
            isinstance(layer, CircConv2d)
            and layer.kernel.shape[2] == 1
            and layer.kernel.shape[3] == 1
        )
        if not ok:
            raise SpecError(
                "commutation check requires only identity or 1-channel "
                f"circconv2d layers, found {type(layer).__name__}"
            )
    through_binding = unbind(spec(bind(x, s)), s)
    direct = spec(np.asarray(x, dtype=np.float64))
    return float(np.max(np.abs(through_binding - direct)))


# ------------------------------------------------------------- FLOP account

@dataclass(frozen=True)
class FlopReport:
    """Remote/local multiply-add split plus traffic for a workload."""

    remote_flops: int
    local_flops: int
    bytes_up: int
    bytes_down: int

    @property
    def remote_fraction(self) -> float:
        total = self.remote_flops + self.local_flops
        return self.remote_flops / total if total else 0.0


def fft_flops(n: int) -> int:
    """Documented convention: one length-n transform costs 5 n log2(n)."""
    return int(round(5 * n * np.log2(n))) if n > 1 else 0


def transform_cost(dims) -> int:
    """Cost of one bind or unbind: three 2D transforms per channel."""
    h, w = dims[0], dims[1]
    depth = dims[2] if len(dims) > 2 else 1
    return 3 * depth * fft_flops(h * w)


def count_flops(spec: BackboneSpec) -> int:
    """Multiply-add count of one forward pass through the spec."""
    total = 0
    dims = spec.input_dims
    for layer in spec.layers:
        if isinstance(layer, CircConv2d):
            kh, kw, cin, cout = layer.kernel.shape
            total += dims[0] * dims[1] * kh * kw * cin * cout
        elif isinstance(layer, DenseLayer):
            rows, cols = layer.weight.shape
            total += rows * cols
        dims = layer.output_dims(dims)
    return total
