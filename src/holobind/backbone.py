"""Worker-side tensor-to-tensor functions and their layer primitives.

A backbone is a chain of layers with a validated shape chain, and a chain
of no layers is the identity backbone; specs used in the split-inference
protocol must preserve the input shape so the client's secret matches the
output. Convolutions use circular padding throughout, which keeps every
linear backbone inside the circulant algebra that binding relies on. Layers
carry their forward and backward passes, so the toy trainer trains the same
BackboneSpec a worker serves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecError, ShapeError
from .tensor import MAX_EXTENT, RngStream

LEAKY_ALPHA = 0.1  # negative slope of the toy backbone's and heads' leaky-relu

# Items per block of a forward and a backward pass: a block's gathered conv
# taps (1.2 MB for the toy model's conv2 at 4 items) stay in a 4 MiB L2
# cache, where 16 items' taps (4.7 MB) would spill to memory.
FORWARD_BLOCK = 4


# ------------------------------------------------------------ layer kernels

@functools.lru_cache(maxsize=64)
def _tap_pixels(h: int, w: int, kh: int, kw: int, top: int, left: int) -> np.ndarray:
    """The (H*W, KH*KW) table of each output pixel's tap sources, row-major.

    Entry (a*W + b, i*KW + j) is the flat pixel ((a + i - top) % H) * W +
    (b + j - left) % W, so the taps wrap as often as needed when the kernel
    is larger than the image. Built once per shape and shared read-only.
    """
    rows = (np.arange(h)[:, None] + np.arange(kh) - top) % h
    cols = (np.arange(w)[:, None] + np.arange(kw) - left) % w
    taps = rows[:, None, :, None] * w + cols[None, :, None, :]
    taps = taps.reshape(h * w, kh * kw)
    taps.flags.writeable = False
    return taps


@functools.lru_cache(maxsize=64)
def _tap_products(h: int, w: int, kh: int, kw: int, top: int, left: int) -> np.ndarray:
    """The (KH*KW, H*W) table of each output pixel's per-tap product rows, tap-major.

    Entry (t, p) is row ``taps[p, t] * KH*KW + t`` of a (H*W*KH*KW, Cout)
    stack of per-tap products, with ``taps`` from ``_tap_pixels``. Tap-major
    rows let the sum over taps run as KH*KW whole-image adds in tap order.
    """
    n = kh * kw
    rows = np.ascontiguousarray((_tap_pixels(h, w, kh, kw, top, left) * n + np.arange(n)).T)
    rows.flags.writeable = False
    return rows


def circconv_forward(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Circular cross-correlation with a centered kernel.

    ``kernel`` has shape (KH, KW, Cin, Cout); ``x`` is (..., H, W, Cin) with
    an optional leading batch axis. Stride 1, wrap-around padding: output
    (a, b) is the sum over taps (i, j) of
    ``x[(a + i - KH//2) % H, (b + j - KW//2) % W] @ kernel[i, j]``.

    Both paths read the taps through a cached index table, and the path
    follows from the channel counts alone:

    - Cin <= Cout: each pixel's KH*KW taps are gathered side by side, then
      multiplied by the kernel as one (KH*KW*Cin, Cout) matrix.
    - Cin > Cout: one product with the taps stacked as a
      (Cin, KH*KW*Cout) matrix, then each output gathers its KH*KW per-tap
      products and sums them in tap order.

    The first path sums each output's KH*KW*Cin products as one dot
    product, so results can differ from a tap by tap loop in the last bits.
    Each item is computed on its own, so a batch's outputs equal those of
    its items one at a time, bit for bit.
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
    lead, n = x.shape[:-3], kh * kw
    pixels = x.reshape(lead + (h * w, cin))
    if cin <= cout:
        taps = _tap_pixels(h, w, kh, kw, top, left)
        gathered = pixels.take(taps, axis=-2).reshape(lead + (h * w, n * cin))
        out = gathered @ kernel.reshape(n * cin, cout)
    else:
        stacked = kernel.transpose(2, 0, 1, 3).reshape(cin, n * cout)
        per_tap = (pixels @ stacked).reshape(lead + (h * w * n, cout))
        rows = _tap_products(h, w, kh, kw, top, left)
        out = per_tap.take(rows, axis=-2).sum(axis=-3)
    return out.reshape(x.shape[:-1] + (cout,))


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
    taps = _tap_pixels(h, w, kh, kw, kh // 2, kw // 2)
    pixels = x.reshape(x.shape[:-3] + (h * w, cin))
    g_flat = grad_out.reshape(-1, cout)
    grad_kernel = np.zeros_like(kernel)
    for t in range(kh * kw):
        x_tap = pixels.take(taps[:, t], axis=-2)
        grad_kernel[t // kw, t % kw] = x_tap.reshape(-1, cin).T @ g_flat
    return grad_kernel


def _circconv_input_grad(kernel: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """The transposed convolution: ``grad_out`` correlated with the flipped kernel.

    Input pixel p receives ``grad_out[p - i + KH//2] @ kernel[i].T`` from
    tap i (one axis shown), which is tap KH-1-i of a correlation whose
    origin sits at KH-1-KH//2; that origin keeps even-sized kernels right.
    Each pixel's sum runs in the forward path's order, not tap by tap.
    """
    kh, kw = kernel.shape[:2]
    flipped = kernel[::-1, ::-1].transpose(0, 1, 3, 2)
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


# ------------------------------------------------------------------- layers
#
# Every layer method but ``output_dims(dims)`` and ``flops(dims)`` takes a
# batch: a leading batch axis in front of the item dims. ``flops`` is the
# multiply-add count of one item of those dims (pointwise ops count 0).
# ``param_grad(t, grad_out)`` and ``input_grad(t, grad_out)`` get the
# layer's forward input and return its parameter gradient (None where it
# has none) and its input gradient; they are separate so that the first
# layer's input gradient, which nothing uses, is never computed.

@dataclass(frozen=True)
class CircConv2d:
    kernel: np.ndarray

    @classmethod
    def from_seed(cls, kh, kw, cin, cout, seed):
        """Materialize a fan-in-scaled Gaussian kernel from its seed."""
        return cls(RngStream(seed).normal([kh, kw, cin, cout], 1.0 / (kh * kw * cin))[0])

    def output_dims(self, dims):
        kh, kw, cin, cout = self.kernel.shape
        if dims[2] != cin:
            raise SpecError(f"circconv2d cin {cin} does not chain from input depth {dims[2]}")
        return (dims[0], dims[1], cout)

    def flops(self, dims):
        return dims[0] * dims[1] * self.kernel.size

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

    def flops(self, dims):
        return 0

    def forward(self, t):
        return leaky_relu_forward(t, self.alpha)

    def param_grad(self, t, grad_out):
        return None

    def input_grad(self, t, grad_out):
        return leaky_relu_backward(t, grad_out, self.alpha)


@dataclass(frozen=True)
class BackboneSpec:
    """Validated layer chain; immutable and safe to share across threads."""

    input_dims: tuple
    layers: tuple
    output_dims: tuple = field(init=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.input_dims)
        if len(dims) != 3 or not all(1 <= d <= MAX_EXTENT for d in dims):
            raise SpecError(f"input dims must be three extents from 1 to {MAX_EXTENT}, got {dims}")
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
        """Forward of a batch of items; returns (outputs, tape).

        The layers run over blocks of FORWARD_BLOCK items. Every layer treats
        items independently, so the outputs are those of one full pass, bit
        for bit. When ``keep_inputs`` is set, the tape that ``backward``
        needs holds, per block in order, that block's input to each layer:
        its slice of the batch, then each layer's own output, uncopied.
        Otherwise the tape is empty. A batch of no items runs as one empty
        block.
        """
        t = np.asarray(batch, dtype=np.float64)
        if t.shape[1:] != self.input_dims:
            raise ShapeError(f"batch item dims {t.shape[1:]} != spec input {self.input_dims}")
        outs, tape = [], []
        for start in range(0, max(len(t), 1), FORWARD_BLOCK):
            u, inputs = t[start:start + FORWARD_BLOCK], []
            for layer in self.layers:
                if keep_inputs:
                    inputs.append(u)
                u = layer.forward(u)
            if keep_inputs:
                tape.append(inputs)
            outs.append(u)
        # a batch of one block, as a served request usually is, needs no copy
        return (outs[0] if len(outs) == 1 else np.concatenate(outs)), tape

    def backward(self, tape, grad_out: np.ndarray) -> list:
        """Each layer's parameter gradient (None where it has none).

        ``tape`` comes from ``forward(..., keep_inputs=True)`` and
        ``grad_out`` is the gradient of the loss w.r.t. its outputs. Each of
        the tape's blocks carries its slice of ``grad_out`` down the layers,
        and each layer's parameter gradient is the sum of its blocks' partial
        sums, added in block order. Input gradients treat items
        independently; parameter gradients differ from one whole-batch
        product in the last bits. The gradient w.r.t. the batch itself is not
        computed. A batch of no items has one empty block, so each layer with
        parameters returns a zero gradient.
        """
        grads = [None] * len(self.layers)
        for i, inputs in enumerate(tape):
            g = grad_out[i * FORWARD_BLOCK:(i + 1) * FORWARD_BLOCK]
            for k in reversed(range(len(self.layers))):
                layer, t = self.layers[k], inputs[k]
                grad = layer.param_grad(t, g)
                if grad is not None:
                    grads[k] = grad if grads[k] is None else grads[k] + grad
                if k:
                    g = layer.input_grad(t, g)
        return grads


# -------------------------------------------------------------- text format

# values after the kind word on each line
_ARITY = {"input": 3, "circconv2d": 5, "pointwise": 2}


def _integer(word: str, least: int = 1) -> int:
    value = int(word)
    if value < least:
        raise ValueError(f"{word} is below {least}")
    return value


def parse_spec(text: str) -> BackboneSpec:
    """Parse the line-oriented spec format.

    First non-empty line: ``input H W D``; then one layer per line:
    ``circconv2d kh kw cin cout seed`` | ``pointwise leaky_relu alpha``;
    with no layer lines the spec is the identity. Extents are positive
    integers, seeds non-negative ones and alpha is finite; any other line
    is a SpecError. A ``#`` starts a comment that runs to the end of its
    line, and blank lines are skipped.
    Weights come deterministically from the per-layer seeds. Shape errors
    surface here, not at call time.
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
            elif kind == "pointwise":
                if args[0] != "leaky_relu":
                    raise SpecError(f"unknown pointwise op {args[0]!r}")
                alpha = float(args[1])
                if not np.isfinite(alpha):
                    raise ValueError(f"alpha {args[1]} is not finite")
                layers.append(Pointwise(alpha))
            else:  # circconv2d: the extents, then the seed
                extents = (_integer(v) for v in args[:-1])
                layers.append(CircConv2d.from_seed(*extents, _integer(args[-1], 0)))
        except ValueError as err:
            raise SpecError(f"bad line {ln!r}: {err}") from err
    return BackboneSpec(input_dims, tuple(layers))


def load_spec(path) -> BackboneSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


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
        total += layer.flops(dims)
        dims = layer.output_dims(dims)
    return total
