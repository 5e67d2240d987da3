"""Brute-force reference implementations used only to check the fast paths.

Everything here follows the textbook definitions with explicit loops and
modular indexing, deliberately independent of any FFT code under test. The
exceptions are the earlier fast paths kept as references for their
replacements (the roll kernel, the per-replicate client, the hard-wired
toy backbone), which are written on the public ops.
"""

import numpy as np

from holobind.backbone import (
    circconv_backward,
    circconv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
)
from holobind.errors import ProtocolError, RemoteFailureError
from holobind.protocol import STATUS_OK, BoundRequest, decode_response, encode_request
from holobind.trainer import _head_forward
from holobind.vsa import bind, sample_secret, unbind


def direct_dft2(t):
    """O(n^4) definition of the unnormalized forward 2D transform."""
    t = np.asarray(t, dtype=np.float64)
    H, W = t.shape
    out = np.zeros((H, W), dtype=np.complex128)
    for u in range(H):
        for v in range(W):
            acc = 0.0 + 0.0j
            for h in range(H):
                for w in range(W):
                    acc += t[h, w] * np.exp(-2j * np.pi * (u * h / H + v * w / W))
            out[u, v] = acc
    return out


def direct_idft2(s):
    """O(n^4) definition of the inverse 2D transform with the 1/(H*W) factor."""
    s = np.asarray(s, dtype=np.complex128)
    H, W = s.shape
    out = np.zeros((H, W), dtype=np.complex128)
    for h in range(H):
        for w in range(W):
            acc = 0.0 + 0.0j
            for u in range(H):
                for v in range(W):
                    acc += s[u, v] * np.exp(2j * np.pi * (u * h / H + v * w / W))
            out[h, w] = acc / (H * W)
    return out


def direct_circconv2d(x, s):
    """Nested-loop modular-index 2D circular convolution."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    H, W = x.shape
    out = np.zeros((H, W))
    for a in range(H):
        for b in range(W):
            acc = 0.0
            for p in range(H):
                for q in range(W):
                    acc += x[p, q] * s[(a - p) % H, (b - q) % W]
            out[a, b] = acc
    return out


def direct_circconv1d(x, s):
    """Nested-loop modular-index 1D circular convolution."""
    x = np.asarray(x, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    d = len(x)
    out = np.zeros(d)
    for a in range(d):
        acc = 0.0
        for p in range(d):
            acc += x[p] * s[(a - p) % d]
        out[a] = acc
    return out


def circulant_matrix(s):
    """Circulant matrix of a 1D vector: column k is s rolled by k."""
    s = np.asarray(s, dtype=np.float64)
    d = len(s)
    M = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            M[j, k] = s[(j - k) % d]
    return M


def direct_circ_crosscorr2d(x, kernel):
    """Modular-index circular cross-correlation with a centered kernel.

    Matches the conv-layer convention: out[a,b] = sum over taps of
    x[(a + kh - ch) % H, (b + kw - cw) % W] * kernel[kh, kw] with the
    center tap at (kh//2, kw//2).
    """
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    H, W = x.shape
    KH, KW = kernel.shape
    ch, cw = KH // 2, KW // 2
    out = np.zeros((H, W))
    for a in range(H):
        for b in range(W):
            acc = 0.0
            for kh in range(KH):
                for kw in range(KW):
                    acc += x[(a + kh - ch) % H, (b + kw - cw) % W] * kernel[kh, kw]
            out[a, b] = acc
    return out


def roll_circconv_forward(kernel, x):
    """Tap-by-tap circular cross-correlation built from ``np.roll``.

    The backbone's earlier kernel, kept as the reference for the roll-free
    one: for each tap it rolls whichever side of the channel matmul has
    fewer channels and accumulates the products in tap order.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    kh, kw, cin, cout = kernel.shape
    ch, cw = kh // 2, kw // 2
    out = np.zeros(x.shape[:-1] + (cout,))
    roll_input = cin <= cout
    for i in range(kh):
        for j in range(kw):
            shift = (ch - i, cw - j)
            if roll_input:
                out += np.roll(x, shift=shift, axis=(-3, -2)) @ kernel[i, j]
            else:
                out += np.roll(x @ kernel[i, j], shift=shift, axis=(-3, -2))
    return out


def roll_circconv_backward(kernel, x, grad_out):
    """Kernel and input gradients of ``roll_circconv_forward``, tap by tap."""
    kernel = np.asarray(kernel, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    kh, kw, cin, cout = kernel.shape
    ch, cw = kh // 2, kw // 2
    grad_kernel = np.zeros_like(kernel)
    grad_input = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            x_shift = np.roll(x, shift=(ch - i, cw - j), axis=(-3, -2))
            grad_kernel[i, j] = x_shift.reshape(-1, cin).T @ grad_out.reshape(-1, cout)
            g_shift = np.roll(grad_out, shift=(i - ch, j - cw), axis=(-3, -2))
            grad_input += g_shift @ kernel[i, j].T
    return grad_kernel, grad_input


def reference_backbone_forward(params, xb, alpha=0.1):
    """The toy backbone written out layer by layer, on a batch.

    The trainer's earlier hard-wired forward, kept as the reference for the
    trained model's BackboneSpec; returns (output, cache).
    """
    h1 = circconv_forward(params["conv1"], xb)
    a1 = leaky_relu_forward(h1, alpha)
    h2 = circconv_forward(params["conv2"], a1)
    a2 = leaky_relu_forward(h2, alpha)
    r = circconv_forward(params["conv3"], a2)
    return r, (xb, h1, a1, h2, a2)


def reference_backbone_backward(params, cache, grad_r, alpha=0.1):
    """Kernel gradients of ``reference_backbone_forward``: (conv1, conv2, conv3)."""
    xb, h1, a1, h2, a2 = cache
    gk3, ga2 = circconv_backward(params["conv3"], a2, grad_r)
    gh2 = leaky_relu_backward(h2, ga2, alpha)
    gk2, ga1 = circconv_backward(params["conv2"], a1, gh2)
    gh1 = leaky_relu_backward(h1, ga1, alpha)
    gk1, _ = circconv_backward(params["conv1"], xb, gh1)
    return gk1, gk2, gk3


def per_replicate_client_infer(x, plan, model):
    """``client_infer`` one replicate at a time: the earlier client loop.

    Per replicate: sample_secret, bind, request, unbind, erase, head; the
    distributions are averaged and the successor stream is left in
    ``plan.rng``.
    """
    x = np.asarray(x, dtype=np.float64)
    dims = x.shape
    rng = plan.rng
    base_ids, rng = rng.integers(1, 2 ** 32, 1)
    distributions = []
    for i in range(plan.k):
        secret, rng = sample_secret(dims, rng)
        request_id = int(base_ids[0]) + i
        payload = bind(x, secret)
        reply = plan.transport.request(encode_request(BoundRequest(request_id, payload)))
        response = decode_response(reply)
        if response.request_id != request_id:
            raise ProtocolError(
                f"response id {response.request_id} does not echo request {request_id}"
            )
        if response.status != STATUS_OK:
            raise RemoteFailureError("worker reported failure", response.status)
        if response.payload.shape != dims:
            raise ProtocolError(
                f"response dims {response.payload.shape} != input dims {dims}"
            )
        retrieved = unbind(response.payload, secret)
        secret.erase()
        probs, _ = _head_forward(model.params, "p", retrieved.reshape(1, -1))
        distributions.append(probs[0])
    plan.rng = rng
    return np.mean(distributions, axis=0)


def central_difference(f, x, eps=1e-5):
    """Central finite-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for i in range(x.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def central_difference_at(f, x, indices, eps=1e-5):
    """Central differences at selected flat indices only."""
    x = np.array(x, dtype=np.float64)
    xf = x.ravel()
    out = {}
    for i in indices:
        orig = xf[i]
        xf[i] = orig + eps
        hi = f(x)
        xf[i] = orig - eps
        lo = f(x)
        xf[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return out
