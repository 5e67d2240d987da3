"""Brute-force reference implementations used only to check the fast paths.

Everything here follows the textbook definitions with explicit loops and
modular indexing, deliberately independent of any FFT code under test.
"""

import numpy as np


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
