"""Brute-force reference implementations used only to check the fast paths.

Everything here follows the textbook definitions with explicit loops and
modular indexing, deliberately independent of any FFT code under test. The
exceptions are the earlier fast paths kept as references for their
replacements (the roll kernel, the per-replicate client, the hard-wired
toy backbone, the two-pass Frechet gradient, the transform-based inversion
objective and its spectrum-domain descent, the per-item probe, the
per-channel Hilbert route and the ablation's own operator dispatch), which
are written on the public ops, the contract that a linear circconv
chain commutes with binding, and the identity backbone.
"""

import numpy as np

from holobind.altbind import (
    hilbert_decode,
    hilbert_encode,
    ivtb_secret,
    vtb_bind,
    vtb_secret,
    vtb_unbind,
)
from holobind.attacks import _psd_sqrt, fit_gaussian_stats
from holobind.backbone import (
    FORWARD_BLOCK,
    BackboneSpec,
    CircConv2d,
    circconv_backward,
    circconv_forward,
    leaky_relu_backward,
    leaky_relu_forward,
)
from holobind.errors import ProtocolError, RemoteFailureError, SpecError
from holobind.protocol import STATUS_OK, BoundRequest, decode_response, encode_request
from holobind.trainer import ToyModel, _head_forward
from holobind.tensor import RngStream
from holobind.vsa import (
    _probe_dims,
    bind,
    bundle_add,
    cosine,
    from_spectrum,
    presence_probe,
    project,
    sample_secret,
    spectrum,
    unbind,
    unit_spectrum,
)


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


def blocked_reference_backbone_backward(params, cache, grad_r, alpha=0.1):
    """``reference_backbone_backward`` over FORWARD_BLOCK-item slices.

    Each kernel gradient is the sum of the slices' gradients, added in slice
    order: the mini-batch split that ``BackboneSpec.backward`` runs.
    """
    total = None
    for start in range(0, len(grad_r), FORWARD_BLOCK):
        part = slice(start, start + FORWARD_BLOCK)
        grads = reference_backbone_backward(params, [c[part] for c in cache], grad_r[part], alpha)
        total = grads if total is None else tuple(a + b for a, b in zip(total, grads))
    return total


def reference_kernel_grad_magnitudes(params, cache, grad_r, alpha=0.1):
    """Per kernel gradient entry, the sum of the |products| that it adds up.

    Summed in any order, an entry of n products lies within gamma_n times
    this of its exact value (Higham, "Accuracy and Stability of Numerical
    Algorithms", 3.1); returns (conv1, conv2, conv3) like
    ``reference_backbone_backward``.
    """
    xb, h1, a1, h2, a2 = cache
    gk3 = circconv_backward(params["conv3"], np.abs(a2), np.abs(grad_r))[0]
    gh2 = leaky_relu_backward(h2, circconv_backward(params["conv3"], a2, grad_r)[1], alpha)
    gk2 = circconv_backward(params["conv2"], np.abs(a1), np.abs(gh2))[0]
    gh1 = leaky_relu_backward(h1, circconv_backward(params["conv2"], a1, gh2)[1], alpha)
    gk1 = circconv_backward(params["conv1"], np.abs(xb), np.abs(gh1))[0]
    return gk1, gk2, gk3


def copy_model(model: ToyModel) -> ToyModel:
    """A model with the same settings and its own copy of every parameter."""
    return ToyModel({k: v.copy() for k, v in model.params.items()},
                    model.n_classes, model.input_dims, model.seed)


def identity_spec(dims) -> BackboneSpec:
    """The backbone of no layers, which returns its input."""
    return BackboneSpec(tuple(dims), ())


def linear_circconv_spec(dims, n_layers: int = 1, seed: int = 200) -> BackboneSpec:
    """Purely linear single-channel circconv chain (commutes with binding)."""
    layers = tuple(
        CircConv2d.from_seed(3, 3, 1, 1, seed + i) for i in range(n_layers)
    )
    return BackboneSpec(tuple(dims), layers)


def linear_circconv_commutation_check(spec: BackboneSpec, x: np.ndarray, s) -> float:
    """Residual of f(x (*) s) (*) s^-1 == f(x) for a linear circconv chain.

    Circular convolutions are simultaneously diagonalized by the Fourier
    basis, so a purely linear single-channel backbone commutes with binding
    exactly; any nonlinearity voids the contract.
    """
    for layer in spec.layers:
        ok = (
            isinstance(layer, CircConv2d)
            and layer.kernel.shape[2] == 1
            and layer.kernel.shape[3] == 1
        )
        if not ok:
            raise SpecError(
                "commutation check requires only 1-channel "
                f"circconv2d layers, found {type(layer).__name__}"
            )
    through_binding = unbind(spec(bind(x, s)), s)
    direct = spec(np.asarray(x, dtype=np.float64))
    return float(np.max(np.abs(through_binding - direct)))


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


def two_pass_frechet_score_and_mean_grad(z, ref):
    """The inversion's Frechet score and gradient in the S-form, as two
    passes: the score from tr((S^1/2 R S^1/2)^1/2), then the transport map
    T = S^-1/2 (S^1/2 R S^1/2)^1/2 S^-1/2 from the same eigendecompositions
    again."""
    n = z.shape[0]
    stats = fit_gaussian_stats(z)
    root_s = _psd_sqrt(stats.cov)
    score_cross = _psd_sqrt(root_s @ ref.cov @ root_s)
    score = float(np.sum((stats.mean - ref.mean) ** 2)
                  + np.trace(stats.cov) + np.trace(ref.cov) - 2.0 * np.trace(score_cross))
    sym = 0.5 * (stats.cov + stats.cov.T)
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 1e-12, None)
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    cross = _psd_sqrt(root @ ref.cov @ root)
    transport = inv_root @ cross @ inv_root
    grad_cov = np.eye(z.shape[1]) - transport
    centered = z - stats.mean
    grad_z = (2.0 / n) * (stats.mean - ref.mean)[None, :] + \
        (2.0 / (n - 1)) * centered @ grad_cov.T
    return score, grad_z


def transform_inversion_objective(specs, reference):
    """The inversion's score and gradient through explicit transforms.

    The earlier form of ``attacks._inversion_objective``: unbind the batch
    with psi, project onto the PCA components, and pull the gradient back
    through one batched forward transform.
    """
    n, h, w = specs.shape

    def score_and_grad(psi):
        u = from_spectrum(specs * psi, 2)
        z = (u.reshape(n, -1) - reference.center) @ reference.components.T
        score, grad_z = two_pass_frechet_score_and_mean_grad(z, reference.stats)
        grad_u = (grad_z @ reference.components).reshape(n, h, w)
        grad_psi = np.sum(np.conj(specs) * spectrum(grad_u, 2), axis=0) / (h * w)
        return score, grad_psi

    return score_and_grad


def spectrum_inversion(bound, reference, steps, lr, rng):
    """(trajectory, secret tensor) of the inversion run on the spectrum psi.

    The earlier form of ``attacks.inversion_attack`` without its gradient
    check: step psi along the transform objective's Wirtinger gradient and
    re-project it to unit magnitude; the secret is the inverse of psi.
    """
    score_and_grad = transform_inversion_objective(spectrum(bound, 2), reference)
    raw, _ = rng.normal(bound.shape[1:], 1.0)
    psi = np.conj(unit_spectrum(spectrum(raw)))
    score, grad = score_and_grad(psi)
    trajectory = [score]
    for _ in range(steps):
        psi = unit_spectrum(psi - lr * grad)
        score, grad = score_and_grad(psi)
        trajectory.append(score)
    return trajectory, from_spectrum(np.conj(psi))


def per_item_probe_curves(d, ks, n_seeds, seed, modes=("projected", "naive")):
    """``probe_curves`` one seed at a time through ``bundle_add`` and
    ``presence_probe``, at the same counters: pair j of seed i at
    i*4096 + 2j and + 1, the absent pair at i*4096 + 4094 and + 4095."""
    dims = _probe_dims(int(d))
    var = 1.0 / int(d)

    def pair(projected, counter):
        x, rng = RngStream(seed, counter).normal(dims, var)
        y, _ = rng.normal(dims, var)
        return (project(x), project(y)) if projected else (x, y)

    rows = []
    for mode in modes:
        projected = mode == "projected"
        for k in ks:
            present, absent = [], []
            for i in range(n_seeds):
                bundle = np.zeros(dims)
                for j in range(k):
                    bundle = bundle_add(bundle, *pair(projected, i * 4096 + 2 * j))
                x, y = pair(projected, i * 4096)
                present.append(presence_probe(bundle, y, x))
                x, y = pair(projected, i * 4096 + 4094)
                absent.append(presence_probe(bundle, y, x))
            rows.append({
                "k": int(k),
                "mode": mode,
                "present_mean": float(np.mean(present)),
                "absent_mean": float(np.mean(absent)),
                "present_std": float(np.std(present)),
                "absent_std": float(np.std(absent)),
            })
    return rows


def per_channel_hilbert_bind(img, s1d):
    """The earlier Hilbert bind: each channel encoded and 1D-bound on its own."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        cols = [per_channel_hilbert_bind(img[..., c], s1d) for c in range(img.shape[-1])]
        return np.stack(cols, axis=-1)
    return bind(hilbert_encode(img), s1d)


def per_channel_hilbert_unbind(bound, s1d, dims):
    """The earlier Hilbert unbind: each channel column 1D-unbound and decoded on its own."""
    bound = np.asarray(bound, dtype=np.float64)
    if bound.ndim == 2:
        chans = [per_channel_hilbert_unbind(bound[..., c], s1d, dims)
                 for c in range(bound.shape[-1])]
        return np.stack(chans, axis=-1)
    return hilbert_decode(unbind(bound, s1d), dims)


def loop_hilbert_map(order):
    """The earlier Hilbert tables: one Gray-code walk per rank, in a Python loop.

    Returns (forward, inverse) as ``hilbert_map`` lays them out.
    """
    side = 1 << order
    forward = np.zeros((side * side, 2), dtype=np.int64)
    inverse = np.zeros((side, side), dtype=np.int64)
    for rank in range(side * side):
        r = c = 0
        t = rank
        s = 1
        while s < side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx == 1:
                    r = s - 1 - r
                    c = s - 1 - c
                r, c = c, r
            r += s * rx
            c += s * ry
            t //= 4
            s *= 2
        forward[rank] = (r, c)
        inverse[r, c] = rank
    return forward, inverse


def five_way_ablation_rows(seed=0, side=16):
    """``ablation_rows`` with the ablation's own branch per operator, as it
    was before the operators got one dispatcher."""
    rng = RngStream(seed)
    img, rng = rng.normal((side, side), 1.0)
    img /= np.linalg.norm(img)
    noise, rng = rng.normal((side, side), 0.09)
    img = img + noise
    flat = img.reshape(-1)
    d = flat.size
    rows = []
    for op in ("hrr2d", "hrr1d", "vtb", "ivtb", "hilbert"):
        if op == "hrr2d":
            s, rng = sample_secret((side, side), rng)
            bound = bind(img, s)
            b_flat, rec_img = bound.reshape(-1), unbind(bound, s)
        elif op == "hrr1d":
            s, rng = sample_secret((d,), rng)
            bound = bind(flat, s)
            b_flat, rec_img = bound, unbind(bound, s).reshape(side, side)
        elif op in ("vtb", "ivtb"):
            s, rng = (ivtb_secret if op == "ivtb" else vtb_secret)(d, rng)
            bound = vtb_bind(flat, s)
            b_flat, rec_img = bound, vtb_unbind(bound, s).reshape(side, side)
        else:
            s, rng = sample_secret((d,), rng)
            bound = per_channel_hilbert_bind(img, s)
            b_flat, rec_img = bound, per_channel_hilbert_unbind(bound, s, (side, side))
        rows.append({
            "operator": op,
            "reconstruction_cosine": cosine(img, rec_img),
            "bound_input_cosine": cosine(flat, b_flat),
        })
    return rows


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
