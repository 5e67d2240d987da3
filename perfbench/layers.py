"""Per-layer metrics: which calls are wrapped, and how spans become numbers.

Layers are holobind's modules. ``altbind`` and ``cli`` get no metrics:
``cli`` is only the worker's entry point, and the only user path of
``altbind`` is ``ablate``, which runs in about 1 ms.

Each metric, and the end-to-end figure it should move (``op_*`` are the
generic end-to-end names; see run.py for what they mean per workload):

- vsa.sample_secret/bind/unbind: query_k10 op_ticks; nothing on serve_open.
- vsa.project/bundle_add: offline probe time (op_ticks).
- protocol.*: query_k10 query_p99_ms; serve_open request_p99_ms and
  op_rate_per_s (max_rate_rps).
- worker.queue_wait_us rises under load before serve_open's max rate falls.
- backbone.apply/conv1-3/leaky_relu (batch 1): query_k10 and serve_open
  op_ticks, serve_open op_rate_per_s.
- backbone.conv_forward/backward_ms (batch 32), trainer.*: offline epoch time.
- trainer.head_us: query_k10 op_ticks.
- attacks.*: offline inversion, strong-adversary and regression times;
  k-means is reported only (the clustering audit takes about 8 ms).

Per-call times are medians of span durations (children included). A layer
that a workload does not call reports 0 calls and 0 time.
"""

from __future__ import annotations

import numpy as np

from holobind import attacks, backbone, protocol, trainer, vsa

from common import median
from tracer import by_name, durations

# name -> unit; the order is the report order.
PER_LAYER = {
    "vsa.sample_secret_us": "us", "vsa.sample_secret_calls": "count",
    "vsa.bind_us": "us", "vsa.bind_calls": "count",
    "vsa.unbind_us": "us", "vsa.unbind_calls": "count",
    "vsa.project_us": "us", "vsa.project_calls": "count",
    "vsa.bundle_add_us": "us", "vsa.bundle_add_calls": "count",
    "vsa.transform_flops": "flop",
    "protocol.encode_us": "us", "protocol.decode_us": "us",
    "protocol.roundtrip_us": "us", "protocol.wire_wait_us": "us",
    "protocol.handler_us": "us",
    "protocol.requests": "count", "protocol.requests_failed": "count",
    "protocol.bytes_up": "B", "protocol.bytes_down": "B",
    "worker.queue_wait_us": "us", "worker.busy_frac": "frac", "worker.threads": "count",
    "backbone.apply_us": "us", "backbone.conv1_us": "us", "backbone.conv2_us": "us",
    "backbone.conv3_us": "us", "backbone.leaky_relu_us": "us", "backbone.flops": "flop",
    "backbone.conv_forward_ms": "ms", "backbone.conv_backward_ms": "ms",
    "trainer.forward_batch_ms": "ms", "trainer.backward_batch_ms": "ms",
    "trainer.adam_step_ms": "ms", "trainer.secret_spectra_ms": "ms",
    "trainer.batches": "count", "trainer.head_us": "us",
    "attacks.invert_step_us": "us", "attacks.invert_steps": "count",
    "attacks.fresh_head_ms": "ms", "attacks.worker_views_ms": "ms",
    "attacks.lstsq_ms": "ms", "attacks.kmeans_ms": "ms", "attacks.kmeans_iters": "count",
    "trace.overhead_frac": "frac",
}

TRAIN_BATCH = 32
REGRESS_BATCH = 1040


def _batch(args, _result):
    x = args[1]
    return {"batch": int(x.shape[0]) if x.ndim == 4 else 1}


def install_query_tracing(tracer) -> None:
    """Client side of client_infer: secret, bind, codec, unbind, head."""
    tracer.wrap(protocol, "sample_secret", "vsa.sample_secret")
    tracer.wrap(vsa, "project", "vsa.project")
    tracer.wrap(protocol, "bind", "vsa.bind")
    tracer.wrap(protocol, "unbind", "vsa.unbind")
    tracer.wrap(protocol, "encode_request", "protocol.encode")
    tracer.wrap(protocol, "decode_response", "protocol.decode")
    tracer.wrap(trainer, "_head_forward", "trainer.head")


def install_offline_tracing(tracer) -> None:
    """Training steps, conv kernels, audit internals and the probe."""
    tracer.wrap(trainer, "forward_batch", "trainer.forward_batch")
    tracer.wrap(trainer, "backward_batch", "trainer.backward_batch")
    tracer.wrap(trainer, "adam_step", "trainer.adam_step")
    tracer.wrap(trainer, "draw_secret_spectra", "trainer.secret_spectra",
                lambda args, _r: {"batch": int(args[0])})
    tracer.wrap(trainer, "circconv_forward", "backbone.conv_forward", _batch)
    tracer.wrap(trainer, "circconv_backward", "backbone.conv_backward", _batch)
    tracer.wrap(trainer, "worker_views", "attacks.worker_views",
                lambda args, _r: {"batch": int(args[1].shape[0])})
    tracer.wrap(attacks, "inversion_attack", "attacks.invert",
                lambda _a, result: {"steps": int(result.report.params["steps"])})
    tracer.wrap(attacks, "_validate_inversion_gradient", "attacks.invert_fd_check")
    tracer.wrap(attacks, "_train_fresh_head", "attacks.fresh_head")
    tracer.wrap(np.linalg, "lstsq", "attacks.lstsq")
    kmeans = attacks.kmeans

    def traced_kmeans(points, k, rng, *args, **kwargs):
        def run():
            labels, _, history = kmeans(points, k, rng, *args, return_history=True, **kwargs)
            return labels, len(history)

        labels, _ = tracer.call("attacks.kmeans", run, attrs_fn=lambda _a, r: {"iters": r[1]})
        return labels

    tracer.patch(attacks, "kmeans", traced_kmeans)
    tracer.wrap(vsa, "project", "vsa.project")
    tracer.wrap(vsa, "bundle_add", "vsa.bundle_add")


def _us(spans) -> float:
    return median(durations(spans)) * 1e6 if spans else 0.0


def _ms(spans) -> float:
    return median(durations(spans)) * 1e3 if spans else 0.0


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, worker_spans, *, n_ops, dims, window=None, requests=0,
                  requests_failed=0, bytes_up=0.0, bytes_down=0.0, worker_threads=0,
                  overhead_frac=0.0) -> dict:
    """Every PER_LAYER metric from client and worker spans of one run.

    ``n_ops`` is the number of client operations in the traced phase;
    counts are reported per operation so they repeat exactly.
    """
    g = by_name(spans)
    w = by_name(worker_spans)
    per_op = (lambda count: count / n_ops) if n_ops else (lambda count: 0.0)
    m = {}
    for fn in ("sample_secret", "bind", "unbind", "project", "bundle_add"):
        m[f"vsa.{fn}_us"] = _us(g[f"vsa.{fn}"])
        m[f"vsa.{fn}_calls"] = per_op(len(g[f"vsa.{fn}"]))
    m["vsa.transform_flops"] = backbone.transform_cost(dims)

    handlers = w["protocol.handler"]
    m["protocol.encode_us"] = _us(g["protocol.encode"])
    m["protocol.decode_us"] = _us(g["protocol.decode"])
    trips = g["protocol.roundtrip"]
    m["protocol.roundtrip_us"] = _us(trips)
    by_rid = {h["rid"]: h for h in handlers}
    wire, queue = [], []
    for trip in trips:
        h = by_rid.get(trip.attrs.get("request_id"))
        if h is not None:
            wire.append(trip.duration - (h["end"] - h["start"]))
            queue.append(h["start"] - trip.start)
    m["protocol.wire_wait_us"] = median(wire) * 1e6 if wire else 0.0
    m["protocol.handler_us"] = median([h["self"] for h in handlers]) * 1e6 if handlers else 0.0
    m["protocol.requests"] = float(requests)
    m["protocol.requests_failed"] = float(requests_failed)
    m["protocol.bytes_up"] = float(bytes_up)
    m["protocol.bytes_down"] = float(bytes_down)

    m["worker.queue_wait_us"] = median(queue) * 1e6 if queue else 0.0
    busy = 0.0
    if window is not None and handlers:
        lo, hi = window
        busy = union_length([(h["start"], h["end"]) for h in handlers], lo, hi) / (hi - lo)
    m["worker.busy_frac"] = busy
    m["worker.threads"] = float(worker_threads)

    m["backbone.apply_us"] = _us(w["backbone.apply"])
    for i in (1, 2, 3):
        m[f"backbone.conv{i}_us"] = _us(w[f"backbone.conv{i}"])
    m["backbone.leaky_relu_us"] = _us(w["backbone.leaky_relu"])
    m["backbone.flops"] = backbone.count_flops(backbone.toy_fw_spec(tuple(dims)))

    batches = g["trainer.forward_batch"]
    n_batches = len(batches)
    for kind in ("forward", "backward"):
        convs = [s for s in g[f"backbone.conv_{kind}"] if s.attrs["batch"] == TRAIN_BATCH]
        m[f"backbone.conv_{kind}_ms"] = (
            sum(durations(convs)) / n_batches * 1e3 if n_batches else 0.0)
    m["trainer.forward_batch_ms"] = _ms(batches)
    m["trainer.backward_batch_ms"] = _ms(g["trainer.backward_batch"])
    m["trainer.adam_step_ms"] = _ms(g["trainer.adam_step"])
    m["trainer.secret_spectra_ms"] = _ms(
        [s for s in g["trainer.secret_spectra"] if s.attrs["batch"] == TRAIN_BATCH])
    m["trainer.batches"] = per_op(n_batches)
    m["trainer.head_us"] = _us(g["trainer.head"])

    steps = []
    for inv in g["attacks.invert"]:
        fd = sum(c.duration for c in g["attacks.invert_fd_check"] if c.parent is inv)
        steps.append((inv.duration - fd) / (inv.attrs["steps"] + 1))
    m["attacks.invert_step_us"] = median(steps) * 1e6 if steps else 0.0
    m["attacks.invert_steps"] = per_op(sum(s.attrs["steps"] for s in g["attacks.invert"]))
    m["attacks.fresh_head_ms"] = _ms(g["attacks.fresh_head"])
    m["attacks.worker_views_ms"] = _ms(
        [s for s in g["attacks.worker_views"] if s.attrs["batch"] == REGRESS_BATCH])
    m["attacks.lstsq_ms"] = _ms(g["attacks.lstsq"])
    m["attacks.kmeans_ms"] = _ms(g["attacks.kmeans"])
    km = g["attacks.kmeans"]
    m["attacks.kmeans_iters"] = median([s.attrs["iters"] for s in km]) if km else 0.0
    m["trace.overhead_frac"] = float(overhead_frac)
    if list(m) != list(PER_LAYER):
        raise RuntimeError("per-layer metrics differ from PER_LAYER")
    return m
