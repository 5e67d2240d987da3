"""query_k10: closed loop, one client, `client_infer` at k=10 over TCP.

This is the path the user waits on. The client's own work (secret
sampling, bind, unbind, head, codec) costs about as much as the worker's
backbone, so client-side changes show up here.

The client and the worker share one CPU (see run.py). The host clock is
read before each query, and each query's time is also reported in ticks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from holobind import backbone, protocol, trainer
from holobind.errors import HolobindError, TransportError
from holobind.tensor import RngStream
from holobind.vsa import sample_secret

import layers
from common import (CPU, DIMS, OUT_DIR, HostClock, Phase, WorkerProcess, gate, median, pin,
                    quantile, repeat_setup)
from tracer import Tracer, load_spans

K = 10
N_QUERY_IMAGES = 256
WARMUP_QUERIES = 20
VERIFY_EVERY = 25        # every 25th query is re-run in process
WIRE_TOL = 1e-5          # f32 on the wire, both directions
IO_TIMEOUT = 5.0
RATE_BLOCK = 50          # queries per block of the rate metric


class CountingTransport(protocol.Transport):
    """Counts messages and bytes; with a tracer, records a roundtrip span."""

    def __init__(self, inner, tracer=None):
        self.inner = inner
        self.tracer = tracer
        self.requests = 0
        self.bytes_up = 0
        self.bytes_down = 0

    def request(self, data: bytes) -> bytes:
        self.requests += 1
        self.bytes_up += len(data)
        if self.tracer is None:
            reply = self.inner.request(data)
        else:
            rid = int.from_bytes(data[6:14], "little")
            reply = self.tracer.call("protocol.roundtrip", self.inner.request, (data,),
                                     attrs_fn=lambda _a, _r: {"request_id": rid})
        self.bytes_down += len(reply)
        return reply

    def close(self) -> None:
        self.inner.close()


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    ticks: list = field(default_factory=list)     # latency / host-clock tick before it
    done_at: list = field(default_factory=list)   # completion times of good queries
    samples: list = field(default_factory=list)   # (index, stream before, result)
    requests: int = 0
    elapsed: float = 0.0
    worker_threads: int = 0
    window: tuple = (0.0, 0.0)


def _setup(seed: int):
    """Inputs, a toy model written to disk, and a worker serving it."""
    data = trainer.synth_dataset(seed, n_classes=4, n_train=64, n_test=N_QUERY_IMAGES,
                                 noise_sigma=0.3, dims=DIMS)
    model = trainer.init_toy_model(seed + 1, data.n_classes, data.dims)
    model_path = OUT_DIR / f"model-query_k10-{seed}.hbtm"
    trainer.save_model(model, model_path)
    worker = WorkerProcess(model_path, tag=f"query_k10-{seed}").start()
    return data, model, worker


def query_loop(images, model, worker, rng, phase, *, seconds=math.inf, max_queries=None,
               tracer=None, sample_every=None, clock=None):
    """Closed loop: one query at a time over one connection.

    With a ``clock``, the host clock is read before each query.

    Returns (Loop, successor stream). Every distribution is gated to be
    finite and sum to 1, and every query's traffic to equal cost_report.
    """
    cost = protocol.cost_report(backbone.toy_fw_spec(DIMS), DIMS, K)
    out = Loop()

    def connect():
        return CountingTransport(protocol.TcpTransport("127.0.0.1", worker.port,
                                                       timeout=IO_TIMEOUT), tracer)

    transport = connect()
    i = 0
    start = time.perf_counter()
    end = start + seconds
    try:
        while time.perf_counter() < end and (max_queries is None or i < max_queries):
            x = images[i % len(images)]
            before = rng
            up0, down0 = transport.bytes_up, transport.bytes_down
            unit = clock.tick() if clock is not None else math.nan
            t0 = time.perf_counter()
            try:
                plan = protocol.QueryPlan(K, rng, transport)
                if tracer is None:
                    dist = protocol.client_infer(x, plan, model)
                else:
                    with tracer.span("query", rid=i):
                        dist = protocol.client_infer(x, plan, model)
                out.done_at.append(time.perf_counter())
                out.latencies.append(out.done_at[-1] - t0)
                out.ticks.append(out.latencies[-1] / unit)
                rng = plan.rng
            except HolobindError as err:
                out.latencies.append(math.inf)  # a failure misses every limit
                out.ticks.append(math.inf)
                phase.fail(type(err).__name__)
                rng = RngStream(rng.seed, rng.counter + K + 1)
                if isinstance(err, TransportError):
                    transport.close()
                    transport = connect()
                i += 1
                continue
            phase.ok()
            gate(bool(np.all(np.isfinite(dist))) and abs(float(np.sum(dist)) - 1.0) <= 1e-9,
                 f"query {i}: distribution not finite or does not sum to 1")
            traffic = (transport.bytes_up - up0, transport.bytes_down - down0)
            gate(traffic == (cost.bytes_up, cost.bytes_down),
                 f"query {i}: bytes {traffic} != cost_report "
                 f"{(cost.bytes_up, cost.bytes_down)}")
            if sample_every and i % sample_every == 0:
                out.samples.append((i, before, dist))
            i += 1
        out.elapsed = time.perf_counter() - start
        out.window = (start, start + out.elapsed)
        out.worker_threads = worker.status().get("Threads", 0)
    finally:
        out.requests = transport.requests
        transport.close()
    return out, rng


def per_tick(loop: Loop) -> float:
    """Queries per host-clock tick: the median over blocks of RATE_BLOCK queries."""
    t = loop.ticks
    blocks = [t[i:i + RATE_BLOCK] for i in range(0, max(1, len(t) - RATE_BLOCK + 1), RATE_BLOCK)]
    return median([len(b) / sum(b) for b in blocks])


def verify_in_process(images, model, samples, phase) -> float:
    """Re-run sampled queries through LoopbackTransport with the same stream."""
    applier = trainer.backbone_applier(model)
    worst = 0.0
    for i, before, dist in samples:
        plan = protocol.QueryPlan(K, before, protocol.LoopbackTransport(applier))
        again = protocol.client_infer(images[i % len(images)], plan, model)
        err = float(np.max(np.abs(again - dist)))
        worst = max(worst, err)
        if err <= WIRE_TOL:
            phase.ok()
        else:
            phase.fail("mismatch")
    gate(phase.attempted > 0 and phase.failed == 0,
         f"in-process re-run disagrees by {worst:.3e} (> {WIRE_TOL})")
    return worst


def secrets_of(samples, limit=4) -> list:
    """Regenerate sampled queries' secrets the way client_infer draws them."""
    out = []
    for _, before, _ in samples[:limit]:
        _, rng = before.integers(1, 2 ** 32, 1)
        for _ in range(K):
            secret, rng = sample_secret(DIMS, rng)
            out.append(secret.tensor.copy())
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    phases = {name: Phase() for name in ("setup", "warmup", "measure", "verify")}
    pin(CPU)
    (data, model, worker), setup_times = repeat_setup(lambda: _setup(seed),
                                                      lambda state: state[2].stop())
    phases["setup"].ok(len(setup_times))
    images = data.test_images
    rng = RngStream(seed, counter=1 << 40)
    result = {"setup_times": setup_times, "phases": phases}
    traced_worker = None
    try:
        _, rng = query_loop(images, model, worker, rng, phases["warmup"],
                            max_queries=WARMUP_QUERIES)
        clock = HostClock()
        main, rng = query_loop(images, model, worker, rng, phases["measure"],
                               seconds=seconds / 2 if trace else seconds,
                               sample_every=VERIFY_EVERY, clock=clock)
        worker.stop()
        if trace:
            phases["traced"] = Phase()
            spans_path = OUT_DIR / f"spans-worker-query_k10-{seed}.jsonl"
            traced_worker = WorkerProcess(worker.model_path, spans_path,
                                          tag=f"query_k10-traced-{seed}").start()
            tracer = Tracer()
            layers.install_query_tracing(tracer)
            try:
                traced, rng = query_loop(images, model, traced_worker, rng, phases["traced"],
                                         seconds=seconds / 2, tracer=tracer, clock=clock)
            finally:
                tracer.restore()
            traced_worker.stop()
            cost = protocol.cost_report(backbone.toy_fw_spec(DIMS), DIMS, K)
            result["per_layer"] = layers.layer_metrics(
                tracer.spans, load_spans(spans_path), n_ops=phases["traced"].succeeded,
                dims=DIMS, window=traced.window, requests=traced.requests,
                requests_failed=phases["traced"].failed,   # a query stops at its first
                bytes_up=cost.bytes_up, bytes_down=cost.bytes_down,
                worker_threads=traced.worker_threads,
                overhead_frac=median(traced.ticks) / median(main.ticks) - 1.0)
            result["tracer"] = tracer
            result["worker_spans_path"] = spans_path
        verify_in_process(images, model, main.samples, phases["verify"])
    finally:
        worker.stop()
        if traced_worker is not None:
            traced_worker.stop()
        worker.model_path.unlink(missing_ok=True)
    lat = main.latencies
    ticks = median(main.ticks)
    result.update({
        "named": {"query_p50_ms": median(lat) * 1e3, "query_p99_ms": quantile(lat, 0.99) * 1e3},
        "op": {"ticks": ticks, "rate_per_tick": per_tick(main), "samples": len(lat)},
        "lines": [f"query_p50_ticks {ticks:.6g} ticks over {len(lat)} queries"],
        "worker_peak_kb": worker.peak.get("VmHWM", 0),
        "worker_threads_under_load": main.worker_threads,
        "secrets": secrets_of(main.samples),
    })
    return result
