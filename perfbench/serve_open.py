"""serve_open: open loop of pre-bound single-replicate requests.

Payloads are bound at set-up, so no client work is timed: this drives
``protocol`` and ``backbone`` on the worker and skips ``vsa``. A
client-side optimisation should show no change here; worker changes
(kernels, batching across connections, thread handling, codec) do.

Requests go out on a fixed schedule (uniform spacing at the offered rate),
alternating over two connections, from one thread of this process. The
generator ACKs every reply at once (TCP_QUICKACK). Two connections must
carry many users' requests, so replies pipeline; the worker sends with
Nagle's algorithm on, and with delayed ACKs a pipelined reply then waits
for the next request, a stall that one user per connection never meets. Each
request is timed from when it was due, so a stall also charges the
requests queued behind it, and the generator's own lateness is reported.
Latency is measured at a named reference rate; capacity is the highest
rate of a fixed ladder whose p99 meets P99_LIMIT_MS with no failures and
no growing backlog.

Saturation segments keep SAT_DEPTH requests outstanding on every
connection and give the throughput. Short segments at the reference rate
alternate with saturation segments, each between two reads of the host
clock, so latency and throughput are also reported in ticks; they fill
the run after one ladder search. The ladder's capacity is printed but
not bounded: a rung passes only if the host stays fast for all of it,
and on a shared 2-core host five runs within five minutes found
1123-1870 requests/s. The generator and the worker share one CPU (see
run.py).
"""

from __future__ import annotations

import math
import select
import socket
import struct
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from holobind import protocol, trainer
from holobind.tensor import RngStream
from holobind.vsa import bind, sample_secret

import layers
from common import (CPU, DIMS, OUT_DIR, HostClock, Phase, WorkerProcess, gate, median, pin,
                    quantile, repeat_setup)
from tracer import closed_span, load_spans

CONNECTIONS = 2
POOL = 64                     # distinct pre-bound payloads, reused round-robin
# The named reference rate: about a quarter of capacity on an idle 2-core
# host, so it stays below capacity while other tenants take CPU.
REF_RATE = 200.0              # requests/s
# Latency limit that defines capacity. On a shared 2-core host, CPU taken
# by other tenants and requests overlapping on the worker's two handler
# threads (which share the interpreter lock) put the p99 at 5-15 ms well
# below capacity; the limit sits above that, so capacity is where the queue
# starts to grow.
P99_LIMIT_MS = 25.0
# Fixed ladder from the reference rate up, 4% apart, so one rung stays
# inside max_rate's bound.
LADDER = tuple(round(REF_RATE * 1.04 ** i, 1) for i in range(100))
COARSE_STRIDE = 4             # coarse search visits every 4th rung
RUNG_SECONDS = 0.75
FINE_RUNG_SECONDS = 1.5
LADDER_SHARE = 0.5            # most of the run the ladder search may take
REF_SEGMENT_S = 0.5           # one segment at the reference rate
SAT_SEGMENT_S = 0.25          # one saturation segment
SAT_DEPTH = 4                 # requests outstanding per connection when saturating
DRAIN_SECONDS = 5.0           # a reply later than this counts as a timeout
ABORT_LAG_S = 0.5             # stop sending once the backlog is this deep
VERIFY_EVERY = 97             # full decode + in-process check of every 97th reply
FRAME = struct.Struct("<I")
CONTAINER_HEADER = 6 + 4 * len(DIMS)


@dataclass
class Rung:
    rate: float
    latency: list = field(default_factory=list)     # from due time, inf on failure
    lateness: list = field(default_factory=list)    # generator: send - due
    trips: list = field(default_factory=list)       # (rid, send, recv) for tracing
    failures: dict = field(default_factory=dict)
    window: tuple = (0.0, 0.0)
    aborted: bool = False
    backlog: int = 0        # replies outstanding when the last request went out

    @property
    def p50_ms(self):
        return median(self.latency) * 1e3

    @property
    def p99_ms(self):
        return quantile(self.latency, 0.99) * 1e3

    @classmethod
    def merge(cls, rungs: list) -> "Rung":
        """One rung holding the requests of several at the same rate."""
        out = cls(rungs[0].rate, window=(rungs[0].window[0], rungs[-1].window[1]))
        for r in rungs:
            out.latency += r.latency
            out.lateness += r.lateness
            out.trips += r.trips
            for kind, n in r.failures.items():
                out.failures[kind] = out.failures.get(kind, 0) + n
            out.aborted |= r.aborted
            out.backlog = max(out.backlog, r.backlog)
        return out

    def growing_backlog(self) -> bool:
        """More replies were owed at the end than arrive within the limit."""
        return self.backlog > max(CONNECTIONS, self.rate * P99_LIMIT_MS / 1e3)

    def meets_limit(self) -> bool:
        return (not self.failures and not self.aborted and self.p99_ms <= P99_LIMIT_MS
                and not self.growing_backlog())

    def summary(self) -> dict:
        return {"rate": self.rate, "requests": len(self.latency),
                "p50_ms": self.p50_ms, "p99_ms": self.p99_ms,
                "late_p99_ms": quantile(self.lateness, 0.99) * 1e3,
                "failures": dict(self.failures), "aborted": self.aborted,
                "backlog": self.backlog, "growing_backlog": self.growing_backlog(),
                "meets_limit": self.meets_limit()}


class Generator:
    """Open-loop sender/receiver over CONNECTIONS sockets in one thread."""

    def __init__(self, port: int, pool: list[bytes]):
        self.socks = [socket.create_connection(("127.0.0.1", port), timeout=DRAIN_SECONDS)
                      for _ in range(CONNECTIONS)]
        for s in self.socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # frame = u32 length | envelope (request id at bytes 6..14) | container
        self.frames = [bytearray(FRAME.pack(len(m)) + m) for m in pool]
        self.reply_size = protocol.request_size(DIMS)  # same dims both ways
        # container magic, dtype, ndim and extents: equal in request and reply
        self.header = pool[0][protocol.ENVELOPE_SIZE:protocol.ENVELOPE_SIZE + CONTAINER_HEADER]
        self.next_id = 1
        self.samples = []   # (pool index, reply bytes)

    def close(self):
        for s in self.socks:
            s.close()

    def run(self, rate: float, seconds: float, phase: Phase, sample: bool = False) -> Rung:
        """Offer ``rate`` requests/s for ``seconds``, then drain the replies."""
        n = max(1, int(rate * seconds))
        rung = Rung(rate)
        t0 = time.perf_counter() + 0.005
        due = t0 + np.arange(n) / rate
        send_at = np.full(n, math.nan)
        done = np.full(n, math.nan)
        rids = np.zeros(n, dtype=np.int64)
        status = [None] * n
        pending = [deque() for _ in self.socks]   # per connection, FIFO of i
        bufs = [bytearray() for _ in self.socks]
        sent = outstanding = 0
        drain_deadline = math.inf
        while True:
            now = time.perf_counter()
            while sent < n and due[sent] <= now:
                oldest = min((q[0] for q in pending if q), default=None)
                if oldest is not None and now - due[oldest] > ABORT_LAG_S:
                    rung.aborted = True   # backlog: stop offering load
                    n = sent
                    break
                self._send(sent, pending, rids, send_at, status)
                outstanding += status[sent] is None
                sent += 1
                if sent == n:
                    rung.backlog = outstanding
            if sent >= n:
                if outstanding == 0:
                    break
                drain_deadline = min(drain_deadline, now + DRAIN_SECONDS)
                if now > drain_deadline:
                    for q in pending:
                        for i in q:
                            status[i] = "timeout"
                        q.clear()
                    break
                wait = drain_deadline - now
            else:
                wait = due[sent] - now
            ready, _, _ = select.select(self.socks, [], [], max(0.0, wait))
            for s in ready:
                outstanding -= self._receive(self.socks.index(s), pending, bufs, rids,
                                             done, status, sample)
        rung.window = (t0, time.perf_counter())
        for i in range(n):
            if status[i] == "ok":
                rung.latency.append(done[i] - due[i])
                rung.lateness.append(send_at[i] - due[i])
                rung.trips.append((int(rids[i]), send_at[i], done[i]))
                phase.ok()
            else:
                rung.latency.append(math.inf)   # a failure misses every limit
                rung.failures[status[i]] = rung.failures.get(status[i], 0) + 1
                phase.fail(status[i])
        return rung

    def saturate(self, seconds: float, phase: Phase) -> float:
        """Keep SAT_DEPTH requests outstanding per connection for ``seconds``.

        Each reply is checked as in ``run`` and answered with the next
        request on its connection. Returns the replies per second.
        """
        pending = [deque() for _ in self.socks]    # request ids in flight
        bufs = [bytearray() for _ in self.socks]
        done = []

        def send(c):
            rid = self.next_id
            self.next_id += 1
            frame = self.frames[rid % len(self.frames)]
            frame[10:18] = rid.to_bytes(8, "little")
            try:
                self.socks[c].sendall(frame)
                pending[c].append(rid)
            except OSError:
                phase.fail("send_error")

        start = time.perf_counter()
        end = start + seconds
        for c in range(CONNECTIONS):
            for _ in range(SAT_DEPTH):
                send(c)
        while any(pending):
            live = [s for s, q in zip(self.socks, pending) if q]
            ready, _, _ = select.select(live, [], [], DRAIN_SECONDS)
            if not ready:
                phase.fail("timeout", sum(len(q) for q in pending))
                break
            for s in ready:
                c = self.socks.index(s)
                try:
                    chunk = s.recv(1 << 16)
                    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                except OSError:
                    chunk = b""
                if not chunk:
                    phase.fail("connection_closed", len(pending[c]))
                    pending[c].clear()
                    continue
                now = time.perf_counter()
                buf = bufs[c]
                buf += chunk
                while len(buf) >= 4 and len(buf) >= 4 + FRAME.unpack_from(buf)[0]:
                    length = FRAME.unpack_from(buf)[0]
                    status = self._check(bytes(buf[4:4 + length]), pending[c].popleft())
                    del buf[:4 + length]
                    if status == "ok":
                        phase.ok()
                        done.append(now)
                    else:
                        phase.fail(status)
                    if now < end:
                        send(c)
        return len(done) / (done[-1] - start) if done else 0.0

    def _send(self, i, pending, rids, send_at, status):
        c = i % CONNECTIONS
        frame = self.frames[i % len(self.frames)]
        rid = self.next_id
        self.next_id += 1
        frame[10:18] = rid.to_bytes(8, "little")   # after the prefix and magic+version
        try:
            self.socks[c].sendall(frame)
        except OSError:
            status[i] = "send_error"
            return
        send_at[i] = time.perf_counter()
        rids[i] = rid
        pending[c].append(i)

    def _receive(self, c, pending, bufs, rids, done, status, sample) -> int:
        """Read what connection ``c`` has; returns the replies completed."""
        try:
            chunk = self.socks[c].recv(1 << 16)
            self.socks[c].setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        except OSError:
            chunk = b""
        if not chunk:
            lost = len(pending[c])
            for i in pending[c]:
                status[i] = "connection_closed"
            pending[c].clear()
            return lost
        now = time.perf_counter()
        buf = bufs[c]
        buf += chunk
        count = 0
        while len(buf) >= 4:
            (length,) = FRAME.unpack_from(buf)
            if len(buf) < 4 + length:
                break
            msg = bytes(buf[4:4 + length])
            del buf[:4 + length]
            i = pending[c].popleft()
            done[i] = now
            status[i] = self._check(msg, int(rids[i]))
            if status[i] == "ok" and sample and i % VERIFY_EVERY == 0:
                self.samples.append((i % len(self.frames), msg))
            count += 1
        return count

    def _check(self, msg: bytes, rid: int) -> str:
        """Status OK, echoed id and the input's shape, from the envelope."""
        if len(msg) < protocol.ENVELOPE_SIZE or msg[:4] != protocol.RESPONSE_MAGIC:
            return "malformed"
        (echo,) = struct.unpack_from("<Q", msg, 6)
        if msg[14] != protocol.STATUS_OK:
            return f"status_{msg[14]}"
        if echo != rid:
            return "wrong_id"
        if len(msg) != self.reply_size or \
                msg[protocol.ENVELOPE_SIZE:protocol.ENVELOPE_SIZE + CONTAINER_HEADER] != self.header:
            return "wrong_shape"
        return "ok"


def _setup(seed: int):
    """Model on disk, pre-bound request pool, and a worker serving the model."""
    data = trainer.synth_dataset(seed, n_classes=4, n_train=64, n_test=POOL,
                                 noise_sigma=0.3, dims=DIMS)
    model = trainer.init_toy_model(seed + 1, data.n_classes, data.dims)
    model_path = OUT_DIR / f"model-serve_open-{seed}.hbtm"
    trainer.save_model(model, model_path)
    rng = RngStream(seed, counter=1 << 40)
    pool, secrets = [], []
    for x in data.test_images:
        secret, rng = sample_secret(DIMS, rng)
        payload = bind(x, secret)
        pool.append(protocol.encode_request(protocol.BoundRequest(0, payload)))
        secrets.append(secret.tensor.copy())
    worker = WorkerProcess(model_path, tag=f"serve_open-{seed}").start()
    return model, pool, secrets, worker


def ladder(gen: Generator, phase: Phase, budget: float) -> tuple[int, list]:
    """Index of the highest ladder rate meeting the limit.

    A coarse pass climbs every COARSE_STRIDE-th rung until one fails; then
    the rungs between the last coarse pass and that failure run for longer,
    upward until one fails, and the highest that passes is the capacity.
    Stops early when ``budget`` seconds are spent. Returns (index, or -1
    when the first rung fails; rungs run).
    """
    end = time.perf_counter() + budget
    rungs = []

    def attempt(idx, seconds):
        rungs.append(gen.run(LADDER[idx], seconds, phase))
        return rungs[-1].meets_limit()

    idx, passed = 0, -1
    while idx < len(LADDER) and time.perf_counter() < end and attempt(idx, RUNG_SECONDS):
        passed = idx
        idx += COARSE_STRIDE
    if passed < 0:
        return -1, rungs
    best = passed
    for idx in range(passed + 1, min(passed + COARSE_STRIDE, len(LADDER))):
        if time.perf_counter() >= end or not attempt(idx, FINE_RUNG_SECONDS):
            break
        best = idx
    return best, rungs


@dataclass
class Segments:
    """Reference and saturation segments, and the same figures in ticks."""

    ref: Rung                                           # pooled reference segments
    ref_ticks: list = field(default_factory=list)       # latency / tick, per request
    sat_rates: list = field(default_factory=list)       # replies/s, per segment
    sat_per_tick: list = field(default_factory=list)    # replies per tick, per segment


def alternate(gen: Generator, clock: HostClock, phases: dict, seconds: float) -> Segments:
    """Reference and saturation segments, alternating, for ``seconds``.

    The host clock is read between segments; each segment's figures are
    divided by the mean of the two reads around it.
    """
    end = time.perf_counter() + seconds
    refs, out = [], Segments(Rung(REF_RATE))
    before = clock.tick()
    while not refs or time.perf_counter() < end:
        ref = gen.run(REF_RATE, REF_SEGMENT_S, phases["reference"], sample=True)
        after = clock.tick()
        unit, before = (before + after) / 2, after
        refs.append(ref)
        out.ref_ticks += [t / unit for t in ref.latency]
        rate = gen.saturate(SAT_SEGMENT_S, phases["saturation"])
        after = clock.tick()
        unit, before = (before + after) / 2, after
        out.sat_rates.append(rate)
        out.sat_per_tick.append(rate * unit)
    out.ref = Rung.merge(refs)
    return out


def verify_samples(model, pool, samples, phase) -> None:
    """Sampled replies must match backbone_applier run in process."""
    applier = trainer.backbone_applier(model)
    for j, msg in samples:
        expect = applier(protocol.decode_request(pool[j]).payload).astype(np.float32)
        got = protocol.decode_response(msg).payload
        scale = max(1.0, float(np.max(np.abs(expect))))
        if got.shape == DIMS and float(np.max(np.abs(got - expect))) <= 1e-5 * scale:
            phase.ok()
        else:
            phase.fail("mismatch")
    gate(phase.attempted > 0 and phase.failed == 0,
         f"{phase.failed} of {phase.attempted} sampled replies differ from the applier")


def run(seed: int, seconds: float, trace: bool) -> dict:
    phases = {name: Phase() for name in ("setup", "reference", "saturation", "ladder", "verify")}
    pin(CPU)
    (model, pool, secrets, worker), setup_times = repeat_setup(lambda: _setup(seed),
                                                               lambda state: state[3].stop())
    phases["setup"].ok(len(setup_times))
    result = {"setup_times": setup_times, "phases": phases, "secrets": secrets[:4]}
    traced_worker = None
    gen = None
    try:
        # With tracing, the untraced reference (a quarter of the time) only
        # sets the overhead baseline; the traced worker then runs the
        # reference for another quarter and one ladder search.
        share = 0.25
        gen = Generator(worker.port, pool)
        gen.run(REF_RATE, 0.5, Phase())   # warm-up, not counted
        if trace:
            ref = gen.run(REF_RATE, seconds * share, phases["reference"], sample=True)
        else:
            start = time.perf_counter()
            best, rungs = ladder(gen, phases["ladder"], seconds * LADDER_SHARE)
            seg = alternate(gen, HostClock(), phases, start + seconds - time.perf_counter())
            ref = seg.ref
        threads = worker.status().get("Threads", 0)
        gen.close()
        samples = gen.samples
        gen = None
        worker.stop()
        if trace:
            spans_path = OUT_DIR / f"spans-worker-serve_open-{seed}.jsonl"
            traced_worker = WorkerProcess(worker.model_path, spans_path,
                                          tag=f"serve_open-traced-{seed}").start()
            phases["traced"] = Phase()
            gen = Generator(traced_worker.port, pool)
            gen.run(REF_RATE, 0.5, Phase())
            tref = gen.run(REF_RATE, seconds * share, phases["traced"])
            threads = traced_worker.status().get("Threads", 0)
            best, rungs = ladder(gen, phases["ladder"], seconds * (1 - 2 * share))
            seg = Segments(ref)   # no segments in a traced run
            gen.close()
            gen = None
            traced_worker.stop()
            wspans = load_spans(spans_path)
            trips = [closed_span("protocol.roundtrip", start, end, request_id=rid)
                     for rid, start, end in tref.trips]
            size = protocol.request_size(DIMS)
            result["per_layer"] = layers.layer_metrics(
                trips, wspans, n_ops=phases["traced"].succeeded, dims=DIMS,
                window=tref.window, requests=len(tref.latency),
                requests_failed=phases["traced"].failed, bytes_up=size, bytes_down=size,
                worker_threads=threads, overhead_frac=tref.p50_ms / ref.p50_ms - 1.0)
            result["worker_spans_path"] = spans_path
            result["queue_wait_by_rate_us"] = _queue_wait_by_rung(rungs, wspans)
        verify_samples(model, pool, samples, phases["verify"])
    finally:
        if gen is not None:
            gen.close()
        worker.stop()
        if traced_worker is not None:
            traced_worker.stop()
        worker.model_path.unlink(missing_ok=True)
    # 0 when even the lowest rung missed the limit: a measurement, not a
    # failed operation, so it does not fail the run.
    max_rate = LADDER[best] if best >= 0 else 0.0
    ref_ticks = median(seg.ref_ticks) if seg.ref_ticks else math.nan
    sat_per_tick = median(seg.sat_per_tick) if seg.sat_per_tick else math.nan
    lines = [f"reference {REF_RATE:g}/s: generator late p99 "
             f"{quantile(ref.lateness, 0.99) * 1e3:.3g} ms over {len(ref.latency)} requests"]
    if seg.sat_rates:
        lines += [f"request_p50_ticks {ref_ticks:.6g} ticks; saturated ({SAT_DEPTH} outstanding "
                  f"per connection): median {median(seg.sat_rates):.6g}/s, {sat_per_tick:.6g} "
                  f"per tick over {len(seg.sat_rates)} segments"]
    named = {"request_p50_ms": ref.p50_ms, "request_p99_ms": ref.p99_ms, "max_rate_rps": max_rate}
    result.update({
        "named": named,
        "op": {"ticks": ref_ticks, "rate_per_tick": sat_per_tick, "samples": len(ref.latency)},
        "worker_peak_kb": worker.peak.get("VmHWM", 0),
        "details": {"reference_rate": REF_RATE, "p99_limit_ms": P99_LIMIT_MS,
                    "reference": ref.summary(), "worker_threads_under_load": threads,
                    "saturation_outstanding": SAT_DEPTH * CONNECTIONS,
                    "saturation_rates_rps": seg.sat_rates,
                    "saturation_per_tick": seg.sat_per_tick,
                    "ladder": [r.summary() for r in rungs],
                    "queue_wait_by_rate_us": result.pop("queue_wait_by_rate_us", None)},
        "lines": lines + ["ladder (rate/s: p99 ms): " + ", ".join(
            f"{r.rate:g}: {r.p99_ms:.3g}{'' if r.meets_limit() else ' x'}" for r in rungs)],
    })
    return result


def _queue_wait_by_rung(rungs, wspans) -> dict:
    """Median worker queue wait per ladder rate (handler start - send)."""
    starts = {s["rid"]: s["start"] for s in wspans if s["name"] == "protocol.handler"}
    out = {}
    for rung in rungs:
        waits = [starts[rid] - sent for rid, sent, _ in rung.trips if rid in starts]
        out[str(rung.rate)] = median(waits) * 1e6 if waits else None
    return out
