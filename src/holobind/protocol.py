"""One-round split-inference protocol between a client and an untrusted worker.

Each prediction replicate is exactly one request and one response. A message
is an 18-byte envelope followed by a tensor container (f32 on the wire);
stream transports frame messages with a u32 length prefix. Secrets never
serialize into any message: the worker only ever sees bound tensors.
"""

from __future__ import annotations

import collections
import contextlib
import logging
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneSpec, FlopReport, count_flops, fft_flops
from .errors import (
    FormatError,
    ParameterError,
    ProtocolError,
    RemoteFailureError,
    ShapeError,
    SpecError,
    TransportError,
)
from .tensor import RngStream, container_size, tensor_from_bytes, tensor_to_bytes
from .trainer import _HIDDEN
from .vsa import from_spectrum, sample_secret_spectra, spectrum
from .vsa import bind, sample_secret, unbind  # unused here; perfbench wraps them

log = logging.getLogger("holobind.protocol")

REQUEST_MAGIC = b"HBRQ"
RESPONSE_MAGIC = b"HBRS"
VERSION = 1
ENVELOPE_SIZE = 18

STATUS_OK = 0
STATUS_MALFORMED = 1
STATUS_APPLY_ERROR = 2
_KNOWN_STATUS = (STATUS_OK, STATUS_MALFORMED, STATUS_APPLY_ERROR)


@dataclass(frozen=True)
class BoundRequest:
    request_id: int
    payload: np.ndarray


@dataclass(frozen=True)
class BoundResponse:
    request_id: int
    status: int
    payload: np.ndarray | None


@dataclass
class QueryPlan:
    """How many replicates to send, and the stream their secrets come from."""

    k: int
    rng: RngStream
    transport: "Transport"

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"replicate count must be >= 1, got {self.k}")


# ------------------------------------------------------------- wire encoding

def _envelope(magic: bytes, request_id: int, status: int) -> bytes:
    return magic + struct.pack("<HQB3x", VERSION, request_id, status)


def _parse_envelope(data: bytes, magic: bytes) -> tuple[int, int]:
    if len(data) < ENVELOPE_SIZE:
        raise ProtocolError(f"message shorter than the {ENVELOPE_SIZE}-byte envelope",
                            offset=len(data))
    if data[:4] != magic:
        raise ProtocolError(f"bad magic {data[:4]!r}, expected {magic!r}", offset=0)
    version, request_id, status = struct.unpack_from("<HQB", data, 4)
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}", offset=4)
    return request_id, status


def _payload(data: bytes, kind: str) -> np.ndarray:
    """The message's tensor; a malformed or non-finite one is a ProtocolError."""
    try:
        return tensor_from_bytes(data[ENVELOPE_SIZE:])
    except FormatError as err:
        offset = ENVELOPE_SIZE + (err.offset or 0)
        raise ProtocolError(f"bad {kind} container: {err}", offset=offset) from err


def encode_request(req: BoundRequest) -> bytes:  # perfbench wraps this
    return _envelope(REQUEST_MAGIC, req.request_id, STATUS_OK) + \
        tensor_to_bytes(req.payload, "f32")


def decode_request(data: bytes) -> BoundRequest:
    request_id, status = _parse_envelope(data, REQUEST_MAGIC)
    if status != STATUS_OK:
        raise ProtocolError(f"request status must be 0, got {status}", offset=14)
    return BoundRequest(request_id, _payload(data, "request"))


def encode_response(resp: BoundResponse) -> bytes:
    head = _envelope(RESPONSE_MAGIC, resp.request_id, resp.status)
    if resp.status == STATUS_OK:
        return head + tensor_to_bytes(resp.payload, "f32")
    return head


def decode_response(data: bytes) -> BoundResponse:  # perfbench wraps this
    request_id, status = _parse_envelope(data, RESPONSE_MAGIC)
    if status not in _KNOWN_STATUS:
        raise ProtocolError(f"unknown status {status}", offset=14)
    if status != STATUS_OK:
        return BoundResponse(request_id, status, None)
    return BoundResponse(request_id, status, _payload(data, "response"))


def request_size(dims) -> int:
    """Exact request byte count for an input shape: envelope + f32 container."""
    return ENVELOPE_SIZE + container_size(dims, "f32")


# ------------------------------------------------------------ worker handler

def _failure(request_id: int, err: Exception) -> bytes:
    # the payload must never appear in logs; the error names shapes only
    log.warning("request %d backbone failure: %s", request_id, err)
    return encode_response(BoundResponse(request_id, STATUS_APPLY_ERROR, None))


def handle_request_bytes(spec: BackboneSpec, data: bytes) -> bytes:
    """The reply to one request body: ``handle_request_batch`` on a batch of one."""
    return handle_request_batch(spec, [data])[0]


def handle_request_batch(spec: BackboneSpec, bodies: list) -> list:
    """One reply per request body, from one ``spec.forward`` over the well-formed ones.

    Never raises on bad input. A malformed body gets status 1; a body of
    another shape, a backbone failure or a result with no finite f32 form
    gets status 2. The forward treats items independently, so each reply is
    the one the body would get in a batch of its own.
    """
    start = time.perf_counter()
    replies, runnable = [], []
    for body in bodies:
        try:
            req = decode_request(body)
        except ProtocolError as err:
            known = len(body) >= 14 and body[:4] == REQUEST_MAGIC
            request_id = struct.unpack_from("<Q", body, 6)[0] if known else 0
            log.warning("request %d malformed: %s", request_id, err)
            replies.append(encode_response(BoundResponse(request_id, STATUS_MALFORMED, None)))
            continue
        if req.payload.shape == spec.input_dims:
            runnable.append((len(replies), req))
            replies.append(None)
        else:
            replies.append(_failure(req.request_id, ShapeError(
                f"input dims {req.payload.shape} != spec input {spec.input_dims}")))
    if not runnable:
        return replies
    try:
        results, _ = spec.forward(np.array([req.payload for _, req in runnable]))
    except Exception as err:  # any backbone fault is the request's status, not ours
        for i, req in runnable:
            replies[i] = _failure(req.request_id, err)
        return replies
    for (i, req), result in zip(runnable, results):
        try:
            replies[i] = encode_response(BoundResponse(req.request_id, STATUS_OK, result))
        except ParameterError as err:  # the result has no finite f32 form
            replies[i] = _failure(req.request_id, err)
        else:
            log.info("request %d dims=%s served in %.2f ms", req.request_id,
                     tuple(req.payload.shape), (time.perf_counter() - start) * 1e3)
    return replies


def _servable(spec) -> BackboneSpec:
    """``spec`` if a worker can serve it: a BackboneSpec that keeps the input's shape."""
    if not isinstance(spec, BackboneSpec):
        raise SpecError(f"the worker serves a BackboneSpec, got {type(spec).__name__}")
    # the client unbinds the reply with the secret it bound the request
    # with, which needs the input's shape back
    if not spec.shape_preserving:
        raise SpecError(f"cannot serve a spec that maps {spec.input_dims} "
                        f"to {spec.output_dims}; the shape must be preserved")
    return spec


# ---------------------------------------------------------------- transports

class Transport:
    def request(self, data: bytes) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class LoopbackTransport(Transport):
    """In-process transport: each request goes through the served worker's handler."""

    def __init__(self, spec: BackboneSpec):
        self.spec = _servable(spec)

    def request(self, data: bytes) -> bytes:
        return handle_request_bytes(self.spec, data)


class TcpTransport(Transport):
    """Length-prefixed message exchange over one TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = None
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as err:
            raise TransportError(f"cannot connect to {host}:{port}: {err}") from err
        self._rfile = self._sock.makefile("rb")

    def request(self, data: bytes) -> bytes:
        """Send one message and read its reply.

        A reply is no longer than the larger of its request and an
        envelope, so a longer announced frame is refused before its body
        is read.
        """
        try:
            self._sock.sendall(struct.pack("<I", len(data)) + data)
            return _read_frame(self._rfile, max(len(data), ENVELOPE_SIZE))
        except OSError as err:
            raise TransportError(f"transport failure: {err}") from err

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = None


class TranscriptRecorder(Transport):
    """Wraps a transport and records every message byte string."""

    def __init__(self, inner: Transport):
        self.inner = inner
        self.sent: list[bytes] = []
        self.received: list[bytes] = []

    def request(self, data: bytes) -> bytes:
        self.sent.append(data)
        reply = self.inner.request(data)
        self.received.append(reply)
        return reply

    def close(self) -> None:
        self.inner.close()

    def all_bytes(self) -> bytes:
        return b"".join(self.sent) + b"".join(self.received)


# Frames larger than this are treated as protocol abuse, not payloads.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# A connection is closed when it has sent nothing for this long, or when its
# current frame has been incomplete for this long.
IDLE_TIMEOUT_S = 30.0

# Connections accepted beyond this many are closed at once. It is twice the
# listen backlog, so a backlog full of clients that already hung up cannot
# crowd out the next one.
MAX_CONNECTIONS = 256

# Whole frames the worker runs through one handle_request_batch per turn;
# the forward itself runs them in blocks of backbone.FORWARD_BLOCK items.
MAX_TURN_FRAMES = 16

_LISTEN_BACKLOG = 128
_RECV_BYTES = 1 << 16


def _read_frame(rfile, limit: int = MAX_FRAME_BYTES) -> bytes:
    """Read one length-prefixed frame of at most ``limit`` bytes from a buffered binary file."""
    header = rfile.read(4)
    if len(header) < 4:
        raise TransportError("connection closed mid-frame")
    length = int.from_bytes(header, "little")
    if length > limit:
        raise TransportError(f"frame of {length} bytes exceeds the {limit} cap")
    message = rfile.read(length)
    if len(message) < length:
        raise TransportError("connection closed mid-frame")
    return message


# -------------------------------------------------------------------- worker

class _Connection:
    """One client: its socket, unparsed bytes, whole frames and unsent replies.

    ``since`` is when the connection last made progress: a frame completed,
    a new frame began, or a reply went out. A trickle of bytes inside one
    frame does not count, so a frame cannot stay incomplete past the deadline.
    """

    __slots__ = ("sock", "inbuf", "frames", "outbuf", "since", "events")

    def __init__(self, sock: socket.socket, now: float):
        self.sock = sock
        self.inbuf = bytearray()
        self.frames = collections.deque()
        self.outbuf = bytearray()
        self.since = now
        self.events = selectors.EVENT_READ

    def receive(self, now: float) -> bool:
        """Read what has arrived and split off whole frames; False to close."""
        try:
            data = self.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not data:
            return False
        fresh = not self.inbuf
        buf = self.inbuf
        buf += data
        pos = 0
        while len(buf) - pos >= 4:
            length = int.from_bytes(buf[pos:pos + 4], "little")
            if length > MAX_FRAME_BYTES:
                log.warning("frame of %d bytes exceeds the %d cap; closing", length,
                            MAX_FRAME_BYTES)
                return False
            if len(buf) - pos - 4 < length:
                break
            self.frames.append(bytes(buf[pos + 4:pos + 4 + length]))
            pos += 4 + length
        del buf[:pos]
        if fresh or pos:
            self.since = now
        return True

    def flush(self, now: float) -> bool:
        """Send as much of the unsent replies as the socket takes; False to close."""
        try:
            sent = self.sock.send(self.outbuf)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if sent:
            del self.outbuf[:sent]
            self.since = now
        return True


class WorkerServer:
    """TCP worker: one selectors loop serves every connection.

    Each turn reads every readable connection into its own buffer, then runs
    up to MAX_TURN_FRAMES whole frames, taken across connections one at a
    time, through one ``handle_request_batch``. Each connection's replies go
    out in request order with one send. A connection whose replies are not
    all sent is neither read nor given more work until they are, so a client
    that stops reading holds at most one batch of replies.
    """

    def __init__(self, spec: BackboneSpec, host: str = "127.0.0.1", port: int = 0):
        self.spec = _servable(spec)
        self.socket = socket.create_server((host, port), backlog=_LISTEN_BACKLOG)
        self.socket.setblocking(False)
        self._wake, self._waker = socket.socketpair()  # stop() writes to the waker
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._loop = None

    @property
    def address(self) -> tuple[str, int]:
        return self.socket.getsockname()[:2]

    def start(self) -> "WorkerServer":
        self._loop = threading.Thread(target=self.serve_forever, daemon=True)
        self._loop.start()
        return self

    def stop(self) -> None:
        """Wake the loop, wait for it to close every connection, close the listener."""
        with contextlib.suppress(OSError):
            self._waker.send(b"\0")
        if self._loop is not None:
            self._loop.join()
            self._loop = None
        for sock in (self.socket, self._wake, self._waker):
            sock.close()
        self._selector.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def serve_forever(self) -> None:
        """Serve until ``stop()``; every connection is closed on the way out."""
        conns = set()  # the open connections, owned by the running loop
        timeout = None
        try:
            while True:
                events = self._selector.select(timeout)
                now = time.monotonic()
                for key, mask in events:
                    conn = key.data
                    if key.fileobj is self._wake:
                        return
                    if conn is None:
                        self._accept(conns, now)
                    elif mask & selectors.EVENT_WRITE:
                        if not conn.flush(now):
                            self._drop(conns, conn)
                    elif not conn.frames and not conn.receive(now):
                        self._drop(conns, conn)  # whole frames waiting are answered first
                timeout = self._turn(conns, now)
        finally:
            for conn in list(conns):
                self._drop(conns, conn)

    def _turn(self, conns: set, now: float) -> float | None:
        """Drop expired connections, answer one batch; the next select timeout."""
        batch, queues = [], []
        for conn in list(conns):
            if now - conn.since >= IDLE_TIMEOUT_S:
                log.info("closing a connection idle or mid-frame for %.1f s", now - conn.since)
                self._drop(conns, conn)
            elif conn.frames and not conn.outbuf:
                queues.append(conn)
        while queues and len(batch) < MAX_TURN_FRAMES:
            for conn in queues[:MAX_TURN_FRAMES - len(batch)]:
                batch.append((conn, conn.frames.popleft()))
            queues = [c for c in queues if c.frames]
        if batch:
            replies = handle_request_batch(self.spec, [body for _, body in batch])
            for (conn, _), reply in zip(batch, replies):
                conn.outbuf += struct.pack("<I", len(reply)) + reply
            for conn in dict.fromkeys(conn for conn, _ in batch):
                if not conn.flush(now):
                    self._drop(conns, conn)
        timeout = None
        for conn in conns:
            events = selectors.EVENT_WRITE if conn.outbuf else selectors.EVENT_READ
            if events != conn.events:
                self._selector.modify(conn.sock, events, conn)
                conn.events = events
            # a whole frame that missed this batch makes the next turn start at once
            waiting = conn.frames and not conn.outbuf
            due = 0.0 if waiting else max(0.0, conn.since + IDLE_TIMEOUT_S - now)
            timeout = due if timeout is None else min(timeout, due)
        return timeout

    def _accept(self, conns: set, now: float) -> None:
        while True:
            try:
                sock, peer = self.socket.accept()
            except BlockingIOError:
                return
            except OSError as err:  # e.g. out of descriptors; the backlog keeps the client
                log.warning("accept failed: %s", err)
                return
            if len(conns) >= MAX_CONNECTIONS:
                log.warning("connection from %s:%d closed: %d connections are open",
                            *peer[:2], MAX_CONNECTIONS)
                sock.close()
                continue
            log.info("connection from %s:%d", *peer[:2])
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, now)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            conns.add(conn)

    def _drop(self, conns: set, conn: _Connection) -> None:
        conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()


def worker_serve(spec: BackboneSpec, host: str, port: int) -> None:
    """Blocking serve loop for the CLI; returns on KeyboardInterrupt."""
    server = WorkerServer(spec, host, port)
    log.info("worker listening on %s:%d", *server.address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


# -------------------------------------------------------------------- client

def client_infer(x: np.ndarray, plan: QueryPlan, model) -> np.ndarray:
    """Run k replicates of the one-round exchange and average the softmax.

    Each replicate's fresh secret, kept only as a unit spectrum and zeroed on
    every exit, binds one request and unbinds its reply. Bind, unbind and the
    head each run once on all k; the k requests go one at a time.
    """
    from .trainer import _head_forward  # heads live with the trainer

    x = np.asarray(x, dtype=np.float64)
    dims, rank, k = x.shape, x.ndim, plan.k
    base_ids, rng = plan.rng.integers(1, 2 ** 32, 1)
    spectra, rng = sample_secret_spectra(dims, k, rng)
    try:
        payloads = from_spectrum(spectrum(x) * spectra, rank)
        replies = np.empty_like(payloads)
        for i in range(k):
            request_id = int(base_ids[0]) + i
            reply = plan.transport.request(encode_request(BoundRequest(request_id, payloads[i])))
            response = decode_response(reply)
            if response.request_id != request_id:
                raise ProtocolError(f"response id {response.request_id} does not echo "
                                    f"request {request_id}")
            if response.status != STATUS_OK:
                raise RemoteFailureError("worker reported failure", response.status)
            if response.payload.shape != dims:
                raise ProtocolError(f"response dims {response.payload.shape} != input dims {dims}")
            replies[i] = response.payload
        np.conjugate(spectra, out=spectra)  # the inverse of a unit spectrum, in place
        retrieved = from_spectrum(spectrum(replies, rank) * spectra, rank)
    finally:
        spectra.fill(0.0)
    probs, _ = _head_forward(model.params, "p", retrieved.reshape(k, -1))
    plan.rng = rng
    return np.mean(probs, axis=0)


# ------------------------------------------------------------ cost accounting

def cost_report(spec: BackboneSpec, dims, k: int, n_classes: int = 4) -> FlopReport:
    """Remote/local multiply-add split and traffic for k replicates of ``dims`` inputs.

    Remote is k backbone passes. Local is one transform of x, then per replicate
    four transforms of every channel (secret, payload, reply, unbound reply) and
    the head; bias adds and pointwise ops are not counted. The spec must be
    one a worker serves, as ``serve`` checks, and ``dims`` its input extents.
    """
    _servable(spec)
    if k < 1:
        raise ParameterError(f"replicate count must be >= 1, got {k}")
    dims = tuple(dims)
    if dims != spec.input_dims:
        raise ShapeError(f"dims {dims} != spec input {spec.input_dims}")
    h, w, depth = dims
    head_flops = _HIDDEN * h * w * depth + n_classes * _HIDDEN
    remote = k * count_flops(spec)
    one_transform = depth * fft_flops(h * w)  # one 2D transform of every channel
    local = (1 + 4 * k) * one_transform + k * head_flops
    message = request_size(dims)
    return FlopReport(remote_flops=remote, local_flops=local,
                      bytes_up=k * message, bytes_down=k * message)
