"""One-round split-inference protocol between a client and an untrusted worker.

Each prediction replicate is exactly one request and one response. A message
is an 18-byte envelope followed by a tensor container (f32 on the wire);
stream transports frame messages with a u32 length prefix. Secrets never
serialize into any message: the worker only ever sees bound tensors.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from .backbone import BackboneSpec, FlopReport, count_flops, transform_cost
from .errors import (
    FormatError,
    ParameterError,
    ProtocolError,
    RemoteFailureError,
    SpecError,
    TransportError,
)
from .tensor import RngStream, container_size, tensor_from_bytes, tensor_to_bytes
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


def encode_request(req: BoundRequest) -> bytes:  # perfbench wraps this
    return _envelope(REQUEST_MAGIC, req.request_id, STATUS_OK) + \
        tensor_to_bytes(req.payload, "f32")


def decode_request(data: bytes) -> BoundRequest:
    request_id, status = _parse_envelope(data, REQUEST_MAGIC)
    if status != STATUS_OK:
        raise ProtocolError(f"request status must be 0, got {status}", offset=14)
    try:
        payload = tensor_from_bytes(data[ENVELOPE_SIZE:])
    except FormatError as err:
        offset = ENVELOPE_SIZE + (err.offset or 0)
        raise ProtocolError(f"bad request container: {err}", offset=offset) from err
    return BoundRequest(request_id, payload)


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
    try:
        payload = tensor_from_bytes(data[ENVELOPE_SIZE:])
    except FormatError as err:
        offset = ENVELOPE_SIZE + (err.offset or 0)
        raise ProtocolError(f"bad response container: {err}", offset=offset) from err
    return BoundResponse(request_id, status, payload)


def request_size(dims) -> int:
    """Exact request byte count for an input shape: envelope + f32 container."""
    return ENVELOPE_SIZE + container_size(dims, "f32")


# ------------------------------------------------------------ worker handler

def handle_request_bytes(applier, data: bytes) -> bytes:
    """Decode, run the backbone, encode; never raises on bad input."""
    start = time.perf_counter()
    request_id = 0
    if len(data) >= 14 and data[:4] == REQUEST_MAGIC:
        request_id = struct.unpack_from("<Q", data, 6)[0]
    try:
        req = decode_request(data)
    except ProtocolError as err:
        log.warning("request %d malformed: %s", request_id, err)
        return encode_response(BoundResponse(request_id, STATUS_MALFORMED, None))
    try:
        result = applier(req.payload)
    except Exception as err:  # the payload must never appear in logs
        log.warning("request %d backbone failure: %s", req.request_id, err)
        return encode_response(BoundResponse(req.request_id, STATUS_APPLY_ERROR, None))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    log.info("request %d dims=%s served in %.2f ms",
             req.request_id, tuple(req.payload.shape), elapsed_ms)
    return encode_response(BoundResponse(req.request_id, STATUS_OK, result))


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
    """In-process transport running the worker handler directly."""

    def __init__(self, applier):
        self._applier = applier

    def request(self, data: bytes) -> bytes:
        return handle_request_bytes(self._applier, data)


class TcpTransport(Transport):
    """Length-prefixed message exchange over one TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = None
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as err:
            raise TransportError(f"cannot connect to {host}:{port}: {err}") from err

    def request(self, data: bytes) -> bytes:
        try:
            self._sock.sendall(struct.pack("<I", len(data)) + data)
            return _read_frame(self._sock)
        except OSError as err:
            raise TransportError(f"transport failure: {err}") from err

    def close(self) -> None:
        if self._sock is not None:
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


def _read_frame(sock) -> bytes:
    header = _read_exact(sock, 4)
    (length,) = struct.unpack("<I", header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _read_exact(sock, length)


def _read_exact(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -------------------------------------------------------------------- worker

class WorkerServer:
    """Threaded TCP worker: one handler thread per connection.

    Handlers share only the immutable applier; per-request state is local,
    so interleaved requests from many connections are safe.
    """

    def __init__(self, applier, host: str = "127.0.0.1", port: int = 0):
        if isinstance(applier, BackboneSpec):
            # the client unbinds the reply with the secret it bound the
            # request with, which needs the input's shape back
            if not applier.shape_preserving:
                raise SpecError(f"cannot serve a spec that maps {applier.input_dims} "
                                f"to {applier.output_dims}; the shape must be preserved")
            applier = applier.apply
        self._applier = applier
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self._threads: list[threading.Thread] = []
        self._running = False
        self._accept_thread = None

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> "WorkerServer":
        self._running = True
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return
            log.info("connection from %s:%d", *peer[:2])
            thread = threading.Thread(target=self._serve_connection, args=(conn,),
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve_connection(self, conn) -> None:
        with conn:
            while self._running:
                try:
                    message = _read_frame(conn)
                except TransportError:
                    return
                except OSError:
                    return
                reply = handle_request_bytes(self._applier, message)
                try:
                    conn.sendall(struct.pack("<I", len(reply)) + reply)
                except OSError:
                    return

    def stop(self) -> None:
        self._running = False
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=1.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def worker_serve(applier, host: str = "127.0.0.1", port: int = 9741) -> None:
    """Blocking serve loop for the CLI; stops on KeyboardInterrupt."""
    server = WorkerServer(applier, host, port)
    server.start()
    log.info("worker listening on %s:%d", *server.address)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
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

def cost_report(spec: BackboneSpec, dims, k: int, n_classes: int = 4,
                hidden: int = 64) -> FlopReport:
    """Remote/local multiply-add split and traffic for k replicates.

    Remote is k backbone passes. Local is one transform of x, then per replicate
    four transforms of every channel (secret, payload, reply, unbound reply) and
    the head; bias adds and pointwise ops are not counted.
    """
    dims = tuple(dims)
    head_flops = hidden * int(np.prod(dims)) + n_classes * hidden
    remote = k * count_flops(spec)
    one_transform = transform_cost(dims) // 3  # transform_cost counts three
    local = (1 + 4 * k) * one_transform + k * head_flops
    message = request_size(dims)
    return FlopReport(remote_flops=remote, local_flops=local,
                      bytes_up=k * message, bytes_down=k * message)
