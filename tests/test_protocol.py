import contextlib
import select
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobind import protocol, vsa
from holobind.backbone import (
    FORWARD_BLOCK,
    BackboneSpec,
    CircConv2d,
    parse_spec,
    toy_fw_spec,
)
from holobind.errors import (
    DegenerateSpectrumError,
    ParameterError,
    ProtocolError,
    RemoteFailureError,
    ShapeError,
    SpecError,
    TransportError,
)
from holobind.protocol import (
    ENVELOPE_SIZE,
    REQUEST_MAGIC,
    STATUS_APPLY_ERROR,
    STATUS_MALFORMED,
    STATUS_OK,
    BoundRequest,
    BoundResponse,
    LoopbackTransport,
    QueryPlan,
    TcpTransport,
    TranscriptRecorder,
    WorkerServer,
    _read_frame,
    client_infer,
    cost_report,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    handle_request_batch,
    handle_request_bytes,
    request_size,
)
from holobind.tensor import RngStream, tensor_to_bytes
from holobind.trainer import _head_forward, backbone_applier, init_toy_model
from holobind.vsa import sample_secret, unbind

from oracles import identity_spec, per_replicate_client_infer


def _f32(arr):
    return np.asarray(arr).astype(np.float32).astype(np.float64)


class _FailingLayer:
    """A shape-keeping layer whose forward raises ``failure`` on the given calls (1-based).

    With ``on`` None every call fails; any other call passes its input through.
    """

    def __init__(self, failure, on=None):
        self.failure, self.on, self.calls = failure, on, 0

    def output_dims(self, dims):
        return dims

    def forward(self, t):
        self.calls += 1
        if self.on is None or self.calls in self.on:
            raise self.failure
        return t


def _failing_spec(dims, failure, on=None):
    return BackboneSpec(dims, (_FailingLayer(failure, on),))


# ------------------------------------------------------------------ encoding

def test_request_byte_count_16x16x1():
    payload = _f32(np.random.default_rng(0).normal(size=(16, 16, 1)))
    data = encode_request(BoundRequest(7, payload))
    assert len(data) == 18 + (4 + 1 + 1 + 12 + 1024) == 1060
    assert request_size((16, 16, 1)) == 1060


def test_request_round_trip():
    payload = _f32(np.random.default_rng(1).normal(size=(4, 5)))
    req = BoundRequest(123456789, payload)
    back = decode_request(encode_request(req))
    assert back.request_id == 123456789
    assert np.array_equal(back.payload, payload)


def test_response_round_trip():
    payload = _f32(np.random.default_rng(2).normal(size=(3, 3)))
    resp = BoundResponse(42, STATUS_OK, payload)
    back = decode_response(encode_response(resp))
    assert back.request_id == 42 and back.status == STATUS_OK
    assert np.array_equal(back.payload, payload)


def test_error_response_has_no_payload():
    data = encode_response(BoundResponse(9, STATUS_APPLY_ERROR, None))
    assert len(data) == ENVELOPE_SIZE
    back = decode_response(data)
    assert back.status == STATUS_APPLY_ERROR and back.payload is None


def test_unsupported_version_rejected():
    data = bytearray(encode_request(BoundRequest(1, _f32(np.ones((2, 2))))))
    data[4:6] = struct.pack("<H", 255)
    with pytest.raises(ProtocolError, match="version"):
        decode_request(bytes(data))


def test_bad_magic_offset_zero():
    data = b"XXXX" + encode_request(BoundRequest(1, _f32(np.ones(2))))[4:]
    with pytest.raises(ProtocolError) as err:
        decode_request(data)
    assert err.value.offset == 0


def test_truncated_container_reports_offset():
    data = encode_request(BoundRequest(1, _f32(np.ones((2, 2)))))
    with pytest.raises(ProtocolError) as err:
        decode_request(data[:-3])
    assert err.value.offset is not None and err.value.offset >= ENVELOPE_SIZE


def test_unknown_status_rejected():
    data = bytearray(encode_response(BoundResponse(1, STATUS_OK, _f32(np.ones(2)))))
    data[14] = 77
    with pytest.raises(ProtocolError, match="status"):
        decode_response(bytes(data))


# ------------------------------------------------------------------- handler

def test_handler_identity_echoes_payload():
    payload = _f32(np.random.default_rng(3).normal(size=(8, 8, 1)))
    spec = identity_spec((8, 8, 1))
    reply = handle_request_bytes(spec, encode_request(BoundRequest(5, payload)))
    resp = decode_response(reply)
    assert resp.request_id == 5 and resp.status == STATUS_OK
    assert np.array_equal(resp.payload, payload)


def test_a_spec_with_no_layer_lines_is_served_as_the_identity():
    x = np.random.default_rng(6).normal(size=(4, 4, 2))
    transport = LoopbackTransport(parse_spec("input 4 4 2\n"))
    resp = decode_response(transport.request(encode_request(BoundRequest(7, x))))
    assert resp.request_id == 7 and resp.status == STATUS_OK
    assert np.array_equal(resp.payload, x.astype(np.float32))


def test_handler_deterministic_bytes():
    payload = _f32(np.random.default_rng(4).normal(size=(16, 16, 1)))
    spec = toy_fw_spec()
    msg = encode_request(BoundRequest(11, payload))
    assert handle_request_bytes(spec, msg) == handle_request_bytes(spec, msg)


def test_handler_malformed_keeps_request_id():
    msg = bytearray(encode_request(BoundRequest(31, _f32(np.ones((2, 2, 1))))))
    msg[ENVELOPE_SIZE] = 0x58  # corrupt container magic
    resp = decode_response(handle_request_bytes(identity_spec((2, 2, 1)), bytes(msg)))
    assert resp.status == STATUS_MALFORMED
    assert resp.request_id == 31


def test_handler_and_worker_survive_a_container_with_more_dims_than_numpy_has():
    # 65 unit extents and one value: a well-sized container no array can hold
    msg = (REQUEST_MAGIC + struct.pack("<HQB3x", 1, 41, 0) + b"HBT1"
           + struct.pack("<BB65I", 1, 65, *[1] * 65) + struct.pack("<f", 1.0))
    spec = identity_spec((2, 2, 1))
    resp = decode_response(handle_request_bytes(spec, msg))
    assert resp.status == STATUS_MALFORMED and resp.request_id == 41
    valid = encode_request(BoundRequest(42, _f32(np.ones((2, 2, 1)))))
    assert len(msg) > request_size(spec.input_dims)  # the worker refuses it at the header
    with WorkerServer(spec) as server:
        with TcpTransport(*server.address) as transport, pytest.raises(TransportError):
            transport.request(msg)  # a closed or reset connection
        with TcpTransport(*server.address) as transport:
            assert decode_response(transport.request(valid)).status == STATUS_OK


def test_handler_apply_failure_status():
    spec = _failing_spec((2, 2, 1), ValueError("boom"))
    msg = encode_request(BoundRequest(3, _f32(np.ones((2, 2, 1)))))
    resp = decode_response(handle_request_bytes(spec, msg))
    assert resp.status == STATUS_APPLY_ERROR and resp.request_id == 3
    assert spec.layers[0].calls == 1  # the failure came from the backbone


@pytest.mark.parametrize("dims", [(2, 16, 16, 1), (8, 8, 1), (64, 64, 1)])
def test_handler_model_backbone_refuses_other_dims(dims):
    # A --model worker runs the same handler on a BackboneSpec as a --spec
    # worker, so a payload of any other shape costs no backbone pass.
    msg = encode_request(BoundRequest(4, np.zeros(dims)))
    for spec in (backbone_applier(init_toy_model(7)), toy_fw_spec()):
        resp = decode_response(handle_request_bytes(spec, msg))
        assert resp.status == STATUS_APPLY_ERROR and resp.request_id == 4


def test_handler_logs_metadata_never_payload(caplog):
    import logging

    payload = _f32(np.full((2, 2, 1), 7.125))  # value with a distinctive repr
    msg = encode_request(BoundRequest(99, payload))
    with caplog.at_level(logging.INFO, logger="holobind.protocol"):
        handle_request_bytes(identity_spec((2, 2, 1)), msg)
    joined = " ".join(rec.getMessage() for rec in caplog.records)
    assert "99" in joined and "(2, 2, 1)" in joined
    assert "7.125" not in joined


def _raw_message(magic, rid, dims, values):
    """A message built byte by byte, so its f32 payload may hold nan or inf."""
    return (magic + struct.pack("<HQB3x", 1, rid, 0) + b"HBT1"
            + struct.pack(f"<BB{len(dims)}I", 1, len(dims), *dims)
            + np.asarray(values, dtype="<f4").reshape(dims).tobytes())


def _raw_request(rid, dims, value):
    return _raw_message(REQUEST_MAGIC, rid, dims, np.full(dims, value))


def _scaling_spec(dims, gain):
    """One 1x1 circular conv that multiplies every value by ``gain``."""
    return BackboneSpec(dims, (CircConv2d(np.full((1, 1, dims[2], dims[2]), gain)),))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_request_is_malformed(value):
    values = np.ones((4, 4, 1))
    values[2, 1, 0] = value
    msg = _raw_message(REQUEST_MAGIC, 12, (4, 4, 1), values)
    with pytest.raises(ProtocolError, match="non-finite") as err:
        decode_request(msg)
    assert err.value.offset == ENVELOPE_SIZE + 6 + 12 + 4 * 9  # the bad value's bytes
    spec = identity_spec((4, 4, 1))
    reply = LoopbackTransport(spec).request(msg)
    assert reply == handle_request_bytes(spec, msg) == handle_request_batch(spec, [msg])[0]
    resp = decode_response(reply)
    assert resp.status == STATUS_MALFORMED and resp.request_id == 12


def test_client_refuses_a_non_finite_reply():
    reply = _raw_message(protocol.RESPONSE_MAGIC, 5, (2, 2), [1.0, np.inf, 0.0, 2.0])
    with pytest.raises(ProtocolError, match="non-finite"):
        decode_response(reply)

    class InfiniteWorker(protocol.Transport):
        def request(self, data):
            req = decode_request(data)
            return _raw_message(protocol.RESPONSE_MAGIC, req.request_id, req.payload.shape,
                                np.full(req.payload.shape, np.nan))

    plan = QueryPlan(2, RngStream(27), InfiniteWorker())
    with pytest.raises(ProtocolError, match="non-finite"):
        client_infer(np.ones((4, 4, 1)), plan, init_toy_model(2, dims=(4, 4, 1)))


def test_result_beyond_f32_range_gets_status_2():
    spec = _scaling_spec((2, 2, 1), 4.0)
    msg = encode_request(BoundRequest(6, np.full((2, 2, 1), 1e38)))  # 4e38 > f32 max
    reply = handle_request_bytes(spec, msg)
    resp = decode_response(reply)
    assert resp.status == STATUS_APPLY_ERROR and resp.request_id == 6
    assert handle_request_batch(spec, [msg]) == [reply]
    with WorkerServer(spec) as server, TcpTransport(*server.address) as transport:
        assert transport.request(msg) == reply


def _mixed_bodies(dims, rng, n_valid):
    """Valid requests among malformed, wrong-shape, non-finite and mutated ones."""
    bodies = [encode_request(BoundRequest(100 + i, _f32(rng.normal(size=dims))))
              for i in range(n_valid)]
    mutated = bytearray(bodies[0])
    mutated[ENVELOPE_SIZE] ^= 0xFF
    bodies[1:1] = [b"\x00" * 30, encode_request(BoundRequest(7, np.ones((2, 3, 1)))),
                   _raw_request(8, dims, np.nan), bytes(mutated), b""]
    return bodies


def test_batch_replies_equal_the_single_request_handler():
    spec = toy_fw_spec((8, 8, 1), seed=31)
    bodies = _mixed_bodies((8, 8, 1), np.random.default_rng(32), 20)  # over FORWARD_BLOCK
    replies = handle_request_batch(spec, bodies)
    assert replies == [handle_request_batch(spec, [body])[0] for body in bodies]
    statuses = [decode_response(r).status for r in replies]
    assert statuses.count(STATUS_OK) == 20
    assert statuses.count(STATUS_MALFORMED) == 4 and statuses.count(STATUS_APPLY_ERROR) == 1


# ------------------------------------------------------------------ loopback

@pytest.mark.parametrize("entry", [LoopbackTransport, WorkerServer])
@pytest.mark.parametrize("spec", [lambda t: t, parse_spec("input 4 4 1\ncircconv2d 3 3 1 2 3\n")],
                         ids=["callable", "shape_changing"])
def test_loopback_and_worker_refuse_the_same_specs(entry, spec):
    with pytest.raises(SpecError) as err:
        entry(spec)
    if isinstance(spec, BackboneSpec):
        assert "(4, 4, 2)" in str(err.value)

def test_loopback_end_to_end_identity_matches_local():
    model = init_toy_model(3)
    x = np.random.default_rng(5).normal(size=(16, 16, 1))
    plan = QueryPlan(1, RngStream(21), LoopbackTransport(identity_spec((16, 16, 1))))
    remote = client_infer(x, plan, model)
    local, _ = _head_forward(model.params, "p", x.reshape(1, -1))
    assert np.max(np.abs(remote - local[0])) <= 1e-5


def test_loopback_k_replicates_still_match_local():
    model = init_toy_model(4)
    x = np.random.default_rng(6).normal(size=(16, 16, 1))
    plan = QueryPlan(3, RngStream(22), LoopbackTransport(identity_spec((16, 16, 1))))
    remote = client_infer(x, plan, model)
    local, _ = _head_forward(model.params, "p", x.reshape(1, -1))
    assert np.max(np.abs(remote - local[0])) <= 1e-5
    assert remote.shape == (4,)
    assert np.sum(remote) == pytest.approx(1.0)


def test_round_count_and_request_sizes():
    model = init_toy_model(5)
    x = np.random.default_rng(7).normal(size=(16, 16, 1))
    recorder = TranscriptRecorder(LoopbackTransport(identity_spec((16, 16, 1))))
    plan = QueryPlan(4, RngStream(23), recorder)
    client_infer(x, plan, model)
    assert len(recorder.sent) == 4 and len(recorder.received) == 4
    for msg in recorder.sent:
        assert len(msg) == request_size((16, 16, 1))
    # every response echoes its request id, pairwise
    for sent, got in zip(recorder.sent, recorder.received):
        assert decode_request(sent).request_id == decode_response(got).request_id


def test_no_secret_bytes_in_transcript():
    model = init_toy_model(6)
    x = np.random.default_rng(8).normal(size=(16, 16, 1))
    recorder = TranscriptRecorder(LoopbackTransport(identity_spec((16, 16, 1))))
    seed_stream = RngStream(24)
    plan = QueryPlan(3, seed_stream, recorder)
    client_infer(x, plan, model)
    transcript = recorder.all_bytes()
    # regenerate the very secrets the client used (same stream, same order);
    # each must unbind its own sent payload back to x, or this checks nothing
    rng = seed_stream
    _, rng = rng.integers(1, 2 ** 32, 1)
    for sent in recorder.sent:
        secret, rng = sample_secret((16, 16, 1), rng)
        payload = decode_request(sent).payload
        assert np.max(np.abs(unbind(payload, secret) - x)) <= 1e-5  # f32 on the wire
        for dtype in ("f64", "f32"):
            blob = tensor_to_bytes(secret.tensor, dtype)[22:]  # payload bytes only
            assert blob not in transcript


def test_client_surfaces_remote_failure():
    broken = _failing_spec((16, 16, 1), ValueError("no"))
    model = init_toy_model(7)
    x = np.random.default_rng(9).normal(size=(16, 16, 1))
    plan = QueryPlan(1, RngStream(25), LoopbackTransport(broken))
    with pytest.raises(RemoteFailureError) as err:
        client_infer(x, plan, model)
    assert err.value.status == STATUS_APPLY_ERROR


@pytest.mark.parametrize("shape", [(8, 8, 1), (32, 32, 1), (16, 16)])
def test_client_refuses_an_input_of_another_shape_before_drawing_a_secret(monkeypatch, shape):
    monkeypatch.setattr(protocol, "sample_secret_spectra",
                        lambda *args: pytest.fail("a secret was drawn"))
    recorder = TranscriptRecorder(LoopbackTransport(identity_spec((16, 16, 1))))
    plan = QueryPlan(2, RngStream(25), recorder)
    with pytest.raises(ShapeError, match=r"\(16, 16, 1\)"):
        client_infer(np.ones(shape), plan, init_toy_model(7))
    assert recorder.sent == [] and plan.rng == RngStream(25)


@pytest.mark.parametrize("fault", ["id", "dims"])
def test_client_refuses_a_reply_that_does_not_match_its_request(fault):
    # the second of three replies echoes the wrong id or carries other dims
    class RewritingTransport(protocol.Transport):
        def __init__(self, inner):
            self.inner, self.replies = inner, 0

        def request(self, data):
            reply = self.inner.request(data)
            self.replies += 1
            if self.replies != 2:
                return reply
            resp = decode_response(reply)
            if fault == "id":
                return encode_response(BoundResponse(resp.request_id + 1, STATUS_OK, resp.payload))
            return encode_response(BoundResponse(resp.request_id, STATUS_OK, resp.payload[:8, :8]))

    transport = RewritingTransport(LoopbackTransport(identity_spec((16, 16, 1))))
    plan = QueryPlan(3, RngStream(26), transport)
    before = plan.rng
    x = np.random.default_rng(26).normal(size=(16, 16, 1))
    match = "does not echo" if fault == "id" else r"response dims \(8, 8, 1\)"
    with pytest.raises(ProtocolError, match=match):
        client_infer(x, plan, init_toy_model(7))
    assert transport.replies == 2
    assert plan.rng == before


def _recording_transport(kind, model):
    spec = identity_spec((16, 16, 1)) if kind == "identity" else backbone_applier(model)
    return TranscriptRecorder(LoopbackTransport(spec))


@pytest.mark.parametrize("kind", ["identity", "toy_backbone"])
@pytest.mark.parametrize("k", [1, 3, 10])
def test_client_infer_matches_per_replicate_reference(k, kind):
    # The identity backbone returns x whatever the secret, so only the toy
    # backbone's distribution shows a secret drawn out of order.
    model = init_toy_model(9)
    x = np.random.default_rng(30 + k).normal(size=(16, 16, 1))
    runs = []
    for infer in (client_infer, per_replicate_client_infer):
        recorder = _recording_transport(kind, model)
        plan = QueryPlan(k, RngStream(26, counter=k), recorder)
        dist = infer(x, plan, model)
        runs.append((dist, [decode_request(m) for m in recorder.sent], plan.rng))
    (dist, sent, rng), (ref_dist, ref_sent, ref_rng) = runs
    assert np.max(np.abs(dist - ref_dist)) <= 1e-12
    assert [r.request_id for r in sent] == [r.request_id for r in ref_sent]
    assert len(sent) == k
    for got, want in zip(sent, ref_sent):
        # the f64 payloads agree to rounding, so their f32 forms differ by at
        # most one unit in the last place
        assert np.max(np.abs(got.payload - want.payload)) <= 2.0 ** -23 * np.max(np.abs(want.payload))
    assert rng == ref_rng


def test_client_infer_retries_a_degenerate_draw_as_sample_secret_does(monkeypatch):
    normal = RngStream.normal

    def constant_at(counters):
        # a constant draw has zero spectral magnitude off DC: it cannot be projected
        def draw(self, dims, variance=1.0):
            arr, successor = normal(self, dims, variance)
            return (np.ones_like(arr) if self.counter in counters else arr), successor
        return draw

    model = init_toy_model(11)
    x = np.random.default_rng(31).normal(size=(16, 16, 1))
    # request ids come from counter 0 and secrets from 1 on; slot 1's first
    # draw (counter 2) fails, so slots 1 and 2 take counters 3 and 4
    monkeypatch.setattr(RngStream, "normal", constant_at({2}))
    runs = []
    for infer in (client_infer, per_replicate_client_infer):
        recorder = _recording_transport("toy_backbone", model)
        plan = QueryPlan(3, RngStream(29), recorder)
        dist = infer(x, plan, model)
        runs.append((dist, [decode_request(m).payload for m in recorder.sent], plan.rng))
    (dist, sent, rng), (ref_dist, ref_sent, ref_rng) = runs
    assert rng == ref_rng == RngStream(29, counter=5)
    assert np.max(np.abs(dist - ref_dist)) <= 1e-12
    for got, want in zip(sent, ref_sent):
        assert np.max(np.abs(got - want)) <= 2.0 ** -23 * np.max(np.abs(want))

    # four degenerate draws in a row give up, as sample_secret does, before
    # anything is sent
    monkeypatch.setattr(RngStream, "normal", constant_at({1, 2, 3, 4}))
    recorder = _recording_transport("identity", model)
    with pytest.raises(DegenerateSpectrumError):
        client_infer(x, QueryPlan(3, RngStream(29), recorder), model)
    assert recorder.sent == []


def _second_call_fails(fn, failure):
    calls = []

    def call(arg):
        calls.append(None)
        if len(calls) == 2:
            raise failure
        return fn(arg)

    return call


def test_client_infer_scrubs_secret_spectra_on_every_exit(monkeypatch):
    kept = []
    unit_spectrum = vsa.unit_spectrum

    def keeping(spec):
        kept.append(unit_spectrum(spec))
        return kept[-1]

    monkeypatch.setattr(vsa, "unit_spectrum", keeping)
    model = init_toy_model(10)
    x = np.random.default_rng(32).normal(size=(16, 16, 1))
    identity = identity_spec((16, 16, 1))
    client_infer(x, QueryPlan(3, RngStream(27), LoopbackTransport(identity)), model)
    # the second replicate fails: at the worker, then on the wire
    remote = LoopbackTransport(_failing_spec((16, 16, 1), ValueError("down"), on={2}))
    with pytest.raises(RemoteFailureError):
        client_infer(x, QueryPlan(3, RngStream(28), remote), model)
    wire = LoopbackTransport(identity)
    wire.request = _second_call_fails(wire.request, TransportError("cut"))
    with pytest.raises(TransportError):
        client_infer(x, QueryPlan(3, RngStream(28), wire), model)
    assert [a.shape for a in kept] == [(3, 16, 16, 1)] * 3
    assert not any(np.any(a) for a in kept)


def test_query_plan_validates_k():
    with pytest.raises(ParameterError):
        QueryPlan(0, RngStream(1), LoopbackTransport(identity_spec((16, 16, 1))))


# ----------------------------------------------------------------------- tcp

def test_tcp_worker_serves_concurrent_clients():
    spec = toy_fw_spec((8, 8, 1), seed=77)
    failures = []

    with WorkerServer(spec) as server:
        host, port = server.address

        def run_client(tag):
            try:
                with TcpTransport(host, port) as transport:
                    g = np.random.default_rng(tag)
                    for i in range(100):
                        payload = _f32(g.normal(size=(8, 8, 1)))
                        rid = tag * 1000 + i
                        reply = transport.request(encode_request(BoundRequest(rid, payload)))
                        resp = decode_response(reply)
                        assert resp.request_id == rid
                        assert resp.status == STATUS_OK
                        expected = spec(payload)
                        assert np.max(np.abs(resp.payload - _f32(expected))) <= 1e-6
            except Exception as exc:  # surface thread failures in the test
                failures.append((tag, exc))

        threads = [threading.Thread(target=run_client, args=(t,)) for t in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    assert not failures


def test_tcp_connect_failure_is_transport_error():
    with pytest.raises(TransportError):
        TcpTransport("127.0.0.1", 9, timeout=0.2)  # discard port, nothing listens


def test_oversized_frame_rejected():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("<I", 1061))
        with pytest.raises(TransportError, match="cap"):
            _read_frame(b.makefile("rb"), limit=1060)
    finally:
        a.close()
        b.close()


def test_short_length_prefix_is_a_closed_connection_not_a_length():
    a, b = socket.socketpair()
    try:
        a.sendall(b"\xff\xff\xff")  # three bytes of a prefix that would read 16 MiB
        a.close()
        with b.makefile("rb") as rfile, pytest.raises(TransportError, match="mid-frame"):
            _read_frame(rfile, limit=1060)
    finally:
        a.close()
        b.close()


def test_client_refuses_a_reply_longer_than_its_request_before_reading_it():
    listener = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()

    def announce_and_hold():  # announce a reply one byte over the request, send none of it
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            _read_frame(rfile, len(_ONES_REQUEST))
            conn.sendall(struct.pack("<I", len(_ONES_REQUEST) + 1))
            release.wait(10.0)

    peer = threading.Thread(target=announce_and_hold, daemon=True)
    peer.start()
    try:
        with TcpTransport(*listener.getsockname()[:2], timeout=10.0) as transport:
            start = time.monotonic()
            with pytest.raises(TransportError, match="cap"):
                transport.request(_ONES_REQUEST)
            assert time.monotonic() - start < 2.0  # refused at the header, not at the timeout
    finally:
        release.set()
        peer.join(timeout=5.0)
        listener.close()
    assert not peer.is_alive()


def test_tcp_malformed_request_keeps_connection_usable():
    with WorkerServer(identity_spec((4, 4, 1))) as server:
        host, port = server.address
        with TcpTransport(host, port) as transport:
            bad = b"\x00" * 30
            resp = decode_response(transport.request(bad))
            assert resp.status == STATUS_MALFORMED
            payload = _f32(np.ones((4, 4, 1)))
            ok = decode_response(transport.request(encode_request(BoundRequest(2, payload))))
            assert ok.status == STATUS_OK
            assert np.array_equal(ok.payload, payload)


def _frame(body):
    return struct.pack("<I", len(body)) + body


def _live_threads_since(before):
    return [t for t in threading.enumerate() if t not in before and t.is_alive()]


_ONES_REQUEST = encode_request(BoundRequest(1, _f32(np.ones((4, 4, 1)))))


def test_idle_client_is_dropped_while_another_is_served(monkeypatch):
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.2)
    payload = _f32(np.arange(16.0).reshape(4, 4, 1))
    request = encode_request(BoundRequest(3, payload))
    with WorkerServer(identity_spec((4, 4, 1))) as server:
        with socket.create_connection(server.address, timeout=5.0) as silent, \
                TcpTransport(*server.address) as busy:
            silent.sendall(struct.pack("<I", 100) + b"\x01" * 10)  # 10 of 100 bytes
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:  # outlive the silent client's timeout
                resp = decode_response(busy.request(request))
                assert resp.status == STATUS_OK and np.array_equal(resp.payload, payload)
            assert silent.recv(1) == b""  # the worker closed the silent connection
            assert decode_response(busy.request(request)).status == STATUS_OK


@pytest.mark.parametrize("case", ["never_started", "idle", "client_mid_frame"])
def test_stop_returns_promptly_and_leaves_no_server_thread(case):
    before = set(threading.enumerate())
    server = WorkerServer(identity_spec((4, 4, 1)))
    client = None
    if case != "never_started":
        server.start()
    if case == "client_mid_frame":
        client = socket.create_connection(server.address, timeout=5.0)
        client.sendall(_frame(_ONES_REQUEST))
        reply = _read_frame(client.makefile("rb"), request_size((4, 4, 1)))
        assert decode_response(reply).status == STATUS_OK
        client.sendall(struct.pack("<I", 100) + b"\x01" * 10)
    stopper = threading.Thread(target=server.stop, daemon=True)
    start = time.monotonic()
    stopper.start()
    for thread in [stopper] + _live_threads_since(before):
        thread.join(timeout=max(0.0, start + 1.0 - time.monotonic()))
    assert time.monotonic() - start < 1.0
    assert _live_threads_since(before) == []
    assert server.socket.fileno() == -1  # the listener is closed
    if client is not None:
        client.close()


def test_connect_close_cycles_leave_no_thread_or_connection_state():
    with WorkerServer(identity_spec((4, 4, 1))) as server:
        before = set(threading.enumerate())
        for _ in range(1000):
            socket.create_connection(server.address, timeout=5.0).close()
        # accepted in order, so once this is answered every cycle was accepted
        with TcpTransport(*server.address) as transport:
            assert decode_response(transport.request(_ONES_REQUEST)).status == STATUS_OK
        deadline = time.monotonic() + 5.0
        while _live_threads_since(before) and time.monotonic() < deadline:
            time.sleep(0.005)
        assert _live_threads_since(before) == []
        held = {name: value for name, value in vars(server).items()
                if isinstance(value, (list, set, dict)) and value}
        assert held == {}  # nothing kept per connection outlives it


_shapes = st.one_of(st.just((4, 4, 1)), st.lists(st.integers(1, 5), min_size=1,
                                                  max_size=4).map(tuple))
_valid_requests = st.builds(
    _raw_request, st.integers(0, 2 ** 64 - 1), _shapes,
    st.one_of(st.floats(-1e3, 1e3, width=32), st.sampled_from([np.nan, np.inf, -np.inf])))
_request_bodies = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda version, rid, status, rest:
              REQUEST_MAGIC + struct.pack("<HQB3x", version, rid, status) + rest,
              st.sampled_from([1, 2]), st.integers(0, 2 ** 64 - 1), st.integers(0, 2),
              st.binary(max_size=96)),
    _valid_requests,
    st.builds(lambda data, at, byte: data[:at % len(data)] + bytes([byte]) +
              data[at % len(data) + 1:],
              _valid_requests, st.integers(0, 10 ** 6), st.integers(0, 255)),
)


def test_fuzzed_frames_never_break_the_worker():
    spec = identity_spec((4, 4, 1))
    cap = request_size(spec.input_dims)
    with WorkerServer(spec) as server:

        @settings(max_examples=30, deadline=None)
        @given(st.lists(_request_bodies, max_size=4), st.binary(max_size=8))
        def exchange(bodies, tail):
            # the reader is closed on any exit, so a failing example closes its socket
            with socket.create_connection(server.address, timeout=5.0) as sock, \
                    sock.makefile("rb") as rfile:
                for body in bodies:
                    if len(body) > cap:  # refused at the header: the worker closes
                        with contextlib.suppress(OSError):  # it may close mid-send
                            sock.sendall(_frame(body))
                        assert _closed_by_peer(sock, 5.0)
                        break
                    sock.sendall(_frame(body))
                    reply = _read_frame(rfile, cap)
                    assert decode_response(reply).status in (0, 1, 2)
                    assert reply == handle_request_batch(spec, [body])[0]
                else:
                    sock.sendall(tail)  # a partial or oversized frame, then a hang-up

        exchange()
        assert server._loop.is_alive()
        payload = _f32(np.arange(16.0).reshape(4, 4, 1))
        with TcpTransport(*server.address) as transport:
            resp = decode_response(transport.request(encode_request(BoundRequest(8, payload))))
        assert resp.request_id == 8 and resp.status == STATUS_OK
        assert np.array_equal(resp.payload, payload)


def _closed_by_peer(sock, timeout):
    """True once the peer has closed ``sock``, waiting up to ``timeout`` seconds."""
    ready, _, _ = select.select([sock], [], [], timeout)
    if not ready:
        return False
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


def test_a_frame_longer_than_the_request_size_is_refused_at_its_header():
    with WorkerServer(identity_spec((4, 4, 1))) as server:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", request_size((4, 4, 1)) + 1))  # and no body
            assert _closed_by_peer(sock, 1.0)  # not at the idle deadline
        with TcpTransport(*server.address) as transport:
            assert decode_response(transport.request(_ONES_REQUEST)).status == STATUS_OK


def test_every_connection_mid_way_through_a_huge_frame_holds_no_buffer():
    import tracemalloc

    start = struct.pack("<I", 60 << 20) + b"\x01" * (1 << 20)  # 1 MiB of a 60-MiB frame
    with WorkerServer(identity_spec((4, 4, 1))) as server:
        socks = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(protocol.MAX_CONNECTIONS):
                socks.append(socket.create_connection(server.address, timeout=5.0))
                with contextlib.suppress(OSError):  # the worker may close mid-send
                    socks[-1].sendall(start)
            assert all(_closed_by_peer(sock, 5.0) for sock in socks)
            grown = tracemalloc.get_traced_memory()[1] - base  # the peak since the first
        finally:
            tracemalloc.stop()
            for sock in socks:
                sock.close()
        assert grown < 4 << 20
        with TcpTransport(*server.address) as transport:
            assert decode_response(transport.request(_ONES_REQUEST)).status == STATUS_OK


def test_trickling_sender_is_dropped_at_the_frame_deadline(monkeypatch):
    # each byte arrives well inside the deadline, but the frame never completes
    monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.3)
    with WorkerServer(identity_spec((4, 4, 1))) as server, \
            socket.create_connection(server.address, timeout=5.0) as sock:
        start = time.monotonic()
        sock.sendall(struct.pack("<I", 100))
        dropped = False
        while not dropped and time.monotonic() - start < 3.0:
            with contextlib.suppress(OSError):
                sock.send(b"\x01")
            dropped = _closed_by_peer(sock, 0.2)
        elapsed = time.monotonic() - start
    assert dropped and 0.3 <= elapsed < 1.5


def test_connections_beyond_the_cap_are_closed_while_earlier_ones_are_served(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_CONNECTIONS", 2)
    with WorkerServer(identity_spec((4, 4, 1))) as server, \
            TcpTransport(*server.address) as first, TcpTransport(*server.address) as second:
        for transport in (first, second):  # both accepted and registered
            assert decode_response(transport.request(_ONES_REQUEST)).status == STATUS_OK
        with socket.create_connection(server.address, timeout=5.0) as third:
            assert _closed_by_peer(third, 5.0)
        for transport in (first, second):
            assert decode_response(transport.request(_ONES_REQUEST)).status == STATUS_OK
        first.close()
        deadline = time.monotonic() + 5.0
        while True:  # the first's slot frees once the worker sees it close
            with TcpTransport(*server.address) as fourth:
                try:
                    assert decode_response(fourth.request(_ONES_REQUEST)).status == STATUS_OK
                    break
                except TransportError:
                    assert time.monotonic() < deadline


def test_a_client_that_never_reads_does_not_delay_another():
    dims = (64, 64, 1)
    frame = _frame(encode_request(BoundRequest(1, np.ones(dims))))
    payload = _f32(np.random.default_rng(33).normal(size=dims))
    request = encode_request(BoundRequest(2, payload))
    with WorkerServer(identity_spec(dims)) as server:
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(server.address)
        stalled.settimeout(0.5)
        try:
            with pytest.raises(TimeoutError):  # the worker stops reading a stalled client
                for _ in range(4_000):  # 64 MB, beyond what the socket buffers can hold
                    stalled.sendall(frame)
            with TcpTransport(*server.address) as other:
                for _ in range(20):
                    start = time.monotonic()
                    resp = decode_response(other.request(request))
                    assert time.monotonic() - start < 0.5
                    assert resp.status == STATUS_OK and np.array_equal(resp.payload, payload)
        finally:
            stalled.close()


def test_interleaved_frames_get_the_single_request_handlers_replies(monkeypatch):
    spec = toy_fw_spec((8, 8, 1), seed=34)
    batch_sizes = []
    forward = BackboneSpec.forward

    def counting_forward(self, batch, keep_inputs=False):
        batch_sizes.append(len(batch))
        return forward(self, batch, keep_inputs)

    monkeypatch.setattr(BackboneSpec, "forward", counting_forward)
    rng = np.random.default_rng(35)
    streams = [_mixed_bodies((8, 8, 1), rng, 6) for _ in range(3)]
    with WorkerServer(spec) as server:
        socks = [socket.create_connection(server.address, timeout=5.0) for _ in streams]
        try:
            # one send of a whole stream, so a batch mixes every kind of body
            socks[0].sendall(b"".join(_frame(body) for body in streams[0]))
            for i in range(len(streams[1])):  # the other two take turns, frame by frame
                for sock, bodies in zip(socks[1:], streams[1:]):
                    sock.sendall(_frame(bodies[i]))
            for sock, bodies in zip(socks, streams):
                rfile = sock.makefile("rb")
                assert [_read_frame(rfile, request_size((8, 8, 1))) for _ in bodies] == \
                    [handle_request_batch(spec, [body])[0] for body in bodies]
                rfile.close()
        finally:
            for sock in socks:
                sock.close()
    assert max(batch_sizes) > 1  # the requests of a send shared a pass


def test_one_turn_hands_up_to_its_frame_cap_to_one_batch(monkeypatch):
    batch_sizes = []
    handle = protocol.handle_request_batch

    def counting_handle(spec, bodies):
        batch_sizes.append(len(bodies))
        return handle(spec, bodies)

    monkeypatch.setattr(protocol, "handle_request_batch", counting_handle)
    bodies = [encode_request(BoundRequest(i, _f32(np.full((4, 4, 1), float(i)))))
              for i in range(20)]
    server = WorkerServer(identity_spec((4, 4, 1)))
    client = socket.create_connection(server.address, timeout=5.0)
    try:
        # all 20 frames wait in the socket before the loop first reads it
        client.sendall(b"".join(_frame(body) for body in bodies))
        server.start()
        with client.makefile("rb") as rfile:
            assert [_read_frame(rfile, request_size((4, 4, 1))) for _ in bodies] == \
                [handle(server.spec, [body])[0] for body in bodies]
    finally:
        client.close()
        server.stop()
    # the turn's cap, not the forward's block size, sets the batch
    assert FORWARD_BLOCK < protocol.MAX_TURN_FRAMES < len(bodies)
    assert batch_sizes == [protocol.MAX_TURN_FRAMES, len(bodies) - protocol.MAX_TURN_FRAMES]


def test_stop_under_load_returns_within_a_second_and_leaves_no_thread():
    before = set(threading.enumerate())
    server = WorkerServer(toy_fw_spec((8, 8, 1), seed=36)).start()
    served = [0, 0, 0]
    request = encode_request(BoundRequest(1, _f32(np.ones((8, 8, 1)))))

    def client(slot):
        try:
            with TcpTransport(*server.address) as transport:
                while True:
                    transport.request(request)
                    served[slot] += 1
        except (TransportError, ProtocolError):  # the worker went away
            return

    clients = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(3)]
    for thread in clients:
        thread.start()
    deadline = time.monotonic() + 5.0
    while min(served) < 5 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert min(served) >= 5  # every client is mid-stream when stop() runs
    stopper = threading.Thread(target=server.stop, daemon=True)
    start = time.monotonic()
    stopper.start()
    stopper.join(timeout=1.0)
    assert not stopper.is_alive() and time.monotonic() - start < 1.0
    for thread in clients:
        thread.join(timeout=2.0)
    assert _live_threads_since(before) == []
    assert server.socket.fileno() == -1


# ------------------------------------------------------------ cost accounting

def test_cost_report_identity_backbone():
    report = cost_report(identity_spec((16, 16, 1)), (16, 16, 1), k=1)
    assert report.remote_flops == 0
    assert report.remote_fraction == 0.0


def test_cost_report_toy_fw_split():
    report = cost_report(toy_fw_spec(), (16, 16, 1), k=1)
    assert report.remote_flops == 663_552
    # x transformed once, then per replicate 4 transforms of 5 n log2 n
    # (secret, payload, reply, unbound reply) plus the head
    assert report.local_flops == (1 + 4) * 5 * 256 * 8 + (64 * 256 + 4 * 64)
    assert report.remote_fraction >= 0.65
    assert report.bytes_up == report.bytes_down == 1060


def test_cost_report_refuses_a_spec_the_worker_refuses():
    # the reply would be 4x4x2, which the client cannot unbind with a 4x4x1 secret
    with pytest.raises(SpecError, match=r"\(4, 4, 2\)"):
        cost_report(parse_spec("input 4 4 1\ncircconv2d 3 3 1 2 1\n"), (4, 4, 1), k=1)


def test_cost_report_refuses_dims_other_than_the_spec_input():
    with pytest.raises(ShapeError):
        cost_report(toy_fw_spec(), (64, 64, 3), k=1)
    with pytest.raises(ShapeError):
        cost_report(identity_spec((16, 16, 1)), (16, 16), k=1)


def test_cost_report_scales_linearly_in_k():
    one = cost_report(toy_fw_spec(), (16, 16, 1), k=1)
    ten = cost_report(toy_fw_spec(), (16, 16, 1), k=10)
    assert ten.remote_flops == 10 * one.remote_flops
    # the one transform of x is shared by all replicates
    per_replicate = 4 * 5 * 256 * 8 + (64 * 256 + 4 * 64)
    assert ten.local_flops == one.local_flops + 9 * per_replicate
    assert ten.bytes_up == 10 * one.bytes_up
    assert ten.bytes_down == 10 * one.bytes_down
