import struct
import threading

import numpy as np
import pytest

from holobind import vsa
from holobind.backbone import identity_spec, toy_fw_spec
from holobind.errors import (
    DegenerateSpectrumError,
    ParameterError,
    ProtocolError,
    RemoteFailureError,
    TransportError,
)
from holobind.protocol import (
    ENVELOPE_SIZE,
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
    client_infer,
    cost_report,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    handle_request_bytes,
    request_size,
)
from holobind.tensor import RngStream, tensor_to_bytes
from holobind.trainer import _head_forward, backbone_applier, init_toy_model
from holobind.vsa import sample_secret, unbind

from oracles import per_replicate_client_infer


def _f32(arr):
    return np.asarray(arr).astype(np.float32).astype(np.float64)


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
    reply = handle_request_bytes(spec.apply, encode_request(BoundRequest(5, payload)))
    resp = decode_response(reply)
    assert resp.request_id == 5 and resp.status == STATUS_OK
    assert np.array_equal(resp.payload, payload)


def test_handler_deterministic_bytes():
    payload = _f32(np.random.default_rng(4).normal(size=(16, 16, 1)))
    spec = toy_fw_spec()
    msg = encode_request(BoundRequest(11, payload))
    assert handle_request_bytes(spec.apply, msg) == handle_request_bytes(spec.apply, msg)


def test_handler_malformed_keeps_request_id():
    msg = bytearray(encode_request(BoundRequest(31, _f32(np.ones((2, 2))))))
    msg[ENVELOPE_SIZE] = 0x58  # corrupt container magic
    resp = decode_response(handle_request_bytes(lambda t: t, bytes(msg)))
    assert resp.status == STATUS_MALFORMED
    assert resp.request_id == 31


def test_handler_apply_failure_status():
    def broken(t):
        raise ValueError("boom")

    msg = encode_request(BoundRequest(3, _f32(np.ones((2, 2)))))
    resp = decode_response(handle_request_bytes(broken, msg))
    assert resp.status == STATUS_APPLY_ERROR


@pytest.mark.parametrize("dims", [(2, 16, 16, 1), (8, 8, 1), (64, 64, 1)])
def test_handler_model_backbone_refuses_other_dims(dims):
    # A --model worker runs the same strict BackboneSpec.apply as a --spec
    # worker, so a payload of any other shape costs no backbone pass.
    msg = encode_request(BoundRequest(4, np.zeros(dims)))
    for applier in (backbone_applier(init_toy_model(7)), toy_fw_spec().apply):
        resp = decode_response(handle_request_bytes(applier, msg))
        assert resp.status == STATUS_APPLY_ERROR and resp.request_id == 4


def test_handler_logs_metadata_never_payload(caplog):
    import logging

    payload = _f32(np.full((2, 2), 7.125))  # value with a distinctive repr
    msg = encode_request(BoundRequest(99, payload))
    with caplog.at_level(logging.INFO, logger="holobind.protocol"):
        handle_request_bytes(lambda t: t, msg)
    joined = " ".join(rec.getMessage() for rec in caplog.records)
    assert "99" in joined and "(2, 2)" in joined
    assert "7.125" not in joined


# ------------------------------------------------------------------ loopback

def test_loopback_end_to_end_identity_matches_local():
    model = init_toy_model(3)
    x = np.random.default_rng(5).normal(size=(16, 16, 1))
    plan = QueryPlan(1, RngStream(21), LoopbackTransport(identity_spec((16, 16, 1)).apply))
    remote = client_infer(x, plan, model)
    local, _ = _head_forward(model.params, "p", x.reshape(1, -1))
    assert np.max(np.abs(remote - local[0])) <= 1e-5


def test_loopback_k_replicates_still_match_local():
    model = init_toy_model(4)
    x = np.random.default_rng(6).normal(size=(16, 16, 1))
    plan = QueryPlan(3, RngStream(22), LoopbackTransport(identity_spec((16, 16, 1)).apply))
    remote = client_infer(x, plan, model)
    local, _ = _head_forward(model.params, "p", x.reshape(1, -1))
    assert np.max(np.abs(remote - local[0])) <= 1e-5
    assert remote.shape == (4,)
    assert np.sum(remote) == pytest.approx(1.0)


def test_round_count_and_request_sizes():
    model = init_toy_model(5)
    x = np.random.default_rng(7).normal(size=(16, 16, 1))
    recorder = TranscriptRecorder(LoopbackTransport(identity_spec((16, 16, 1)).apply))
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
    recorder = TranscriptRecorder(LoopbackTransport(identity_spec((16, 16, 1)).apply))
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
    def broken(t):
        raise ValueError("no")

    model = init_toy_model(7)
    x = np.random.default_rng(9).normal(size=(16, 16, 1))
    plan = QueryPlan(1, RngStream(25), LoopbackTransport(broken))
    with pytest.raises(RemoteFailureError) as err:
        client_infer(x, plan, model)
    assert err.value.status == STATUS_APPLY_ERROR


def _recording_transport(kind, model):
    applier = identity_spec((16, 16, 1)).apply if kind == "identity" else backbone_applier(model)
    return TranscriptRecorder(LoopbackTransport(applier))


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
    identity = identity_spec((16, 16, 1)).apply
    client_infer(x, QueryPlan(3, RngStream(27), LoopbackTransport(identity)), model)
    # the second replicate fails: at the worker, then on the wire
    remote = LoopbackTransport(_second_call_fails(identity, ValueError("down")))
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
        QueryPlan(0, RngStream(1), LoopbackTransport(lambda t: t))


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
                        expected = spec.apply(payload)
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
    import socket as socket_mod
    import struct as struct_mod

    from holobind.protocol import MAX_FRAME_BYTES, _read_frame

    a, b = socket_mod.socketpair()
    try:
        a.sendall(struct_mod.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(TransportError, match="cap"):
            _read_frame(b)
    finally:
        a.close()
        b.close()


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


def test_cost_report_scales_linearly_in_k():
    one = cost_report(toy_fw_spec(), (16, 16, 1), k=1)
    ten = cost_report(toy_fw_spec(), (16, 16, 1), k=10)
    assert ten.remote_flops == 10 * one.remote_flops
    # the one transform of x is shared by all replicates
    per_replicate = 4 * 5 * 256 * 8 + (64 * 256 + 4 * 64)
    assert ten.local_flops == one.local_flops + 9 * per_replicate
    assert ten.bytes_up == 10 * one.bytes_up
    assert ten.bytes_down == 10 * one.bytes_down
