"""The benchmark's trace hooks replace holobind module attributes by name.

``perfbench/layers.py`` wraps functions such as ``protocol.bind`` and
``trainer._head_forward`` through ``setattr``; a refactor that drops or
renames one makes ``run.py --trace 1`` fail with an AttributeError. These
tests install every hook on a fresh tracer, so such a refactor fails here.
One more binds every call that ``perfbench/`` makes into holobind to the
current signature of its callee.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

from holobind import trainer
from holobind.protocol import (
    LoopbackTransport,
    QueryPlan,
    TcpTransport,
    TranscriptRecorder,
    WorkerServer,
    client_infer,
    decode_request,
    decode_response,
)
from holobind.tensor import RngStream
from holobind.trainer import init_toy_model

from oracles import identity_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("tracer")


def test_trace_hooks_install_and_restore(monkeypatch):
    layers, tracer_mod = _perfbench(monkeypatch)
    tracer = tracer_mod.Tracer()
    layers.install_query_tracing(tracer)
    layers.install_offline_tracing(tracer)
    originals = {}  # an attribute wrapped twice keeps its first original
    for owner, attr, original in tracer._patches:
        originals.setdefault((owner, attr), original)
    assert originals
    tracer.restore()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def test_traced_query_runs_the_head_once(monkeypatch):
    layers, tracer_mod = _perfbench(monkeypatch)
    tracer = tracer_mod.Tracer()
    layers.install_query_tracing(tracer)
    try:
        plan = QueryPlan(3, RngStream(50), LoopbackTransport(identity_spec((16, 16, 1))))
        dist = client_infer(np.ones((16, 16, 1)), plan, init_toy_model(12))
    finally:
        tracer.restore()
    names = [span.name for span in tracer.spans]
    assert abs(float(np.sum(dist)) - 1.0) <= 1e-12
    assert names.count("trainer.head") == 1
    assert names.count("protocol.encode") == 3 and names.count("protocol.decode") == 3


def test_benchmark_verify_calls_agree_with_the_served_worker():
    # query_k10 re-runs a query through LoopbackTransport(trainer.backbone_applier(model))
    # and serve_open calls trainer.backbone_applier(model) on one payload; each
    # must give what WorkerServer(model.backbone) serves.
    model = init_toy_model(13)
    x = np.random.default_rng(51).normal(size=(16, 16, 1))
    with WorkerServer(model.backbone) as server, TcpTransport(*server.address) as tcp:
        recorder = TranscriptRecorder(tcp)
        wire = client_infer(x, QueryPlan(10, RngStream(52), recorder), model)
    loopback = LoopbackTransport(trainer.backbone_applier(model))
    local = client_infer(x, QueryPlan(10, RngStream(52), loopback), model)
    assert np.max(np.abs(wire - local)) <= 1e-5
    assert len(recorder.received) == 10
    applier = trainer.backbone_applier(model)
    for sent, reply in zip(recorder.sent, recorder.received):
        expect = applier(decode_request(sent).payload).astype(np.float32)
        assert np.array_equal(decode_response(reply).payload, expect)


def test_worker_hooks_install_restore_and_trace_the_model_backbone(monkeypatch):
    # perfbench/worker.py wraps trainer.backbone_applier, circconv_forward
    # and leaky_relu_forward by name for `holobind serve --model`.
    _, tracer_mod = _perfbench(monkeypatch)
    worker = importlib.import_module("worker")
    tracer = tracer_mod.Tracer()
    worker.install_worker_tracing(tracer)
    originals = {}
    for owner, attr, original in tracer._patches:
        originals.setdefault((owner, attr), original)
    try:
        applier = trainer.backbone_applier(init_toy_model(12))
        out = applier(np.ones((16, 16, 1)))
    finally:
        tracer.restore()
    assert out.shape == (16, 16, 1)
    assert [span.name for span in tracer.spans].count("backbone.apply") == 1
    assert {attr for _, attr in originals} >= {
        "backbone_applier", "circconv_forward", "leaky_relu_forward"}
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def _holobind_calls(tree):
    """(line, name, callee, call) for each call in ``tree`` to a name imported from holobind."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("holobind"):
            owner = importlib.import_module(node.module)
            for alias in node.names:  # a submodule such as cli may not be imported yet
                names[alias.asname or alias.name] = getattr(owner, alias.name, None) or \
                    importlib.import_module(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            yield node.lineno, func.id, names[func.id], node
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            module = names[func.value.id]
            callee = getattr(module, func.attr, None)
            yield node.lineno, f"{func.value.id}.{func.attr}", callee, node


def test_every_benchmark_call_binds_to_the_current_signature():
    # A call that passes an argument a function no longer takes, or misses
    # one it now needs, would fail only when the benchmark runs. A * or **
    # splat is skipped, so a call holding one is bound partially.
    faults, checked = [], set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for line, name, callee, call in _holobind_calls(ast.parse(path.read_text())):
            where = f"{path.name}:{line} {name}"
            if callee is None:
                faults.append(f"{where}: no such name")
                continue
            args = [object() for a in call.args if not isinstance(a, ast.Starred)]
            kwargs = {k.arg: object() for k in call.keywords if k.arg is not None}
            partial = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
            sig = inspect.signature(callee)
            try:
                (sig.bind_partial if partial else sig.bind)(*args, **kwargs)
            except TypeError as err:
                faults.append(f"{where}: {err}")
            checked.add(name)
    assert not faults, "\n".join(faults)
    assert {"attacks.strong_adversary", "attacks.clustering_attack", "protocol.cost_report",
            "attacks.build_reference", "vsa.probe_curves"} <= checked
