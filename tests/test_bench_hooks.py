"""The benchmark's trace hooks replace holobind module attributes by name.

``perfbench/layers.py`` wraps functions such as ``protocol.bind`` and
``trainer._head_forward`` through ``setattr``; a refactor that drops or
renames one makes ``run.py --trace 1`` fail with an AttributeError. These
tests install every hook on a fresh tracer, so such a refactor fails here.
"""

import importlib
from pathlib import Path

import numpy as np

from holobind import trainer
from holobind.backbone import identity_spec
from holobind.protocol import LoopbackTransport, QueryPlan, client_infer
from holobind.tensor import RngStream
from holobind.trainer import init_toy_model

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
        plan = QueryPlan(3, RngStream(50), LoopbackTransport(identity_spec((16, 16, 1)).apply))
        dist = client_infer(np.ones((16, 16, 1)), plan, init_toy_model(12))
    finally:
        tracer.restore()
    names = [span.name for span in tracer.spans]
    assert abs(float(np.sum(dist)) - 1.0) <= 1e-12
    assert names.count("trainer.head") == 1
    assert names.count("protocol.encode") == 3 and names.count("protocol.decode") == 3


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
