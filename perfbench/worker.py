"""Benchmark-owned launcher for `holobind serve --model`.

    python3 perfbench/worker.py --model M --listen HOST:PORT [--cpu N] [--spans OUT]

Without ``--spans`` this is exactly the CLI's serve path. With it, the
handler, the trained-backbone applier and the layer functions are wrapped
before serving, and the spans are written to OUT when the worker is
interrupted (SIGINT). ``--cpu`` pins the worker, and the connection
threads it starts, to one CPU.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from holobind import cli, protocol, trainer  # noqa: E402

from tracer import Tracer  # noqa: E402


def install_worker_tracing(tracer: Tracer) -> None:
    """Spans: handler > backbone.apply > conv1..3 / leaky_relu."""
    handle = protocol.handle_request_bytes

    def traced_handle(applier, data):
        rid = struct.unpack_from("<Q", data, 6)[0] if len(data) >= 14 else 0
        tracer.set_request(rid)
        return tracer.call("protocol.handler", handle, (applier, data))

    tracer.patch(protocol, "handle_request_bytes", traced_handle)

    make_applier = trainer.backbone_applier

    def traced_backbone_applier(model):
        inner = make_applier(model)

        def applier(t):
            tracer.local.conv_seq = 0
            return tracer.call("backbone.apply", inner, (t,))

        return applier

    tracer.patch(trainer, "backbone_applier", traced_backbone_applier)

    conv = trainer.circconv_forward

    def traced_conv(kernel, x):
        # Layers are named by their order inside one backbone pass.
        seq = getattr(tracer.local, "conv_seq", 0) + 1
        tracer.local.conv_seq = seq
        return tracer.call(f"backbone.conv{seq}", conv, (kernel, x))

    tracer.patch(trainer, "circconv_forward", traced_conv)
    tracer.wrap(trainer, "leaky_relu_forward", "backbone.leaky_relu")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--listen", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    tracer = None
    if args.spans:
        tracer = Tracer()
        install_worker_tracing(tracer)
    try:
        return cli.main(["serve", "--model", args.model, "--listen", args.listen])
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
