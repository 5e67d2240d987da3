"""Command-line entry point; every subcommand is a thin adapter.

No numerical logic lives here: handlers parse flags, call the library, and
write tensors or CSV rows. Exit codes: 0 success, 1 domain error, 2 usage.
The HOLOBIND_SEED environment variable stands in for --seed when the flag
is absent.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys

import numpy as np

from . import altbind, attacks, backbone, protocol, trainer, vsa
from .errors import HolobindError, ParameterError, ShapeError
from .tensor import MAX_EXTENT, RngStream, read_tensor, write_tensor

DEFAULT_DATA_SEED = 2  # committed synthetic-dataset seed
_MAX_F64_VALUES = np.iinfo(np.intp).max // 8  # the most float64 values numpy can index


def _check_f64_values(count: int, what: str) -> None:
    if count > _MAX_F64_VALUES:
        raise ParameterError(f"bad {what}: {count} float64 values are more than numpy can index")


def _parse_dims(text: str) -> tuple:
    dims = tuple(int(p) if p.isascii() and p.isdigit() else 0 for p in text.lower().split("x"))
    if min(dims) < 1 or max(dims) > MAX_EXTENT:
        raise ParameterError(f"bad dims {text!r}, expected extents from 1 to {MAX_EXTENT} "
                             "like 16x16x1")
    _check_f64_values(math.prod(dims), f"dims {text!r}")
    return dims


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ParameterError(f"bad endpoint {text!r}, expected host:port with port 0-65535")
    return host, int(port)


def _resolve_seed(args, default: int = 0) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HOLOBIND_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ParameterError(f"bad HOLOBIND_SEED {env!r}") from err
    return default


def _write_csv(path, fieldnames, rows):
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if out is not sys.stdout:
            out.close()


# ------------------------------------------------------------------ handlers

def _cmd_gen_secret(args):
    seed = _resolve_seed(args)
    dims = _parse_dims(args.dims)
    key, _ = altbind.operator_secret(args.op, dims, RngStream(seed))
    write_tensor(key, args.out)
    return 0


def _cmd_bind_or_unbind(args):
    x = read_tensor(getattr(args, "in"))
    s = read_tensor(args.secret)
    dims = _parse_dims(args.dims) if getattr(args, "dims", None) else None
    out = altbind.operator_apply(args.op, x, s, undo=args.command == "unbind", dims=dims)
    write_tensor(out, args.out)
    return 0


def _cmd_probe(args):
    seed = _resolve_seed(args)
    ks = []
    k = 1
    while k <= args.kmax:
        ks.append(k)
        k *= 2
    modes = ("projected", "naive") if args.mode == "both" else (args.mode,)
    # the probe draws the pairs of every seed at once: 2 x seeds x d values
    _check_f64_values(2 * args.seeds * args.d, f"--d {args.d} with --seeds {args.seeds}")
    rows = vsa.probe_curves(d=args.d, ks=ks, n_seeds=args.seeds, seed=seed, modes=modes)
    _write_csv(args.out, ["k", "mode", "present_mean", "absent_mean",
                          "present_std", "absent_std"], rows)
    return 0


def _cmd_serve(args):
    host, port = _parse_endpoint(args.listen)
    if args.model:
        spec = trainer.load_model(args.model).backbone
    else:
        spec = backbone.load_spec(args.spec)
    protocol.worker_serve(spec, host, port)
    return 0


def _cmd_query(args):
    seed = _resolve_seed(args)
    x = read_tensor(getattr(args, "in"))
    model = trainer.load_model(args.model)
    host, port = _parse_endpoint(args.endpoint)
    with protocol.TcpTransport(host, port) as transport:
        plan = protocol.QueryPlan(args.k, RngStream(seed), transport)
        dist = protocol.client_infer(x, plan, model)
    rows = [{"class": c, "probability": float(p)} for c, p in enumerate(dist)]
    _write_csv(args.out, ["class", "probability"], rows)
    return 0


def _cmd_bench(args):
    spec = backbone.load_spec(args.spec)
    report = protocol.cost_report(spec, spec.input_dims, args.k)
    rows = [{
        "remote_flops": report.remote_flops,
        "local_flops": report.local_flops,
        "remote_fraction": f"{report.remote_fraction:.6f}",
        "bytes_up": report.bytes_up,
        "bytes_down": report.bytes_down,
    }]
    _write_csv(args.out, list(rows[0].keys()), rows)
    return 0


def _cmd_train_toy(args):
    seed = _resolve_seed(args, default=1)  # committed training seed
    data = trainer.synth_dataset(args.data_seed)
    cfg = trainer.TrainConfig(seed=seed, epochs=args.epochs)
    model, metrics = trainer.train_toy_model(data, cfg)
    trainer.save_model(model, args.out)
    if args.metrics:
        _write_csv(args.metrics, ["epoch", "train_loss", "pred_acc", "adv_acc"], metrics)
    return 0


def _cmd_attack(args):
    seed = _resolve_seed(args)
    model = trainer.load_model(args.model)
    data = trainer.synth_dataset(args.data_seed)
    if model.input_dims != data.dims:
        raise ShapeError(f"model input {model.input_dims} != dataset dims {data.dims}")
    k = data.n_classes
    if args.kind == "cluster":
        _, r, _, _ = trainer.worker_views(model, data.test_images,
                                          RngStream(seed, counter=9 << 32))
        report = attacks.clustering_attack(r, data.test_labels, k, RngStream(seed))
    elif args.kind == "strong":
        _, r_train, _, rng = trainer.worker_views(model, data.train_images,
                                                  RngStream(seed, counter=9 << 32))
        _, r_test, _, _ = trainer.worker_views(model, data.test_images, rng)
        report = attacks.strong_adversary(r_train, data.train_labels,
                                          r_test, data.test_labels, seed,
                                          n_classes=k)
    elif args.kind == "invert":
        reference = attacks.build_reference(data.train_images, p=16)
        bound, _, _ = trainer.bound_views(model.input_dims, data.test_images[:48],
                                          RngStream(seed, counter=9 << 32))
        result = attacks.inversion_attack(bound, reference, steps=args.steps,
                                          lr=0.05, rng=RngStream(seed),
                                          x_true=data.test_images[0])
        report = result.report
    elif args.kind == "regress":
        rng = RngStream(seed, counter=9 << 32)
        images = np.concatenate([data.train_images, data.train_images, data.test_images])
        bound, secrets, _ = trainer.bound_views(model.input_dims, images, rng)
        pairs = list(zip(bound, secrets))
        report = attacks.secret_regression_attack(pairs, n_holdout=16, seed=seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown attack {args.kind!r}")
    row = {
        "name": report.name,
        "score": report.score,
        "score_kind": report.score_kind,
        "seed": report.seed,
        "threshold": report.threshold,
        "verdict": report.verdict,
        "params": ";".join(f"{k}={v}" for k, v in sorted(report.params.items())),
    }
    _write_csv(args.out, list(row.keys()), [row])
    return 0


def _cmd_ablate(args):
    seed = _resolve_seed(args)
    rows = altbind.ablation_rows(seed)
    _write_csv(args.out, ["operator", "reconstruction_cosine", "bound_input_cosine"], rows)
    return 0


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holobind",
        description="Vector-symbolic secrets toolkit: binding, split inference, attacks",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=None,
                       help="seed (HOLOBIND_SEED is used when absent)")
        return p

    p = add("gen-secret", _cmd_gen_secret, "sample a fresh secret tensor")
    p.add_argument("--dims", required=True, help="extents, e.g. 16x16x1 or 256")
    p.add_argument("--out", required=True)
    p.add_argument("--op", choices=altbind.OPERATORS, default="hrr2d")

    for name in ("bind", "unbind"):
        p = add(name, _cmd_bind_or_unbind, f"{name} a tensor file with a secret file")
        p.add_argument("--in", required=True)
        p.add_argument("--secret", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--op", choices=altbind.OPERATORS, default="hrr2d")
        if name == "unbind":
            p.add_argument("--dims", default=None,
                           help="original HxW for hilbert decode cropping")

    p = add("probe", _cmd_probe, "bundle present/absent retrieval curves as CSV")
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--kmax", type=int, default=32)
    p.add_argument("--mode", choices=("both", "projected", "naive"), default="both")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--out", default="-")

    p = add("serve", _cmd_serve, "run the worker until interrupted")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="backbone spec file")
    source.add_argument("--model", help="serve a trained model backbone")
    p.add_argument("--listen", default="127.0.0.1:9741")

    p = add("query", _cmd_query, "one prediction via the remote worker")
    p.add_argument("--in", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="-")

    p = add("bench", _cmd_bench, "remote/local compute split for a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default="-")

    p = add("train-toy", _cmd_train_toy, "train the toy three-network model")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--epochs", type=int, default=trainer.TrainConfig.epochs)
    p.add_argument("--data-seed", type=int, default=DEFAULT_DATA_SEED)

    p = add("attack", _cmd_attack, "audit a trained model")
    p.add_argument("--kind", choices=("cluster", "strong", "invert", "regress"),
                   required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--steps", type=int, default=500, help="inversion steps")
    p.add_argument("--data-seed", type=int, default=DEFAULT_DATA_SEED)

    p = add("ablate", _cmd_ablate, "compare binding operators as CSV")
    p.add_argument("--out", default="-")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        return args.func(args)
    except (HolobindError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
