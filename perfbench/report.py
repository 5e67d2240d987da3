"""Turn a workload's result into the results file, the table and the JSON line."""

from __future__ import annotations

import json
import math

import numpy as np

from holobind import backbone, protocol

from common import (DIMS, OUT_DIR, environment, gate, median, scan_for_secrets,
                    secret_byte_patterns, self_peak_rss_mb, totals)
from layers import PER_LAYER


END_TO_END = {"setup_s": "s", "op_ticks": "tick", "op_rate_per_tick": "1/tick",
              "peak_rss_mb": "MB"}

# Each workload's named metrics, with the workload that measures each
# (None: every workload).
NAMED = (
    ("setup_s", "s", None), ("query_p50_ms", "ms", "query_k10"),
    ("query_p99_ms", "ms", "query_k10"), ("request_p50_ms", "ms", "serve_open"),
    ("request_p99_ms", "ms", "serve_open"), ("max_rate_rps", "1/s", "serve_open"),
    ("epoch_s", "s", "offline"), ("invert_s", "s", "offline"),
    ("strong_s", "s", "offline"), ("regress_s", "s", "offline"),
    ("probe_s", "s", "offline"), ("error_rate", "frac", None),
    ("peak_rss_mb", "MB", None),
)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def model_notes(m: dict) -> dict:
    """The analytic FLOP or byte model next to each timed layer that has one."""
    spec = backbone.toy_fw_spec(DIMS)
    conv_flops = [DIMS[0] * DIMS[1] * int(np.prod(layer.kernel.shape))
                  for layer in spec.layers if isinstance(layer, backbone.CircConv2d)]
    cost = protocol.cost_report(spec, DIMS, 1)

    def rate(flops, us):
        return f"model {flops} flop, {flops / (us * 1e3):.3g} GFLOP/s" if us else \
            f"model {flops} flop"

    notes = {f"backbone.conv{i + 1}_us": rate(f, m[f"backbone.conv{i + 1}_us"])
             for i, f in enumerate(conv_flops)}
    notes["backbone.apply_us"] = rate(backbone.count_flops(spec), m["backbone.apply_us"])
    for fn in ("bind", "unbind"):
        notes[f"vsa.{fn}_us"] = rate(backbone.transform_cost(DIMS), m[f"vsa.{fn}_us"])
    notes["protocol.bytes_up"] = f"cost_report {cost.bytes_up} B per replicate"
    notes["protocol.bytes_down"] = f"cost_report {cost.bytes_down} B per replicate"
    return notes


def finish(args, result: dict) -> dict:
    attempted, failed = totals(result["phases"])
    client_mb = self_peak_rss_mb()
    worker_mb = result.get("worker_peak_kb", 0) / 1024.0
    op = result["op"]
    e2e = {
        "setup_s": median(result["setup_times"]),
        "op_ticks": op["ticks"],
        "op_rate_per_tick": op["rate_per_tick"],
        "peak_rss_mb": client_mb + worker_mb,
    }
    named = dict(result["named"])
    named.update({"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
                  "error_rate": failed / attempted if attempted else math.inf})

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    client_spans = None
    if "tracer" in result:
        client_spans = OUT_DIR / f"spans-client-{stem}.jsonl"
        result["tracer"].dump(client_spans)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "end_to_end": e2e, "named": named,
        "attempted": attempted, "failed": failed,
        "peak_rss_mb": {"client": client_mb, "worker": worker_mb},
        "phases": {k: vars(p) for k, p in result["phases"].items()},
        "setup_times_s": result["setup_times"],
        "samples": op.get("samples"),
        "details": result.get("details", {}),
        "per_layer": result.get("per_layer"),
        "spans": {"client": str(client_spans) if client_spans else None,
                  "worker": str(result.get("worker_spans_path") or "") or None},
    }
    blob = json.dumps(record, indent=1, default=float).encode()
    patterns = secret_byte_patterns(result.get("secrets", []))
    gate(len(patterns) > 0, "no secrets sampled for the hygiene scan")
    # Name where a secret was found, never its bytes.
    leaks = ["results"] if any(p in blob for p in patterns) else []
    leaks += scan_for_secrets([client_spans, result.get("worker_spans_path")], patterns)
    gate(not leaks, f"secret bytes found in benchmark outputs: {leaks}")
    results_path = OUT_DIR / f"results-{stem}.json"
    results_path.write_bytes(blob)

    print(f"# workload {args.workload} seed {args.seed} "
          f"({attempted} operations attempted, {failed} failed)")
    for name, unit, owner in NAMED:
        if owner in (None, args.workload):
            print(f"  {name:<16} {_fmt(named[name]):>14} {unit}")
        else:
            print(f"  {name:<16} {'n/a':>14} {unit}  (measured on {owner})")
    for line in result.get("lines", []):
        print(f"  {line}")
    print(f"  results: {results_path.relative_to(OUT_DIR.parent)}")
    env = record["environment"]
    print(f"  environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} {env['blas_version']} with {env['blas_threads_per_process']} "
          f"thread(s) per process, commit {env['git_commit']}")
    if args.trace:
        metrics = {n: {"value": float(v), "unit": PER_LAYER[n]}
                   for n, v in result["per_layer"].items()}
        notes = model_notes(result["per_layer"])
        for name, entry in metrics.items():
            print(f"  {name:<28} {_fmt(entry['value']):>14} {entry['unit']:<5} "
                  f"{notes.get(name, '')}".rstrip())
    else:
        metrics = {n: {"value": float(e2e[n]), "unit": u} for n, u in END_TO_END.items()}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
