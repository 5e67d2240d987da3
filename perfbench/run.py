"""The holobind benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {query_k10,serve_open,offline}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; it imports ``src/holobind`` from
there and writes only under ``.perfbench_out/``. Inputs come from
``--seed`` through ``synth_dataset``, ``init_toy_model`` and ``RngStream``.

Workloads (why each exists is in its module docstring):

- query_k10: closed loop, one client, ``client_infer`` with k=10 over one
  TCP connection to a worker process.
- serve_open: pre-bound single-replicate requests over two connections:
  an open loop at a reference rate alternating with saturation, then a
  ladder of fixed offered rates; no client binding work is timed.
- offline: pinned training run, the four audits and ``probe_curves``.

End-to-end metrics. Every workload reports the same four, so that each
metric compares across commits on every workload; ``op`` is the
workload's unit of user-visible work:

- setup_s: median of several set-ups (inputs, model, worker start).
- op_ticks: median time of one op in host-clock ticks. query_k10, one
  k=10 query; serve_open, one request at the reference rate timed from
  when it was due; offline, one pass of the researcher's pipeline (train,
  invert, strong, regress, cluster, probe).
- op_rate_per_tick: ops per tick. query_k10, queries (median over blocks
  of 50); serve_open, replies with 8 requests outstanding (median over
  saturation segments); offline, training examples (median over passes).
- peak_rss_mb: peak RSS of the client plus that of the worker, if any.

Ticks. On a shared 2-core host a CPU runs up to 1.8x slower for seconds
to minutes at a time while other tenants load its core: a fixed
single-thread numpy loop read 113-199 ms per unit within one minute, with
CPU time equal to wall time, so this is not time stolen while
descheduled, and in five 30-second runs of serve_open two ran slow from
start to end. Medians and low percentiles of times in ms follow how much
of a run fell in a slow spell. So the benchmark reads the host's speed
next to each measurement: a tick is the time of a fixed kernel of small
2-D FFTs and interpreter work (common.HostClock), run on the same CPU
before each query, between serve_open's half-second segments, and every
0.1 s inside offline's jobs from a timer signal. A time in ticks is the
time divided by the tick read next to it; within one run, the median of
query times in ticks moved 7% between two-second windows where the
median in ms moved 25%. The kernel does not call holobind, so a change
to the program moves the ms and the ticks alike. The times in ms, their
medians and tails (query_p50/p99_ms, request_p50/p99_ms, epoch_s, ...)
and max_rate_rps are printed and kept in the results file, not bounded.

CPUs. Every process of a run is pinned to one CPU and uses one BLAS
thread, so the client and the worker together use no more threads than
nproc, and the host clock reads the CPU the measured work runs on. In
query_k10's closed loop the client and the worker never run at once, and
on a virtual machine a wake-up across CPUs costs about 0.25 ms, twenty
times per query (a k=10 query read 10.9 ms pinned against 13-17 ms
unpinned). In serve_open the generator shares the CPU with the worker, so
the throughput includes its cost, about a tenth of the worker's.

The named metrics of each workload (query_p50_ms, max_rate_rps, epoch_s,
probe_s, ...) and error_rate are printed above the JSON line and kept in
the results file. error_rate is not a bounded metric because it is 0 on a
healthy run; the JSON line carries attempted and failed instead.

With ``--trace 1`` the run also records spans (see tracer.py, layers.py)
and reports every per-layer metric instead, plus trace.overhead_frac.

A failed correctness, planted-oracle or secret-hygiene gate prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# BLAS threads must be fixed before numpy loads: one for this process and
# one for the worker it starts, each pinned to one CPU (see common.pin).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

WORKLOADS = ("query_k10", "serve_open", "offline")


def _interrupted(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="holobind benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "holobind" / "__init__.py").is_file():
        print(f"error: no holobind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _interrupted)

    import report
    from common import OUT_DIR, GateError, WorkerProcess
    from tracer import TraceError

    OUT_DIR.mkdir(exist_ok=True)
    module = importlib.import_module(args.workload)
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
        line = report.finish(args, result)
    except (GateError, TraceError) as err:
        print(f"gate failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        WorkerProcess.stop_all()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
