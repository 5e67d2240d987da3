"""Shared pieces: statistics, phases, the worker process, environment, hygiene."""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKER_SCRIPT = Path(__file__).resolve().parent / "worker.py"

DIMS = (16, 16, 1)   # input extents of every workload (the toy task)

# Set-up is repeated this many times per run and its median reported, so a
# slow process start does not decide the figure alone.
SETUP_REPEATS = 7

# Every process of a run is pinned to one CPU, the last this process may
# use (read before any workload pins itself).
CPUS = sorted(os.sched_getaffinity(0))
CPU = CPUS[-1]

# Work per host-clock tick: 2.5-4 ms on a shared 2-core x86 VM.
CLOCK_REPS = 40
# A long job reads the host clock this often (seconds), from a timer signal.
CLOCK_INTERVAL_S = 0.1


class GateError(RuntimeError):
    """A correctness, planted-oracle or secret-hygiene gate failed."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


# ----------------------------------------------------------------- statistics

def quantile(values, q: float) -> float:
    """Nearest-rank quantile; a failed operation enters as +inf."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.inf


# --------------------------------------------------------------------- phases

@dataclass
class Phase:
    """Operations attempted, succeeded and failed in one phase of a run."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)

    def ok(self, count: int = 1) -> None:
        self.attempted += count
        self.succeeded += count

    def fail(self, kind: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        self.failures[kind] = self.failures.get(kind, 0) + count


def totals(phases: dict) -> tuple[int, int]:
    return (sum(p.attempted for p in phases.values()),
            sum(p.failed for p in phases.values()))


# ------------------------------------------------------------- memory / procs

def proc_status(pid) -> dict:
    """Selected fields of /proc/<pid>/status (kB values as ints)."""
    out = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "VmRSS", "Threads"):
                    out[key] = int(value.split()[0])
    except OSError:
        pass
    return out


def pin(cpu: int) -> None:
    """Run this process, and the threads it starts from now on, on ``cpu``."""
    os.sched_setaffinity(0, {cpu})


# ----------------------------------------------------------------- host clock

class HostClock:
    """The host's current speed, read by timing a fixed kernel on this CPU.

    On a shared host a CPU runs up to 1.8x slower for seconds to minutes
    at a time while other tenants load its core (CPU time equals wall
    time, so it is not time stolen while descheduled). One tick is the
    time of a fixed mix of small 2-D FFTs and interpreter work, the mix
    holobind runs, and is independent of holobind's code. A time divided
    by the tick read next to it holds across those spells; both are
    reported, the raw time in ms and the ratio in ticks.
    """

    def __init__(self):
        self.x = np.random.default_rng(0).standard_normal((16, 16))
        self.tick()   # warm-up

    def tick(self) -> float:
        x = self.x
        t0 = time.perf_counter()
        for _ in range(CLOCK_REPS):
            np.fft.ifft2(np.fft.fft2(x) * np.fft.fft2(x)).real
            sum(range(200))
        return time.perf_counter() - t0


class ClockedJob:
    """Time a job, reading the host clock every CLOCK_INTERVAL_S within it.

    A timer signal runs ``clock.tick`` inside the job; the ticks' own time
    is taken out of the job's. ``seconds`` is the job's time, ``ticks`` that
    time divided by the mean tick read during it (or just after, for a job
    shorter than the interval).
    """

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.reads = []
        self.seconds = self.ticks = math.nan

    def _on_timer(self, _signum, _frame):
        self.reads.append(self.clock.tick())

    def __enter__(self):
        self.reads = []
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CLOCK_INTERVAL_S, CLOCK_INTERVAL_S)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = wall - sum(self.reads)
        unit = float(np.mean(self.reads)) if self.reads else self.clock.tick()
        self.ticks = self.seconds / unit
        return False


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(make, teardown=None, repeats=SETUP_REPEATS):
    """Run ``make`` ``repeats`` times, keeping the last state.

    Returns (state, seconds per set-up); ``teardown`` releases each state
    that is not kept.
    """
    times, state = [], None
    for i in range(repeats):
        if i and teardown is not None:
            teardown(state)
        t0 = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - t0)
    return state, times


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class WorkerProcess:
    """`holobind serve --model` in its own process, always reaped on exit.

    The port is picked free at start; a start that loses the port race is
    retried on another one. ``live`` holds every started worker until it is
    stopped, so the entry point can reap them after an error or a signal.
    """

    live: set = set()

    def __init__(self, model_path: Path, spans_path: Path | None = None, tag: str = "w",
                 cpu: int = CPU):
        self.model_path = model_path
        self.spans_path = spans_path
        self.cpu = cpu
        self.log_path = OUT_DIR / f"worker-{tag}.log"
        self.proc = None
        self.port = None
        self.peak = {}

    def start(self, timeout: float = 30.0) -> "WorkerProcess":
        # The BLAS thread settings run.py fixed are inherited from os.environ.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for _ in range(3):
            self.port = free_port()
            cmd = [sys.executable, str(WORKER_SCRIPT), "--model", str(self.model_path),
                   "--listen", f"127.0.0.1:{self.port}", "--cpu", str(self.cpu)]
            if self.spans_path is not None:
                cmd += ["--spans", str(self.spans_path)]
            with open(self.log_path, "w", encoding="utf-8") as log:
                self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                             stdout=log, stderr=subprocess.STDOUT)
            WorkerProcess.live.add(self)
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline and self.proc.poll() is None:
                try:
                    socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                    return self
                except OSError:
                    time.sleep(0.005)
            self.stop()
        raise RuntimeError(f"worker did not start; see {self.log_path}")

    @classmethod
    def stop_all(cls) -> None:
        for worker in list(cls.live):
            worker.stop()

    def status(self) -> dict:
        return proc_status(self.proc.pid) if self.proc is not None else {}

    def stop(self) -> None:
        """Interrupt, then kill if needed, and always wait for the exit."""
        proc, self.proc = self.proc, None
        WorkerProcess.live.discard(self)
        if proc is None:
            return
        if proc.poll() is None:
            self.peak = proc_status(proc.pid)
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# ---------------------------------------------------------------- environment

def environment() -> dict:
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    try:
        # The ceiling stops git from finding an enclosing repository when
        # the benchmark runs from an exported tree.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_per_process": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
        "blas_threads_note": "client and worker each get 1, both pinned to one CPU",
        "cpus_allowed": CPUS, "cpu_used": CPU, "clock_reps": CLOCK_REPS,
        "client_threads_at_start": proc_status("self").get("Threads"),
        "git_commit": commit,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------- secret scans

def secret_byte_patterns(secret_tensors) -> list[bytes]:
    """Raw f32 and f64 bytes of each secret, as criterion 11 scans them."""
    pats = []
    for t in secret_tensors:
        t = np.ascontiguousarray(t)
        pats.append(t.astype("<f8").tobytes())
        pats.append(t.astype("<f4").tobytes())
    return pats


def scan_for_secrets(paths, patterns) -> list[str]:
    """Files among ``paths`` that contain any of the byte patterns."""
    leaks = []
    for path in paths:
        if path is None or not Path(path).exists():
            continue
        blob = Path(path).read_bytes()
        if any(p in blob for p in patterns):
            leaks.append(str(path))
    return leaks
