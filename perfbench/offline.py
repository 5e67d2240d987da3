"""offline: the researcher's path, train then audit, then the probe curves.

It trains with a dataset size and TrainConfig pinned here (not library
defaults), then runs the inversion (500 steps, 48 images), strong-adversary,
regression and clustering audits on that model, as ``holobind attack``
does, followed by ``probe_curves`` at the CLI default size. This is the
only workload that exercises ``trainer`` and ``attacks``, and it uses the
backbone convolution at batch 32 (forward and backward) and at batch 1040
(``worker_views``), where the serving workloads use batch 1: a kernel
change that helps one use and hurts the other shows up.

Each attack's planted-solution mode runs once per run, untimed, and must
succeed, so an optimisation that breaks an attack fails the run instead of
looking faster.

Every job reads the host clock every CLOCK_INTERVAL_S from a timer signal
(see common.ClockedJob), so each job's time is also reported in ticks.
"""

from __future__ import annotations

import numpy as np

from holobind import attacks, trainer, vsa
from holobind.tensor import RngStream
from holobind.vsa import bind, sample_secret

import layers
from common import CPU, DIMS, ClockedJob, HostClock, Phase, gate, median, pin, repeat_setup
from tracer import Tracer

N_TRAIN, N_TEST, N_CLASSES = 512, 256, 4
EPOCHS = 3
INVERT_STEPS, INVERT_IMAGES = 500, 48
PROBE = {"d": 1024, "ks": (1, 2, 4, 8, 16, 32), "n_seeds": 100,
         "modes": ("projected", "naive")}          # `holobind probe` defaults
JOBS = ("train", "invert", "strong", "regress", "cluster", "probe")
# A pass takes 6.5-10 s on a 2-core x86 box. A run makes seconds / 7.5
# passes (at least 2): a fixed count, so every run does the same work.
NOMINAL_PASS_S = 7.5


def train_config(seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(epochs=EPOCHS, batch_size=32, lr=1e-3, beta1=0.9,
                               beta2=0.999, eps=1e-8, seed=seed + 1,
                               lr_decay_epoch=40, lr_decay_factor=0.1)


def _setup(seed: int) -> dict:
    data = trainer.synth_dataset(seed, n_classes=N_CLASSES, n_train=N_TRAIN,
                                 n_test=N_TEST, noise_sigma=0.3, dims=DIMS)
    control = trainer.synth_dataset(seed, n_classes=N_CLASSES, n_train=N_CLASSES,
                                    n_test=N_TEST, noise_sigma=0.0, dims=DIMS)
    return {"data": data, "control": control, "cfg": train_config(seed)}


def one_pass(state: dict, seed: int, phases: dict, clock: HostClock) -> tuple[dict, dict, list]:
    """Run every job once; returns (seconds per job, ticks per job, sampled secrets)."""
    data, times, ticks = state["data"], {}, {}

    def job(name, fn):
        with ClockedJob(clock) as timed:
            out = fn()
        times[name], ticks[name] = timed.seconds, timed.ticks
        phases[name].ok()
        return out

    model, rows = job("train", lambda: trainer.train_toy_model(data, state["cfg"]))
    losses = [r["train_loss"] for r in rows]
    gate(all(np.isfinite(losses)) and losses[-1] < losses[0],
         f"training loss not finite or not falling: {losses}")
    views = RngStream(seed, counter=9 << 32)

    def invert():
        reference = attacks.build_reference(data.train_images, p=16)
        bound, _, _, _ = trainer.worker_views(model, data.test_images[:INVERT_IMAGES], views)
        return attacks.inversion_attack(bound, reference, steps=INVERT_STEPS, lr=0.05,
                                        rng=RngStream(seed), x_true=data.test_images[0])

    result = job("invert", invert)
    gate(len(result.trajectory) == INVERT_STEPS + 1 and np.isfinite(result.trajectory[-1]),
         "inversion trajectory has the wrong length or a non-finite score")

    def strong():
        _, r_train, _, rng = trainer.worker_views(model, data.train_images, views)
        _, r_test, _, _ = trainer.worker_views(model, data.test_images, rng)
        return attacks.strong_adversary(r_train, data.train_labels, r_test, data.test_labels,
                                        seed, n_classes=N_CLASSES)

    report = job("strong", strong)
    gate(0.0 <= report.score <= 1.0, f"strong adversary accuracy {report.score} out of range")

    def regress():
        images = np.concatenate([data.train_images, data.train_images, data.test_images[:16]])
        bound, _, secrets, _ = trainer.worker_views(model, images, views)
        return attacks.secret_regression_attack(list(zip(bound, secrets)), n_holdout=16,
                                                seed=seed), secrets[:4]

    report, secrets = job("regress", regress)
    gate(np.isfinite(report.score), "regression residual is not finite")

    def cluster():
        _, r, _, _ = trainer.worker_views(model, data.test_images, views)
        return attacks.clustering_attack(r, data.test_labels, N_CLASSES, RngStream(seed))

    report = job("cluster", cluster)
    gate(-1.0 <= report.score <= 1.0, f"ARI {report.score} out of range")

    rows = job("probe", lambda: vsa.probe_curves(seed=seed, **PROBE))
    first = next(r for r in rows if r["k"] == 1 and r["mode"] == "projected")
    gate(first["present_mean"] >= 0.999,
         f"probe present mean at k=1 (projected) is {first['present_mean']:.6f} < 0.999")
    return times, ticks, secrets


def planted_gates(state: dict, seed: int, phase: Phase) -> dict:
    """Each attack's planted-solution mode must succeed (untimed)."""
    data, control = state["data"], state["control"]
    imgs = data.train_images[:32, :, :, 0]
    secret, _ = sample_secret((16, 16), RngStream(seed, counter=11 << 32))
    bound = np.stack([bind(im, secret) for im in imgs])
    planted = attacks.inversion_attack(bound, attacks.build_reference(imgs, p=16), steps=50,
                                       lr=0.05, rng=RngStream(seed, counter=12 << 32),
                                       x_true=imgs[0], s_init=secret, validate_gradient=True)
    ident = [sample_secret((8, 8), RngStream(seed, counter=(13 << 32) + i))[0]
             for i in range(140)]
    regress = attacks.secret_regression_attack([(s.tensor.copy(), s) for s in ident],
                                               n_holdout=8)
    clust = attacks.clustering_attack(control.test_images, control.test_labels, N_CLASSES,
                                      RngStream(seed, counter=14 << 32))
    scores = {"planted_inversion_cosine": planted.recovery_cosine,
              "planted_regression_cosine": regress.params["mean_cosine"],
              "noiseless_clustering_ari": clust.score}
    for name, value, bar in (("planted_inversion_cosine", planted.recovery_cosine, 0.99),
                             ("planted_regression_cosine", regress.params["mean_cosine"], 0.99),
                             ("noiseless_clustering_ari", clust.score, 0.9)):
        if value >= bar:
            phase.ok()
        else:
            phase.fail(name)
        gate(value >= bar, f"{name} {value:.4f} < {bar}")
    return scores


def run(seed: int, seconds: float, trace: bool) -> dict:
    phases = {name: Phase() for name in ("setup",) + JOBS + ("planted",)}
    pin(CPU)
    clock = HostClock()
    # Set-up here is a few ms, so it is repeated more to steady its median.
    state, setup_times = repeat_setup(lambda: _setup(seed), repeats=25)
    phases["setup"].ok(len(setup_times))
    passes, pass_ticks, secrets = [], [], []
    tracer = None
    # With tracing, the first pass is untraced (the overhead baseline) and
    # the rest are traced.
    n_passes = max(2, round(seconds / NOMINAL_PASS_S))
    try:
        for i in range(n_passes):
            if trace and i == 1:
                tracer = Tracer()
                layers.install_offline_tracing(tracer)
            if tracer is None:
                times, ticks, secrets = one_pass(state, seed, phases, clock)
            else:
                with tracer.span("pass", rid=i):
                    times, ticks, secrets = one_pass(state, seed, phases, clock)
            passes.append(times)
            pass_ticks.append(ticks)
    finally:
        if tracer is not None:
            tracer.restore()
    scores = planted_gates(state, seed, phases["planted"])

    measured = passes[:1] if trace else passes
    measured_ticks = pass_ticks[:1] if trace else pass_ticks
    totals = [sum(p.values()) for p in measured]
    per_job = {name: median([p[name] for p in measured]) for name in JOBS}
    result = {
        "setup_times": setup_times, "phases": phases, "secrets": secrets,
        "named": {"epoch_s": per_job["train"] / EPOCHS,
                          "invert_s": per_job["invert"], "strong_s": per_job["strong"],
                          "regress_s": per_job["regress"], "probe_s": per_job["probe"]},
        "op": {"ticks": median([sum(p.values()) for p in measured_ticks]),
               "rate_per_tick": median([N_TRAIN * EPOCHS / p["train"] for p in measured_ticks]),
               "samples": len(totals)},
        "lines": [f"pass_p50_ms {median(totals) * 1e3:.6g} ms over {len(totals)} passes"],
        "details": {"passes": passes, "pass_ticks": pass_ticks, "cluster_s": per_job["cluster"],
                    "planted": scores, "epochs_per_pass": EPOCHS,
                    "train_examples_per_pass": N_TRAIN * EPOCHS},
    }
    if trace:
        traced = [sum(p.values()) for p in pass_ticks[1:]]
        result["tracer"] = tracer
        result["per_layer"] = layers.layer_metrics(
            tracer.spans, [], n_ops=len(traced), dims=DIMS,
            overhead_frac=median(traced) / sum(pass_ticks[0].values()) - 1.0)
    return result
