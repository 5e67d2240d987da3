import csv
import io
import os
import signal
import socket
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import holobind
from holobind import protocol
from holobind.altbind import operator_secret
from holobind.cli import main
from holobind.tensor import RngStream, read_tensor, write_tensor
from holobind.trainer import init_toy_model, save_model


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------- file verbs

def test_gen_bind_unbind_round_trip(tmp_path):
    x = np.random.default_rng(0).normal(size=(16, 16, 1))
    x_path, s_path = tmp_path / "x.hbt", tmp_path / "s.hbt"
    b_path, out_path = tmp_path / "b.hbt", tmp_path / "rec.hbt"
    write_tensor(x, x_path)
    assert main(["gen-secret", "--dims", "16x16x1", "--seed", "5", "--out", str(s_path)]) == 0
    assert main(["bind", "--in", str(x_path), "--secret", str(s_path),
                 "--out", str(b_path)]) == 0
    assert main(["unbind", "--in", str(b_path), "--secret", str(s_path),
                 "--out", str(out_path)]) == 0
    recovered = read_tensor(out_path)
    assert np.max(np.abs(recovered - x)) <= 1e-9


@pytest.mark.parametrize("op, shape", [("hrr1d", (16, 16)), ("vtb", (16, 16)),
                                       ("ivtb", (16, 16)), ("hilbert", (16, 16)),
                                       ("hilbert", (16, 16, 3))],
                         ids=["hrr1d", "vtb", "ivtb", "hilbert", "hilbert_3ch"])
def test_alternative_operators_round_trip(tmp_path, op, shape):
    x = np.random.default_rng(1).normal(size=shape)
    x_path, s_path = tmp_path / "x.hbt", tmp_path / "s.hbt"
    b_path, out_path = tmp_path / "b.hbt", tmp_path / "rec.hbt"
    write_tensor(x, x_path)
    gen_op = {"hrr1d": "hrr2d", "hilbert": "hrr2d"}.get(op, op)
    assert main(["gen-secret", "--dims", "256", "--seed", "3", "--out", str(s_path),
                 "--op", gen_op]) == 0
    assert main(["bind", "--in", str(x_path), "--secret", str(s_path),
                 "--out", str(b_path), "--op", op]) == 0
    unbind_args = ["unbind", "--in", str(b_path), "--secret", str(s_path),
                   "--out", str(out_path), "--op", op]
    if op == "hilbert":
        unbind_args += ["--dims", "16x16"]
    assert main(unbind_args) == 0
    recovered = read_tensor(out_path)
    assert recovered.shape == x.shape
    if op != "vtb":  # plain VTB unbinding is approximate by design
        assert np.max(np.abs(recovered - x)) <= 1e-9


@pytest.mark.parametrize("op, dims", [("default", "16x16x1"), ("default", "256"),
                                      ("vtb", "16x16"), ("ivtb", "256"), ("hrr2d", "8x8"),
                                      ("hrr1d", "4x4"), ("hilbert", "28x28")])
def test_gen_secret_writes_the_operator_secret(tmp_path, op, dims):
    out = tmp_path / "s.hbt"
    flags = [] if op == "default" else ["--op", op]
    assert main(["gen-secret", "--dims", dims, "--seed", "8", "--out", str(out)] + flags) == 0
    extents = tuple(int(e) for e in dims.split("x"))
    key, _ = operator_secret("hrr2d" if op == "default" else op, extents, RngStream(8))
    written = read_tensor(out)
    assert written.shape == key.shape and np.array_equal(written, key)


def test_gen_secret_draws_a_hilbert_key_that_bind_accepts(tmp_path):
    # a 28x28 image runs along the 32x32 curve, so its key has 1024 entries
    s_path, x_path, b_path = tmp_path / "s.hbt", tmp_path / "x.hbt", tmp_path / "b.hbt"
    assert main(["gen-secret", "--dims", "28x28", "--seed", "4", "--op", "hilbert",
                 "--out", str(s_path)]) == 0
    assert read_tensor(s_path).shape == (1024,)
    write_tensor(np.random.default_rng(5).normal(size=(28, 28)), x_path)
    assert main(["bind", "--in", str(x_path), "--secret", str(s_path), "--out", str(b_path),
                 "--op", "hilbert"]) == 0
    assert read_tensor(b_path).shape == (1024,)


def test_bind_ivtb_with_a_plain_vtb_key_exits_1(tmp_path, capsys):
    x_path, s_path = tmp_path / "x.hbt", tmp_path / "s.hbt"
    write_tensor(np.ones((16, 16)), x_path)
    assert main(["gen-secret", "--dims", "256", "--seed", "3", "--op", "vtb",
                 "--out", str(s_path)]) == 0
    assert main(["bind", "--in", str(x_path), "--secret", str(s_path), "--op", "ivtb",
                 "--out", str(tmp_path / "b.hbt")]) == 1
    err = capsys.readouterr().err
    assert err == "error: secret block is not orthogonal; not an ivtb secret\n"
    assert not (tmp_path / "b.hbt").exists()


def test_unbind_hilbert_with_dims_beyond_the_grid_exits_1(tmp_path, capsys):
    x_path, s_path, b_path = tmp_path / "x.hbt", tmp_path / "s.hbt", tmp_path / "b.hbt"
    write_tensor(np.random.default_rng(2).normal(size=(16, 16)), x_path)
    assert main(["gen-secret", "--dims", "256", "--seed", "3", "--out", str(s_path)]) == 0
    assert main(["bind", "--in", str(x_path), "--secret", str(s_path), "--op", "hilbert",
                 "--out", str(b_path)]) == 0
    out_path = tmp_path / "rec.hbt"
    assert main(["unbind", "--in", str(b_path), "--secret", str(s_path), "--op", "hilbert",
                 "--dims", "20x20", "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: crop dims (20, 20)") and err.count("\n") == 1
    assert not out_path.exists()


def test_gen_secret_deterministic_with_env(tmp_path, monkeypatch):
    a, b = tmp_path / "a.hbt", tmp_path / "b.hbt"
    monkeypatch.setenv("HOLOBIND_SEED", "9")
    assert main(["gen-secret", "--dims", "8x8", "--out", str(a)]) == 0
    monkeypatch.delenv("HOLOBIND_SEED")
    assert main(["gen-secret", "--dims", "8x8", "--seed", "9", "--out", str(b)]) == 0
    assert np.array_equal(read_tensor(a), read_tensor(b))


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    a, b = tmp_path / "a.hbt", tmp_path / "b.hbt"
    monkeypatch.setenv("HOLOBIND_SEED", "111")
    assert main(["gen-secret", "--dims", "8x8", "--seed", "9", "--out", str(a)]) == 0
    monkeypatch.delenv("HOLOBIND_SEED")
    assert main(["gen-secret", "--dims", "8x8", "--seed", "9", "--out", str(b)]) == 0
    assert np.array_equal(read_tensor(a), read_tensor(b))


# ------------------------------------------------------------------ exit codes

def test_unknown_flag_is_usage_error():
    assert main(["gen-secret", "--dims", "4x4", "--out", "x", "--frobnicate"]) == 2


def test_unknown_subcommand_is_usage_error():
    assert main(["transmogrify"]) == 2


@pytest.mark.parametrize("argv", [
    ["bench", "--spec", "{tmp}/id.spec", "--dims", "16x16x1"],
    ["gen-secret", "--dims", "8x8", "--op", "hrr", "--out", "{tmp}/s.hbt"],
    ["serve", "--spec", "{tmp}/id.spec", "--model", "{tmp}/toy.model"],
    ["serve"],
], ids=["bench_dims", "gen_secret_op_hrr", "serve_spec_and_model", "serve_neither"])
def test_removed_or_conflicting_flags_are_usage_errors(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "id.spec").write_text("input 16 16 1\n")
    save_model(init_toy_model(6), tmp_path / "toy.model")
    # a serve that got past the parser would block, so it fails the test instead
    monkeypatch.setattr(protocol, "worker_serve", lambda *args: pytest.fail("served"))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage: holobind" in err
    assert not (tmp_path / "s.hbt").exists()


def test_domain_error_exit_code(tmp_path):
    x_path = tmp_path / "x.hbt"
    s_path = tmp_path / "s.hbt"
    write_tensor(np.ones((4, 4)), x_path)
    write_tensor(np.ones((8, 8)), s_path)  # shape mismatch
    assert main(["bind", "--in", str(x_path), "--secret", str(s_path),
                 "--out", str(tmp_path / "b.hbt")]) == 1


def test_missing_file_domain_error(tmp_path):
    # unreadable container -> domain error, not a traceback
    bad = tmp_path / "bad.hbt"
    bad.write_bytes(b"not a tensor")
    assert main(["unbind", "--in", str(bad), "--secret", str(bad),
                 "--out", str(tmp_path / "o.hbt")]) == 1


@pytest.mark.parametrize("option", ["--in", "--secret", "--spec", "--model"])
def test_missing_input_file_exits_1(tmp_path, capsys, option):
    x_path = tmp_path / "x.hbt"
    write_tensor(np.ones((16, 16, 1)), x_path)
    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(6), model_path)
    missing = str(tmp_path / "missing.file")
    argv = {
        "--in": ["query", "--in", missing, "--endpoint", "127.0.0.1:9",
                 "--model", str(model_path)],
        "--secret": ["bind", "--in", str(x_path), "--secret", missing,
                     "--out", str(tmp_path / "b.hbt")],
        "--spec": ["serve", "--spec", missing, "--listen", "127.0.0.1:0"],
        "--model": ["query", "--in", str(x_path), "--endpoint", "127.0.0.1:9",
                    "--model", missing],
    }[option]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing.file" in err


@pytest.mark.parametrize("argv", [
    ["gen-secret", "--dims=-4x-4", "--out", "{tmp}/s.hbt"],
    ["serve", "--spec", "{spec}", "--listen", "127.0.0.1:abc"],
    ["serve", "--spec", "{spec}", "--listen", "127.0.0.1:99999"],
    ["probe", "--d", "0"],
    ["probe", "--d", "-4"],
    ["probe", "--seeds", "0"],
    ["probe", "--kmax", "0"],
    ["probe", "--kmax", "-3"],
    ["probe", "--d", "4", "--seeds", "1", "--kmax", "2048"],
    ["bench", "--spec", "{spec}", "--k", "0"],
], ids=["negative_dims", "port_not_a_number", "port_too_large", "probe_d_0",
        "probe_d_negative", "probe_no_seeds", "probe_kmax_0", "probe_kmax_negative",
        "probe_kmax_2048", "bench_k_0"])
def test_malformed_numbers_exit_1(tmp_path, capsys, argv):
    spec_path = tmp_path / "id.spec"
    spec_path.write_text("input 16 16 1\n")
    assert main([a.format(tmp=tmp_path, spec=spec_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen-secret", "--dims", "100000x100000x100000"],
    ["gen-secret", "--dims", "99999999999999999999"],
    ["gen-secret", "--dims", "4294967295x4294967295x4294967295"],
    ["probe", "--d", "1000000000000", "--kmax", "1"],
    ["probe", "--d", "1000000000000000000", "--kmax", "1"],
], ids=["dims_7_PiB", "extent_over_u32", "dims_over_numpy_index", "probe_1_PiB",
        "probe_over_numpy_index"])
def test_sizes_no_array_can_hold_exit_1(tmp_path, capsys, argv):
    # Each size is refused before any allocation, or asks for over 1 PiB,
    # beyond the 128-TiB user address space, so no run touches memory.
    out = tmp_path / "s.hbt"
    if argv[0] == "gen-secret":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fault", ["truncated", "wrong_shape_p_w1"])
def test_malformed_model_file_exits_1(tmp_path, capsys, fault):
    model_path = tmp_path / "toy.model"
    model = init_toy_model(6)
    if fault == "wrong_shape_p_w1":
        model.params["p_w1"] = init_toy_model(6, dims=(8, 8, 1)).params["p_w1"]
    save_model(model, model_path)
    if fault == "truncated":
        model_path.write_bytes(model_path.read_bytes()[:20])
    x_path = tmp_path / "x.hbt"
    write_tensor(np.ones((16, 16, 1)), x_path)
    verbs = [["query", "--in", str(x_path), "--endpoint", "127.0.0.1:9",
              "--model", str(model_path)]]
    if fault == "truncated":  # a serve that loaded the model would block here
        verbs.append(["serve", "--model", str(model_path), "--listen", "127.0.0.1:0"])
    for argv in verbs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "byte" in err


# ----------------------------------------------------------------- csv verbs

def test_probe_csv(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["probe", "--d", "64", "--kmax", "4", "--mode", "both",
                 "--seeds", "5", "--seed", "0", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert {r["mode"] for r in rows} == {"projected", "naive"}
    assert {int(r["k"]) for r in rows} == {1, 2, 4}
    for row in rows:
        float(row["present_mean"]), float(row["absent_std"])


def test_probe_zero_norm_bundle_exits_1(capsys, monkeypatch):
    # At d=1 the projected keys are +-1 and a bundle can sum to zero.
    monkeypatch.delenv("HOLOBIND_SEED", raising=False)
    assert main(["probe", "--d", "1", "--kmax", "4", "--seeds", "7"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: cosine undefined for zero-norm input\n"


def test_bench_csv(tmp_path):
    spec_path = tmp_path / "toy.spec"
    spec_path.write_text(
        "input 16 16 1\n"
        "circconv2d 3 3 1 16 100\n"
        "pointwise leaky_relu 0.1\n"
        "circconv2d 3 3 16 16 101\n"
        "pointwise leaky_relu 0.1\n"
        "circconv2d 3 3 16 1 102\n"
    )
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec_path), "--k", "1", "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert int(row["remote_flops"]) == 663_552
    assert float(row["remote_fraction"]) >= 0.65
    assert int(row["bytes_up"]) == 1060


def test_bench_refuses_a_spec_the_worker_refuses(tmp_path, capsys):
    # the reply would be 4x4x2, which bench would count as a 4x4x1 one
    spec_path = tmp_path / "depth.spec"
    spec_path.write_text("input 4 4 1\ncircconv2d 3 3 1 2 1\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(4, 4, 2)" in err
    assert not out.exists()


@pytest.mark.parametrize("extents, size", [
    ("4294967295 4294967295 1", 18 + 18 + 4 * 4294967295 ** 2),
    ("2097152 2097152 2097152", 18 + 18 + 4 * 2 ** 63),
], ids=["u32_extents", "2_pow_63_values"])
def test_bench_counts_the_bytes_of_a_spec_past_int64(tmp_path, extents, size):
    # The message holds an envelope, the container header and f32 values.
    spec_path = tmp_path / "big.spec"
    spec_path.write_text(f"input {extents}\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert int(row["bytes_up"]) == int(row["bytes_down"]) == size


def test_bench_refuses_an_input_extent_over_u32(tmp_path, capsys):
    spec_path = tmp_path / "huge.spec"
    spec_path.write_text("input 4294967296 4294967296 4294967296\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("error:") and err.count("\n") == 1 and "4294967295" in err


@pytest.mark.parametrize("command", [["serve", "--listen", "127.0.0.1:0"],
                                     ["bench", "--out", "bench.csv"]])
def test_a_dense_line_is_an_unknown_layer_kind(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    # a serve that got past the spec would block, so it fails the test instead
    monkeypatch.setattr(protocol, "worker_serve", lambda *args: pytest.fail("served"))
    spec_path = tmp_path / "dense.spec"
    # an identity line is refused the same way: a spec with no layer lines is the identity
    for line, kind in [("dense 10 16 3", "dense"), ("identity", "identity")]:
        spec_path.write_text(f"input 4 4 1\n{line}\n")
        assert main(command[:1] + ["--spec", str(spec_path)] + command[1:]) == 1
        assert capsys.readouterr().err == f"error: unknown layer kind '{kind}'\n"
        assert not (tmp_path / "bench.csv").exists()


def test_bench_counts_no_remote_flops_for_a_spec_with_no_layers(tmp_path):
    spec_path = tmp_path / "empty.spec"
    spec_path.write_text("input 16 16 1\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert int(row["remote_flops"]) == 0 and int(row["bytes_up"]) == 1060


def test_bench_malformed_spec_file_exits_1_without_a_traceback(tmp_path):
    spec_path = tmp_path / "bad.spec"
    out = tmp_path / "bench.csv"
    for body in ["input 16 a 1", "circconv2d 3 3 0 16 1", "circconv2d 0 3 1 1 1", "dense 4 0 1",
                 "circconv2d 3 3 1 1 1 extra", "pointwise leaky_relu inf",
                 "pointwise leaky_relu nan"]:
        text = body if body.startswith("input") else "input 16 16 1\n" + body
        spec_path.write_text(text + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "holobind.cli", "bench", "--spec", str(spec_path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=30, env=_cli_env())
        assert proc.returncode == 1, body
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, body
        assert "Traceback" not in proc.stderr and not out.exists()


def test_ablate_csv(tmp_path):
    out = tmp_path / "ablate.csv"
    assert main(["ablate", "--seed", "4", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["operator"] for r in rows] == ["hrr2d", "hrr1d", "vtb", "ivtb", "hilbert"]
    by_op = {r["operator"]: float(r["reconstruction_cosine"]) for r in rows}
    for op in ("hrr2d", "hrr1d", "ivtb", "hilbert"):
        assert by_op[op] >= 0.999
    assert 0.3 < by_op["vtb"] < 0.95
    for r in rows:
        assert abs(float(r["bound_input_cosine"])) < 0.3


# -------------------------------------------------------------- train/attack

def test_train_toy_and_attack_smoke(tmp_path):
    model_path = tmp_path / "toy.model"
    metrics_path = tmp_path / "metrics.csv"
    assert main(["train-toy", "--epochs", "2", "--out", str(model_path),
                 "--metrics", str(metrics_path)]) == 0
    metrics = _read_csv(metrics_path)
    assert len(metrics) == 2
    assert set(metrics[0]) == {"epoch", "train_loss", "pred_acc", "adv_acc"}

    report_path = tmp_path / "report.csv"
    assert main(["attack", "--kind", "cluster", "--model", str(model_path),
                 "--seed", "3", "--out", str(report_path)]) == 0
    (row,) = _read_csv(report_path)
    assert row["name"] == "cluster"
    assert row["score_kind"] == "ari"
    assert row["verdict"] in ("pass", "fail")
    assert "k=4" in row["params"]


def test_attack_regress_smoke(tmp_path):
    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(2), model_path)
    report_path = tmp_path / "report.csv"
    assert main(["attack", "--kind", "regress", "--model", str(model_path),
                 "--seed", "4", "--out", str(report_path)]) == 0
    (row,) = _read_csv(report_path)
    assert row["name"] == "regress"
    assert float(row["score"]) > 0


def test_attack_invert_smoke(tmp_path):
    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(2), model_path)
    report_path = tmp_path / "report.csv"
    assert main(["attack", "--kind", "invert", "--model", str(model_path),
                 "--seed", "4", "--steps", "5", "--out", str(report_path)]) == 0
    (row,) = _read_csv(report_path)
    assert row["name"] == "invert"
    assert "recovery_cosine=" in row["params"]
    assert row["verdict"] in ("pass", "fail")


def test_attack_refuses_a_model_of_other_input_dims(tmp_path, capsys):
    # the audits run on the committed 16x16x1 dataset, so an 8x8x1 model is refused
    model_path = tmp_path / "small.model"
    save_model(init_toy_model(1, dims=(8, 8, 1)), model_path)
    out = tmp_path / "report.csv"
    for kind in ("cluster", "strong", "invert", "regress"):
        assert main(["attack", "--kind", kind, "--model", str(model_path),
                     "--out", str(out)]) == 1, kind
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err == "error: model input (8, 8, 1) != dataset dims (16, 16, 1)\n"


def test_attack_invert_refuses_a_negative_step_count(tmp_path, capsys):
    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(2), model_path)
    out = tmp_path / "report.csv"
    assert main(["attack", "--kind", "invert", "--model", str(model_path),
                 "--steps", "-3", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err == "error: inversion steps must be >= 0, got -3\n"


# -------------------------------------------------------------- serve/query

def test_serve_query_over_tcp(tmp_path):
    from holobind.protocol import WorkerServer
    from holobind.trainer import load_model

    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(6), model_path)
    x = np.random.default_rng(7).normal(size=(16, 16, 1))
    x_path = tmp_path / "x.hbt"
    write_tensor(x, x_path)

    with WorkerServer(load_model(model_path).backbone) as server:
        host, port = server.address
        out = tmp_path / "dist.csv"
        assert main(["query", "--in", str(x_path), "--endpoint", f"{host}:{port}",
                     "--k", "2", "--model", str(model_path), "--seed", "8",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 4
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_query_connect_failure_is_domain_error(tmp_path):
    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(6), model_path)
    x_path = tmp_path / "x.hbt"
    write_tensor(np.ones((16, 16, 1)), x_path)
    assert main(["query", "--in", str(x_path), "--endpoint", "127.0.0.1:9",
                 "--k", "1", "--model", str(model_path)]) == 1


def _cli_env():
    src = str(Path(holobind.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_serve_model_exits_0_on_sigint_with_a_client_connected(tmp_path):
    from holobind.errors import TransportError
    from holobind.protocol import (STATUS_OK, BoundRequest, TcpTransport, decode_response,
                                   encode_request)

    model_path = tmp_path / "toy.model"
    save_model(init_toy_model(6), model_path)
    with socket.socket() as probe:  # a port that was free a moment ago
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with open(tmp_path / "serve.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "holobind.cli", "serve", "--model", str(model_path),
             "--listen", f"127.0.0.1:{port}"], stdout=log, stderr=log, env=_cli_env())
    try:
        deadline = time.monotonic() + 30.0
        transport = None
        while transport is None and proc.poll() is None and time.monotonic() < deadline:
            try:
                transport = TcpTransport("127.0.0.1", port, timeout=5.0)
            except TransportError:
                time.sleep(0.02)
        assert transport is not None, (tmp_path / "serve.log").read_text()
        with transport:
            request = encode_request(BoundRequest(3, np.ones((16, 16, 1))))
            assert decode_response(transport.request(request)).status == STATUS_OK
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=2.0) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_serve_refuses_shape_changing_spec(tmp_path):
    # the worker must refuse before it listens; serving would block forever
    spec_path = tmp_path / "depth.spec"
    spec_path.write_text("input 4 4 1\ncircconv2d 3 3 1 2 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "holobind.cli", "serve", "--spec", str(spec_path),
         "--listen", "127.0.0.1:0"],
        capture_output=True, text=True, timeout=30, env=_cli_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "(4, 4, 2)" in proc.stderr
