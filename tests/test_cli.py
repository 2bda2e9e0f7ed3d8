import json
import subprocess
import sys
import time

import pytest

from icsim.cli import build_engine
from icsim.simulate import batch_round_trials

CLI = [sys.executable, "-m", "icsim.cli"]


def run_cli(*args, check=True):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_version():
    proc = run_cli("--version")
    assert proc.stdout.strip() == "0.1.0"


def test_usage_error_exit_code():
    proc = run_cli("simulate", check=False)  # missing required flags
    assert proc.returncode == 2
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 2


def test_example_dsbs():
    proc = run_cli("example", "dsbs", "--q", "0.25")
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    assert doc["ic_mean"] == pytest.approx(0.8112781244591328, abs=1e-12)
    assert len(doc["ic_atoms"]) == 2


def test_example_appendix():
    proc = run_cli("example", "appendix-a", "--n", "8")
    doc = json.loads(proc.stdout)
    assert doc["lambda_eps"] == 16.0
    assert doc["config"]["eps"] == pytest.approx(8.0 ** -3)


def test_analyze_with_csv(tmp_path):
    csv_path = tmp_path / "spec.csv"
    proc = run_cli("analyze", "--source", "dsbs:0.25", "--protocol",
                   "send-x", "--csv", str(csv_path))
    doc = json.loads(proc.stdout)
    assert doc["mean"] == pytest.approx(0.8112781244591328, abs=1e-12)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "value,prob"
    assert len(lines) == 3


def test_bound_beta():
    proc = run_cli("bound", "beta", "--p", "0.5,0.5", "--q", "0.1,0.9",
                   "--eps", "0.1")
    doc = json.loads(proc.stdout)
    assert doc["beta"] == pytest.approx(0.82, abs=1e-12)


def test_bound_lower():
    proc = run_cli("bound", "lower", "--n", "16")
    doc = json.loads(proc.stdout)
    assert doc["lambda_eps"] == 32.0


@pytest.mark.parametrize("kind, extra", [
    ("upper", ()),
    ("second-order", ()),
    ("beta", ("--p", "0.5,0.5", "--q", "0.1,0.9")),
])
def test_bound_without_eps_is_usage_error(kind, extra):
    # --eps defaults to "auto", which only bound lower resolves
    proc = run_cli("bound", kind, *extra, check=False)
    assert proc.returncode == 2
    assert "auto applies only to bound lower" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ("lower", "--eps", "x"),
    ("upper", "--eps", "x"),
    ("beta", "--eps", "0.1"),  # no --p or --q
])
def test_bound_bad_arguments_are_usage_errors(argv):
    proc = run_cli("bound", *argv, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_example_non_numeric_eps_is_usage_error():
    proc = run_cli("example", "appendix-a", "--eps", "foo", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bound_infeasible_exit_code():
    proc = run_cli("bound", "upper", "--source", "dsbs:0.25", "--target",
                   "send-x", "--eps", "0.5", "--gamma", "4", check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_simulate_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs:0.25", "protocol": "p1", "l": 4, "gamma": 2.0}))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("simulate", "--config", str(cfg), "--trials", "2000",
            "--seed", "3", "--out", str(out_a))
    run_cli("simulate", "--config", str(cfg), "--trials", "2000",
            "--seed", "3", "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["seed"] == 3
    assert doc["bits"]["mean"] == 4.0


def test_simulate_csv_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs^2:0.25", "protocol": "p2", "gamma": 2.0}))
    proc = run_cli("simulate", "--config", str(cfg), "--trials", "500",
                   "--seed", "0", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "bits,count"
    assert sum(int(r.split(",")[1]) for r in lines[1:]) == 500


def test_eval_plugin(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs:0.25", "protocol": "p3", "target": "send-x",
         "gamma": 2.0, "k": 1}))
    proc = run_cli("eval", "--config", str(cfg), "--mode", "plugin",
                   "--trials", "20000", "--seed", "1")
    doc = json.loads(proc.stdout)
    assert doc["mode"] == "plugin"
    assert 0.0 <= doc["tv"] <= 1.0
    assert doc["tv"] <= doc["budget"] + doc["ci_halfwidth"]


def test_eval_exact(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs:0.25", "protocol": "p1", "l": 3, "gamma": 1.0}))
    proc = run_cli("eval", "--config", str(cfg), "--mode", "exact")
    doc = json.loads(proc.stdout)
    assert doc["mode"] == "exact"
    assert doc["tv"] <= doc["budget"]


@pytest.mark.parametrize("cfg", [
    {"source": "dsbs:0.25", "protocol": "p1", "l": 2, "gamma": 1.0},
    {"source": "dsbs^2:0.25", "protocol": "p2", "gamma": 2.0},
    {"source": "dsbs:0.25", "protocol": "p4", "target": "send-x",
     "gamma": 2.0},
], ids=["p1", "p2", "p4"])
def test_simulate_runs_batched(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    doc = json.loads(run_cli("simulate", "--config", str(path), "--trials",
                             "3000", "--seed", "4").stdout)
    agg = batch_round_trials(build_engine(cfg), 3000, 4)
    assert doc["errors"] == dict(sorted(agg.errors.items()))
    assert doc["mismatch_rate"] == agg.mismatch_rate
    assert doc["bits"]["mean"] == float(agg.bits.mean())


def test_eval_exact_too_large_fails_fast(tmp_path):
    # family size 2^32, past the enumeration cap: TooLarge, not MemoryError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs^3:0.25", "protocol": "p1", "l": 8, "gamma": 1.0}))
    t0 = time.monotonic()
    proc = run_cli("eval", "--config", str(cfg), "--mode", "exact",
                   check=False)
    assert time.monotonic() - t0 < 30.0
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _limit_address_space():
    # a law table allocated before the size check fails with MemoryError
    # under this limit, instead of taking the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_eval_dense_law_too_large_fails_fast(tmp_path):
    # send-x over dsbs^10 needs a (1024, 1024, 1024) float64 law, 8 GiB:
    # TooLarge before any of it is allocated, not numpy's MemoryError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs^10:0.11", "protocol": "p4", "target": "send-x"}))
    proc = subprocess.run(
        CLI + ["eval", "--config", str(cfg), "--mode", "plugin",
               "--trials", "10"],
        capture_output=True, text=True, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: transcript law of 1024 transcripts over 1024 x 1024 inputs "
        "needs 8,192 MiB, over the 256 MiB cap\n")
    assert proc.stdout == ""


def test_eval_p1_hash_past_62_bits_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs:0.25", "protocol": "p1", "l": 63, "gamma": 1.0}))
    proc = run_cli("eval", "--config", str(cfg), "--mode", "plugin",
                   "--trials", "10", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_import_leaves_scipy_unloaded():
    # scipy.optimize, about 47 MB resident, loads only for direct-product
    # thresholds; every other command runs without it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, icsim.cli; print(any(m.startswith('scipy') "
         "for m in sys.modules))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ("--source", "dsbs^x:0.1"),
    ("--source", "dsbs:abc"),
    ("--source", "dsbs"),
    ("--source", "dsbsx:0.1"),
    ("--source", "dsbs:0.25", "--protocol", "noisy-send:abc"),
])
def test_malformed_spec_is_usage_error(argv):
    proc = run_cli("analyze", *argv, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: malformed")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("cfg, key", [
    ({"source": "dsbs:0.25", "protocol": "p1"}, "l"),
    ({"protocol": "p1", "l": 3}, "source"),
    ({"source": "dsbs:0.25", "l": 3}, "protocol"),
    ({"source": "dsbs:0.25", "protocol": "p4"}, "target"),
    ({"source": "dsbs:0.25", "protocol": "p3", "target": "send-x",
      "slice_rx": {"lambda_min": 0, "delta": 1}}, "lambda_max"),
    ({"source": {"x_alphabet": [0, 1], "y_alphabet": [0, 1]},
      "protocol": "p1", "l": 3}, "mass"),
])
def test_config_missing_key_is_usage_error(tmp_path, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("simulate", "--config", str(path), "--trials", "10",
                   "--seed", "0", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and repr(key) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
