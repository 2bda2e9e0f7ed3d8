import json
import math
import subprocess
import sys
import time
import types

import pytest

import icsim.cli
from icsim.cli import build_engine
from icsim.probcore import DENSITY_KINDS
from icsim.protocol import LAW_SELECTORS
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


def test_bound_upper_report(monkeypatch, capsys):
    # every built-in target's budget is vacuous, so bound upper exits 1 on
    # them and the golden corpus has no report of it; the report's fields
    # are pinned on a stand-in budget
    budget = types.SimpleNamespace(l_max=12.5, lambda_prime=3.0,
                                   eps_prime=0.01)
    monkeypatch.setattr(icsim.cli, "upper_bound_budget",
                        lambda *args: budget)
    assert icsim.cli.main(["bound", "upper", "--eps", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "schema": 1,
        "config": {"kind": "upper", "source": "dsbs:0.25",
                   "target": "send-x", "eps": 0.1, "gamma": 4.0},
        "l_max": 12.5, "lambda_prime": 3.0, "eps_prime": 0.01}


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
    ("beta", "--p", "a,b", "--q", "0.1,0.9", "--eps", "0.1"),
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


@pytest.mark.parametrize("argv", [
    ["eval", "--mode", "exact", "--config",
     {"source": "dsbs:0.25", "protocol": "p1", "l": 4, "gamma": math.nan}],
    ["eval", "--mode", "exact", "--config",
     {"source": "dsbs:0.25", "protocol": "p2", "gamma": math.nan}],
    ["eval", "--mode", "exact", "--config",
     {"source": "dsbs:0.25", "protocol": "p5", "target": "send-x",
      "gamma": math.nan}],
    ["eval", "--mode", "exact", "--config",
     {"source": "dsbs:0.25", "protocol": "p4", "target": "send-x",
      "gamma": math.inf}],
    ["eval", "--mode", "exact", "--config",
     {"source": "dsbs:0.25", "protocol": "p3", "target": "send-x",
      "slice_rx": {"lambda_min": 0, "lambda_max": math.inf, "delta": 1,
                   "gamma": 1}}],
    ["eval", "--trials", "100", "--config",
     {"source": "dsbs:0.25", "protocol": "p5", "target": "send-x",
      "l_max": math.nan}],
    ["bound", "direct-product", "--delta", "nan"],
    ["bound", "upper", "--gamma", "nan", "--eps", "0.5"],
    ["simulate", "--trials", "10", "--seed", "1", "--config",
     {"source": {"x_alphabet": [0, 1], "y_alphabet": [0, 1],
                 "mass": [[math.nan, 0.5], [0.25, 0.25]]},
      "protocol": "p1", "l": 2, "gamma": 1.0}],
    ["bound", "beta", "--p", "nan,1", "--q", "0.5,0.5", "--eps", "0.1"],
], ids=["p1-gamma-nan", "p2-gamma-nan", "p5-gamma-nan", "p4-gamma-inf",
        "p3-lambda_max-inf", "p5-l_max-nan", "direct-product-delta-nan",
        "upper-gamma-nan", "source-mass-nan", "beta-p-nan"])
def test_non_finite_numbers_exit_1(argv, tmp_path, capsys):
    # NaN passes a check written "x < 0", and an infinite number reaches
    # math.ceil; each is an input error, reported without a traceback
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))  # NaN and Infinity as JSON
        argv = argv[:-1] + [str(cfg)]
    with pytest.raises(SystemExit) as exc:
        icsim.cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and out == ""


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
    # an allocation the byte cap does not price fails with MemoryError
    # under this limit, a traceback, instead of taking the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_eval_dense_law_too_large_fails_fast(tmp_path):
    # send-x over dsbs^13 has 2^26 atoms, a law priced at 5 GiB: TooLarge
    # before any of them is allocated, not numpy's MemoryError (over
    # dsbs^12 the views, priced at 1,792 MiB, fit the cap and engine 4 runs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs^13:0.11", "protocol": "p4", "target": "send-x"}))
    proc = subprocess.run(
        CLI + ["eval", "--config", str(cfg), "--mode", "plugin",
               "--trials", "10"],
        capture_output=True, text=True, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: transcript law of 8,192 transcripts and 67,108,864 atoms "
        "needs 5,120 MiB, over the 2,048 MiB cap\n")
    assert proc.stdout == ""


def _simulate(source, protocol, target):
    def command(cfg):
        cfg.write_text(json.dumps(
            {"source": source, "protocol": protocol, "target": target}))
        return ["simulate", "--config", str(cfg), "--trials", "20000",
                "--seed", "1"]
    return command


def _simulate_p1(source, l):
    def command(cfg):
        cfg.write_text(json.dumps({"source": source, "protocol": "p1",
                                   "l": l}))
        return ["simulate", "--config", str(cfg), "--trials", "20000",
                "--seed", "1"]
    return command


@pytest.mark.parametrize("command, what", [
    (_simulate_p1("dsbs^13:0.11", 30),
     "engine 1's density tables of 8,192 x 8,192 inputs needs 4,608"),
    (_simulate("dsbs^13:0.11", "p4", "send-x"),
     "transcript law of 8,192 transcripts and 67,108,864 atoms needs 5,120"),
    (_simulate("dsbs^14:0.11", "p4", "send-x"),
     "product source of 16,384 x 16,384 inputs needs 3,096"),
    (_simulate("dsbs^12:0.11", "p5", "data-exchange"),
     "views of 2 rounds needs 2,100,480"),
    (_simulate("dsbs^9:0.11", "p5", "exchange-bits"),
     "views of 18 rounds needs 10,600"),
    (lambda cfg: ["bound", "second-order", "--target", "data-exchange",
                  "--source", "dsbs^12:0.11", "--eps", "0.01", "--n", "4"],
     "ic spectrum of 16,777,216 atoms needs 2,816"),
    (lambda cfg: ["analyze", "--source", "dsbs^13:0.11"],
     "cond_x_given_y spectrum of 67,108,864 atoms needs 6,656"),
], ids=["p1-dsbs13", "p4-dsbs13", "p4-dsbs14", "p5-data-exchange-dsbs12",
        "p5-exchange-bits-dsbs9", "bound-data-exchange-dsbs12",
        "analyze-dsbs13"])
def test_too_large_is_refused_in_one_line(tmp_path, command, what):
    # each is refused by the byte cap before its largest build, in one
    # line and within 10 s: no traceback, and no signal under the limit.
    # The 18-round exchange is priced on all its rounds' views together,
    # before the first is built; data exchange over dsbs^12 is a law of
    # 1,920 MiB, within the cap, refused at its views or its ic spectrum
    t0 = time.monotonic()
    proc = subprocess.run(
        CLI + command(tmp_path / "cfg.json"), capture_output=True, text=True,
        preexec_fn=_limit_address_space)
    assert time.monotonic() - t0 < 10.0
    assert proc.returncode == 1
    assert proc.stderr == f"error: {what} MiB, over the 2,048 MiB cap\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["bound", "second-order", "--target", "data-exchange", "--source",
     "dsbs^10:0.11", "--eps", "0.1"],
    ["analyze", "--source", "dsbs^10:0.11", "--protocol", "exchange-bits"],
], ids=["bound-data-exchange-dsbs10", "analyze-exchange-bits-dsbs10"])
def test_law_spectra_reach_a_million_atoms(argv):
    # the law's spectra read its marginals at its 4^10 atoms, not in dense
    # (T, nx) and (T, ny) tables of 8^10 cells, so both fit the byte cap
    # and a 4 GiB address space
    proc = subprocess.run(CLI + argv, capture_output=True, text=True,
                          preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["config"]["source"] == "dsbs^10:0.11"


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


@pytest.mark.parametrize("l", [3.7, float("nan")])
def test_eval_p1_non_integer_l_fails(tmp_path, l):
    # l is passed through, so the coder rejects a fractional l rather than
    # truncating it to the l = 3 report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs:0.25", "protocol": "p1", "l": l, "gamma": 1}))
    proc = run_cli("eval", "--config", str(cfg), "--mode", "exact",
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: l must be a positive integer number of " \
        "bits\n"
    assert proc.stdout == ""
    cfg.write_text(json.dumps(
        {"source": "dsbs:0.25", "protocol": "p1", "l": 3, "gamma": 1}))
    doc = json.loads(run_cli("eval", "--config", str(cfg), "--mode",
                             "exact").stdout)
    assert doc["tv"] == 0.125 and doc["config"]["l"] == 3


@pytest.mark.parametrize("cfg, key", [
    ({"protocol": "p1", "l": "abc"}, "l"),
    ({"protocol": "p2", "l": "abc"}, "l"),
    ({"protocol": "p1", "l": 3, "gamma": "g"}, "gamma"),
    ({"protocol": "p5", "target": "data-exchange", "l_max": "x"}, "l_max"),
    ({"protocol": "p4", "target": "send-x",
      "slice_rx": {"lambda_min": 0, "lambda_max": "a", "delta": 1}},
     "lambda_max"),
    ({"protocol": "p2", "slice": {"lambda_min": 0, "lambda_max": 2,
                                  "delta": None}}, "delta"),
], ids=["p1-l", "p2-l", "gamma", "l_max", "slice_rx", "slice-null"])
def test_config_non_numeric_number_is_usage_error(tmp_path, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source": "dsbs:0.25", **cfg}))
    proc = run_cli("simulate", "--config", str(path), "--trials", "10",
                   "--seed", "1", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: config key {key!r} must be a "
                                  "number, got ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("k", [-1, 100, 1.5, 40])
@pytest.mark.parametrize("cfg", [
    {"source": "dsbs:0.25", "protocol": "p4", "target": "send-x",
     "gamma": 3.0},
    {"source": "dsbs:0.25", "protocol": "p5", "target": "data-exchange",
     "gamma": 2.0},
], ids=["p4", "p5"])
def test_eval_k_override_outside_hash_budget_fails(tmp_path, cfg, k):
    # k_override must be an integer in [0, total_hash_bits] of each round
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "k_override": k}))
    proc = run_cli("eval", "--config", str(path), "--trials", "10",
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("k", [1.5, -0.5])
def test_eval_non_integer_k_fails(tmp_path, k):
    # engine 3's shared prefix k must be an integer, as k_override must
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source": "dsbs:0.25", "protocol": "p3",
                                "target": "send-x", "gamma": 1.0, "k": k}))
    proc = run_cli("eval", "--config", str(path), "--trials", "10",
                   check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_exchange_bits_target(tmp_path):
    # four rounds over dsbs^2; exact mode enumerates every hash family
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source": "dsbs^2:0.25", "protocol": "p5",
                                "target": "exchange-bits"}))
    doc = json.loads(run_cli("eval", "--config", str(path), "--mode",
                             "exact").stdout)
    assert 0.0 < doc["tv"] < 1.0 and doc["mode"] == "exact"
    doc = json.loads(run_cli("analyze", "--source", "dsbs^2:0.25",
                             "--protocol", "exchange-bits").stdout)
    want = json.loads(run_cli("analyze", "--source", "dsbs^2:0.25",
                              "--protocol", "data-exchange").stdout)
    assert doc["mean"] == pytest.approx(want["mean"], abs=1e-12)


@pytest.mark.parametrize("proto", ["p3", "p4"])
@pytest.mark.parametrize("target, rounds", [
    ("data-exchange", 2), ("xor-reply", 2), ("exchange-bits", 2),
    ("send-x", 1), ("constant", 1), ("noisy-send:0.2", 1)])
def test_one_round_engines_take_one_round_targets(proto, target, rounds,
                                                  capsys):
    # p3 and p4 simulate one round; earlier versions ran round 1 of a
    # longer target and exited 0 (p3 data exchange over dsbs:0.11, gamma 2,
    # k = 1: exact tv 0.50171875)
    cfg = {"source": "dsbs:0.11", "protocol": proto, "target": target,
           "gamma": 2.0}
    if rounds == 1:
        build_engine(cfg)
        return
    with pytest.raises(SystemExit) as exc:
        build_engine(cfg)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: {proto} simulates one round; target {target!r} has "
        f"{rounds} rounds: use p5\n")


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


def test_analyze_source_defaults_to_its_send_x_ic_density():
    proc = run_cli("analyze", "--source", "dsbs:0.25")
    doc = json.loads(proc.stdout)
    assert doc["spectrum"] == "cond_x_given_y"
    assert doc["mean"] == pytest.approx(0.8112781244591328, abs=1e-12)
    named = run_cli("analyze", "--source", "dsbs:0.25", "--spectrum",
                    "cond_x_given_y")
    assert proc.stdout == named.stdout


@pytest.mark.parametrize("argv, kinds", [
    (("--spectrum", "bogus"), DENSITY_KINDS),
    (("--spectrum", "ic"), DENSITY_KINDS),
    (("--protocol", "send-x", "--spectrum", "bogus"), LAW_SELECTORS),
    (("--protocol", "send-x", "--spectrum", "cond_x_given_y"),
     LAW_SELECTORS),
])
def test_analyze_unknown_spectrum_is_usage_error(argv, kinds):
    proc = run_cli("analyze", "--source", "dsbs:0.25", *argv, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: unknown spectrum {argv[-1]!r}")
    assert all(kind in proc.stderr for kind in kinds)
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


_P1 = {"source": "dsbs:0.25", "protocol": "p1", "l": 3, "gamma": 1.0}


@pytest.mark.parametrize("argv, config, message", [
    (("simulate", "--trials", "0", "--seed", "1"), _P1, "--trials"),
    (("simulate", "--trials", "-5", "--seed", "1"), _P1, "--trials"),
    (("eval", "--trials", "0"), _P1, "--trials"),
    (("simulate", "--trials", "10", "--seed", "-1"), _P1, "--seed"),
    (("eval", "--seed", "-1"), _P1, "--seed"),
    (("eval",), "{not json", "not JSON"),
], ids=["simulate-trials-0", "simulate-trials-negative", "eval-trials-0",
        "simulate-seed-negative", "eval-seed-negative", "config-not-json"])
def test_run_input_errors_are_usage_errors(tmp_path, argv, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    proc = run_cli(*argv, "--config", str(path), check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bound_lower_named_target_is_its_converse():
    from icsim.bounds import SpectraBundle, lower_bound
    from icsim.probcore import dsbs_source, product_source
    from icsim.protocol import send_value_protocol

    doc = json.loads(run_cli(
        "bound", "lower", "--source", "dsbs^2:0.11", "--target", "send-x",
        "--eps", "0.1", "--eta", "0.05").stdout)
    law = send_value_protocol(product_source(dsbs_source(0.11), 2))
    rep = lower_bound(SpectraBundle.from_protocol(law), 0.1, 0.05)
    assert doc["config"] == {"kind": "lower", "source": "dsbs^2:0.11",
                             "target": "send-x", "eps": 0.1, "eta": 0.05}
    assert (doc["bound"], doc["lambda_eps"], doc["lambda_prime"],
            doc["eps_prime"], doc["lengths"], doc["vacuous"]) == (
        rep.bound, rep.lambda_eps, rep.lambda_prime, rep.eps_prime,
        list(rep.lengths), rep.vacuous)
    # one flag alone selects the named converse, with the other's default
    alone = json.loads(run_cli("bound", "lower", "--source", "dsbs^2:0.11",
                               "--eps", "0.1", "--eta", "0.05").stdout)
    assert alone == doc
    proc = run_cli("bound", "lower", "--target", "send-x", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --eps auto")
    assert proc.stdout == ""


@pytest.mark.parametrize("cfg", [
    # criterion 4's engine 4 instance 0
    {"source": "dsbs:0.2", "protocol": "p4", "target": "send-x",
     "gamma": 3.0},
    # 2^26 seeds, refused when the cap counted seeds
    {"source": "dsbs:0.3", "protocol": "p5", "target": "data-exchange",
     "gamma": 3.0, "k_override": 0},
], ids=["p4-send-x", "p5-data-exchange"])
def test_eval_exact_on_newly_exact_configs(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    exact = json.loads(run_cli("eval", "--config", str(path), "--mode",
                               "exact").stdout)
    plug = json.loads(run_cli("eval", "--config", str(path), "--trials",
                              "200000", "--seed", "1").stdout)
    assert exact["mode"] == "exact" and exact["samples"] == 0
    assert abs(exact["tv"] - plug["tv"]) <= plug["ci_halfwidth"]


_P5_SEND = {"source": "dsbs:0.25", "protocol": "p5", "target": "send-x"}


@pytest.mark.parametrize("cfg, key, what", [
    ({"source": 5, "protocol": "p1", "l": 4}, "source",
     "a string or an object"),
    ({"source": ["dsbs:0.25"], "protocol": "p1", "l": 4}, "source",
     "a string or an object"),
    ({"source": "dsbs:0.25", "protocol": "p4", "target": 7}, "target",
     "a string"),
    ({"source": "dsbs:0.25", "protocol": "p2", "slice": 5}, "slice",
     'an object or "auto"'),
    ({"source": "dsbs:0.25", "protocol": "p4", "target": "send-x",
      "slice_rx": [0, 2, 1]}, "slice_rx", 'an object or "auto"'),
    ({"source": "dsbs:0.25", "protocol": "p4", "target": "send-x",
      "slice_tx": "wide"}, "slice_tx", 'an object or "auto"'),
    ({**_P5_SEND, "plans": 5}, "plans", "a list of objects"),
    ({**_P5_SEND, "plans": [5]}, "plans", "a list of objects"),
    ({**_P5_SEND, "plans": [{"rx": "auto"}, {}]}, "plans",
     "a list of objects"),
    ({**_P5_SEND, "plans": []}, "plans", "a list of objects"),
    ({**_P5_SEND, "plans": [{"rx": 3}]}, "plans[0].rx",
     'an object or "auto"'),
    ({**_P5_SEND, "plans": [{"tx": True}]}, "plans[0].tx",
     'an object or "auto"'),
], ids=["source-number", "source-list", "target-number", "slice-number",
        "slice_rx-list", "slice_tx-string", "plans-number",
        "plans-of-numbers", "plans-too-many", "plans-too-few", "plan-rx",
        "plan-tx"])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, cfg, key, what):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("simulate", "--config", str(path), "--trials", "10",
                   "--seed", "1", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: config key {key!r} must be {what}")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_plans_are_checked_before_any_spectrum(monkeypatch):
    def spectrum(*args):
        raise AssertionError("a round spectrum was built")

    monkeypatch.setattr(icsim.cli, "round_density_spectrum", spectrum)
    with pytest.raises(SystemExit) as exc:
        build_engine({**_P5_SEND, "plans": [{"rx": "auto"}, {}]})
    assert exc.value.code == 2


_RX = {"lambda_min": 0.0, "lambda_max": 2.0, "delta": 1.0, "gamma": 0.5}
_TX = {"lambda_min": 0.0, "lambda_max": 1e-9, "delta": 1e-9, "gamma": 0.5}


@pytest.mark.parametrize("cfg", [
    {"protocol": "p2", "slice": _RX},
    {"protocol": "p3", "target": "send-x", "k": 1, "slice_rx": _RX},
    {"protocol": "p4", "target": "send-x", "slice_rx": _RX, "slice_tx": _TX},
    {"protocol": "p5", "target": "data-exchange", "k_override": 0,
     "plans": [{"rx": _RX, "tx": _TX}] * 2},
], ids=lambda cfg: cfg["protocol"])
def test_explicit_slicings_build_no_spectrum(monkeypatch, cfg):
    # a slicing read from the config needs no spectrum; the engine is the
    # one built where spectra may be read
    cfg = {"source": "dsbs:0.11", **cfg}
    want = build_engine(cfg).exact_view_law()

    def spectrum(*args):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(icsim.cli, "round_density_spectrum", spectrum)
    monkeypatch.setattr(icsim.cli, "spectrum", spectrum)
    got = build_engine(cfg).exact_view_law()
    assert (got.symbols, got.probs.tobytes()) == (
        want.symbols, want.probs.tobytes())


@pytest.mark.parametrize("config", ["[1]", "5", '"dsbs:0.25"'])
def test_config_that_is_not_an_object_is_usage_error(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(config)
    proc = run_cli("simulate", "--config", str(path), "--trials", "10",
                   "--seed", "1", check=False)
    assert proc.returncode == 2
    assert proc.stderr == f"error: config {path} must be a JSON object, " \
        f"got {json.loads(config)!r}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("cfg, key", [
    ({"protocol": "p1", "l": True}, "l"),
    ({"protocol": "p2", "l": True}, "l"),
    ({"protocol": "p1", "l": 3, "gamma": False}, "gamma"),
    ({"protocol": "p5", "target": "data-exchange", "l_max": True}, "l_max"),
    ({"protocol": "p2", "slice": {"lambda_min": True, "lambda_max": 2,
                                  "delta": 1}}, "lambda_min"),
    ({"protocol": "p4", "target": "send-x",
      "slice_tx": {"lambda_min": 0, "lambda_max": 2, "delta": True}},
     "delta"),
    ({"protocol": "p4", "target": "send-x",
      "slice_rx": {"lambda_min": 0, "lambda_max": 2, "delta": 1,
                   "gamma": True}}, "gamma"),
], ids=["p1-l", "p2-l", "gamma", "l_max", "slice-lambda_min",
        "slice_tx-delta", "slice_rx-gamma"])
def test_config_boolean_is_not_a_number(tmp_path, cfg, key):
    # float(True) is 1.0, but a JSON boolean is no number
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source": "dsbs:0.25", **cfg}))
    proc = run_cli("simulate", "--config", str(path), "--trials", "10",
                   "--seed", "1", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: config key {key!r} must be a "
                                  "number, got ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("cfg", [
    {"protocol": "p3", "target": "send-x", "gamma": 1.0, "k": True},
    {"protocol": "p3", "target": "send-x", "gamma": 1.0, "k": False},
    {"protocol": "p4", "target": "send-x", "gamma": 3.0,
     "k_override": True},
    {"protocol": "p5", "target": "data-exchange", "gamma": 2.0,
     "k_override": True},
    {"protocol": "p5", "target": "data-exchange", "gamma": 2.0,
     "k_override": False},
], ids=["p3-k-true", "p3-k-false", "p4-k_override", "p5-k_override",
        "p5-k_override-false"])
def test_boolean_shared_prefix_is_out_of_range(tmp_path, cfg):
    # bool is an int subclass; as k or k_override it is no integer
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"source": "dsbs:0.25", **cfg}))
    proc = run_cli("simulate", "--config", str(path), "--trials", "10",
                   "--seed", "1", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "integer" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


_SOURCE_DOC = {"x_alphabet": [0, 1], "y_alphabet": [0, 1],
               "mass": [[0.375, 0.125], [0.125, 0.375]]}


def _eval_exit(tmp_path, capsys, cfg) -> tuple:
    """The exit status and stderr of ``icsim eval --mode exact`` on
    ``cfg``, run in process."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        status = icsim.cli.main(["eval", "--config", str(path), "--mode",
                                 "exact"])
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({**_SOURCE_DOC, "mass": "abc"}, "mass"),
    ({**_SOURCE_DOC, "mass": [[0.375, 0.125], [0.5]]}, "mass"),
    ({**_SOURCE_DOC, "mass": [[0.375, True], [0.125, 0.375]]}, "mass"),
    ({**_SOURCE_DOC, "mass": [[0.375, None], [0.125, 0.375]]}, "mass"),
    ({**_SOURCE_DOC, "mass": [0.5, 0.5]}, "mass"),
    ({**_SOURCE_DOC, "x_alphabet": 5}, "x_alphabet"),
    ({**_SOURCE_DOC, "y_alphabet": "ab"}, "y_alphabet"),
    ({**_SOURCE_DOC, "x_alphabet": [{"a": 1}, 1]}, "x_alphabet"),
    ({**_SOURCE_DOC, "y_alphabet": [[0, {}], 1]}, "y_alphabet"),
], ids=["mass-string", "mass-ragged", "mass-boolean", "mass-null",
        "mass-flat", "x-number", "y-string", "x-object", "y-nested-object"])
def test_source_document_value_of_wrong_type_is_usage_error(
        tmp_path, capsys, doc, key):
    status, err = _eval_exit(tmp_path, capsys,
                             {"source": doc, "protocol": "p1", "l": 2})
    assert status == 2
    assert err.startswith(f"error: source document key {key!r} must be ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc, message", [
    ({**_SOURCE_DOC, "mass": [[0.25] * 3] * 2}, "shape"),
    ({**_SOURCE_DOC, "mass": [[math.nan, 0.5], [0.25, 0.25]]}, "NaN"),
    ({**_SOURCE_DOC, "x_alphabet": [0, 0]}, "duplicate"),
], ids=["shape", "nan", "duplicate"])
def test_source_document_semantic_fault_exits_1(tmp_path, capsys, doc,
                                                message):
    status, err = _eval_exit(tmp_path, capsys,
                             {"source": doc, "protocol": "p1", "l": 2})
    assert status == 1
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("proto", ["p9", 5, ["p3"]])
def test_unknown_protocol_is_named_before_any_target(tmp_path, capsys,
                                                     proto):
    status, err = _eval_exit(tmp_path, capsys,
                             {"source": "dsbs:0.1", "protocol": proto})
    assert status == 2
    assert err == f"error: unknown protocol {proto!r}\n"
