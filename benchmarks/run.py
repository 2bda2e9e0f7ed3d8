"""Benchmark of ``icsim eval``: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload p5-exchange --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with one client.  It runs
``icsim eval`` jobs (``icsim.cli.main``, in process) back to back until the
next job would end after ``--seconds``, checks every report, prints a
summary, and prints one JSON result line last.

``--trace 0`` times only the phase boundaries of each job (set-up, trials,
estimate, budget) and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced jobs with jobs whose calls into every
icsim layer are wrapped (see ``spans.py``), and reports the per-layer
metrics, including the traced over untraced job time.  ``--smoke`` runs a
tiny variant of each workload, for the benchmark's own tests.

What each workload and metric is for is written down in README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

LIMITS = ("shared 2-core sandbox; wall-clock timing with perf_counter; "
          "no cache control and no system-wide profiler")


@dataclass(frozen=True)
class Workload:
    config: dict
    mode: str                 # "plugin" or "exact"
    trials: int = 0           # plug-in trials per job


WORKLOADS = {
    "p5-exchange": Workload(
        {"source": "dsbs:0.25", "protocol": "p5", "target": "data-exchange",
         "gamma": 2.0, "k_override": 0}, "plugin", 2_000),
    "p4-product6": Workload(
        {"source": "dsbs^6:0.11", "protocol": "p4", "target": "send-x",
         "gamma": 3.0}, "plugin", 10_000),
    "p1-exact": Workload(
        {"source": "dsbs^2:0.25", "protocol": "p1", "l": 4, "gamma": 1.0},
        "exact"),
}

SMOKE = {
    "p5-exchange": Workload(WORKLOADS["p5-exchange"].config, "plugin", 200),
    "p4-product6": Workload(
        {"source": "dsbs^3:0.11", "protocol": "p4", "target": "send-x",
         "gamma": 3.0}, "plugin", 500),
    "p1-exact": Workload(
        {"source": "dsbs:0.25", "protocol": "p1", "l": 3, "gamma": 1.0},
        "exact"),
}

# A phase shorter than FAST_S is timed again after the job, back to back
# until REPEAT_S has passed, so its best sample rests on many calls.
FAST_S = 0.05
REPEAT_S = 0.25


@dataclass
class Job:
    traced: bool
    job_s: float = 0.0
    work: int = 0             # trials run, or atoms enumerated when exact
    phases: dict = field(default_factory=dict)   # phase span -> seconds
    layers: dict = field(default_factory=dict)   # per-layer metric -> value
    error: str | None = None


class Harness:
    """One workload's closed loop of ``icsim eval`` jobs."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: Path):
        from spans import Tracer
        import icsim.cli

        self.cli = icsim.cli
        self.build_engine = icsim.cli.build_engine
        self.measure_sim_error = icsim.cli.measure_sim_error
        self.seed = seed
        self.wl = (SMOKE if smoke else WORKLOADS)[name]
        refs = json.loads((HERE / "reference.json").read_text())
        self.ref = refs["smoke" if smoke else "full"][name]
        if self.ref.get("trials", 0) != self.wl.trials:
            raise SystemExit(f"reference.json has no values for {name} at "
                             f"{self.wl.trials} trials")
        self.tolerance_sd = refs["tolerance_sd"]
        self.cfg_path = workdir / "config.json"
        self.cfg_path.write_text(json.dumps(self.wl.config))
        self.tracer = Tracer()
        self.first_report: str | None = None
        self.setup_extra: list = []
        self.estimate_extra: list = []

    def argv(self) -> list:
        argv = ["eval", "--config", str(self.cfg_path), "--mode",
                self.wl.mode, "--seed", str(self.seed)]
        if self.wl.mode == "plugin":
            argv += ["--trials", str(self.wl.trials)]
        return argv

    # -- one job ---------------------------------------------------------------

    def run_job(self, traced: bool, repeat_fast: bool) -> Job:
        tracer = self.tracer
        tracer.set_traced(traced)
        tracer.reset()
        job = Job(traced)
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out):
                code = self.cli.main(self.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            job.error = traceback.format_exc(limit=3)
        if job.error is None:
            job.error = (f"exit status {code}" if code != 0
                         else self.check(out.getvalue()))
        job.job_s = perf_counter() - t0
        tracer.set_traced(False)
        job.phases = {name: tracer.total_s(name) for name in
                      ("phase.setup", "phase.trials", "phase.estimate",
                       "phase.budget")}
        if job.error is None:
            job.work = (self.wl.trials if self.wl.mode == "plugin" else
                        tracer.captured["phase.setup"].exact_atom_count())
            if traced:
                job.layers = self.layer_metrics(job)
            elif repeat_fast:
                self.repeat_fast_phases(job)
        return job

    def check(self, report: str) -> str | None:
        """Why a report is wrong, or None when it passes."""
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            return "report differs from the first report of this seed"
        try:
            doc = json.loads(report)
            mode, seed, tv, samples = (doc["mode"], doc["seed"], doc["tv"],
                                       doc["samples"])
        except (ValueError, KeyError, TypeError):
            return "output is not an eval report"
        if mode != self.wl.mode or seed != self.seed:
            return "report has the wrong mode or seed"
        if self.wl.mode == "exact":
            if tv != self.ref["tv"]:
                return f"exact tv {tv!r} != {self.ref['tv']!r}"
            return None
        agg = self.tracer.captured.get("phase.trials")
        if samples != self.wl.trials or agg is None \
                or agg.trials != self.wl.trials:
            return "wrong number of trials"
        seen = {"tv": tv, "error_rate": agg.error_rate,
                "bits_mean": float(agg.bits.mean())}
        for key, value in seen.items():
            ref = self.ref[key]
            if abs(value - ref["mean"]) > self.tolerance_sd * ref["sd"]:
                return (f"{key} {value!r} is more than {self.tolerance_sd} "
                        f"sd from the reference {ref['mean']!r}")
        return None

    def repeat_fast_phases(self, job: Job):
        """Time set-up and estimate again when they take milliseconds."""
        cfg = self.wl.config
        if job.phases["phase.setup"] < FAST_S:
            self.setup_extra += _repeat(lambda: self.build_engine(cfg))
        engine = self.tracer.captured.get("phase.setup")
        agg = self.tracer.captured.get("phase.trials")
        if job.phases["phase.estimate"] < FAST_S and agg is not None:
            self.estimate_extra += _repeat(lambda: self.measure_sim_error(
                engine, "plugin", master_seed=self.seed, agg=agg))

    # -- per-layer metrics of one traced job --------------------------------------

    def layer_metrics(self, job: Job) -> dict:
        tr = self.tracer
        engine = tr.captured.get("phase.setup")
        agg = tr.captured.get("phase.trials")
        plugin = self.wl.mode == "plugin"
        m = {
            "probcore.sample_s": tr.self_s("probcore.sample"),
            "probcore.sample_calls": tr.calls("probcore.sample"),
            "probcore.source_s": tr.self_s("probcore.source"),
            "probcore.spectrum_s": tr.self_s("probcore.spectrum"),
            "probcore.spectrum_atoms": tr.counts.get(
                "probcore.spectrum_atoms", 0),
            "protocol.law_s": tr.self_s("protocol.law"),
            "protocol.round_view_s": tr.self_s("protocol.round_view"),
            "protocol.round_view_calls": tr.calls("protocol.round_view"),
            "protocol.law_bytes": tr.counts.get("protocol.law_bytes", 0),
            "simulate.round_spectrum_s": tr.self_s("simulate.round_spectrum"),
            "simulate.build_s": tr.self_s("simulate.build"),
            "simulate.driver_s": tr.self_s("simulate.driver"),
            "simulate.run_s": tr.self_s("simulate.run"),
            "simulate.run_calls": tr.calls("simulate.run"),
            "simulate.hash_bytes_per_trial": _hash_bytes_per_trial(engine),
            "simulate.exact_atoms": (0 if plugin
                                     else engine.exact_atom_count()),
            "hashing.draw_s": tr.self_s("hashing.draw"),
            "hashing.draw_calls": tr.calls("hashing.draw"),
            "hashing.apply_s": tr.self_s("hashing.apply"),
            "hashing.apply_calls": tr.calls("hashing.apply", outermost=True),
            "hashing.enumerate_s": tr.self_s("hashing.enumerate"),
            "hashing.families": tr.counts.get("hashing.families", 0),
            "evaluate.true_law_s": tr.self_s("evaluate.true_law"),
            "evaluate.exact_law_s": tr.self_s("evaluate.exact_law"),
            "evaluate.plugin_s": (tr.self_s("phase.estimate") if plugin
                                  else 0.0),
            "evaluate.view_atoms": len(agg.views) if plugin else 0,
            "bounds.budget_s": job.phases["phase.budget"],
            "cli.other_s": job.job_s - sum(job.phases.values()),
        }
        m.update(_outcomes(agg))
        return m


def _repeat(call) -> list:
    samples = []
    start = perf_counter()
    while perf_counter() - start < REPEAT_S:
        t0 = perf_counter()
        call()
        samples.append(perf_counter() - t0)
    return samples


def _hash_bytes_per_trial(engine) -> int:
    """Bytes per trial of the hash arrays ``batch_round_trials`` allocates.

    Computed from shapes, not measured: the (T, L, w+1) uint8 draw, the
    (T, M, L) uint8 hash bits, their int64 copy and the (T, M) int64 packed
    hashes.  Zero for engines ``cmd_eval`` does not send down that path.
    """
    from icsim.simulate import ImprovedRoundSimulator, RoundSimulator

    if not isinstance(engine, (RoundSimulator, ImprovedRoundSimulator)):
        return 0
    inner = getattr(engine, "inner", engine)
    m, bits, w = len(inner.messages), inner.total_hash_bits, inner.width
    return bits * (w + 1) + m * bits + 8 * m * bits + 8 * m


def _outcomes(agg) -> dict:
    """Trial outcome counts of a plug-in job; zero for exact jobs."""
    from icsim.simulate import ERROR_CAUSES

    out = {f"simulate.err.{cause}": 0 for cause in ERROR_CAUSES}
    out["simulate.ok_frac"] = 0.0
    out["simulate.bits_mean"] = 0.0
    if agg is None:
        return out
    for cause, n in agg.errors.items():
        out[f"simulate.err.{cause}"] = n
    ok = sum(n for view, n in agg.views.items()
             if view[0] is not None and view[0] == view[1])
    out["simulate.ok_frac"] = ok / agg.trials
    out["simulate.bits_mean"] = float(agg.bits.mean())
    return out


# -- summaries ---------------------------------------------------------------------


def tail_percentile(samples: list, higher_is_better: bool):
    """(percentile, value) on the worse side, as far out as leaves at least
    ten samples beyond it; None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    if higher_is_better:
        return math.floor(100 * 10 / n), ordered[10]
    return math.floor(100 * (n - 10) / n), ordered[n - 11]


def environment() -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
        "loop": "closed loop, one client, one process per workload",
        "limits": LIMITS,
    }


def end_to_end(h: Harness, jobs: list, better: dict) -> tuple[dict, dict]:
    """Best sample of each end-to-end metric, and all its samples.

    The value is the fastest sample of the run (the smallest time, the
    largest rate), not the median: on a virtual machine whose cores are
    shared with other machines, the run medians spread several times wider
    than the best samples (figures in README.md).
    """
    ok = [j for j in jobs if j.error is None]
    phase = "phase.trials" if h.wl.mode == "plugin" else "phase.estimate"
    samples = {
        "setup_s": [j.phases["phase.setup"] for j in ok] + h.setup_extra,
        "trials_per_s": [j.work / j.phases[phase] for j in ok],
        "estimate_s": ([j.phases["phase.estimate"] for j in ok]
                       + h.estimate_extra),
        "job_s": [j.job_s for j in ok],
    }
    values = {k: (max if better[k] == "higher" else min)(v) if v else 0.0
              for k, v in samples.items()}
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    return values, samples


def per_layer(jobs: list) -> dict:
    """Mean of each layer metric over the traced jobs, plus the overhead."""
    traced = [j for j in jobs if j.traced and j.error is None]
    plain = [j for j in jobs if not j.traced and j.error is None]
    if not traced or not plain:
        return {}
    values = {k: statistics.fmean(j.layers[k] for j in traced)
              for k in traced[0].layers}
    values["trace.overhead"] = (statistics.median(j.job_s for j in traced)
                                / statistics.median(j.job_s for j in plain))
    return values


# -- the run -----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """Run one workload; return its result line, samples and job errors."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in wanted}
    jobs: list = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        h = Harness(workload, seed, smoke, Path(tmp))
        try:
            start = perf_counter()
            while True:
                traced = trace and len(jobs) % 2 == 1
                t0 = perf_counter()
                jobs.append(h.run_job(traced, repeat_fast=not trace))
                cycle = perf_counter() - t0
                # stop when the next job would overrun, after at least two
                # jobs (an untraced/traced pair when tracing)
                done = len(jobs) >= 2 and len(jobs) % (2 if trace else 1) == 0
                if done and perf_counter() - start + cycle > seconds:
                    break
        finally:
            h.tracer.restore()

    failed = [j for j in jobs if j.error is not None]
    if trace:
        values, samples = per_layer(jobs), {}
    else:
        values, samples = end_to_end(h, jobs, better)
    names = [m["name"] for m in wanted]
    if not values:  # no job succeeded
        values = dict.fromkeys(names, 0.0)
    if set(values) != set(names):
        raise SystemExit(f"metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"] for m in wanted}
    return {
        "result": {
            "correct": not failed,
            "attempted": len(jobs),
            "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in names},
        },
        "samples": samples,
        "errors": [j.error for j in failed],
    }


def print_summary(args, out: dict, env: dict, spec: dict):
    res = out["result"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {res['attempted']} jobs, "
          f"{res['failed']} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for err in out["errors"][:3]:
        print("failed job: " + err.strip().replace("\n", " | "))
    print(f"metric failed_frac fraction value={res['failed'] / res['attempted']}"
          f" ({res['failed']}/{res['attempted']} jobs)")
    for name, m in res["metrics"].items():
        line = f"metric {name} {m['unit']} value={m['value']!r}"
        samples = out["samples"].get(name)
        if samples:
            tail = tail_percentile(samples, better[name] == "higher")
            line += (f" (best of n={len(samples)}, "
                     f"median={statistics.median(samples)!r}"
                     + (f", p{tail[0]}={tail[1]!r}" if tail else "") + ")")
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload variant, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "icsim" / "__init__.py").is_file():
        print(f"error: no icsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM unwind like Ctrl-C, so the work directory is removed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    for var in BLAS_PIN:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import icsim

    if Path(icsim.__file__).resolve().parent != ROOT / "src" / "icsim":
        print(f"error: imported icsim from {icsim.__file__}", file=sys.stderr)
        return 2
    env = environment()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace),
              smoke=args.smoke)
    print_summary(args, out, env,
                  json.loads((ROOT / "BENCHMARK.json").read_text()))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
