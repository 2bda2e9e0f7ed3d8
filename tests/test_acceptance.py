"""Acceptance suite: one test and one printed verdict line per criterion.

Verdict lines are written to the real stdout so they survive pytest capture.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from icsim.bounds import (
    SpectraBundle,
    berry_esseen_shift,
    beta_eps,
    beta_eps_upper,
    lower_bound,
    protocol3_tv_budget,
    protocol4_tv_budget,
    protocol5_tv_budget,
    second_order_predict,
)
from icsim.evaluate import agreement_probability, measure_sim_error
from icsim.hashing import encode_universe, enumerate_family, family_size
from icsim.probcore import (
    FiniteDistribution,
    SliceConfig,
    auto_slice_config,
    dsbs_source,
    product_source,
    spectrum,
)
from icsim.protocol import (
    MixedProtocol,
    appendix_threshold_example,
    constant_protocol,
    data_exchange_protocol,
    noisy_send_protocol,
    send_value_protocol,
    xor_reply_protocol,
)
from icsim.simulate import (
    ImprovedRoundSimulator,
    InteractiveSWCoder,
    ProtocolSimulator,
    RoundPlan,
    RoundSimulator,
    SlepianWolfCoder,
    auto_round_plans,
    batch_round_trials,
    round_density_spectrum,
    run_trials,
)


def verdict(num: int, ok: bool, detail: str = ""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    # shown in the terminal summary (survives output capture) and inline
    from conftest import VERDICTS
    VERDICTS.append(line)
    print(line)


def test_criterion_1_threshold_example():
    t0 = time.time()
    problems, ics = [], []
    for n in (8, 16, 32):
        ex = appendix_threshold_example(n)
        d = 1.0 / n
        spec = ex.spectrum("ic")
        want_vals = [-2 * math.log2(1 - d),
                     -math.log2(d) - math.log2(1 - d), 2.0 * n]
        want_probs = [(1 - d) ** 2, 2 * d * (1 - d), d * d]
        if not (np.allclose(spec.values, want_vals, atol=1e-12)
                and np.allclose(spec.probs, want_probs, atol=1e-15)):
            problems.append(f"n={n}: atoms off")
        if ex.lambda_eps(n ** -3.0) != 2.0 * n:
            problems.append(f"n={n}: tail != 2n")
        # the pinned atoms fix the mean: the mixed regions (mass 2d(1-d),
        # ic ~ log n) carry most of it, so IC is of order log(n)/n while
        # the n^-3 tail is 2n
        ic_closed = (2 * (1 - d) * (math.log2(n) / n - math.log2(1 - d))
                     + 2.0 / n)
        if ex.ic_mean != pytest.approx(ic_closed, rel=1e-12):
            problems.append(
                f"n={n}: IC={ex.ic_mean:.6f} != closed form {ic_closed:.6f}")
        ic_limit = (2.0 * math.log2(n) + 5.0) / n
        ics.append(f"{ex.ic_mean:.4f}<={ic_limit:.4f}")
        if ex.ic_mean > ic_limit:
            problems.append(
                f"n={n}: IC={ex.ic_mean:.4f} > (2*log(n)+5)/n={ic_limit:.4f}")
        eps = eta = n ** -3.0
        rep = lower_bound(SpectraBundle.from_protocol(ex), eps, eta)
        if rep.bound < 2.0 * n - 40.0 * math.log2(n):
            problems.append(f"n={n}: converse bound too small")
    elapsed = time.time() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    detail = "; ".join(problems) or (
        "IC = closed form <= (2*log(n)+5)/n at n=8,16,32: " + ", ".join(ics))
    verdict(1, not problems, detail)
    assert not problems, "; ".join(problems)


def test_criterion_2_two_universality():
    t0 = time.time()
    # exhaustive at width 3
    width = 3
    enc = encode_universe(1 << width, width)
    for l in (1, 2, 3):
        size = family_size(width, l)
        counts = np.zeros((1 << width, 1 << width), dtype=np.int64)
        for fam in enumerate_family(width, l):
            h = fam.apply_packed(enc)
            counts += h[:, None] == h[None, :]
        for a, b in itertools.combinations(range(1 << width), 2):
            assert counts[a, b] * (1 << l) == size
    # empirical at width 16
    w16, l, trials = 16, 8, 100_000
    rng = np.random.default_rng(1)
    diff = rng.integers(0, 2, size=w16, dtype=np.uint8)
    diff[0] = 1  # make the pair distinct
    mats = rng.integers(0, 2, size=(trials, l, w16), dtype=np.uint8)
    rate = float(((mats @ diff) % 2 == 0).all(axis=1).mean())
    p = 2.0 ** (-l)
    sigma = math.sqrt(p * (1 - p) / trials)
    elapsed = time.time() - t0
    ok = rate <= p + 5 * sigma and elapsed < 10.0
    verdict(2, ok, f"empirical {rate:.5f} vs {p + 5 * sigma:.5f}, "
                   f"{elapsed:.1f}s")
    assert rate <= p + 5 * sigma
    assert elapsed < 10.0


def test_criterion_3_compression_dominance():
    t0 = time.time()
    trials = 100_000
    rng = np.random.default_rng(2024)
    problems = []
    for inst in range(10):
        q = float(rng.uniform(0.1, 0.4))
        m = int(rng.integers(2, 4))
        g = float(rng.integers(2, 5))
        src = product_source(dsbs_source(q), m)
        spec = spectrum(src, "cond_x_given_y")
        l = math.ceil(spec.moments().mean + g + 1)
        one = SlepianWolfCoder(src, l, g)
        agg = batch_round_trials(one, trials, 100 + inst)
        if agg.mismatches / trials > one.analytic_error_bound():
            problems.append(f"p1 inst {inst} above bound")
        two = InteractiveSWCoder(src, auto_slice_config(spec, gamma=g))
        agg = batch_round_trials(two, trials, 200 + inst)
        if agg.mismatches / trials > two.analytic_error_bound():
            problems.append(f"p2 inst {inst} above bound")
        allowed = {two.bits_for_slice(i)
                   for i in range(1, two.n_slices + 1)}
        if not set(np.unique(agg.bits).tolist()) <= allowed:
            problems.append(f"p2 inst {inst} bit counts off")
        for i in range(1, two.n_slices + 1):
            if two.bits_for_slice(i) != two.l + (i - 1) * two.delta + i:
                problems.append(f"p2 inst {inst} bit formula off")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    verdict(3, not problems,
            problems[0] if problems else f"20 instances, {elapsed:.1f}s")
    assert not problems, "; ".join(problems)


def test_criterion_4_round_budgets():
    t0 = time.time()
    trials = 100_000
    problems = []
    # ten single-round instances (engines 3 and 4)
    singles = []
    for i, q in enumerate((0.2, 0.25, 0.3, 0.35, 0.15)):
        src = dsbs_source(q)
        law = (noisy_send_protocol(src, 0.1 + 0.05 * i) if i % 2
               else send_value_protocol(src))
        view = law.round_view(1, ())
        rx = auto_slice_config(round_density_spectrum(law, 1, "rx"),
                               gamma=3.0)
        tx = auto_slice_config(round_density_spectrum(law, 1, "tx"),
                               gamma=3.0)
        singles.append(RoundSimulator(src, view, rx, k=i % 3))
        singles.append(ImprovedRoundSimulator(src, view, rx, tx))
    for i, sim in enumerate(singles):
        agg = batch_round_trials(sim, trials, 300 + i)
        est = measure_sim_error(sim, "plugin", master_seed=300 + i, agg=agg)
        budget = (protocol4_tv_budget(sim)
                  if isinstance(sim, ImprovedRoundSimulator)
                  else protocol3_tv_budget(sim))
        if est.value > budget + est.ci_halfwidth:
            problems.append(f"single {i}: tv {est.value:.4f} > {budget:.4f}")
    # three two-round instances (engine 5)
    two = []
    for q, g in ((0.25, 2.0), (0.3, 3.0)):
        law = data_exchange_protocol(dsbs_source(q))
        two.append(ProtocolSimulator(law, auto_round_plans(law, gamma=g),
                                     k_override=0))
    law = xor_reply_protocol(dsbs_source(0.3))
    two.append(ProtocolSimulator(law, auto_round_plans(law, gamma=2.0),
                                 k_override=0))
    for i, sim in enumerate(two):
        agg = run_trials(sim, trials, 400 + i)
        est = measure_sim_error(sim, "plugin", master_seed=400 + i, agg=agg)
        budget = protocol5_tv_budget(sim)
        if est.value > budget + est.ci_halfwidth:
            problems.append(f"two {i}: tv {est.value:.4f} > {budget:.4f}")
    # exact micro instance, zero tolerance
    src = dsbs_source(0.25)
    view = send_value_protocol(src).round_view(1, ())
    micro = RoundSimulator(src, view, SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0),
                           k=1)
    tv = measure_sim_error(micro, "exact").value
    if tv > protocol3_tv_budget(micro):
        problems.append(f"micro: exact tv {tv} above budget")
    elapsed = time.time() - t0
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s >= 300s")
    verdict(4, not problems,
            problems[0] if problems else f"13 instances + micro, "
                                         f"{elapsed:.0f}s")
    assert not problems, "; ".join(problems)


def test_criterion_5_second_order():
    t0 = time.time()
    spec = send_value_protocol(dsbs_source(0.25)).spectrum("ic")
    ms = spec.moments()
    problems = []
    for n in range(2, 15):
        conv = spec.convolve_n(n)
        gap = float(np.diff(conv.values).max())
        tol = berry_esseen_shift(ms, n) + gap
        for eps in (0.1, 0.25):
            lam = conv.eps_tail(eps, "lower")
            pred = second_order_predict(ms, n, eps)
            if abs(lam - pred) > tol:
                problems.append(f"n={n} eps={eps}: "
                                f"|{lam:.3f}-{pred:.3f}| > {tol:.3f}")
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    verdict(5, not problems,
            problems[0] if problems else f"n=2..14, {elapsed:.2f}s")
    assert not problems, "; ".join(problems)


def test_criterion_6_neyman_pearson():
    rng = np.random.default_rng(6)
    problems = []
    for _ in range(30):
        pv = rng.dirichlet(np.ones(5))
        p = FiniteDistribution(tuple(range(5)), pv)
        for eps in (0.0, 0.1, 0.37, 0.8):
            if abs(beta_eps(p, p, eps) - (1 - eps)) > 1e-12:
                problems.append("beta(P,P,eps) != 1-eps")
    b = beta_eps(FiniteDistribution((0, 1), np.array([0.5, 0.5])),
                 FiniteDistribution((0, 1), np.array([0.1, 0.9])), 0.1)
    if abs(b - 0.82) > 1e-12:
        problems.append(f"bernoulli instance {b!r}")
    for i in range(1000):
        pv = rng.dirichlet(np.ones(4))
        qv = rng.dirichlet(np.ones(4))
        p = FiniteDistribution((0, 1, 2, 3), pv)
        q = FiniteDistribution((0, 1, 2, 3), qv)
        eps = float(rng.uniform(0.0, 0.9))
        lam = float(rng.uniform(-6, 6))
        if beta_eps_upper(p, q, eps, lam) < \
                -math.log2(beta_eps(p, q, eps)) - 1e-9:
            problems.append(f"upper bound violated at draw {i}")
            break
    verdict(6, not problems, problems[0] if problems else "1000 draws")
    assert not problems, "; ".join(problems)


def test_criterion_7_deterministic_identity():
    src = dsbs_source(0.25)
    law = data_exchange_protocol(src)
    rx = SliceConfig(0.0, 2.0, 1.0, 0.5)
    tx = SliceConfig(0.0, 1e-9, 1e-9, 0.5)
    sim = ProtocolSimulator(law, [RoundPlan(rx, tx)] * 2, k_override=0)
    tv = measure_sim_error(sim, "exact").value
    agree = agreement_probability(sim.exact_view_law(), sim.true_view_law())
    diff = abs(tv - (1.0 - agree))
    verdict(7, diff <= 1e-12, f"tv={tv:.6f}, |tv-(1-agree)|={diff:.2e}")
    assert diff <= 1e-12


def test_criterion_8_mixed_protocol():
    t0 = time.time()
    src = dsbs_source(0.45)
    head = send_value_protocol(src)
    tail = constant_protocol(src)
    ic_h = head.ic_mean
    n = 200
    problems = []
    for p in (0.05, 0.5):
        mix = MixedProtocol(head, tail, p, n)
        draws = mix.sample_ic(np.random.default_rng([8, int(p * 100)]),
                              100_000) / n
        above = float((draws > ic_h + 0.05).mean())
        below = float((draws > ic_h - 0.05).mean())
        if above > 0.01:
            problems.append(f"p={p}: upper tail {above:.4f} > 0.01")
        if below < p - 0.02:
            problems.append(f"p={p}: lower tail {below:.4f} < {p - 0.02}")
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    verdict(8, not problems,
            problems[0] if problems else f"first-order term {ic_h:.4f}")
    assert not problems, "; ".join(problems)


def test_criterion_9_reproducibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"source": "dsbs^2:0.25", "protocol": "p2", "gamma": 2.0}))
    commands = [
        ["simulate", "--config", str(cfg), "--trials", "3000", "--seed",
         "11"],
        ["eval", "--config", str(cfg), "--mode", "plugin", "--trials",
         "3000", "--seed", "11"],
        ["example", "mixed", "--p", "0.5", "--n", "100", "--seed", "5"],
        ["bound", "lower", "--n", "16"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        for name in ("a", "b"):
            path = tmp_path / f"{cmd[0]}-{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "icsim.cli"] + cmd
                + ["--out", str(path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        ok &= outs[0] == outs[1]
    verdict(9, ok, f"{len(commands)} commands byte-identical" if ok else "")
    assert ok
