import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import icsim.evaluate
import icsim.simulate
from icsim.cli import build_engine
from icsim.errors import OutOfRange
from icsim.evaluate import (
    BOOTSTRAP_RESAMPLES,
    _bootstrap_tvs,
    agreement_probability,
    comm_stats,
    exact_view_law,
    measure_sim_error,
)
from icsim.probcore import SliceConfig, dsbs_source
from icsim.simulate import SlepianWolfCoder, run_trials


def coder():
    return SlepianWolfCoder(dsbs_source(0.25), 3, 1.0)


def test_exact_view_law_mass():
    law = exact_view_law(coder())
    assert float(law.probs.sum()) == pytest.approx(1.0, abs=1e-9)


def test_exact_estimate_fields():
    est = measure_sim_error(coder(), "exact")
    assert est.method == "exact"
    assert est.ci_halfwidth == 0.0
    assert 0.0 <= est.value <= 1.0


def test_plugin_close_to_exact():
    c = coder()
    exact = measure_sim_error(c, "exact").value
    plug = measure_sim_error(c, "plugin", trials=30_000, master_seed=3)
    assert plug.samples == 30_000
    assert abs(plug.value - exact) <= plug.ci_halfwidth + 0.02


def test_plugin_reproducible():
    c = coder()
    a = measure_sim_error(c, "plugin", trials=2_000, master_seed=9)
    b = measure_sim_error(c, "plugin", trials=2_000, master_seed=9)
    assert a.value == b.value
    assert a.ci_halfwidth == b.ci_halfwidth


def test_plugin_needs_trials():
    with pytest.raises(OutOfRange):
        measure_sim_error(coder(), "plugin")
    with pytest.raises(OutOfRange):
        measure_sim_error(coder(), "nope")


def test_tv_complements_agreement_on_one_sided_views():
    # hashing only moves mass off the diagonal of correct decodes, so the
    # exact view distance equals the total failure probability
    c = coder()
    sim = exact_view_law(c)
    true = c.true_view_law()
    tv = measure_sim_error(c, "exact").value
    assert tv == pytest.approx(1.0 - agreement_probability(sim, true),
                               abs=1e-12)


def test_comm_stats():
    agg = run_trials(coder(), 1_000, 0)
    stats = comm_stats(agg)
    assert stats.mean == pytest.approx(3.0)
    assert stats.max == 3
    assert sum(stats.histogram.values()) == 1_000
    assert stats.quantiles[0.5] == 3.0
    # engine 2 spends a different number of bits per slice
    agg = run_trials(build_engine({"source": "dsbs^2:0.2", "protocol": "p2",
                                   "gamma": 2.0}), 3_000, 2)
    hist = comm_stats(agg).histogram
    ref = dict(sorted(Counter(int(b) for b in agg.bits).items()))
    assert len(ref) > 1
    assert list(hist.items()) == list(ref.items())
    assert all(type(k) is int and type(v) is int for k, v in hist.items())


# -- the blocked bootstrap against full-width multinomial draws ------------


def _one_shot_tvs(rng, n, phat, tp, size=BOOTSTRAP_RESAMPLES):
    res = rng.multinomial(n, phat, size=size) / n
    return 0.5 * np.abs(res - tp[None, :]).sum(axis=1)


def _per_block_tvs(seed, n, phat, tp, rows):
    """Block b of ``rows`` resamples as one full-width draw on its own
    stream ``[seed, 2**31 - 1 + b]``; one block is one draw of all
    BOOTSTRAP_RESAMPLES rows on ``[seed, 2**31 - 1]``."""
    R = BOOTSTRAP_RESAMPLES
    return np.concatenate([
        _one_shot_tvs(np.random.default_rng([seed, 2 ** 31 - 1 + b]),
                      n, phat, tp, size=min(rows, R - start))
        for b, start in enumerate(range(0, R, rows))])


def _block_rows(monkeypatch, rows, atoms):
    monkeypatch.setattr(icsim.evaluate, "EXACT_BLOCK_BYTES", 8 * atoms * rows)


def _bootstrap_input(zeros=()):
    atoms = 40
    src = np.random.default_rng(11)
    counts = src.integers(1, 60, size=atoms)
    counts[list(zeros)] = 0
    n = int(counts.sum())
    tp = src.dirichlet(np.ones(atoms))
    tp[[3, 17]] = 0.0  # atoms the truth lacks
    return n, counts / n, tp


@pytest.mark.parametrize("rows", [1, 7, 1000])
@pytest.mark.parametrize("zeros", [
    (), (0, 1), (5, 17, 18), (38, 39), (0, 9, 20, 39),
], ids=["positive", "leading", "interior", "trailing", "all"])
def test_blocked_bootstrap_matches_one_shot(monkeypatch, rows, zeros):
    # rows=1000 is one block: one full-width draw of all the resamples on
    # the stream [seed, 2**31 - 1]; rows=1 and rows=7 are 1000 and 143
    # blocks, each one full-width draw on its own stream
    n, phat, tp = _bootstrap_input(zeros)
    _block_rows(monkeypatch, rows, phat.size)
    default_rng = np.random.default_rng
    made = []

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording_rng)
        tvs = _bootstrap_tvs(4, n, phat, tp)
    assert len(made) == -(-BOOTSTRAP_RESAMPLES // rows)
    ref = _per_block_tvs(4, n, phat, tp, rows)
    assert tvs.tobytes() == ref.tobytes()
    if rows == 1000:
        # the draw over the observed atoms spends exactly the random numbers
        # of the full-width draw
        rng = np.random.default_rng([4, 2 ** 31 - 1])
        one_shot = _one_shot_tvs(rng, n, phat, tp)
        assert tvs.tobytes() == one_shot.tobytes()
        assert made[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("rows", [7, 400])
def test_bootstrap_independent_of_worker_count(monkeypatch, rows):
    # 143 blocks, and 3 blocks of 400, 400 and 200 rows; up to three workers
    # whatever the cores, switching threads as often as the interpreter allows
    n, phat, tp = _bootstrap_input((0, 9, 20, 39))
    _block_rows(monkeypatch, rows, phat.size)
    ref = _per_block_tvs(5, n, phat, tp, rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: 3)
        for workers in (1, 2, 3):
            monkeypatch.setattr(icsim.simulate, "_MAX_WORKERS", workers)
            tvs = _bootstrap_tvs(5, n, phat, tp)
            assert tvs.tobytes() == ref.tobytes(), workers
    finally:
        sys.setswitchinterval(interval)


def _one_shot_estimate(engine, agg, seed, rows):
    """The plug-in estimate with the universe built atom by atom and one
    full-width bootstrap draw per block of ``rows`` resamples."""
    true_law = engine.true_view_law()
    symbols = list(true_law.symbols)
    symbols += [v for v in agg.views if v not in true_law.index]
    tp = np.array([true_law.prob(s) if s in true_law.index else 0.0
                   for s in symbols])
    n = agg.trials
    phat = np.array([agg.views.get(s, 0) for s in symbols], dtype=float) / n
    tvs = _per_block_tvs(seed, n, phat, tp, rows)
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return 0.5 * float(np.abs(tp - phat).sum()), 0.5 * float(hi - lo)


@pytest.mark.parametrize("rows", [None, 7])
@pytest.mark.parametrize("cfg, trials", [
    ({"source": "dsbs^3:0.11", "protocol": "p4", "target": "send-x",
      "gamma": 3.0}, 5_000),
    ({"source": "dsbs:0.25", "protocol": "p5", "target": "data-exchange",
      "gamma": 2.0, "k_override": 0}, 2_000),
    # dsbs laws are symmetric under flipping every bit; this one is not
    ({"source": {"x_alphabet": [0, 1, 2], "y_alphabet": [0, 1],
                 "mass": [[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]]},
      "protocol": "p3", "target": "send-x", "gamma": 1.0}, 3_000),
], ids=["p4-send-x-dsbs3", "p5-exchange", "p3-send-x-skewed"])
def test_plugin_estimate_matches_one_shot(monkeypatch, cfg, trials, rows):
    engine = build_engine(cfg)
    for seed in (1, 7):
        agg = run_trials(engine, trials, seed)
        if rows is not None:
            _block_rows(monkeypatch, rows,
                        len(set(engine.true_view_law().symbols)
                            | set(agg.views)))
        est = measure_sim_error(engine, "plugin", master_seed=seed, agg=agg)
        value, half = _one_shot_estimate(engine, agg, seed,
                                         rows or BOOTSTRAP_RESAMPLES)
        assert (est.value, est.ci_halfwidth) == (value, half)
        assert est.samples == trials


def test_plugin_bootstrap_memory_bounded(monkeypatch):
    # send-x over dsbs^6: 4,096 true atoms and about 1,400 observed ones;
    # a full-width bootstrap holds several (1000, A) float arrays, ~100 MB.
    # Each bootstrap worker holds a block buffer of up to EXACT_BLOCK_BYTES,
    # and the worker count is capped, so the bound holds on this machine and
    # on one with 64 CPUs
    engine = build_engine({"source": "dsbs^6:0.11", "protocol": "p4",
                           "target": "send-x", "gamma": 3.0})
    agg = run_trials(engine, 10_000, 1)
    for cpus in (None, 64):
        if cpus is not None:
            monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            est = measure_sim_error(engine, "plugin", master_seed=1, agg=agg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.samples == 10_000
        assert peak < 20 << 20, cpus
