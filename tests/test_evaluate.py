import tracemalloc
from collections import Counter

import numpy as np
import pytest

import icsim.evaluate
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


# -- the blocked bootstrap against one full-width multinomial draw ----------


def _one_shot_tvs(rng, n, phat, tp):
    res = rng.multinomial(n, phat, size=BOOTSTRAP_RESAMPLES) / n
    return 0.5 * np.abs(res - tp[None, :]).sum(axis=1)


def _block_rows(monkeypatch, rows, atoms):
    monkeypatch.setattr(icsim.evaluate, "EXACT_BLOCK_BYTES", 8 * atoms * rows)


@pytest.mark.parametrize("rows", [1, 7, 1000])
@pytest.mark.parametrize("zeros", [
    (), (0, 1), (5, 17, 18), (38, 39), (0, 9, 20, 39),
], ids=["positive", "leading", "interior", "trailing", "all"])
def test_blocked_bootstrap_matches_one_shot(monkeypatch, rows, zeros):
    atoms = 40
    src = np.random.default_rng(11)
    counts = src.integers(1, 60, size=atoms)
    counts[list(zeros)] = 0
    n = int(counts.sum())
    phat = counts / n
    tp = src.dirichlet(np.ones(atoms))
    tp[[3, 17]] = 0.0  # atoms the truth lacks
    _block_rows(monkeypatch, rows, atoms)
    blocked, one_shot = (np.random.default_rng([4, 2 ** 31 - 1])
                         for _ in range(2))
    tvs = _bootstrap_tvs(blocked, n, phat, tp)
    ref = _one_shot_tvs(one_shot, n, phat, tp)
    assert tvs.tobytes() == ref.tobytes()
    # both spent the same random numbers
    assert blocked.bit_generator.state == one_shot.bit_generator.state


def _one_shot_estimate(engine, agg, seed):
    """The plug-in estimate with the universe built atom by atom and one
    full-width bootstrap draw."""
    true_law = engine.true_view_law()
    symbols = list(true_law.symbols)
    symbols += [v for v in agg.views if v not in true_law.index]
    tp = np.array([true_law.prob(s) if s in true_law.index else 0.0
                   for s in symbols])
    n = agg.trials
    phat = np.array([agg.views.get(s, 0) for s in symbols], dtype=float) / n
    tvs = _one_shot_tvs(np.random.default_rng([seed, 2 ** 31 - 1]),
                        n, phat, tp)
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
        value, half = _one_shot_estimate(engine, agg, seed)
        assert (est.value, est.ci_halfwidth) == (value, half)
        assert est.samples == trials


def test_plugin_bootstrap_memory_bounded():
    # send-x over dsbs^6: 4,096 true atoms and about 1,400 observed ones;
    # a full-width bootstrap holds several (1000, A) float arrays, ~100 MB
    engine = build_engine({"source": "dsbs^6:0.11", "protocol": "p4",
                           "target": "send-x", "gamma": 3.0})
    agg = run_trials(engine, 10_000, 1)
    tracemalloc.start()
    try:
        est = measure_sim_error(engine, "plugin", master_seed=1, agg=agg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.samples == 10_000
    assert peak < 20 << 20
