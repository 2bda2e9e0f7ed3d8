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
    _HEAVY_COUNT,
    BOOTSTRAP_RESAMPLES,
    _bootstrap_tvs,
    _resample,
    _shortfall,
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


# -- the pooled bootstrap against full-width multinomial draws ------------


def _split(counts, tp):
    """The pooled bootstrap's heavy and light atoms, and its multinomial's
    probabilities: the heavy atoms, the light pool, the off-support pool."""
    on = (counts > 0) & (tp > 0)
    heavy = np.flatnonzero(on & (counts >= _HEAVY_COUNT))
    light = np.flatnonzero(on & (counts < _HEAVY_COUNT))
    n = int(counts.sum())
    pool = int(counts[light].sum())
    p = np.append(counts[heavy], [pool, n - pool - counts[heavy].sum()]) / n
    return heavy, light, p


def _full_width_tvs(rows, n, tp):
    """``0.5 * sum |C / n - tp|`` over the whole universe; a last column of
    ``rows`` past ``tp`` holds the off-support trials, where tp is 0."""
    return 0.5 * np.abs(rows / n - np.append(tp, 0.0)).sum(axis=1)


def _reference_blocks(seed, n, counts, tp, rows):
    """The pooled bootstrap's resamples drawn one by one: block b of
    ``rows`` rows on the stream ``[seed, 2**31 - 1 + b]``, one multinomial
    over the heavy atoms and both pools, then, row by row, the light pool's
    count K as K uniform draws among the pool's trials.  Returns each row's
    counts over the universe, the off-support trials in one last column,
    and each block's generator state after its draws."""
    heavy, light, p = _split(counts, tp)
    trials = np.repeat(light, counts[light])  # the pool, by universe index
    R, A = BOOTSTRAP_RESAMPLES, tp.size
    out, states = np.zeros((R, A + 1), dtype=np.int64), []
    for b, start in enumerate(range(0, R, rows)):
        rng = np.random.default_rng([seed, 2 ** 31 - 1 + b])
        c = rng.multinomial(n, p, size=min(rows, R - start))
        out[start:start + len(c), heavy] = c[:, :-2]
        out[start:start + len(c), A] = c[:, -1]
        if trials.size:
            draws = rng.integers(0, trials.size, size=int(c[:, -2].sum()))
            for i, seg in enumerate(np.split(draws,
                                             np.cumsum(c[:, -2])[:-1])):
                np.add.at(out[start + i], trials[seg], 1)
        states.append(rng.bit_generator.state)
    return out, states


def _recorded(monkeypatch, call):
    """``call()`` and the state of each generator it made, after its draws."""
    default_rng = np.random.default_rng
    made = []

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording_rng)
        out = call()
    return out, [g.bit_generator.state for g in made]


def _block_rows(monkeypatch, rows, counts, tp):
    """Patch EXACT_BLOCK_BYTES so that the bootstrap of ``counts`` runs in
    blocks of ``rows`` rows: each row's widest array, the multinomial's,
    the light counts or the index draws, takes 8 bytes a number."""
    heavy, light, _ = _split(counts, tp)
    width = max(heavy.size + 2, light.size, int(counts[light].sum()))
    monkeypatch.setattr(icsim.evaluate, "EXACT_BLOCK_BYTES", 8 * width * rows)


def _bootstrap_input(zeros=()):
    """40 atoms of 1 to 59 trials, so some are heavy and some light, with
    the atoms ``zeros`` unobserved; the truth lacks atoms 3 and 17."""
    atoms = 40
    src = np.random.default_rng(11)
    counts = src.integers(1, 60, size=atoms)
    counts[list(zeros)] = 0
    tp = src.dirichlet(np.ones(atoms))
    tp[[3, 17]] = 0.0
    return int(counts.sum()), counts, tp / tp.sum()


ZEROS = pytest.mark.parametrize("zeros", [
    (), (0, 1), (5, 17, 18), (38, 39), (0, 9, 20, 39),
], ids=["positive", "leading", "interior", "trailing", "all"])


@ZEROS
def test_pooled_statistic_is_the_tv(zeros):
    # on integer rows supported on the observed atoms, the mass a row leaves
    # short on the true support equals the full-universe TV
    n, counts, tp = _bootstrap_input(zeros)
    rows = np.random.default_rng(3).multinomial(n, counts / n, size=500)
    seen = counts > 0
    on = seen & (tp > 0)
    assert not on[[3, 17]].any() and (~seen).sum() == len(zeros)
    pooled = float(tp[~seen].sum()) + _shortfall(tp[on], rows[:, on], n)
    full = 0.5 * np.abs(rows / n - tp).sum(axis=1)
    np.testing.assert_allclose(pooled, full, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 7, 1000])
@ZEROS
def test_blocked_bootstrap_matches_one_shot(monkeypatch, rows, zeros):
    # rows=1000 is one block on the stream [seed, 2**31 - 1]; rows=1 and
    # rows=7 are 1000 and 143 blocks, each on its own stream.  Each block
    # makes exactly the reference's draws, and its TVs are those of the
    # full-universe formula on the reference's counts
    n, counts, tp = _bootstrap_input(zeros)
    _block_rows(monkeypatch, rows, counts, tp)
    tvs, made = _recorded(monkeypatch,
                          lambda: _bootstrap_tvs(4, n, counts, tp))
    ref, states = _reference_blocks(4, n, counts, tp, rows)
    assert made == states
    assert (ref.sum(axis=1) == n).all()
    np.testing.assert_allclose(tvs, _full_width_tvs(ref, n, tp),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("rows", [7, 400])
def test_bootstrap_independent_of_worker_count(monkeypatch, rows):
    # 143 blocks, and 3 blocks of 400, 400 and 200 rows; up to three workers
    # whatever the cores, switching threads as often as the interpreter allows
    n, counts, tp = _bootstrap_input((0, 9, 20, 39))
    _block_rows(monkeypatch, rows, counts, tp)
    monkeypatch.setattr(icsim.simulate, "_MAX_WORKERS", 1)
    ref = _bootstrap_tvs(5, n, counts, tp)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: 3)
        for workers in (1, 2, 3):
            monkeypatch.setattr(icsim.simulate, "_MAX_WORKERS", workers)
            tvs = _bootstrap_tvs(5, n, counts, tp)
            assert tvs.tobytes() == ref.tobytes(), workers
    finally:
        sys.setswitchinterval(interval)


def test_pooled_resample_has_the_multinomial_law():
    # 20,000 pooled rows against 20,000 full-width multinomial(n, counts / n)
    # rows, each on its own seeded blocks: every atom's count mean and
    # variance, and the TV's 2.5, 50 and 97.5 percentiles, agree within 4.5
    # standard errors of their difference
    n, counts, tp = _bootstrap_input((5, 17, 18))
    heavy, light, p = _split(counts, tp)
    labels = np.repeat(np.arange(light.size), counts[light])
    pooled, full = [], []
    for b in range(200):
        c, m = _resample(np.random.default_rng([21, b]), n, p, labels,
                         light.size, 100)
        rows = np.zeros((100, counts.size + 1), dtype=np.int64)
        rows[:, heavy], rows[:, light], rows[:, -1] = c[:, :-2], m, c[:, -1]
        assert (m.sum(axis=1) == c[:, -2]).all()
        assert (c.sum(axis=1) == n).all()
        pooled.append(rows)
        full.append(np.random.default_rng([22, b]).multinomial(
            n, counts / n, size=100))
    pooled, full = np.concatenate(pooled), np.concatenate(full)
    R = len(pooled)
    on = np.sort(np.append(heavy, light))
    off = np.flatnonzero((counts > 0) & (tp == 0))
    unseen = np.flatnonzero(counts == 0)
    assert off.size and unseen.size and not pooled[:, unseen].any()
    # each on-support atom, and the off-support atoms' total
    for x, y in zip(np.column_stack([pooled[:, on], pooled[:, -1]]).T,
                    np.column_stack([full[:, on],
                                     full[:, off].sum(axis=1)]).T):
        se = np.sqrt((x.var() + y.var()) / R)
        assert abs(x.mean() - y.mean()) < 4.5 * se
        # the standard error of a sample variance, from the fourth moment
        se = np.sqrt(sum((((v - v.mean()) ** 4).mean() - v.var() ** 2) / R
                         for v in (x, y)))
        assert abs(x.var() - y.var()) < 4.5 * se
    tv_pooled = _full_width_tvs(pooled, n, tp)
    tv_full = 0.5 * np.abs(full / n - tp).sum(axis=1)
    for q in (0.025, 0.5, 0.975):
        below = (tv_full < np.quantile(tv_pooled, q)).mean()
        assert abs(below - q) < 4.5 * np.sqrt(2 * q * (1 - q) / R), q


@pytest.mark.parametrize("counts, tp", [
    # no light atoms: the light pool is empty and no index is drawn
    ([40, 0, 25, 35], [0.4, 0.1, 0.2, 0.3]),
    # no off-support views: the last category is empty
    ([40, 3, 25, 2, 30], [0.3, 0.1, 0.2, 0.1, 0.3]),
    # all atoms light, one of them off the true support
    ([3, 1, 5, 2, 0], [0.0, 0.3, 0.3, 0.2, 0.2]),
    # one observed atom, heavy
    ([0, 50, 0], [0.2, 0.5, 0.3]),
    # n = 1: one light atom of one trial
    ([0, 1, 0], [0.25, 0.5, 0.25]),
    # n = 1 off the true support: every resample has TV 1
    ([1, 0], [0.0, 1.0]),
], ids=["no-light", "no-off-support", "all-light", "one-atom", "n1",
        "n1-off-support"])
def test_bootstrap_edge_cases(monkeypatch, counts, tp):
    counts, tp = np.array(counts), np.array(tp)
    n = int(counts.sum())
    tvs, made = _recorded(monkeypatch,
                          lambda: _bootstrap_tvs(6, n, counts, tp))
    ref, states = _reference_blocks(6, n, counts, tp, BOOTSTRAP_RESAMPLES)
    assert made == states
    assert (ref.sum(axis=1) == n).all()
    np.testing.assert_allclose(tvs, _full_width_tvs(ref, n, tp),
                               rtol=0, atol=1e-12)
    if (counts > 0).sum() == 1:
        # one observed atom: every resample is the sample
        assert (tvs == 0.5 * np.abs(counts / n - tp).sum()).all()


def _one_shot_estimate(engine, agg, seed, rows):
    """The plug-in estimate with the universe built atom by atom, and the
    bootstrap's resamples from the reference draws of blocks of ``rows``
    rows, their TVs from the full-universe formula."""
    true_law = engine.true_view_law()
    symbols = list(true_law.symbols)
    symbols += [v for v in agg.views if v not in true_law.index]
    tp = np.array([true_law.prob(s) if s in true_law.index else 0.0
                   for s in symbols])
    n = agg.trials
    counts = np.array([agg.views.get(s, 0) for s in symbols])
    ref, states = _reference_blocks(seed, n, counts, tp, rows)
    lo, hi = np.percentile(_full_width_tvs(ref, n, tp), [2.5, 97.5])
    phat = counts.astype(float) / n
    return 0.5 * float(np.abs(tp - phat).sum()), 0.5 * float(hi - lo), states


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
    # the estimate's value keeps the bytes of the full-universe formula on
    # counts / n; its interval is the reference draws' to 1e-12, and the
    # bootstrap makes exactly the reference's draws on every block
    engine = build_engine(cfg)
    for seed in (1, 7):
        agg = run_trials(engine, trials, seed)
        tp, counts = icsim.evaluate._aligned(
            *engine.true_view_rows(), agg.keys, agg.counts)
        if rows is not None:
            _block_rows(monkeypatch, rows, counts, tp)
        est, made = _recorded(monkeypatch, lambda: measure_sim_error(
            engine, "plugin", master_seed=seed, agg=agg))
        value, half, states = _one_shot_estimate(
            engine, agg, seed, rows or BOOTSTRAP_RESAMPLES)
        assert est.value == value
        assert est.ci_halfwidth == pytest.approx(half, rel=0, abs=1e-12)
        assert made == states
        assert est.samples == trials


def test_plugin_bootstrap_memory_bounded(monkeypatch):
    # send-x over dsbs^6: 4,096 true atoms and about 1,400 observed ones;
    # a full-width bootstrap holds several (1000, A) float arrays, ~100 MB.
    # Each bootstrap worker holds one block's arrays, each of up to about
    # EXACT_BLOCK_BYTES, and the worker count is capped, so the bound holds
    # on this machine and on one with 64 CPUs
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
