"""Measuring how well a simulation reproduces a protocol's view.

The view of a trial is the tuple (transmitter result, receiver result, x, y).
Exact mode enumerates every seed; plug-in mode runs trials and reports the
empirical total variation with a multinomial bootstrap confidence interval.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, TooLarge
from .probcore import FiniteDistribution, tv_distance
from .simulate import TrialAggregate, run_trials

BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class TVEstimate:
    value: float
    method: str                  # "exact" or "plugin"
    ci_halfwidth: float          # 0 for exact
    samples: int                 # 0 for exact


def exact_view_law(engine) -> FiniteDistribution:
    """Exact distribution of the simulated view, enumerating all seeds."""
    if not hasattr(engine, "exact_view_law"):
        raise OutOfRange("engine does not support exact enumeration")
    return engine.exact_view_law()


def _aligned_true(true_law: FiniteDistribution,
                  observed) -> tuple[tuple, np.ndarray]:
    """Common universe of true atoms and every ``observed`` atom.

    True atoms come first, then new atoms in first-seen order; returns the
    symbols and the true probabilities on them.
    """
    symbols = list(true_law.symbols)
    seen = set(symbols)
    for v in observed:
        if v not in seen:
            symbols.append(v)
            seen.add(v)
    tp = np.array([true_law.prob(s) if s in true_law.index else 0.0
                   for s in symbols])
    return tuple(symbols), tp


def measure_sim_error(engine, mode: str, trials: int = 0,
                      master_seed: int = 0,
                      agg: TrialAggregate | None = None) -> TVEstimate:
    """Total variation between the simulated and the true view distribution.

    ``mode="exact"`` enumerates seeds; ``mode="plugin"`` uses ``trials``
    Monte Carlo runs (or a precomputed aggregate) and bootstraps a 95 percent
    confidence halfwidth from the empirical counts.
    """
    true_law = engine.true_view_law()
    if mode == "exact":
        sim_law = exact_view_law(engine)
        symbols, tp = _aligned_true(true_law, sim_law.symbols)
        sp = np.array([sim_law.prob(s) if s in sim_law.index else 0.0
                       for s in symbols])
        return TVEstimate(0.5 * float(np.abs(tp - sp).sum()), "exact", 0.0, 0)
    if mode != "plugin":
        raise OutOfRange(f"unknown mode {mode!r}")
    if agg is None:
        if trials < 1:
            raise OutOfRange("plugin mode needs trials >= 1")
        agg = run_trials(engine, trials, master_seed)
    n = agg.trials
    symbols, tp = _aligned_true(true_law, agg.views)
    counts = np.array([agg.views.get(s, 0) for s in symbols], dtype=float)
    phat = counts / n
    value = 0.5 * float(np.abs(tp - phat).sum())
    rng = np.random.default_rng([master_seed, 2 ** 31 - 1])
    res = rng.multinomial(n, phat, size=BOOTSTRAP_RESAMPLES) / n
    tvs = 0.5 * np.abs(res - tp[None, :]).sum(axis=1)
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return TVEstimate(value, "plugin", 0.5 * float(hi - lo), n)


@dataclass(frozen=True)
class CommStats:
    mean: float
    max: int
    quantiles: dict
    histogram: dict


def comm_stats(agg: TrialAggregate,
               quantiles=(0.5, 0.9, 0.99)) -> CommStats:
    """Communication statistics of an aggregate of trials."""
    bits = agg.bits
    hist = Counter(int(b) for b in bits)
    qs = {q: float(np.quantile(bits, q)) for q in quantiles}
    return CommStats(float(bits.mean()), int(bits.max()), qs,
                     dict(sorted(hist.items())))


def agreement_probability(view_law: FiniteDistribution,
                          true_law: FiniteDistribution) -> float:
    """Pr[both parties hold the correct target transcript] under a view law.

    For a deterministic target protocol the simulation error in total
    variation equals one minus this probability.
    """
    total = 0.0
    truth = set(true_law.symbols)
    for atom, idx in view_law.index.items():
        tx, ty = atom[0], atom[1]
        if tx is not None and tx == ty and atom in truth:
            total += float(view_law.probs[idx])
    return total
