"""Measuring how well a simulation reproduces a protocol's view.

The view of a trial is the tuple (transmitter result, receiver result, x, y).
Exact mode enumerates every seed; plug-in mode runs trials and reports the
empirical total variation with a multinomial bootstrap confidence interval.

The bootstrap draws its resamples over the observed view atoms only, in
blocks of rows bounded by ``EXACT_BLOCK_BYTES``, so its memory does not grow
with the view universe times the resample count.  Block ``b`` draws from its
own stream ``[master_seed, 2**31 - 1 + b]``, so the blocks run on the
threads of :func:`icsim.simulate._in_blocks`, as the trial decode does, and
the interval depends on the seed alone, not on the number of threads.
numpy's multinomial spends no random numbers on a zero-probability
category, so each block's rows are those of one full-width
``multinomial(n, phat, size=rows)`` call on its stream; a bootstrap of one
block is one full-width ``multinomial(n, phat, size=1000)`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .probcore import FiniteDistribution
from .simulate import (
    EXACT_BLOCK_BYTES,
    TrialAggregate,
    _in_blocks,
    run_trials,
)

BOOTSTRAP_RESAMPLES = 1000
#: block ``b`` of the bootstrap draws from ``[master_seed, _BOOTSTRAP_STREAM
#: + b]``; trial chunks draw from ``[master_seed, part]`` with far smaller
#: parts, so the streams never meet
_BOOTSTRAP_STREAM = 2 ** 31 - 1


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


def _aligned(true_law: FiniteDistribution, symbols,
             weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """True probabilities and ``weights`` on one universe of atoms.

    The universe is the true atoms in their order, then the atoms of
    ``symbols`` that the truth lacks, in their order; ``weights[k]`` belongs
    to ``symbols[k]``.  Both returned vectors are zero off their law's atoms.
    """
    index = true_law.index
    size = len(index)
    pos = np.empty(len(weights), dtype=np.intp)
    for k, s in enumerate(symbols):
        i = index.get(s)
        if i is None:
            i, size = size, size + 1
        pos[k] = i
    tp = np.zeros(size)
    tp[:len(index)] = true_law.probs
    w = np.zeros(size)
    w[pos] = weights
    return tp, w


def _bootstrap_tvs(master_seed: int, n: int, phat: np.ndarray,
                   tp: np.ndarray) -> np.ndarray:
    """TV from ``tp`` of each of BOOTSTRAP_RESAMPLES resamples of ``phat``.

    The resamples are cut into blocks of ``rows`` rows, at most
    EXACT_BLOCK_BYTES of float64 at full width A, and block ``b``, of ``m``
    rows, is equal bit for bit to
    ``0.5 * np.abs(rng.multinomial(n, phat, size=m) / n - tp).sum(axis=1)``
    with ``rng = np.random.default_rng([master_seed, 2**31 - 1 + b])``,
    without that formula's temporaries.  numpy draws a resample one
    category at a time and draws nothing for a category of zero
    probability, so a draw over the observed atoms uses the same random
    numbers; the last atom stays in, observed or not, because the last
    category takes the leftover count instead of a draw.  Each block is
    scattered into full-width rows, so every row sums its A terms in the
    formula's order.  A block starts from rows of ``tp``, the formula's
    term at a count of 0, and computes the terms of the drawn atoms only.

    The blocks are independent, so they run on the threads of
    :func:`icsim.simulate._in_blocks` (numpy's multinomial and ufuncs
    release the GIL); each computes in its own buffer and calls numpy
    only.
    """
    A = phat.size
    drawn = np.flatnonzero(phat)
    if drawn[-1] != A - 1:
        drawn = np.append(drawn, A - 1)
    p = phat[drawn]
    rows = max(1, EXACT_BLOCK_BYTES // (8 * A))

    def block(a, b):
        rng = np.random.default_rng([master_seed,
                                     _BOOTSTRAP_STREAM + a // rows])
        d = rng.multinomial(n, p, size=b - a) / n
        np.subtract(d, tp[drawn], out=d)
        # allocated after the counts are freed; an undrawn atom's term
        # |0 / n - tp| is tp, exactly
        res = np.empty((b - a, A))
        res[:] = tp
        res[:, drawn] = np.abs(d, out=d)
        return (0.5 * res.sum(axis=1),)

    return _in_blocks(block, BOOTSTRAP_RESAMPLES, rows)[0]


def measure_sim_error(engine, mode: str, trials: int = 0,
                      master_seed: int = 0,
                      agg: TrialAggregate | None = None) -> TVEstimate:
    """Total variation between the simulated and the true view distribution.

    ``mode="exact"`` enumerates seeds; ``mode="plugin"`` uses ``trials``
    Monte Carlo runs (or a precomputed aggregate) and bootstraps a 95 percent
    confidence halfwidth from the empirical counts.  The bootstrap draws
    only the observed view atoms, in blocks of rows of bounded size, each
    block on its own seed stream and in parallel threads; every row still
    sums over the whole universe in order, so each block's rows are those
    of one full-width multinomial draw on its stream, bit for bit, and the
    interval depends on ``master_seed`` alone (see :func:`_bootstrap_tvs`).
    """
    true_law = engine.true_view_law()
    if mode == "exact":
        sim_law = exact_view_law(engine)
        tp, sp = _aligned(true_law, sim_law.symbols, sim_law.probs)
        return TVEstimate(0.5 * float(np.abs(tp - sp).sum()), "exact", 0.0, 0)
    if mode != "plugin":
        raise OutOfRange(f"unknown mode {mode!r}")
    if agg is None:
        if trials < 1:
            raise OutOfRange("plugin mode needs trials >= 1")
        agg = run_trials(engine, trials, master_seed)
    n = agg.trials
    tp, counts = _aligned(true_law, agg.views,
                          np.fromiter(agg.views.values(), dtype=float,
                                      count=len(agg.views)))
    phat = counts / n
    value = 0.5 * float(np.abs(tp - phat).sum())
    tvs = _bootstrap_tvs(master_seed, n, phat, tp)
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
    values, counts = np.unique(bits, return_counts=True)
    qs = {q: float(np.quantile(bits, q)) for q in quantiles}
    return CommStats(float(bits.mean()), int(bits.max()), qs,
                     dict(zip(values.tolist(), counts.tolist())))


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
