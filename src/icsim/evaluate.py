"""Measuring how well a simulation reproduces a protocol's view.

The view of a trial is the tuple (transmitter result, receiver result, x, y).
Exact mode enumerates every seed; plug-in mode runs trials and reports the
empirical total variation with a multinomial bootstrap confidence interval.

Every law here is read as integer key rows with their masses, in the key
space the engines' walks produce (:mod:`icsim.simulate`): the engine's
true and exact laws come as rows ordered as their views' reprs sort, and
a :class:`~icsim.simulate.TrialAggregate` holds its distinct rows with
their counts.  The estimate matches rows by value, so no view tuple is
built, sorted or looked up; the universe and its order are those of the
view laws all the same, so the numbers keep their bits.

The bootstrap is Efron's nonparametric one: a resample draws n trials from
the observed view counts.  Both laws sum to 1, so a resample's TV is the
true mass it leaves short, and only the counts of the observed atoms on the
true support are drawn, the views the truth lacks pooled into one category;
the resample law is still the full-width multinomial's, exactly (see
:func:`_bootstrap_tvs`).  The resamples are drawn in blocks of rows whose
arrays are bounded by ``EXACT_BLOCK_BYTES``.  Block ``b`` draws from its
own stream ``[master_seed, 2**31 - 1 + b]``, so the blocks run on the
threads of :func:`icsim.simulate._in_blocks`, as the trial decode does, and
the interval depends on the seed alone, not on the number of threads.
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
    _unique_rows,
    run_trials,
)

BOOTSTRAP_RESAMPLES = 1000
#: block ``b`` of the bootstrap draws from ``[master_seed, _BOOTSTRAP_STREAM
#: + b]``; trial chunks draw from ``[master_seed, part]`` with far smaller
#: parts, so the streams never meet
_BOOTSTRAP_STREAM = 2 ** 31 - 1
#: observed atoms of at least this many trials are categories of their
#: own in the bootstrap's multinomial; the trials of lighter ones are shared
#: out by index draws.  On a 2-core x86 box with numpy 2.4 an index draw,
#: with its gather and count, took 6 ns and a binomial draw of mean 4 to 32
#: took 75 to 150 ns, so an atom is cheaper as a category from about 16
#: trials on, where the bootstrap of send-x over dsbs^6 was fastest
_HEAVY_COUNT = 16


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


def _aligned(true_keys: np.ndarray, true_p: np.ndarray, keys: np.ndarray,
             weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """True probabilities and ``weights`` on one universe of atoms.

    The atoms are distinct key rows: ``true_keys`` with their masses
    ``true_p``, and ``keys`` with their ``weights``.  The universe is the
    true atoms in their order, then the rows of ``keys`` that the truth
    lacks, in their order.  Rows match by value, through one
    :func:`~icsim.simulate._unique_rows` of both sets.  Both returned
    vectors are zero off their law's atoms.
    """
    T = len(true_keys)
    uniq, inverse, _ = _unique_rows(np.concatenate([true_keys, keys]))
    # each distinct row's place in the universe; -1 off the truth
    place = np.full(len(uniq), -1, dtype=np.intp)
    place[inverse[:T]] = np.arange(T)
    pos = place[inverse[T:]]
    new = np.flatnonzero(pos < 0)
    pos[new] = T + np.arange(new.size)
    tp = np.zeros(T + new.size)
    tp[:T] = true_p
    w = np.zeros(T + new.size, dtype=weights.dtype)
    w[pos] = weights
    return tp, w


def _shortfall(t: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """``sum((t - c / n)^+)`` along each row of counts ``c``."""
    d = c / n
    np.subtract(t, d, out=d)
    return np.maximum(d, 0.0, out=d).sum(axis=1)


def _resample(rng, n: int, p: np.ndarray, labels: np.ndarray, L: int,
              r: int) -> tuple[np.ndarray, np.ndarray]:
    """``r`` bootstrap rows of ``n`` trials, drawn as :func:`_bootstrap_tvs`
    draws them: the (r, len(p)) counts of the heavy atoms, the light pool
    and the off-support pool, from one multinomial, and the (r, L) counts
    of the light atoms, each row's pool count shared out by uniform draws
    among the pool's trials, whose light atoms are ``labels``.
    """
    c = rng.multinomial(n, p, size=r)
    k = c[:, -2]
    if not L:
        return c, np.zeros((r, 0), dtype=np.int64)
    keys = rng.integers(0, labels.size, size=int(k.sum()))
    np.take(labels, keys, out=keys, mode="clip")
    # row i's draws count in bins i * L .. i * L + L - 1
    ends = np.cumsum(k)
    for i in range(1, r):
        keys[ends[i - 1]:ends[i]] += i * L
    return c, np.bincount(keys, minlength=r * L).reshape(r, L)


def _bootstrap_tvs(master_seed: int, n: int, counts: np.ndarray,
                   tp: np.ndarray) -> np.ndarray:
    """TV from ``tp`` of each of BOOTSTRAP_RESAMPLES resamples of ``counts``.

    A resample is a draw C of multinomial(n, counts / n).  Both laws sum to
    1, so its TV is the mass it leaves short, ``U + sum((tp - C / n)^+)``
    over the observed atoms with tp > 0, where U is the true mass of the
    unobserved atoms.  Only those atoms' counts are drawn: the trials of
    atoms the truth lacks form one pooled category, which is never read.

    Each row is drawn in two steps (:func:`_resample`).  One multinomial
    draws the atoms of at least ``_HEAVY_COUNT`` trials, one category each,
    then the light pool, the trials of the lighter atoms, then the
    off-support pool, last.  A row's light-pool count K is then shared out
    by K uniform draws among the pool's trials, counted by ``bincount``.
    By the multinomial's aggregation property the heavy counts and K have
    the law of the full-width draw, and given K the light counts are
    multinomial(K, their counts / pool), the law of K draws among the
    pool's trials.  So the rows have the law of
    ``rng.multinomial(n, counts / n)`` exactly, not approximately.

    Block ``b`` of ``rows`` rows draws from its own stream ``[master_seed,
    2**31 - 1 + b]``, so the blocks run on the threads of
    :func:`icsim.simulate._in_blocks` (numpy's draws and ufuncs release
    the GIL) and the output does not depend on the number of threads.
    ``rows`` keeps each of a block's arrays within EXACT_BLOCK_BYTES: the
    multinomial counts, the light counts and, in expectation, the index
    draws, the largest, which are gathered and offset in place; so every
    block allocates arrays of about the same sizes, which the allocator
    hands on from block to block.
    """
    seen = counts > 0
    on = seen & (tp > 0)
    heavy = on & (counts >= _HEAVY_COUNT)
    light = on & ~heavy
    unseen = float(tp[~seen].sum())
    th, tl = tp[heavy], tp[light]
    H, L = th.size, tl.size
    pool = int(counts[light].sum())
    p = np.append(counts[heavy], [pool, n - pool - counts[heavy].sum()]) / n
    # the pool's trials, each labelled with its light atom
    labels = np.repeat(np.arange(L), counts[light])
    rows = max(1, EXACT_BLOCK_BYTES // (8 * max(H + 2, L, pool)))

    def block(a, b):
        rng = np.random.default_rng([master_seed,
                                     _BOOTSTRAP_STREAM + a // rows])
        c, m = _resample(rng, n, p, labels, L, b - a)
        return (unseen + _shortfall(th, c[:, :H], n) + _shortfall(tl, m, n),)

    return _in_blocks(block, BOOTSTRAP_RESAMPLES, rows)[0]


def measure_sim_error(engine, mode: str, trials: int = 0,
                      master_seed: int = 0,
                      agg: TrialAggregate | None = None) -> TVEstimate:
    """Total variation between the simulated and the true view distribution.

    ``mode="exact"`` enumerates seeds; ``mode="plugin"`` uses ``trials``
    Monte Carlo runs (or a precomputed aggregate) and bootstraps a 95 percent
    confidence halfwidth from the empirical view counts.  The estimate is
    the TV of counts / n over the whole universe of atoms; the bootstrap
    reads each resample's TV as the true mass it leaves short, so it draws
    only the counts of the observed atoms on the true support, pooling the
    rest, and gets the law of the full-width multinomial exactly.  Its
    blocks draw on their own seed streams, in parallel threads, so the
    interval depends on ``master_seed`` alone (see :func:`_bootstrap_tvs`).

    Both laws are read as key rows with their masses (the engine's
    ``true_view_rows`` and ``exact_view_rows``, or the aggregate's
    ``keys`` and ``counts``), on the universe of :func:`_aligned`: the
    true atoms in the order of their views' reprs, then the other atoms
    in their order, as the view laws would give them, with no view built.
    """
    true_keys, true_p = engine.true_view_rows()
    if mode == "exact":
        if not hasattr(engine, "exact_view_rows"):
            raise OutOfRange("engine does not support exact enumeration")
        tp, sp = _aligned(true_keys, true_p, *engine.exact_view_rows())
        return TVEstimate(0.5 * float(np.abs(tp - sp).sum()), "exact", 0.0, 0)
    if mode != "plugin":
        raise OutOfRange(f"unknown mode {mode!r}")
    if agg is None:
        if trials < 1:
            raise OutOfRange("plugin mode needs trials >= 1")
        agg = run_trials(engine, trials, master_seed)
    n = agg.trials
    tp, counts = _aligned(true_keys, true_p, agg.keys, agg.counts)
    value = 0.5 * float(np.abs(tp - counts / n).sum())
    tvs = _bootstrap_tvs(master_seed, n, counts, tp)
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
