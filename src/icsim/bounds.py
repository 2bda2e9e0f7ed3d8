"""Converse and achievability evaluators for interactive simulation.

The centerpiece is the one-shot converse: any eps-simulation of a protocol
must communicate at least the (eps + eps')-quantile of the ic spectrum minus
an additive correction built from the lengths of three auxiliary spectra.
The achievability side prices the slice-based simulator round by round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    InfeasibleBudget,
    MismatchedSupport,
    OutOfRange,
    ParameterRange,
    TailMassViolated,
    ZeroVariance,
)
from .hashing import min_entropy
from .probcore import (
    FiniteDistribution,
    JointSource,
    MomentSummary,
    SpectrumTable,
    q_inv,
)
from .simulate import round_density_spectrum


# ---------------------------------------------------------------------------
# the one-shot converse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectraBundle:
    """The four spectra the converse consumes."""

    ic: SpectrumTable
    h_xy: SpectrumTable
    h_x_given_ypi: SpectrumTable
    hsum_ext: SpectrumTable

    @classmethod
    def from_protocol(cls, obj) -> "SpectraBundle":
        """Build from anything exposing ``spectrum(selector)``."""
        return cls(
            ic=obj.spectrum("ic"),
            h_xy=obj.spectrum("h_xy"),
            h_x_given_ypi=obj.spectrum("h_x_given_ypi"),
            hsum_ext=obj.spectrum("hsum_ext"),
        )


@dataclass(frozen=True)
class LowerBoundReport:
    bound: float
    lambda_eps: float
    lambda_prime: float
    eps_prime: float
    eps_tail_mass: float
    lengths: tuple            # (L1, L2, L3) after the zero -> 1 replacement
    eta: float
    vacuous: bool


def _interval_length(spec: SpectrumTable,
                     interval: tuple[float, float] | None) -> tuple[float, float]:
    """Essential length of a spectrum on an interval; returns (length, leak)."""
    if interval is None:
        return float(spec.values[-1] - spec.values[0]), 0.0
    lo, hi = interval
    if hi < lo:
        raise OutOfRange("empty spectrum interval")
    mask = (spec.values < lo) | (spec.values > hi)
    return hi - lo, float(spec.probs[mask].sum())


def lower_bound(spectra: SpectraBundle, eps: float, eta: float,
                intervals: Sequence[tuple[float, float] | None] | None = None,
                declared_tail: float | None = None) -> LowerBoundReport:
    """One-shot communication converse at simulation error ``eps``.

    ``intervals`` optionally truncates the three auxiliary spectra (joint,
    conditional-given-transcript, extended-sum) to essential ranges; the
    leaked mass enters the error budget and must not exceed
    ``declared_tail`` when one is given.
    """
    if not 0.0 <= eps < 1.0:
        raise ParameterRange("eps must lie in [0, 1)")
    if not 0.0 < eta < 1.0 / 3.0:
        raise ParameterRange("eta must lie in (0, 1/3)")
    if intervals is None:
        intervals = (None, None, None)
    specs = (spectra.h_xy, spectra.h_x_given_ypi, spectra.hsum_ext)
    lengths, leak = [], 0.0
    for spec, iv in zip(specs, intervals):
        length, miss = _interval_length(spec, iv)
        lengths.append(length)
        leak += miss
    if declared_tail is not None and leak > declared_tail + 1e-12:
        raise TailMassViolated(
            f"intervals leak {leak:.3g} > declared {declared_tail:.3g}")
    eff = [L if L > 0 else 1.0 for L in lengths]
    l1, l2, l3 = eff
    eps_prime = leak + 2.0 * eta
    lambda_prime = (2.0 * math.log2(l1 * l3) + math.log2(l2)
                    - math.log2(1.0 - 3.0 * eta)
                    + 9.0 * math.log2(1.0 / eta) + 3.0)
    level = eps + eps_prime
    if level >= 1.0:
        lambda_eps = float(spectra.ic.values[0])
    else:
        lambda_eps = spectra.ic.sup_tail_at_least(level)
    bound = lambda_eps - lambda_prime
    return LowerBoundReport(bound, lambda_eps, lambda_prime, eps_prime, leak,
                            tuple(eff), eta, bound <= 0.0)


# ---------------------------------------------------------------------------
# achievability budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundBudgetInput:
    """Per-round quantities entering the achievability budget.

    ``rx`` refers to the listener-side slicing, ``tx`` to the speaker side;
    tails are the probabilities of the two slice-0 events.
    """

    n_rx: int
    n_tx: int
    delta_rx: float
    delta_tx: float
    tail_rx: float
    tail_tx: float

    def overhead(self, gamma: float) -> float:
        """Worst-case extra bits this round adds on top of the ic density."""
        return (self.n_rx + 3.0 * math.log2(self.n_tx)
                + self.delta_rx + self.delta_tx + 3.0 * gamma)

    def failure(self, gamma: float) -> float:
        """This round's contribution to the simulation error budget."""
        return (4.0 * self.tail_rx + 4.0 * self.tail_tx
                + 3.0 * (self.n_rx + self.n_tx + 2) * 2.0 ** (-gamma)
                + 3.0 / self.n_tx + 3.0 / self.n_rx)


def round_budget_inputs(law, plans) -> list[RoundBudgetInput]:
    """One :class:`RoundBudgetInput` per round of ``law`` under ``plans``
    (one :class:`~icsim.simulate.RoundPlan` per round): the plans' slice
    counts and widths, and the mass of each side's slice-0 event at that
    round, over true histories."""
    rounds = []
    for t, plan in enumerate(plans, start=1):
        rx_spec = round_density_spectrum(law, t, "rx")
        tx_spec = round_density_spectrum(law, t, "tx")
        rounds.append(RoundBudgetInput(
            plan.rx.n_slices, plan.tx.n_slices, plan.rx.delta,
            plan.tx.delta, plan.rx.tail_mass(rx_spec),
            plan.tx.tail_mass(tx_spec)))
    return rounds


@dataclass(frozen=True)
class UpperBoundBudget:
    l_max: float
    lambda_prime: float       # total overhead added to the ic quantile
    eps_prime: float          # error consumed by the simulator itself
    target_eps: float
    round_overheads: tuple
    round_failures: tuple
    feasible: bool


def upper_bound_budget(rounds: Sequence[RoundBudgetInput], gamma: float,
                       target_eps: float,
                       ic_spec: SpectrumTable) -> UpperBoundBudget:
    """Communication budget of the round-by-round simulator.

    The budget point is the upper (target - eps')-tail of the ic spectrum
    plus the summed per-round overheads; raises when the simulator's own
    failure terms already exceed the target error.
    """
    if gamma < 0:
        raise ParameterRange("gamma must be nonnegative")
    if not 0.0 < target_eps < 1.0:
        raise ParameterRange("target error must lie in (0, 1)")
    overheads = tuple(r.overhead(gamma) for r in rounds)
    failures = tuple(r.failure(gamma) for r in rounds)
    eps_prime = float(sum(failures))
    lambda_prime = float(sum(overheads))
    if eps_prime >= target_eps:
        raise InfeasibleBudget(
            f"simulator failure budget {eps_prime:.3g} >= target "
            f"{target_eps:.3g}")
    quantile = ic_spec.eps_tail(target_eps - eps_prime, "upper")
    return UpperBoundBudget(quantile + lambda_prime, lambda_prime, eps_prime,
                            target_eps, overheads, failures, True)


# -- per-engine total-variation budgets -------------------------------------


def protocol3_tv_budget(sim) -> float:
    """Lemma-style view-distance budget for :class:`RoundSimulator`.

    Tail mass of the receiver slicing, collision mass per slice, and the
    leftover-hash defect of conditioning on the k shared bits.
    """
    gamma = sim.cfg_rx.gamma
    hmin = min_entropy(sim.joint_mx(), sim.source.p_x).value
    defect = 0.5 * math.sqrt(2.0 ** (sim.k - hmin))
    return (sim.tail_mass() + sim.n_slices * 2.0 ** (-gamma) + defect)


def protocol4_tv_budget(sim) -> float:
    """View-distance budget for :class:`ImprovedRoundSimulator`."""
    inner = sim.inner
    gamma = inner.cfg_rx.gamma
    n_rx = inner.n_slices
    n_tx = sim.cfg_tx.n_slices
    return (inner.tail_mass() + sim.tail_mass_tx()
            + (n_rx + 1) * 2.0 ** (-gamma) + 1.0 / n_tx)


def protocol5_tv_budget(sim, gamma: float | None = None) -> float:
    """View-distance budget for the full simulator (without a bit cap).

    Sums the per-round failure terms; add Pr[ic + overheads > l_max] when a
    finite budget is enforced.
    """
    rounds = round_budget_inputs(sim.law, sim.plans)
    gammas = [p.rx.gamma if gamma is None else gamma for p in sim.plans]
    total = sum(r.failure(g) for r, g in zip(rounds, gammas))
    if math.isfinite(sim.l_max):
        spec = sim.law.spectrum("ic")
        shift = sum(r.overhead(g) for r, g in zip(rounds, gammas))
        total += spec.tail_prob(sim.l_max - shift)
    return total


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def second_order_predict(ms: MomentSummary, n: int, eps: float) -> float:
    """Gaussian prediction n IC + sqrt(n V) Qinv(eps) for n iid copies."""
    if n < 1:
        raise ParameterRange("n must be at least 1")
    if ms.variance <= 0.0:
        raise ZeroVariance("degenerate ic spectrum has no Gaussian regime")
    return n * ms.mean + math.sqrt(n * ms.variance) * q_inv(eps)


def berry_esseen_shift(ms: MomentSummary, n: int) -> float:
    """Scale of the Berry-Esseen quantile displacement at blocklength n."""
    if ms.variance <= 0.0:
        raise ZeroVariance("degenerate ic spectrum")
    t_abs = abs(ms.third_central)
    return 3.0 * t_abs / (ms.variance * math.sqrt(n)) \
        * math.sqrt(n * ms.variance)


#: Berry-Esseen constant for sums of iid variables (Shevtsova, 2011)
BERRY_ESSEEN_C0 = 0.4748


def berry_esseen_band(spec: SpectrumTable, n: int,
                      eps: float) -> tuple[float, float]:
    """Band around the upper eps-tail quantile of a sum of n iid densities.

    Berry-Esseen bounds |Pr[S_n > n mu + sqrt(n V) z] - Q(z)| by
    Delta = C0 E|X - mu|^3 / (V^(3/2) sqrt(n)) for every z, so the
    quantile lies in [n mu + sqrt(n V) Qinv(eps + Delta),
    n mu + sqrt(n V) Qinv(eps - Delta)].  An end is -inf or +inf when
    eps + Delta or eps - Delta leaves (0, 1).  Unlike
    :func:`berry_esseen_shift`, it uses the absolute third moment and
    inverts the tail at both shifted levels.
    """
    if n < 1:
        raise ParameterRange("n must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ParameterRange("eps must lie in (0, 1)")
    ms = spec.moments()
    if ms.variance <= 0.0:
        raise ZeroVariance("degenerate ic spectrum has no Gaussian regime")
    abs3 = float(np.dot(np.abs(spec.values - ms.mean) ** 3, spec.probs))
    delta = BERRY_ESSEEN_C0 * abs3 / (ms.variance ** 1.5 * math.sqrt(n))
    centre, scale = n * ms.mean, math.sqrt(n * ms.variance)
    lo = (centre + scale * q_inv(eps + delta) if eps + delta < 1.0
          else -math.inf)
    hi = (centre + scale * q_inv(eps - delta) if eps - delta > 0.0
          else math.inf)
    return lo, hi


@dataclass(frozen=True)
class DirectProductReport:
    sim_threshold: float
    func_threshold: float | None
    exponent: float
    tail_lower_bound: float
    vacuous: bool


def chernoff_lower_exponent(spec: SpectrumTable, level: float) -> float:
    """Large-deviation exponent of Pr[mean of iid draws <= level], base 2."""
    mean = spec.moments().mean
    if level >= mean:
        return 0.0

    def neg_rate(s: float) -> float:
        mgf = float(np.dot(spec.probs, np.exp2(s * spec.values)))
        return -(s * level - math.log2(mgf))

    # imported here: scipy.optimize adds about 47 MB of resident memory, and
    # no other icsim call needs it
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(neg_rate, bounds=(-60.0, 0.0), method="bounded",
                          options={"xatol": 1e-10})
    return max(0.0, -float(res.fun))


def direct_product_thresholds(spec: SpectrumTable, n: int, delta: float,
                              h_f_given_x: float | None = None,
                              h_f_given_y: float | None = None
                              ) -> DirectProductReport:
    """Thresholds below which n-fold simulation or computation must fail.

    Simulation threshold n (IC - delta); with per-copy conditional function
    entropies also the computation threshold
    n (H(F|X) + H(F|Y) - delta).  The exponent certifies
    Pr[ic of the product > n (IC - delta)] >= 1 - 2^{-E n}.
    """
    if n < 1 or delta <= 0:
        raise ParameterRange("need n >= 1 and delta > 0")
    ic = spec.moments().mean
    sim_thr = n * (ic - delta)
    func_thr = None
    if h_f_given_x is not None and h_f_given_y is not None:
        func_thr = n * (h_f_given_x + h_f_given_y - delta)
    exponent = chernoff_lower_exponent(spec, ic - delta)
    tail_lb = 1.0 - 2.0 ** (-exponent * n)
    return DirectProductReport(sim_thr, func_thr, exponent, tail_lb,
                               sim_thr <= 0.0)


# ---------------------------------------------------------------------------
# hypothesis testing and secret keys
# ---------------------------------------------------------------------------


def beta_eps(p: FiniteDistribution, q: FiniteDistribution,
             eps: float) -> float:
    """Minimal Q-mass of a test with P-mass at least 1 - eps.

    Exact Neyman-Pearson: accept symbols in decreasing likelihood-ratio
    order and randomize on the boundary atom.
    """
    if not 0.0 <= eps < 1.0:
        raise ParameterRange("eps must lie in [0, 1)")
    if set(p.symbols) != set(q.symbols):
        raise MismatchedSupport("test distributions need a common universe")
    qs = np.array([q.prob(s) for s in p.symbols])
    ps = p.probs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(qs > 0, ps / np.maximum(qs, 1e-300), math.inf)
    ratio = np.where(ps > 0, ratio, 0.0)  # dead P-atoms are never needed
    order = np.argsort(-ratio, kind="stable")
    need = 1.0 - eps
    beta = 0.0
    got = 0.0
    for idx in order:
        if need - got <= 1e-15:
            break
        take_p = float(ps[idx])
        if take_p <= 0.0:
            continue
        if got + take_p <= need + 1e-15:
            frac = 1.0
        else:
            frac = (need - got) / take_p
        beta += frac * float(qs[idx])
        got += frac * take_p
    if got < need - 1e-12:
        raise ParameterRange("P mass exhausted before reaching 1 - eps")
    return beta


def beta_eps_upper(p: FiniteDistribution, q: FiniteDistribution,
                   eps: float, lam: float) -> float:
    """Single-threshold upper bound on -log2 beta_eps.

    Returns lam - log2( Pr_P[log2(P/Q) < lam] - eps ) with the positive-part
    guard mapped to +inf.
    """
    if not 0.0 <= eps < 1.0:
        raise ParameterRange("eps must lie in [0, 1)")
    if set(p.symbols) != set(q.symbols):
        raise MismatchedSupport("test distributions need a common universe")
    qs = np.array([q.prob(s) for s in p.symbols])
    ps = p.probs
    mass = 0.0
    for pv, qv in zip(ps, qs):
        if pv <= 0:
            continue
        llr = math.inf if qv <= 0 else math.log2(pv / qv)
        if llr < lam:
            mass += pv
    guard = mass - eps
    if guard <= 0.0:
        return math.inf
    return lam - math.log2(guard)


def sk_bound(source: JointSource, eps: float, eta: float,
             q_x: np.ndarray | None = None,
             q_y: np.ndarray | None = None) -> float:
    """Upper bound on the eps-secret-key rate of a joint source.

    -log2 beta_{eps + eta}(P_XY, Q_X x Q_Y) + 2 log2(1 / eta), with the
    marginals as the default product reference.
    """
    if eta <= 0 or eps < 0 or eps + eta >= 1:
        raise ParameterRange("need eps >= 0, eta > 0, eps + eta < 1")
    qx = source.p_x if q_x is None else np.asarray(q_x, float)
    qy = source.p_y if q_y is None else np.asarray(q_y, float)
    syms, pp, qq = [], [], []
    for i, x in enumerate(source.x_alphabet):
        for j, y in enumerate(source.y_alphabet):
            syms.append((x, y))
            pp.append(float(source.mass[i, j]))
            qq.append(float(qx[i] * qy[j]))
    p = FiniteDistribution(tuple(syms), np.array(pp))
    q = FiniteDistribution(tuple(syms), np.array(qq) / float(np.sum(qq)))
    beta = beta_eps(p, q, eps + eta)
    if beta <= 0:
        raise ParameterRange("degenerate test: beta vanished")
    return -math.log2(beta) + 2.0 * math.log2(1.0 / eta)


def sk_chain(s_eps: float, log_v: float, eps: float) -> float:
    """Key-rate loss from leaking log2|V| bits of communication.

    S_{2 eps}(X, Y | Z V) >= S_eps(X, Y | Z) - log2|V| - 2 log2(1 / (2 eps)).
    """
    if eps <= 0 or eps >= 0.5:
        raise ParameterRange("eps must lie in (0, 1/2)")
    if log_v < 0:
        raise ParameterRange("communication size must be nonnegative")
    return s_eps - log_v - 2.0 * math.log2(1.0 / (2.0 * eps))
