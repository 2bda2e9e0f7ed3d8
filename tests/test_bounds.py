import math

import numpy as np
import pytest

from icsim.bounds import (
    BERRY_ESSEEN_C0,
    RoundBudgetInput,
    SpectraBundle,
    berry_esseen_band,
    berry_esseen_shift,
    beta_eps,
    beta_eps_upper,
    chernoff_lower_exponent,
    direct_product_thresholds,
    lower_bound,
    second_order_predict,
    upper_bound_budget,
)
from icsim.errors import (
    InfeasibleBudget,
    ParameterRange,
    TailMassViolated,
    ZeroVariance,
)
from icsim.probcore import FiniteDistribution, dsbs_source, q_inv, spectrum
from icsim.protocol import appendix_threshold_example, send_value_protocol


def bernoulli(p):
    return FiniteDistribution((0, 1), np.array([p, 1 - p]))


class TestLowerBound:
    def test_formula_recomputed(self):
        ex = appendix_threshold_example(8)
        eps = eta = 8.0 ** -3
        rep = lower_bound(SpectraBundle.from_protocol(ex), eps, eta)
        spec = ex.spectrum("ic")
        # quantile: weak sup of the ic tail at eps + eps'
        assert rep.eps_prime == pytest.approx(2 * eta, abs=1e-15)
        assert rep.lambda_eps == spec.sup_tail_at_least(eps + rep.eps_prime)
        lens = [ex.spectrum(s) for s in ("h_xy", "h_x_given_ypi",
                                         "hsum_ext")]
        l1, l2, l3 = [max(float(s.values[-1] - s.values[0]), 1.0)
                      for s in lens]
        want = (2 * math.log2(l1 * l3) + math.log2(l2)
                - math.log2(1 - 3 * eta) + 9 * math.log2(1 / eta) + 3)
        assert rep.lambda_prime == pytest.approx(want, abs=1e-9)
        assert rep.bound == pytest.approx(rep.lambda_eps - rep.lambda_prime)

    def test_degenerate_length_replaced_by_one(self):
        ex = appendix_threshold_example(8)
        rep = lower_bound(SpectraBundle.from_protocol(ex), 0.001, 0.001)
        assert rep.lengths[0] == 1.0  # h_xy is a single atom

    def test_interval_leak_enters_budget(self):
        ex = appendix_threshold_example(8)
        spectra = SpectraBundle.from_protocol(ex)
        hs = ex.spectrum("h_x_given_ypi")
        iv = (float(hs.values[1]), float(hs.values[-1]))  # drop lowest atom
        leak = float(hs.probs[0])
        rep = lower_bound(spectra, 0.001, 0.001,
                          intervals=(None, iv, None))
        assert rep.eps_prime == pytest.approx(leak + 0.002, abs=1e-12)
        with pytest.raises(TailMassViolated):
            lower_bound(spectra, 0.001, 0.001, intervals=(None, iv, None),
                        declared_tail=leak / 2)

    def test_parameter_guards(self):
        ex = appendix_threshold_example(8)
        spectra = SpectraBundle.from_protocol(ex)
        with pytest.raises(ParameterRange):
            lower_bound(spectra, 1.5, 0.01)
        with pytest.raises(ParameterRange):
            lower_bound(spectra, 0.1, 0.5)


class TestUpperBudget:
    def test_round_formulas(self):
        r = RoundBudgetInput(n_rx=8, n_tx=4, delta_rx=2.0, delta_tx=1.0,
                             tail_rx=0.01, tail_tx=0.02)
        g = 5.0
        assert r.overhead(g) == pytest.approx(8 + 3 * 2 + 2 + 1 + 15)
        assert r.failure(g) == pytest.approx(
            0.04 + 0.08 + 3 * 14 * 2.0 ** -5 + 0.75 + 0.375)

    def test_budget_point(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        r = RoundBudgetInput(1000, 1000, 1.0, 1.0, 0.0, 0.0)
        out = upper_bound_budget([r], 20.0, 0.5, spec)
        eps_prime = r.failure(20.0)
        assert out.eps_prime == pytest.approx(eps_prime)
        assert out.l_max == pytest.approx(
            spec.eps_tail(0.5 - eps_prime, "upper") + r.overhead(20.0))

    def test_infeasible(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        r = RoundBudgetInput(2, 2, 1.0, 1.0, 0.2, 0.2)
        with pytest.raises(InfeasibleBudget):
            upper_bound_budget([r], 1.0, 0.1, spec)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_rejects_gamma_outside_range(self, gamma):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        r = RoundBudgetInput(1000, 1000, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ParameterRange, match="gamma"):
            upper_bound_budget([r], gamma, 0.5, spec)


class TestSecondOrder:
    def test_prediction_formula(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        ms = spec.moments()
        got = second_order_predict(ms, 100, 0.1)
        assert got == pytest.approx(
            100 * ms.mean + math.sqrt(100 * ms.variance) * q_inv(0.1),
            abs=1e-6)

    def test_degenerate_variance(self):
        spec = spectrum(dsbs_source(0.5), "cond_x_given_y")
        with pytest.raises(ZeroVariance):
            second_order_predict(spec.moments(), 10, 0.1)

    def test_shift_scale(self):
        ms = spectrum(dsbs_source(0.25), "cond_x_given_y").moments()
        got = berry_esseen_shift(ms, 25)
        want = 3 * abs(ms.third_central) / (ms.variance * 5) \
            * math.sqrt(25 * ms.variance)
        assert got == pytest.approx(want, abs=1e-12)

    def test_band_brackets_exact_quantile(self):
        spec = send_value_protocol(dsbs_source(0.25)).spectrum("ic")
        finite = 0
        for n in range(1, 31):
            conv = spec.convolve_n(n)
            for eps in (0.05, 0.1, 0.25):
                lo, hi = berry_esseen_band(spec, n, eps)
                assert lo <= conv.eps_tail(eps, "upper") <= hi, (n, eps)
                finite += math.isfinite(lo) and math.isfinite(hi)
        assert finite > 0

    def test_band_formula(self):
        spec = send_value_protocol(dsbs_source(0.25)).spectrum("ic")
        ms = spec.moments()
        abs3 = sum(p * abs(v - ms.mean) ** 3
                   for v, p in zip(spec.values, spec.probs))
        # the absolute third moment, not |E(X - mu)^3|
        assert abs3 > abs(ms.third_central)
        n, eps = 30, 0.25
        d = BERRY_ESSEEN_C0 * abs3 / (ms.variance ** 1.5 * math.sqrt(n))
        lo, hi = berry_esseen_band(spec, n, eps)
        centre, scale = n * ms.mean, math.sqrt(n * ms.variance)
        assert lo == pytest.approx(centre + scale * q_inv(eps + d), abs=1e-9)
        assert hi == pytest.approx(centre + scale * q_inv(eps - d), abs=1e-9)
        # eps - Delta <= 0: no upper end
        assert berry_esseen_band(spec, 1, 0.05)[1] == math.inf
        assert berry_esseen_band(spec, 1, 0.9)[0] == -math.inf

    def test_band_guards(self):
        spec = send_value_protocol(dsbs_source(0.25)).spectrum("ic")
        with pytest.raises(ParameterRange):
            berry_esseen_band(spec, 0, 0.1)
        with pytest.raises(ParameterRange):
            berry_esseen_band(spec, 4, 1.0)
        with pytest.raises(ZeroVariance):
            berry_esseen_band(spectrum(dsbs_source(0.5), "cond_x_given_y"),
                              4, 0.1)


class TestDirectProduct:
    def test_exponent_zero_above_mean(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        assert chernoff_lower_exponent(spec, spec.moments().mean + 1) == 0.0

    def test_chernoff_dominates_exact_tail(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        level = spec.moments().mean - 0.2
        e = chernoff_lower_exponent(spec, level)
        assert e > 0
        for n in (4, 8, 12):
            conv = spec.convolve_n(n)
            exact = float(conv.probs[conv.values <= n * level + 1e-9].sum())
            assert exact <= 2.0 ** (-e * n) + 1e-12

    def test_report(self):
        law = send_value_protocol(dsbs_source(0.25))
        rep = direct_product_thresholds(law.spectrum("ic"), 50, 0.1)
        assert rep.sim_threshold == pytest.approx(50 * (law.ic_mean - 0.1))
        assert 0 < rep.tail_lower_bound < 1
        assert not rep.vacuous

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
    def test_rejects_delta_outside_range(self, delta):
        law = send_value_protocol(dsbs_source(0.25))
        with pytest.raises(ParameterRange, match="delta"):
            direct_product_thresholds(law.spectrum("ic"), 50, delta)


class TestBeta:
    def test_identical_distributions(self):
        p = bernoulli(0.37)
        for eps in (0.0, 0.1, 0.42, 0.9):
            assert beta_eps(p, p, eps) == pytest.approx(1 - eps, abs=1e-12)

    def test_bernoulli_oracle(self):
        # accept the likelier-under-P atom fully, randomize on the other
        got = beta_eps(bernoulli(0.5), bernoulli(0.1), 0.1)
        assert got == pytest.approx(0.82, abs=1e-12)

    def test_monotone_in_eps(self):
        p, q = bernoulli(0.5), bernoulli(0.2)
        vals = [beta_eps(p, q, e) for e in (0.0, 0.1, 0.2, 0.4)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_upper_bound_dominates(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pv = rng.dirichlet(np.ones(4))
            qv = rng.dirichlet(np.ones(4))
            p = FiniteDistribution((0, 1, 2, 3), pv)
            q = FiniteDistribution((0, 1, 2, 3), qv)
            eps = float(rng.uniform(0.0, 0.8))
            lam = float(rng.uniform(-5, 5))
            exact = -math.log2(beta_eps(p, q, eps))
            assert beta_eps_upper(p, q, eps, lam) >= exact - 1e-9

    def test_guard_inf(self):
        # threshold below the whole spectrum leaves no mass above eps
        assert beta_eps_upper(bernoulli(0.5), bernoulli(0.5), 0.1,
                              -10.0) == math.inf

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(ParameterRange, match="finite lam"):
            beta_eps_upper(bernoulli(0.5), bernoulli(0.5), 0.1, lam)
