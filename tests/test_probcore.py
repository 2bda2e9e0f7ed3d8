import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim.errors import MismatchedSupport, OutOfRange, ZeroMassAtom
from icsim.probcore import (
    MERGE_TOL,
    _LOOP_ATOMS,
    _RANK_CHUNK,
    _UNIQUE_LOG_ENTRIES,
    FiniteDistribution,
    JointSource,
    SliceConfig,
    SpectrumTable,
    _repr_key,
    auto_slice_config,
    density_ranks,
    dsbs_source,
    entropy_density,
    log2_each,
    product_source,
    q_func,
    q_inv,
    spectrum,
)
from reference import assert_spectrum_bytes, merge_atoms

# frozen oracle values for DSBS(0.25), all exact to float precision
LOG2_4_3 = 2.0 - math.log2(3.0)           # -log2(3/4)
DSBS_COND_ATOMS = [(LOG2_4_3, 0.75), (2.0, 0.25)]
DSBS_SUM_ATOMS = [(2 * LOG2_4_3, 0.75), (4.0, 0.25)]
DSBS_IC_MEAN = 0.75 * LOG2_4_3 + 0.25 * 2.0


def random_source(rng, nx=3, ny=3):
    mass = rng.random((nx, ny)) + 0.05
    mass /= mass.sum()
    return JointSource(tuple(range(nx)), tuple(range(ny)), mass)


class TestFiniteDistribution:
    def test_validation(self):
        with pytest.raises(MismatchedSupport):
            FiniteDistribution(("a",), np.array([0.5, 0.5]))
        with pytest.raises(OutOfRange):
            FiniteDistribution(("a", "b"), np.array([0.7, 0.7]))
        with pytest.raises(MismatchedSupport):
            FiniteDistribution(("a", "a"), np.array([0.5, 0.5]))

    def test_rejects_nan_mass(self):
        # NaN passes both "p < 0" and "|sum - 1| > tol"
        with pytest.raises(OutOfRange, match="NaN"):
            FiniteDistribution(("a", "b"), np.array([math.nan, 1.0]))

    def test_prob_lookup(self):
        d = FiniteDistribution(("a", "b"), np.array([0.25, 0.75]))
        assert d.prob("b") == 0.75


Pair = namedtuple("Pair", "a b")
_SHARED = (0, 1, 1)


def test_repr_key_equals_repr():
    # one key over all the symbols, so memoized component reprs are reused;
    # 1, 1.0, True and np.int64(1) are equal but have different reprs
    symbols = [
        (), (5,), ((1, 2),), None, "s", 3, 2.5, np.int64(4), np.float64(0.5),
        np.bool_(True), Pair(1, 2), Pair((1,), None), (Pair(1, 2), 3),
        (1, 2), (1.0, 2), (True, 2), (np.int64(1), 2), (-0.0, 0.0),
        ((), (1,), ((2, 3), None)), (_SHARED, _SHARED, (0, 1, 1), None),
        (_SHARED, np.int64(1)), ("a", "b'c", 'd"e'), (Pair(0, 1), Pair(0, 1)),
    ]
    key = _repr_key()
    for s in symbols + symbols:
        assert key(s) == repr(s), s
    mapping = dict.fromkeys(symbols[1:], 1)  # equal symbols collapse
    law = FiniteDistribution.from_mapping(
        {s: 1 / len(mapping) for s in mapping})
    assert law.symbols == tuple(sorted(mapping, key=repr))


class TestJointSource:
    def test_dsbs_marginals(self):
        src = dsbs_source(0.25)
        assert np.allclose(src.p_x, [0.5, 0.5])
        assert np.allclose(src.p_y, [0.5, 0.5])
        assert np.allclose(src.p_x_given_y, [[0.75, 0.25], [0.25, 0.75]])

    def test_json_round_trip(self):
        src = random_source(np.random.default_rng(0))
        back = JointSource.from_json(src.to_json())
        assert np.allclose(back.mass, src.mass)
        assert back.x_alphabet == src.x_alphabet

    def test_sample_matches_mass(self):
        src = dsbs_source(0.25)
        rng = np.random.default_rng(7)
        xi, yj = src.sample(rng, size=200_000)
        emp = np.zeros((2, 2))
        np.add.at(emp, (xi, yj), 1.0)
        emp /= emp.sum()
        assert np.abs(emp - src.mass).max() < 0.005

    def test_rejects_nan_mass(self):
        with pytest.raises(OutOfRange, match="NaN"):
            JointSource.from_json({"x_alphabet": [0, 1], "y_alphabet": [0, 1],
                                   "mass": [[math.nan, 0.5], [0.25, 0.25]]})

    @pytest.mark.parametrize("key", ["x_alphabet", "y_alphabet"])
    def test_rejects_duplicate_symbols(self, key):
        doc = {"x_alphabet": [0, 1], "y_alphabet": [0, 1],
               "mass": [[0.25, 0.25], [0.25, 0.25]], key: [0, 0]}
        with pytest.raises(MismatchedSupport, match="duplicate symbols"):
            JointSource.from_json(doc)

    def test_json_freezes_nested_lists(self):
        src = JointSource.from_json({
            "x_alphabet": [[[0]], [[1]]], "y_alphabet": [0, [1, [2]]],
            "mass": [[0.25, 0.25], [0.25, 0.25]]})
        assert src.x_alphabet == (((0,),), ((1,),))
        assert src.y_alphabet == (0, (1, (2,)))
        assert src.prob(((1,),), (1, (2,))) == 0.25

    def test_product_source(self):
        base = dsbs_source(0.25)
        prod = product_source(base, 2)
        assert len(prod.x_alphabet) == 4
        assert np.allclose(prod.mass, np.kron(base.mass, base.mass))


class TestDensities:
    def test_dsbs_cond_atoms(self):
        src = dsbs_source(0.25)
        assert entropy_density(src, "cond_x_given_y", 0, 0) == \
            pytest.approx(LOG2_4_3, abs=1e-15)
        assert entropy_density(src, "cond_x_given_y", 0, 1) == \
            pytest.approx(2.0, abs=1e-15)
        assert entropy_density(src, "joint", 0, 1) == pytest.approx(3.0)

    def test_zero_mass_raises(self):
        src = JointSource((0, 1), (0, 1),
                          np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(ZeroMassAtom):
            entropy_density(src, "joint", 0, 1)

    def test_mutual_is_difference_of_entropies(self):
        # i(x ^ y) = h(x) - h(x|y) pointwise
        rng = np.random.default_rng(3)
        for _ in range(20):
            src = random_source(rng)
            for x in src.x_alphabet:
                for y in src.y_alphabet:
                    hx = -math.log2(src.p_x[src.x_index[x]])
                    hxy = entropy_density(src, "cond_x_given_y", x, y)
                    assert entropy_density(src, "mutual", x, y) == \
                        pytest.approx(hx - hxy, abs=1e-12)

    def test_sum_is_sum_of_conditionals(self):
        src = random_source(np.random.default_rng(5))
        for x in src.x_alphabet:
            for y in src.y_alphabet:
                expect = (entropy_density(src, "cond_x_given_y", x, y)
                          + entropy_density(src, "cond_y_given_x", x, y))
                assert entropy_density(src, "sum", x, y) == \
                    pytest.approx(expect, abs=1e-12)


class TestSpectrum:
    def test_dsbs_cond_spectrum(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        assert spec.values == pytest.approx([v for v, _ in DSBS_COND_ATOMS])
        assert spec.probs == pytest.approx([p for _, p in DSBS_COND_ATOMS])

    def test_dsbs_sum_spectrum(self):
        spec = spectrum(dsbs_source(0.25), "sum")
        assert spec.values == pytest.approx([v for v, _ in DSBS_SUM_ATOMS])
        assert spec.probs == pytest.approx([p for _, p in DSBS_SUM_ATOMS])

    def test_rejects_nan_mass(self):
        with pytest.raises(OutOfRange, match="NaN"):
            SpectrumTable(np.array([1.0, 2.0]), np.array([math.nan, 0.5]))

    def test_tail_conventions(self):
        spec = SpectrumTable(np.array([1.0, 2.0, 3.0]),
                             np.array([0.5, 0.3, 0.2]))
        assert spec.tail_prob(1.5) == pytest.approx(0.5)
        # lower: min value whose tail is <= eps
        assert spec.eps_tail(0.2, "lower") == 2.0
        assert spec.eps_tail(0.5, "lower") == 1.0
        assert spec.eps_tail(0.0, "lower") == 3.0
        # upper: min value whose tail is strictly < eps
        assert spec.eps_tail(0.2, "upper") == 3.0
        assert spec.eps_tail(0.21, "upper") == 2.0
        assert spec.eps_tail(0.0, "upper") == math.inf
        # weak variant: sup over tails >= level
        assert spec.sup_tail_at_least(0.2) == 3.0
        assert spec.sup_tail_at_least(0.20001) == 2.0
        assert spec.sup_tail_at_least(0.9) == 1.0

    def test_merge_close_atoms(self):
        spec = SpectrumTable.from_atoms([1.0, 1.0 + 1e-14, 2.0],
                                        [0.25, 0.25, 0.5])
        assert spec.values.size == 2
        assert spec.probs[0] == pytest.approx(0.5)

    def test_convolve_and_mix_match_reference_merge(self):
        a = spectrum(dsbs_source(0.3), "cond_x_given_y")
        b = spectrum(product_source(dsbs_source(0.2), 2), "sum")
        out = a
        for _ in range(6):
            v = (out.values[:, None] + a.values[None, :]).ravel()
            p = (out.probs[:, None] * a.probs[None, :]).ravel()
            nxt = out.convolve(a)
            assert_spectrum_bytes(nxt, v, p, merge_tol=1e-9)
            out = nxt
        assert out.values.tobytes() == a.convolve_n(7).values.tobytes()
        assert_spectrum_bytes(a.mix(b, 0.3),
                              np.concatenate([a.values, b.values]),
                              np.concatenate([a.probs * 0.3, b.probs * 0.7]))

    def test_convolution_oracle(self):
        # two-fold DSBS(0.25) conditional-sum density, worked by hand
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y").convolve(
            spectrum(dsbs_source(0.25), "cond_x_given_y"))
        assert spec.values == pytest.approx(
            [2 * LOG2_4_3, LOG2_4_3 + 2.0, 4.0])
        assert spec.probs == pytest.approx([0.5625, 0.375, 0.0625])

    def test_product_source_spectrum_is_convolution(self):
        base = dsbs_source(0.3)
        conv = spectrum(base, "cond_x_given_y").convolve_n(3)
        prod = spectrum(product_source(base, 3), "cond_x_given_y")
        assert prod.values == pytest.approx(conv.values, abs=1e-9)
        assert prod.probs == pytest.approx(conv.probs, abs=1e-12)

    @pytest.mark.parametrize("kind", ["joint", "cond_x_given_y",
                                      "cond_y_given_x", "sum", "mutual"])
    def test_source_spectrum_matches_density_loop(self, kind):
        # the spectrum of every kind equals, bit for bit, the one built
        # from entropy_density at each (x, y) of positive mass in order,
        # on sources with and without zero cells
        skewed = np.random.default_rng(8).random((25, 37))
        skewed[[0, 2, 4], [1, 6, 0]] = 0.0
        skewed[3] = 0.0
        sources = [dsbs_source(0.11), product_source(dsbs_source(0.11), 3),
                   JointSource(tuple(range(25)), tuple(range(37)),
                               skewed / skewed.sum()),
                   dsbs_source(0.0)]
        for src in sources:
            vals, probs = [], []
            for i, x in enumerate(src.x_alphabet):
                for j, y in enumerate(src.y_alphabet):
                    if src.mass[i, j] > 0:
                        vals.append(entropy_density(src, kind, x, y))
                        probs.append(float(src.mass[i, j]))
            ref = SpectrumTable.from_atoms(vals, probs)
            spec = spectrum(src, kind)
            assert spec.values.tobytes() == ref.values.tobytes()
            assert spec.probs.tobytes() == ref.probs.tobytes()

    def test_moments(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        ms = spec.moments()
        assert ms.mean == pytest.approx(DSBS_IC_MEAN, abs=1e-12)
        var = 0.75 * (LOG2_4_3 - ms.mean) ** 2 + 0.25 * (2 - ms.mean) ** 2
        assert ms.variance == pytest.approx(var, abs=1e-12)

    def test_mix_and_scale(self):
        a = SpectrumTable(np.array([0.0]), np.array([1.0]))
        b = SpectrumTable(np.array([1.0]), np.array([1.0]))
        m = a.mix(b, 0.25)
        assert m.probs == pytest.approx([0.25, 0.75])
        assert b.scale(3.0).values == pytest.approx([3.0])

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
           st.floats(0.0, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_tail_order_property(self, weights, eps):
        probs = np.array(weights) / sum(weights)
        vals = np.arange(len(weights), dtype=float)
        spec = SpectrumTable(vals, probs)
        lo = spec.eps_tail(eps, "lower")
        hi = spec.eps_tail(eps, "upper")
        assert lo <= hi
        assert spec.tail_prob(lo) <= eps + 1e-9
        if math.isfinite(hi):
            assert spec.tail_prob(hi) < eps + 1e-9


def _masses(rng, n):
    p = rng.random(n) + 0.01
    return p / p.sum()


def _from_atoms_cases():
    rng = np.random.default_rng(7)
    tol = MERGE_TOL
    cases = {}
    # values within a hair of the tolerance from each other, near 0, 1, 1000
    for base in (0.0, 1.0, 1000.0):
        v = base + tol * np.array([0.0, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0,
                                   2 + 1e-6, 0.5, 3.0 - 1e-9, 3.0])
        cases[f"near-ties-{base:g}"] = (v, _masses(rng, v.size))
    # neighbours 0.4 tol apart: the chain spans 4.4 tol, so only the rule
    # "within tol of the group's first value" splits it, into four groups
    v = 5.0 + 0.4 * tol * np.arange(12)
    cases["chain"] = (rng.permutation(v), _masses(rng, v.size))
    # equal values, different masses: the mass order sets the sums' order
    v = np.array([2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
    cases["equal-values"] = (v, _masses(rng, v.size))
    v = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 1.0])
    cases["signed-zero"] = (v, np.full(v.size, 1 / 6))
    cases["signed-zero-masses"] = (v, _masses(rng, v.size))
    cases["one-atom"] = (np.array([3.5]), np.array([1.0]))
    # integer values, as region sources give
    cases["integers"] = (np.array([4, 2, 4, 1]), np.full(4, 0.25))
    # a grid of values, each jittered within a few tolerances
    grid = rng.integers(0, 20, 400) / 7.0
    v = grid + tol * rng.integers(-3, 4, 400) * rng.choice([0.3, 0.7], 400)
    cases["jittered-grid"] = (v, _masses(rng, v.size))
    # three values, a hundred masses each: the order of each sum sets its
    # last bits
    v = rng.integers(0, 3, 300).astype(float)
    cases["three-values"] = (v, _masses(rng, v.size))
    return cases


FROM_ATOMS_CASES = _from_atoms_cases()


class TestFromAtoms:
    """``SpectrumTable.from_atoms`` gives the bytes of the reference merge."""

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    @pytest.mark.parametrize("name", sorted(FROM_ATOMS_CASES))
    def test_matches_reference_merge(self, name, as_list):
        values, probs = FROM_ATOMS_CASES[name]
        if as_list:
            values, probs = values.tolist(), probs.tolist()
        assert_spectrum_bytes(SpectrumTable.from_atoms(values, probs),
                              values, probs)

    @pytest.mark.parametrize("name", sorted(FROM_ATOMS_CASES))
    def test_vectorized_pass_matches_reference_merge(self, name):
        # each case's atoms repeated past the loop's size, masses split
        values, probs = FROM_ATOMS_CASES[name]
        reps = _LOOP_ATOMS // len(values) + 2
        values = np.tile(np.asarray(values, dtype=float), reps)
        probs = np.tile(np.asarray(probs, dtype=float), reps) / reps
        assert values.size > _LOOP_ATOMS
        assert_spectrum_bytes(SpectrumTable.from_atoms(values, probs),
                              values, probs)

    @pytest.mark.parametrize("tiled", [False, True], ids=["few", "tiled"])
    @pytest.mark.parametrize("name", sorted(FROM_ATOMS_CASES))
    def test_from_ranks_is_from_atoms_on_the_ranked_values(self, name, tiled):
        # each case as distinct values and ranks, at its own size and tiled
        # past the loop's; the cases with one mass per group take the
        # bincount, the others the integer-key sort or from_atoms
        values, probs = FROM_ATOMS_CASES[name]
        values, probs = np.asarray(values, float), np.asarray(probs, float)
        if tiled:
            reps = _LOOP_ATOMS // len(values) + 2
            values, probs = np.tile(values, reps), np.tile(probs, reps) / reps
        distinct, rank = np.unique(values, return_inverse=True)
        got = SpectrumTable.from_ranks(distinct, rank, probs)
        want = SpectrumTable.from_atoms(distinct[rank], probs)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.probs.tobytes() == want.probs.tobytes()

    def test_chain_is_split_at_the_group_anchor(self):
        values, probs = FROM_ATOMS_CASES["chain"]
        assert np.all(np.diff(np.sort(values)) <= MERGE_TOL)
        spec = SpectrumTable.from_atoms(values, probs)
        assert spec.values.size == 4
        assert spec.values.tobytes() == merge_atoms(values, probs)[0].tobytes()

    def test_coarse_tolerance(self):
        values, probs = FROM_ATOMS_CASES["jittered-grid"]
        values = values + 1e-10 * (np.arange(values.size) % 3)
        assert_spectrum_bytes(
            SpectrumTable.from_atoms(values, probs, merge_tol=1e-9),
            values, probs, merge_tol=1e-9)

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_negative_mass_raises(self, as_list):
        values, probs = np.array([2.0, 1.0, 3.0]), np.array([0.7, 0.5, -0.2])
        if as_list:
            values, probs = values.tolist(), probs.tolist()
        with pytest.raises(OutOfRange, match="negative spectrum mass"):
            merge_atoms(values, probs)
        with pytest.raises(OutOfRange, match="negative spectrum mass"):
            SpectrumTable.from_atoms(values, probs)

    def test_shape_errors(self):
        with pytest.raises(MismatchedSupport):
            SpectrumTable.from_atoms([1.0, 2.0], [1.0])
        with pytest.raises(OutOfRange, match="at least one atom"):
            SpectrumTable.from_atoms([], [])


def _log2_map(p):
    return np.array([math.log2(v) for v in p.tolist()])


def _log2_inputs(n):
    """``n`` entries with few distinct values, the conditionals P(x | y)
    of a product source, and ``n`` all distinct, in random order.  The
    conditionals are 6 values in exact arithmetic but 48 floats, which
    differ in their last bits and each keep their own logarithm."""
    rng = np.random.default_rng(n)
    cond = product_source(dsbs_source(0.11), 5).p_x_given_y.ravel()
    few = rng.permutation(np.tile(cond, n // cond.size + 1)[:n])
    return {"few": few, "distinct": rng.random(n) + 1e-3}


_LOG2_SIZES = [1, _UNIQUE_LOG_ENTRIES - 1, _UNIQUE_LOG_ENTRIES,
               _UNIQUE_LOG_ENTRIES + 1, 5 * _UNIQUE_LOG_ENTRIES + 3]


class TestLog2Each:
    """``log2_each`` has the bits of ``math.log2`` entry by entry, on both
    sides of the size past which it takes each distinct value once."""

    @pytest.mark.parametrize("kind", ["few", "distinct"])
    @pytest.mark.parametrize("n", _LOG2_SIZES)
    def test_bits_of_the_per_entry_map(self, n, kind):
        p = _log2_inputs(n)[kind]
        got = log2_each(p)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == _log2_map(p).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.0, -0.25])
    @pytest.mark.parametrize("n", _LOG2_SIZES)
    def test_raises_as_the_map_does(self, n, bad):
        p = _log2_inputs(n)["few"].copy()
        p[n // 2] = bad
        with pytest.raises(Exception) as want:
            _log2_map(p)
        with pytest.raises(want.type):
            log2_each(p)

    @pytest.mark.parametrize("kind", ["few", "distinct"])
    @pytest.mark.parametrize("n", _LOG2_SIZES + [2 * _RANK_CHUNK + 5])
    def test_density_ranks_have_the_bits_of_the_map(self, n, kind):
        p = _log2_inputs(n)[kind]
        values, rank = density_ranks(p)
        assert (np.diff(values) > 0).all()
        assert rank.dtype.kind == "u" and rank.shape == (n,)
        assert values[rank].tobytes() == (-_log2_map(p)).tobytes()

    def test_spectrum_of_a_product_source_takes_the_deduplicated_path(self):
        source = product_source(dsbs_source(0.11), 5)
        assert source.mass.size > _UNIQUE_LOG_ENTRIES
        spec = spectrum(source, "cond_x_given_y")
        i, j = np.nonzero(source.mass > 0)
        want = SpectrumTable.from_atoms(-_log2_map(source.p_x_given_y[i, j]),
                                        source.mass[i, j])
        assert spec.values.tobytes() == want.values.tobytes()
        assert spec.probs.tobytes() == want.probs.tobytes()


class TestSliceConfig:
    def test_boundaries(self):
        cfg = SliceConfig(lambda_min=1.0, lambda_max=5.0, delta=2.0,
                          gamma=3.0)
        assert cfg.n_slices == 2
        assert cfg.slice_of(0.5) == 0
        assert cfg.slice_of(1.0) == 1
        assert cfg.slice_of(2.999) == 1
        assert cfg.slice_of(3.0) == 2
        assert cfg.slice_of(5.0) == 0

    def test_validation(self):
        with pytest.raises(OutOfRange):
            SliceConfig(2.0, 1.0, 1.0, 0.0)
        with pytest.raises(OutOfRange):
            SliceConfig(0.0, 1.0, -1.0, 0.0)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        # NaN passes every ordered comparison's negation, and an infinite
        # range or width has no slice count
        args = [0.0, 2.0, 1.0, 1.0]
        args[field] = bad
        with pytest.raises(OutOfRange, match="finite"):
            SliceConfig(*args)

    def test_tail_mass(self):
        cfg = SliceConfig(0.0, 1.5, 1.0, 0.0)
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        assert cfg.tail_mass(spec) == pytest.approx(0.25)

    def test_auto_config_covers_atoms(self):
        spec = spectrum(dsbs_source(0.25), "cond_x_given_y")
        cfg = auto_slice_config(spec, gamma=3.0)
        for v in spec.values:
            assert cfg.slice_of(float(v)) >= 1
        assert float(cfg.delta).is_integer()


def test_q_inverse():
    assert q_inv(0.5) == pytest.approx(0.0, abs=1e-9)
    assert q_inv(0.1) == pytest.approx(1.2815515655, abs=1e-6)
    for eps in (0.01, 0.1, 0.25, 0.6):
        assert q_func(q_inv(eps)) == pytest.approx(eps, abs=1e-9)
