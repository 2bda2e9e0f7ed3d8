import functools
import importlib.util
import itertools
import json
import math
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from icsim.bounds import (
    protocol3_tv_budget,
    protocol4_tv_budget,
    protocol5_tv_budget,
)
import icsim.cli
from icsim.cli import build_engine
from icsim.errors import OutOfRange, TooLarge
from icsim.evaluate import measure_sim_error
import icsim.simulate
from icsim.hashing import (
    ENUMERATION_CAP,
    HashFamily,
    enumerate_family,
    family_blocks,
    family_size,
    member_blocks,
    pack_hashes,
)
from icsim.probcore import (
    FiniteDistribution,
    JointSource,
    SliceConfig,
    SpectrumTable,
    auto_slice_config,
    dsbs_source,
    product_source,
    spectrum,
)
from icsim.protocol import (
    TranscriptLaw,
    data_exchange_protocol,
    noisy_send_protocol,
    send_value_protocol,
    two_round_protocol,
    xor_reply_protocol,
)
from icsim.simulate import (
    BATCH_BYTES,
    BATCH_CHUNK,
    ERROR_CAUSES,
    ImprovedRoundSimulator,
    InteractiveSWCoder,
    ProtocolSimulator,
    RoundPlan,
    RoundSimulator,
    SlepianWolfCoder,
    _batch_round_chunk,
    _kernel_bytes,
    _pick_slice,
    _round_kernel,
    _round_trials,
    _slice_table,
    _sw_chunk,
    _sw_kernel,
    _unique_rows,
    auto_round_plans,
    batch_round_trials,
    round_density_spectrum,
    run_trials,
)


def sw_coder(l=4, gamma=2.0, q=0.25):
    return SlepianWolfCoder(dsbs_source(q), l, gamma)


def interactive_coder(gamma=3.0, q=0.25):
    cfg = SliceConfig(lambda_min=0.0, lambda_max=2.0 + 1e-9, delta=1.0,
                      gamma=gamma)
    return InteractiveSWCoder(dsbs_source(q), cfg)


def round_sim(k=0, gamma=2.0, q=0.25):
    src = dsbs_source(q)
    law = send_value_protocol(src)
    view = law.round_view(1, ())
    cfg = SliceConfig(lambda_min=0.0, lambda_max=2.0 + 1e-9, delta=1.0,
                      gamma=gamma)
    return RoundSimulator(src, view.p_m_given_x, view.messages, cfg, k)


class TestSlepianWolf:
    def test_transmitter_always_keeps_its_input(self):
        coder = sw_coder()
        agg = run_trials(coder, 200, 1)
        for t in range(50):
            out = coder.run(np.random.default_rng([3, t]))
            assert out.tau_x == out.x
            assert out.bits == coder.l
            assert out.error in (None,) + ERROR_CAUSES
        assert agg.trials == 200

    def test_exact_tv_below_bound(self):
        coder = sw_coder(l=3, gamma=1.0)
        tv = measure_sim_error(coder, "exact").value
        assert 0.0 <= tv <= coder.analytic_error_bound()

    def test_bound_formula(self):
        coder = sw_coder(l=4, gamma=2.0)
        atyp = float(coder.source.mass[~coder.typical].sum())
        assert coder.analytic_error_bound() == pytest.approx(
            atyp + 0.25, abs=1e-12)

    def test_batch_bits_and_mismatches(self):
        coder = sw_coder(l=2, gamma=1.0)
        agg = batch_round_trials(coder, 5_000, 0)
        assert agg.trials == 5_000 and np.all(agg.bits == coder.l)
        # silent wrong decodes count as mismatches, like declared failures
        wrong = sum(n for v, n in agg.views.items() if v[0] != v[1])
        assert agg.mismatches == wrong > sum(agg.errors.values()) > 0

    def test_int_params_enforced(self):
        with pytest.raises(OutOfRange):
            SlepianWolfCoder(dsbs_source(0.25), 2.5, 1.0)

    def test_hash_length_fits_int64(self):
        # hash bits are packed with int64 weights 2^p, which wrap from p = 63
        with pytest.raises(OutOfRange, match="62 bits"):
            SlepianWolfCoder(dsbs_source(0.25), 63, 1.0)
        assert SlepianWolfCoder(dsbs_source(0.25), 62, 1.0).l == 62


class TestInteractive:
    def test_bits_formula(self):
        coder = interactive_coder()
        for t in range(200):
            out = coder.run(np.random.default_rng([9, t]))
            i = out.slice_hit
            assert out.bits == coder.l + (i - 1) * coder.delta + i

    def test_error_below_bound(self):
        coder = interactive_coder(gamma=3.0)
        agg = batch_round_trials(coder, 50_000, 2)
        assert agg.mismatches / agg.trials <= coder.analytic_error_bound()

    def test_batch_bits_in_allowed_set(self):
        coder = interactive_coder()
        agg = batch_round_trials(coder, 20_000, 5)
        allowed = {coder.bits_for_slice(i)
                   for i in range(1, coder.n_slices + 1)}
        assert set(np.unique(agg.bits).tolist()) <= allowed

    def test_exact_view_law_mass_one(self):
        cfg = SliceConfig(0.0, 2.0 + 1e-9, 2.0, 0.0)
        coder = InteractiveSWCoder(dsbs_source(0.25), cfg, l=2)
        law = coder.exact_view_law()
        assert float(law.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_aux_shape_checked(self, shape):
        cfg = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
        aux = np.full(shape, 0.5)
        with pytest.raises(OutOfRange):
            InteractiveSWCoder(dsbs_source(0.25), cfg, aux=aux)
        with pytest.raises(OutOfRange):
            RoundSimulator(dsbs_source(0.25), np.eye(2), (0, 1), cfg, 0,
                           aux.T)


class TestRoundSimulator:
    def test_exact_tv_below_budget(self):
        sim = round_sim(k=1, gamma=1.0)
        tv = measure_sim_error(sim, "exact").value
        assert tv <= protocol3_tv_budget(sim)

    def test_shared_prefix_bit_accounting(self):
        # the first k hash bits are never transmitted
        shared = round_sim(k=2, gamma=2.0)
        for t in range(300):
            out = shared.run(np.random.default_rng([13, t]))
            pos = shared.pos_at(out.slice_hit)
            assert out.bits == max(0, pos - 2) + out.slice_hit
            assert out.bits < pos + out.slice_hit

    def test_k_range_guard(self):
        with pytest.raises(OutOfRange):
            round_sim(k=99)


class TestImprovedRound:
    def make(self, q=0.25, crossover=0.15, gamma=2.0):
        src = dsbs_source(q)
        law = noisy_send_protocol(src, crossover)
        view = law.round_view(1, ())
        rx = SliceConfig(0.0, 3.0 + 1e-9, 1.0, gamma)
        tx = SliceConfig(0.0, 3.0 + 1e-9, 1.0, gamma)
        return ImprovedRoundSimulator(src, view.p_m_given_x, view.messages,
                                      rx, tx)

    def test_tail_index_rejected(self):
        sim = self.make()
        assert not sim.good[0]

    def test_index_cost(self):
        sim = self.make()
        n_tx = sim.cfg_tx.n_slices
        assert sim.j_cost == max(1, math.ceil(math.log2(max(n_tx, 2)))) + 1

    def test_k_clamped(self):
        sim = self.make()
        for j in range(sim.cfg_tx.n_slices + 1):
            k = sim.k_of(j)
            assert 0 <= k <= sim.inner.total_hash_bits

    def test_plugin_tv_below_budget(self):
        sim = self.make()
        agg = batch_round_trials(sim, 60_000, 1)
        est = measure_sim_error(sim, "plugin", master_seed=1, agg=agg)
        assert est.value <= protocol4_tv_budget(sim) + est.ci_halfwidth


class TestProtocolSimulator:
    def make(self, gamma=1.0, l_max=math.inf, k_override=0):
        src = dsbs_source(0.25)
        law = data_exchange_protocol(src)
        rx = SliceConfig(0.0, 2.0, 1.0, gamma)
        tx = SliceConfig(0.0, 1e-9, 1e-9, gamma)
        plans = [RoundPlan(rx, tx)] * 2
        return ProtocolSimulator(law, plans, l_max=l_max,
                                 k_override=k_override)

    def test_errors_are_known_causes(self):
        sim = self.make()
        agg = run_trials(sim, 2_000, 4)
        assert set(agg.errors) <= set(ERROR_CAUSES)

    def test_budget_cap_triggers(self):
        sim = self.make(l_max=3)
        agg = run_trials(sim, 2_000, 4)
        assert agg.errors.get("budget_exceeded", 0) > 0

    def test_forcing_k_zero_never_reduces_bits(self):
        # with the shared prefix disabled every hash bit is transmitted
        free = self.make(gamma=2.0, k_override=None)
        forced = self.make(gamma=2.0, k_override=0)
        a = run_trials(free, 4_000, 8)
        b = run_trials(forced, 4_000, 8)
        assert b.bits.mean() >= a.bits.mean() - 1e-9

    def test_plugin_tv_below_budget(self):
        sim = self.make(gamma=2.0)
        agg = run_trials(sim, 20_000, 6)
        est = measure_sim_error(sim, "plugin", master_seed=6, agg=agg)
        assert est.value <= protocol5_tv_budget(sim) + est.ci_halfwidth

    def test_round_count_matches_plans(self):
        law = data_exchange_protocol(dsbs_source(0.25))
        plans = auto_round_plans(law, gamma=3.0)
        assert len(plans) == law.n_rounds
        with pytest.raises(OutOfRange):
            ProtocolSimulator(law, plans[:1])


def test_round_density_spectrum_mass():
    law = data_exchange_protocol(dsbs_source(0.25))
    for t in (1, 2):
        for side in ("rx", "tx"):
            spec = round_density_spectrum(law, t, side)
            assert float(spec.probs.sum()) == pytest.approx(1.0, abs=1e-9)
    # round 1 receiver density is h(x|y) for the announce-X round
    want = spectrum(dsbs_source(0.25), "cond_x_given_y")
    got = round_density_spectrum(law, 1, "rx")
    assert got.values == pytest.approx(want.values, abs=1e-12)
    assert got.probs == pytest.approx(want.probs, abs=1e-12)


def _spectrum_loop(law, t, side):
    """``round_density_spectrum`` written out: every (message, x, y) atom
    of every history, zero-weight ones skipped."""
    own_is_x = (t % 2 == 1) == (side == "tx")
    vals, probs = [], []
    nx, ny = law.source.mass.shape
    for hist in law.histories(t):
        view = law.round_view(t, hist)
        cond = view.p_m_given_x if own_is_x else view.p_m_given_y
        for a in range(len(view.messages)):
            for i in range(nx):
                for j in range(ny):
                    w = float(view.p_hist_xy[i, j]
                              * view.p_m_given_xy[a, i, j])
                    if w <= 0:
                        continue
                    vals.append(-math.log2(float(cond[i if own_is_x else j,
                                                      a])))
                    probs.append(w)
    return SpectrumTable.from_atoms(vals, probs)


def _two_round_law():
    """Non-dyadic source and channels; message "z" and reply "n" never
    occur."""
    src = JointSource(("a", "b", "c"), (0, 1),
                      np.array([[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]]))
    ch1 = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [1 / 3, 2 / 3, 0.0]])
    ch2 = np.zeros((2, 3, 3))
    ch2[:, :, 0] = [[0.6, 0.9, 1.0], [0.15, 0.5, 1.0]]
    ch2[:, :, 1] = 1.0 - ch2[:, :, 0]
    return two_round_protocol(src, ch1, ("x1", "x2", "z"), ch2,
                              ("p", "q", "n"))


def test_round_density_spectrum_matches_atom_loop():
    law = _two_round_law()
    for t in (1, 2):
        for side in ("tx", "rx"):
            got = round_density_spectrum(law, t, side)
            want = _spectrum_loop(law, t, side)
            assert np.array_equal(got.values, want.values), (t, side)
            assert np.array_equal(got.probs, want.probs), (t, side)


def test_run_trials_reproducible():
    coder = sw_coder()
    a = run_trials(coder, 500, 42)
    b = run_trials(coder, 500, 42)
    assert a.views == b.views
    assert np.array_equal(a.bits, b.bits)


# -- the round rule written out, one trial at a time -------------------------


def _pick(row, u):
    """The first index whose cumulative weight exceeds u times the total."""
    cum = np.cumsum(row)
    return int(np.searchsorted(cum, u * cum[-1], side="right"))


def _hash_bits(inner, block):
    """Hash bits (M, L) of every message under the affine map of ``block``
    (L, w + 1)."""
    return HashFamily(inner.width, inner.total_hash_bits, block[:, :-1],
                      block[:, -1]).apply_bits(inner.enc)


def _string_bits(u, k):
    """The shared string u as k bits; bit p stands for hash bit p."""
    return np.array([(u >> p) & 1 for p in range(k)], dtype=np.uint8)


def _search_rule(inner, hb, slc, m_star, k, u, extra_bits):
    """The receiver's search for one trial, given M*.

    The receiver holds the shared string u in place of M*'s first k hash
    bits and M*'s bits past them.  After i hash blocks it matches the first
    pos_at(i) bits of the messages in its slice i (``slc`` holds each
    message's slice): one match is an ACK, several after slice 1 are
    declared.  Returns ``(decoded, cause, bits)``, decoded None on an error.
    """
    held = np.concatenate([_string_bits(u, k), hb[m_star, k:]])
    for s in range(1, inner.n_slices + 1):
        n = inner.pos_at(s)
        match = [m for m in range(len(slc))
                 if slc[m] == s and np.array_equal(hb[m, :n], held[:n])]
        bits = max(0, n - k) + s + extra_bits
        if len(match) == 1:
            return match[0], None, bits
        if len(match) > 1 and s > 1:
            return None, "multiple_match", bits
    return None, "tail" if slc[m_star] == 0 else "no_match", bits


def _prefix_weights(hb, p_row, restrict, k, u):
    """P(m|x) on the restricted messages whose first k hash bits are u."""
    return p_row * (restrict & np.all(hb[:, :k] == _string_bits(u, k),
                                      axis=1))


def _round_rule(inner, p_row, restrict, slc, block, k, u, u_m, extra_bits):
    """One round of the hash-based simulator for one trial.

    ``inner`` supplies the message encoding and the hash schedule.  The
    transmitter's message row ``p_row``, the ``restrict`` mask and the
    receiver's slice of each message ``slc`` are the round's tables at this
    trial.  M* is sampled with the uniform ``u_m`` from the prefix weights,
    or is the first supported restricted message when they are all zero.
    Returns ``(m_star, decoded, cause, bits)``.
    """
    hb = _hash_bits(inner, block)
    w = _prefix_weights(hb, p_row, restrict, k, u)
    if w.sum() > 0:
        m_star = _pick(w, u_m)
    else:
        supported = np.nonzero(restrict & (p_row > 0))[0]
        m_star = int(supported[0]) if supported.size else 0
    return (m_star,) + _search_rule(inner, hb, slc, m_star, k, u, extra_bits)


def _improved_rule(eng, s_tx, slc, block, jj, u, u_m):
    """An engine 4 round for one trial whose slice index is ``jj``: a
    rejected index costs ``j_cost`` bits, else the round rule runs on the
    messages of slice ``jj`` with k(jj) shared bits."""
    if not eng.good[jj]:
        return None, None, "bad_J", eng.j_cost
    k = eng.k_of(jj)
    return _round_rule(eng.inner, eng.inner.p_m_given_x[s_tx],
                       eng.slice_tx[:, s_tx] == jj, slc, block, k,
                       u & ((1 << k) - 1), u_m, eng.j_cost)


def _draw_strings(rng, ks):
    """One shared string of max(ks) bits per trial, or zeros."""
    k_max = max(ks, default=0)
    if not k_max:
        return [0] * len(ks)
    return rng.integers(0, 1 << k_max, size=len(ks), dtype=np.int64).tolist()


# -- engines 2 to 4: the trial path against the rule -------------------------


def _round_oracle(engine, seed, T):
    """Per trial (view, bits, cause) of T trials on ``default_rng(seed)``.

    The draws follow the batch path's order: the source pairs, the hash
    blocks, on engine 4 the J uniforms, one shared string per trial, the M*
    uniforms.  Each trial then runs the rule written out above.
    """
    improved = isinstance(engine, ImprovedRoundSimulator)
    inner = getattr(engine, "inner", engine)
    rng = np.random.default_rng(seed)
    xi, yj = inner.source.sample(rng, size=T)
    blocks = rng.integers(0, 2, size=(T, inner.total_hash_bits,
                                      inner.width + 1), dtype=np.uint8)
    ks = [inner.k] * T
    if improved:
        jj = [_pick(engine.p_j_given_x[i], u)
              for i, u in zip(xi, rng.random(T))]
        ks = [engine.k_of(j) for j in jj]
    us = _draw_strings(rng, ks)
    u_m = rng.random(T)
    msgs = (None,) + tuple(inner.messages)
    xs, ys = inner.source.x_alphabet, inner.source.y_alphabet
    out = []
    for n in range(T):
        i, j = xi[n], yj[n]
        if improved:
            m, d, cause, bits = _improved_rule(
                engine, i, inner.slice_rx[:, j], blocks[n], jj[n], us[n],
                u_m[n])
        else:
            m, d, cause, bits = _round_rule(
                inner, inner.p_m_given_x[i], np.ones(len(msgs) - 1, bool),
                inner.slice_rx[:, j], blocks[n], ks[n],
                us[n] & ((1 << ks[n]) - 1), u_m[n], 0)
        txs = (None, None) if m is None else (
            msgs[m + 1], None if d is None else msgs[d + 1])
        out.append((txs + (xs[i], ys[j]), bits, cause))
    return out


def _noisy_round(k=0, k_override=None, improved=False):
    src = dsbs_source(0.25)
    law = noisy_send_protocol(src, 0.15)
    view = law.round_view(1, ())
    rx = SliceConfig(0.0, 3.0 + 1e-9, 1.0, 1.0)
    if improved:
        # the transmitter tail, -log2 0.15 > 2, is the rejected index 0
        tx = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
        return ImprovedRoundSimulator(src, view.p_m_given_x, view.messages,
                                      rx, tx, k_override=k_override)
    return RoundSimulator(src, view.p_m_given_x, view.messages, rx, k)


@pytest.mark.parametrize("make, outcomes", [
    (lambda: interactive_coder(gamma=1.0), {None, "mismatch"}),
    (lambda: InteractiveSWCoder(
        product_source(dsbs_source(0.2), 2),
        SliceConfig(0.0, 4.0 + 1e-9, 2.0, 0.0)),
     {None, "mismatch", "multiple_match", "tail"}),
    # three messages share slice 1 and often collide on its l = 2 bits
    (lambda: InteractiveSWCoder(
        product_source(dsbs_source(0.2), 2),
        SliceConfig(0.0, 6.0 + 1e-9, 3.0, 0.0), l=2),
     {None, "mismatch", "no_match"}),
    (lambda: round_sim(k=2, gamma=1.0), {None, "mismatch", "no_match"}),
    (lambda: _noisy_round(k=1), {None, "mismatch", "no_match"}),
    (lambda: _noisy_round(improved=True), {None, "mismatch", "bad_J"}),
    (lambda: _noisy_round(k_override=2, improved=True),
     {None, "mismatch", "bad_J", "no_match"}),
], ids=["p2", "p2-dsbs2", "p2-dsbs2-l2", "p3-k2", "p3-noisy-k1", "p4-noisy",
        "p4-noisy-k2"])
def test_round_kernel_matches_scalar_seed_for_seed(make, outcomes):
    """The trial path of engines 2 to 4 (the round kernel) against the
    scalar rule written out, trial by trial on the same draws."""
    engine = make()
    T, seed = 1_500, 31
    xi, yj, tx, decoded, cause, bits, _ = _round_trials(
        engine, np.random.default_rng(seed), T)
    inner = getattr(engine, "inner", engine)
    msgs = (None,) + tuple(inner.messages)
    xs, ys = inner.source.x_alphabet, inner.source.y_alphabet
    seen = set()
    for n, want in enumerate(_round_oracle(engine, seed, T)):
        c = int(cause[n])
        got = ((msgs[tx[n] + 1], msgs[decoded[n] + 1], xs[xi[n]], ys[yj[n]]),
               int(bits[n]), None if c == 0 else ERROR_CAUSES[c - 1])
        assert got == want, n
        view, _, error = want
        seen.add("mismatch" if error is None and view[0] != view[1]
                 else error)
    # the trials reach the outcomes the instance is meant to cover
    assert outcomes <= seen
    # the scalar run is one trial of the same path, on (x, y) when given
    for s in range(100):
        out = engine.run(np.random.default_rng(s))
        assert (out.view, out.bits, out.error) == _round_oracle(engine, s, 1)[0]
        given = engine.run(np.random.default_rng(s), x=xs[s % len(xs)],
                           y=ys[-1])
        assert (given.x, given.y) == (xs[s % len(xs)], ys[-1])


def _round_law(sim):
    """Engine 3's exact view law from the rule: every live (x, y), hash
    family, shared string u and message M* that u can pick."""
    src = sim.source
    n_fam = family_size(sim.width, sim.total_hash_bits)
    acc = Counter()
    everything = np.ones(len(sim.messages), dtype=bool)
    for fam in enumerate_family(sim.width, sim.total_hash_bits):
        hb = fam.apply_bits(sim.enc)
        for i, j in zip(*np.nonzero(src.mass > 0)):
            p_row, slc = sim.p_m_given_x[i], sim.slice_rx[:, j]
            for u in range(1 << sim.k):
                w = _prefix_weights(hb, p_row, everything, sim.k, u)
                base = src.mass[i, j] / n_fam / 2 ** sim.k
                picks = ([(m, base * w[m] / w.sum()) for m in np.nonzero(w)[0]]
                         if w.sum() > 0 else
                         [(int(np.nonzero(p_row > 0)[0][0]), base)])
                for m, p in picks:
                    d = _search_rule(sim, hb, slc, m, sim.k, u, 0)[0]
                    acc[(sim.messages[m], None if d is None
                         else sim.messages[d], src.x_alphabet[i],
                         src.y_alphabet[j])] += p
    return acc


@pytest.mark.parametrize("make, dyadic", [
    (lambda: round_sim(k=1, gamma=1.0), True),
    (lambda: round_sim(k=2, gamma=1.0), True),
    (lambda: _noisy_round(k=1), False),
    (lambda: InteractiveSWCoder(dsbs_source(0.25),
                                SliceConfig(0.0, 2.0 + 1e-9, 2.0, 0.0),
                                l=2).inner, True),
], ids=["p3-k1", "p3-k2", "p3-noisy-k1", "p2-l2"])
def test_round_exact_law_matches_rule(make, dyadic):
    sim = make()
    law = sim.exact_view_law()
    ref = _round_law(sim)
    assert set(law.symbols) == set(ref)
    got = np.array([law.prob(v) for v in ref])
    want = np.array(list(ref.values()))
    if dyadic:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("make", [
    lambda: sw_coder(l=3, gamma=1.0),
    lambda: interactive_coder(gamma=1.0),
    lambda: round_sim(k=1, gamma=1.0),
    lambda: _noisy_round(k_override=2, improved=True),
], ids=["p1", "p2", "p3-k1", "p4-noisy-k2"])
def test_run_trials_is_batch_round_trials(make):
    engine = make()
    a = run_trials(engine, 30_000, 0)
    b = batch_round_trials(engine, 30_000, 0)
    assert a.views == b.views and np.array_equal(a.bits, b.bits)
    assert a.errors == b.errors and a.mismatches == b.mismatches
    assert a.mismatches > 0
    # the batch trials sample the exact law: plug-in tv near the exact tv
    if hasattr(engine, "exact_view_law"):
        plug = measure_sim_error(engine, "plugin", master_seed=0, agg=a)
        exact = measure_sim_error(engine, "exact")
        assert abs(plug.value - exact.value) <= plug.ci_halfwidth + 0.02


# -- engine 5: the batch path against the rule chained over rounds ----------


def criterion7_sim(law=None, l_max=math.inf, k_override=0):
    """The criterion-7 instance: deterministic target, k = 0 rounds."""
    law = law or data_exchange_protocol(dsbs_source(0.25))
    rx = SliceConfig(0.0, 2.0, 1.0, 0.5)
    tx = SliceConfig(0.0, 1e-9, 1e-9, 0.5)
    return ProtocolSimulator(law, [RoundPlan(rx, tx)] * 2, l_max=l_max,
                             k_override=k_override)


def _history_engines(sim):
    """Engine 4 of every (round, history) of ``sim``, keyed by (t, hist):
    the reference for engine 5's round tables, built one history at a time
    from the law's round views on the round's message universe.

    The speaker is always "x" (the source is transposed in even rounds);
    its slice-index prior is its history-conditional input marginal, and
    the listener slices its history-conditional law of the message.
    """
    law, engines = sim.law, {}
    for t, plan in enumerate(sim.plans, start=1):
        universe = law.round_messages(t)
        index = {m: a for a, m in enumerate(universe)}
        src = law.source if t % 2 else JointSource(
            law.source.y_alphabet, law.source.x_alphabet, law.source.mass.T)
        for hist in law.histories(t):
            view = law.round_view(t, hist)
            own = (view.p_m_given_x, view.p_m_given_y)
            own = own if t % 2 else own[::-1]
            p_tx, p_rx = (np.zeros((len(p), len(universe))) for p in own)
            cols = [index[m] for m in view.messages]
            p_tx[:, cols], p_rx[:, cols] = own
            hist_tx = view.p_hist_xy.sum(axis=1 if t % 2 else 0)
            engines[(t, hist)] = ImprovedRoundSimulator(
                src, p_tx, universe, plan.rx, plan.tx,
                k_override=sim.k_override, aux_m_given_y=p_rx,
                prior_x=hist_tx / hist_tx.sum())
    return engines


def _chain_oracle(sim, rng, T, blocks=None):
    """Per trial (view, bits, cause) of ``sim.run_batch(rng, T, blocks)``.

    The draws follow ``run_batch``'s order: the source pairs, then per
    round, for the trials still running, the hash blocks (unless given),
    the J uniforms, one shared string per trial and the M* uniforms.  Each
    party keeps its own history: the transmitter appends M*, the receiver
    what it decoded, and each looks up its round tables by that history.
    A trial stops at an unknown history (no_match), at a round's error or
    once its bits exceed ``l_max``.
    """
    engines = _history_engines(sim)
    xi, yj = sim.src.sample(rng, size=T)
    trials = [{"sym": (i, j), "hist": [(), ()], "bits": 0, "cause": None,
               "rounds": 0} for i, j in zip(xi, yj)]
    live = list(range(T))
    for t in range(1, sim.law.n_rounds + 1):
        tx = 1 - t % 2  # party x speaks in odd rounds
        engs = {}
        for n in live:
            hist = trials[n]["hist"]
            pair = (engines.get((t, hist[tx])),
                    engines.get((t, hist[1 - tx])))
            if None in pair:
                trials[n]["cause"] = "no_match"
            engs[n] = pair
        live = [n for n in live if trials[n]["cause"] is None]
        inner = sim.tables[t - 1].inner
        blk = (rng.integers(0, 2, dtype=np.uint8, size=(
            len(live), inner.total_hash_bits, inner.width + 1))
            if blocks is None else blocks[t - 1][live])
        jj = [_pick(engs[n][0].p_j_given_x[trials[n]["sym"][tx]], u)
              for n, u in zip(live, rng.random(len(live)))]
        us = _draw_strings(rng, [engs[n][0].k_of(j)
                                 for n, j in zip(live, jj)])
        u_m = rng.random(len(live))
        for a, n in enumerate(live):
            trial = trials[n]
            e_tx, e_rx = engs[n]
            s_tx, s_rx = trial["sym"][tx], trial["sym"][1 - tx]
            m, d, cause, bits = _improved_rule(
                e_tx, s_tx, e_rx.inner.slice_rx[:, s_rx], blk[a], jj[a],
                us[a], u_m[a])
            trial["bits"] += bits
            if cause is None and trial["bits"] > sim.l_max:
                cause = "budget_exceeded"
            trial["cause"] = cause
            if cause is None:
                trial["hist"][tx] += (e_tx.messages[m],)
                trial["hist"][1 - tx] += (e_tx.messages[d],)
                trial["rounds"] = t
        live = [n for n in live if trials[n]["cause"] is None]
    xs, ys = sim.src.x_alphabet, sim.src.y_alphabet
    return [(((None, None) if tr["cause"] else tuple(tr["hist"]))
             + (xs[tr["sym"][0]], ys[tr["sym"][1]]), tr["bits"], tr["cause"],
             tr["rounds"]) for tr in trials]


def _blocks(sim, rng, T):
    """One (T, L, w + 1) hash draw per round, in round order."""
    return [rng.integers(0, 2, dtype=np.uint8, size=(
        T, tab.inner.total_hash_bits, tab.inner.width + 1))
        for tab in sim.tables]


_GIVEN = ("data-exchange", "xor-reply", "l_max=3")


@pytest.mark.parametrize("make, outcomes", [
    (lambda: criterion7_sim(), {None, "mismatch", "tail"}),
    (lambda: criterion7_sim(xor_reply_protocol(dsbs_source(0.25))),
     {None, "mismatch", "tail"}),
    (lambda: criterion7_sim(l_max=3), {"budget_exceeded", "tail"}),
    (lambda: TestProtocolSimulator().make(l_max=3), {"budget_exceeded"}),
    (lambda: ProtocolSimulator(
        data_exchange_protocol(dsbs_source(0.25)),
        auto_round_plans(data_exchange_protocol(dsbs_source(0.25)),
                         gamma=0.5), k_override=None), {None, "mismatch"}),
    (lambda: ProtocolSimulator(
        xor_reply_protocol(dsbs_source(0.3)),
        auto_round_plans(xor_reply_protocol(dsbs_source(0.3)), gamma=2.0),
        k_override=0), {None}),
    (lambda: ProtocolSimulator(
        noisy_send_protocol(dsbs_source(0.25), 0.15),
        auto_round_plans(noisy_send_protocol(dsbs_source(0.25), 0.15),
                         gamma=1.0)), {None, "bad_J"}),
], ids=["data-exchange", "xor-reply", "l_max=3", "gamma1-l_max=3",
        "k_override=None", "xor-reply-auto", "noisy-send"])
def test_protocol_batch_matches_scalar_seed_for_seed(make, outcomes,
                                                     request):
    """Engine 5's batch path against the scalar rule chained over rounds,
    trial by trial on the same draws; the criterion-7 instances take their
    hash blocks as given."""
    sim = make()
    T = 1_500
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    blocks = None
    if request.node.callspec.id in _GIVEN:
        blocks = _blocks(sim, rng, T)
        _blocks(sim, ref, T)
    batch = sim.run_batch(rng, T, blocks=blocks)
    seen = set()
    for n, want in enumerate(_chain_oracle(sim, ref, T, blocks)):
        c = int(batch.cause[n])
        got = (sim.view_of(batch.keys[n]), int(batch.bits[n]),
               None if c == 0 else ERROR_CAUSES[c - 1], int(batch.rounds[n]))
        assert got == want, n
        view, _, error, _ = want
        seen.add("mismatch" if error is None and view[0] != view[1]
                 else error)
    # the trials reach the outcomes the instance is meant to cover
    assert outcomes <= seen
    assert np.any(batch.cause != 0)
    # the scalar run is one trial of run_batch; slice_hit counts its rounds
    xs, ys = sim.src.x_alphabet, sim.src.y_alphabet
    for s in range(50):
        out = sim.run(np.random.default_rng(s))
        assert (out.view, out.bits, out.error, out.slice_hit) == \
            _chain_oracle(sim, np.random.default_rng(s), 1)[0]
        given = sim.run(np.random.default_rng(s), x=xs[s % len(xs)], y=ys[-1])
        assert given.view[2:] == (xs[s % len(xs)], ys[-1])


def _chain_law(sim):
    """Engine 5's exact view law: the chained rule on every live (x, y) and
    every chain of enumerated hash families, one per round.  Every round
    of the instances is deterministic with k = 0, so the uniforms do not
    matter (0.5 stands in)."""
    fams = [[np.column_stack([f.matrix, f.offset])
             for f in enumerate_family(tab.inner.width,
                                       tab.inner.total_hash_bits)]
            for tab in sim.tables]
    seed_p = 1.0 / math.prod(len(f) for f in fams)
    engines = _history_engines(sim)
    memo = {}

    def step(t, hist, syms, f):
        """Round t of one trial under family f of the round, memoized."""
        tx = 1 - t % 2
        key = (t, hist[tx], hist[1 - tx], syms[tx], syms[1 - tx], f)
        if key not in memo:
            e_tx = engines.get((t, hist[tx]))
            e_rx = engines.get((t, hist[1 - tx]))
            if e_tx is None or e_rx is None:
                memo[key] = (None, None, "no_match", 0, e_tx)
            else:
                j_row = e_tx.p_j_given_x[syms[tx]]
                assert np.count_nonzero(j_row) == 1
                jj = _pick(j_row, 0.5)
                assert not e_tx.good[jj] or e_tx.k_of(jj) == 0
                memo[key] = _improved_rule(
                    e_tx, syms[tx], e_rx.inner.slice_rx[:, syms[1 - tx]],
                    fams[t - 1][f], jj, 0, 0.5) + (e_tx,)
        return memo[key]

    src = sim.src
    acc = Counter()
    for i, j in zip(*np.nonzero(src.mass > 0)):
        x, y = src.x_alphabet[i], src.y_alphabet[j]
        for chain in itertools.product(*(range(len(f)) for f in fams)):
            hist, bits, cause = [(), ()], 0, None
            for t, f in enumerate(chain, start=1):
                m, d, cause, b, e_tx = step(t, hist, (i, j), f)
                bits += b
                if cause is None and bits > sim.l_max:
                    cause = "budget_exceeded"
                if cause is not None:
                    break
                tx = 1 - t % 2
                hist[tx] += (e_tx.messages[m],)
                hist[1 - tx] += (e_tx.messages[d],)
            view = ((None, None) if cause else tuple(hist)) + (x, y)
            acc[view] += src.mass[i, j] * seed_p
    return acc


@pytest.mark.parametrize("make", [
    lambda: criterion7_sim(),
    lambda: criterion7_sim(xor_reply_protocol(dsbs_source(0.25))),
    lambda: criterion7_sim(l_max=3),
], ids=["data-exchange", "xor-reply", "l_max=3"])
def test_protocol_exact_law_matches_chained_rule(make):
    sim = make()
    law = sim.exact_view_law()
    ref = _chain_law(sim)
    assert set(law.symbols) == set(ref)
    # dyadic masses: every sum is exact, whatever its order
    assert np.array_equal([law.prob(v) for v in ref], list(ref.values()))


def test_protocol_exact_guards(monkeypatch):
    with pytest.raises(OutOfRange, match="k = 0"):
        criterion7_sim(k_override=1).exact_view_law()
    noisy = noisy_send_protocol(dsbs_source(0.25), 0.15)
    with pytest.raises(OutOfRange, match="deterministic"):
        ProtocolSimulator(noisy, auto_round_plans(noisy)).exact_view_law()
    # data exchange over dsbs^3: 64 pairs times 2^12 families per round
    big = criterion7_sim(data_exchange_protocol(
        product_source(dsbs_source(0.25), 3)))
    assert big.exact_atom_count() > 1 << 24
    monkeypatch.setattr(ProtocolSimulator, "run_batch", None)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            big.exact_view_law()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_protocol_k_override_none_shares_prefix_bits():
    # the k_override=None instance above really runs rounds with k > 0
    law = data_exchange_protocol(dsbs_source(0.25))
    sim = ProtocolSimulator(law, auto_round_plans(law, gamma=0.5))
    assert all(tab.k_of[tab.good.any(axis=0)].max() > 0
               for tab in sim.tables)


_TABLE_LAWS = {
    **{f"data-exchange-dsbs^{m}:{q}": functools.partial(
        lambda m, q: data_exchange_protocol(
            product_source(dsbs_source(q), m)), m, q)
       for m in (1, 2, 3) for q in (0.25, 0.11)},
    "xor-reply": lambda: xor_reply_protocol(dsbs_source(0.3)),
    "noisy-send": lambda: noisy_send_protocol(dsbs_source(0.25), 0.15),
    "two-round": _two_round_law,
}


def _same_array(a, b):
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(_TABLE_LAWS))
def test_round_tables_match_history_engines(name):
    """Every field of engine 5's round tables, built once per round over
    all histories, equals the stack of one engine 4 per history.  Each
    instance runs with the auto plans and with a fixed transmitter slicing,
    under which the history-conditional priors decide some accepted slice
    indices (round 2 of the two-round law at gamma = 1)."""
    law = _TABLE_LAWS[name]()
    for gamma, k_override, fixed_tx in itertools.product(
            (0.5, 1.0, 2.0, 3.0), (0, None), (False, True)):
        plans = auto_round_plans(law, gamma=gamma)
        if fixed_tx:
            tx = SliceConfig(0.0, 3.0 + 1e-9, 1.0, gamma)
            plans = [RoundPlan(plan.rx, tx) for plan in plans]
        sim = ProtocolSimulator(law, plans, k_override=k_override)
        ref = _history_engines(sim)
        for t, tab in enumerate(sim.tables, start=1):
            hists = law.histories(t)
            engs = [ref[(t, h)] for h in hists]
            n_j = engs[0].good.size
            assert _same_array(tab.p_m, np.stack(
                [e.inner.p_m_given_x for e in engs]))
            assert _same_array(tab.slice_tx, np.stack(
                [e.slice_tx.T for e in engs]))
            assert _same_array(tab.slice_rx, np.stack(
                [e.inner.slice_rx.T for e in engs]))
            assert _same_array(tab.cum_j, np.cumsum(np.stack(
                [e.p_j_given_x for e in engs]), axis=2))
            assert _same_array(tab.good, np.stack([e.good for e in engs]))
            for e in engs:
                assert _same_array(tab.k_of, [e.k_of(j) for j in range(n_j)])
                assert tab.j_cost == e.j_cost
            first, inner = engs[0].inner, tab.inner
            assert inner.messages == first.messages == law.round_messages(t)
            assert (inner.width, inner.l, inner.delta, inner.n_slices,
                    inner.total_hash_bits, inner.chunk) == (
                first.width, first.l, first.delta, first.n_slices,
                first.total_hash_bits, first.chunk)
            assert _same_array(inner.enc, first.enc)
            if t == law.n_rounds:
                assert tab.next is None
                continue
            nxt = {h: a for a, h in enumerate(law.histories(t + 1))}
            assert _same_array(tab.next, np.array(
                [[nxt.get(h + (m,), -1) for m in inner.messages]
                 for h in hists], dtype=np.int64))


def test_protocol_builds_one_round_simulator_per_round(monkeypatch):
    """Engine 5 builds no engine 4 and one engine 3 (the hash schedule)
    per round, however many histories a round has."""
    calls = Counter()
    for cls in (RoundSimulator, ImprovedRoundSimulator):
        def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            calls[_name] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", spy)
    law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
    plans = auto_round_plans(law, gamma=1.0)
    assert len(law.histories(2)) == 4
    ProtocolSimulator(law, plans)
    assert calls == {"RoundSimulator": law.n_rounds}


def test_slice_index_tables_match_scalar_formulas():
    """Engine 4's slice-index tables against the formulas written out per
    entry: P(J | x) sums the messages of slice J in order, p_j weighs it by
    the prior, the tail index and those of prior mass below 1 / n_tx^2 are
    rejected, and k(J) is the floored, clipped min-entropy of slice J."""
    law = noisy_send_protocol(dsbs_source(0.25), 0.15)
    view = law.round_view(1, ())
    for gamma, prior, one_slice in itertools.product(
            (0.5, 1.0, 2.0), (None, np.array([0.8, 0.2])), (False, True)):
        rx = auto_slice_config(round_density_spectrum(law, 1, "rx"), gamma)
        tx = (SliceConfig(0.0, 1e-9, 1e-9, gamma) if one_slice else
              auto_slice_config(round_density_spectrum(law, 1, "tx"), gamma))
        e = ImprovedRoundSimulator(law.source, view.p_m_given_x,
                                   view.messages, rx, tx, prior_x=prior)
        n_tx, (nx, M) = tx.n_slices, view.p_m_given_x.shape
        p_j_x = np.zeros((nx, n_tx + 1))
        for x in range(nx):
            for m in range(M):
                p = view.p_m_given_x[x, m]
                j = tx.slice_of(-math.log2(p)) if p > 0 else 0
                assert e.slice_tx[m, x] == j
                p_j_x[x, j] += p
        assert np.array_equal(e.p_j_given_x, p_j_x)
        w = law.source.p_x if prior is None else prior
        p_j = sum(w[x] * p_j_x[x] for x in range(nx))
        assert np.abs(e.p_j - p_j).max() <= 1e-15
        assert list(e.good) == [j > 0 and p_j[j] >= 1 / n_tx ** 2 - 1e-12
                                for j in range(n_tx + 1)]
        assert e.j_cost == max(1, math.ceil(math.log2(max(n_tx, 2)))) + 1
        for j in range(n_tx + 1):
            raw = (tx.lambda_min + (j - 1) * tx.delta
                   - 2 * math.log2(n_tx) - 2 * gamma + 2)
            assert e.k_of(j) == max(0, min(math.floor(raw),
                                           e.inner.total_hash_bits))


def test_protocol_run_trials_reproducible():
    sim = TestProtocolSimulator().make(gamma=2.0)
    a = run_trials(sim, 3_000, 42)
    b = run_trials(sim, 3_000, 42)
    assert a.views == b.views
    assert np.array_equal(a.bits, b.bits)
    assert a.errors == b.errors and a.mismatches == b.mismatches


# engines 1 to 5 over dsbs^6: 64 x values, and send-x's 64 messages
_BIG = {
    "p1": {"protocol": "p1", "l": 40},
    "p2": {"protocol": "p2"},
    "p3": {"protocol": "p3", "target": "send-x"},
    "p4": {"protocol": "p4", "target": "send-x"},
    "p5": {"protocol": "p5", "target": "send-x", "k_override": 0},
}


def _big(name):
    return build_engine({"source": "dsbs^6:0.11", "gamma": 3.0,
                         **_BIG[name]})


def _bit_then_y():
    """Engine 5 over dsbs^6: x sends its first bit, then y announces y, so
    the second round is the large one."""
    src = product_source(dsbs_source(0.11), 6)
    ny = len(src.y_alphabet)
    bit = np.array([[x[0] == a for a in (0, 1)] for x in src.x_alphabet],
                   dtype=float)
    law = two_round_protocol(src, bit, (0, 1),
                             np.repeat(np.eye(ny)[:, None, :], 2, axis=1),
                             src.y_alphabet)
    return ProtocolSimulator(law, auto_round_plans(law, gamma=3.0),
                             k_override=0)


def _kernels(engine):
    """(M, L, w) of every trial kernel an engine runs."""
    if isinstance(engine, SlepianWolfCoder):
        return [(len(engine.source.x_alphabet), engine.l, engine.width)]
    inners = ([tab.inner for tab in engine.tables]
              if isinstance(engine, ProtocolSimulator)
              else [getattr(engine, "inner", engine)])
    return [(len(i.messages), i.total_hash_bits, i.width) for i in inners]


@pytest.mark.parametrize("name", sorted(_BIG) + ["p5-bit-then-y"])
def test_chunk_shrinks_for_large_rounds(name):
    small = {"p1": sw_coder, "p2": interactive_coder, "p3": round_sim,
             "p4": TestImprovedRound().make}.get(
        name, TestProtocolSimulator().make)()
    assert small.chunk == BATCH_CHUNK
    engine = _bit_then_y() if name == "p5-bit-then-y" else _big(name)
    kernels = _kernels(engine)
    assert max(M for M, _, _ in kernels) == 64
    # one rule: the chunk fits the largest kernel's bytes in BATCH_BYTES
    per_trial = max(_kernel_bytes(*k) for k in kernels)
    assert engine.chunk < BATCH_CHUNK
    assert engine.chunk * per_trial <= BATCH_BYTES \
        < (engine.chunk + 1) * per_trial


@pytest.mark.parametrize("name", ["p1", "p4", "p5"])
def test_chunk_peak_memory_within_batch_bytes(name, monkeypatch):
    budget = 4 << 20
    monkeypatch.setattr(icsim.simulate, "BATCH_BYTES", budget)
    engine = _big(name)
    assert engine.chunk * max(_kernel_bytes(*k)
                              for k in _kernels(engine)) <= budget
    run_trials(engine, 50, 0)  # warm up outside the trace
    tracemalloc.start()
    try:
        agg = run_trials(engine, engine.chunk, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert agg.trials == engine.chunk
    assert peak <= budget


@pytest.mark.parametrize("make", [
    interactive_coder, round_sim, lambda: TestImprovedRound().make(),
], ids=["p2", "p3", "p4"])
def test_round_run_trials_chunks_on_part_streams(make):
    engine = make()
    engine.chunk = 300
    agg = run_trials(engine, 700, 9)
    views, errors, bits = Counter(), Counter(), []
    for part, n in enumerate((300, 300, 100)):
        v, e, b, _ = _batch_round_chunk(engine, n, [9, part])
        views.update(v)
        errors.update(e)
        bits.append(b)
    assert agg.views == views and agg.errors == errors
    assert np.array_equal(agg.bits, np.concatenate(bits))


def test_protocol_run_trials_chunks_on_part_streams():
    sim = TestProtocolSimulator().make(gamma=2.0)
    sim.chunk = 300
    agg = run_trials(sim, 700, 9)
    for part, (lo, hi) in enumerate([(0, 300), (300, 600), (600, 700)]):
        batch = sim.run_batch(np.random.default_rng([9, part]), hi - lo)
        assert np.array_equal(agg.bits[lo:hi], batch.bits)


_TOP = np.nextafter(1.0, 0.0)


def test_pick_slice_never_picks_zero_mass():
    rows = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.3]])
    for u in (0.0, _TOP):
        for row in rows:
            cum = np.cumsum(row)
            got = int(_pick_slice(cum[None], np.array([u]))[0])
            assert row[got] > 0
            assert got == np.searchsorted(cum, u * cum[-1], side="right")


@pytest.mark.parametrize("keys", [
    # engine 5's key rows: -1 messages after an error, many tied rows
    np.random.default_rng(3).integers(-1, 3, size=(2_000, 6)),
    np.array([[2, -1, 0, 1]]),
    np.array([[0, -1], [-1, 0], [0, -1], [-1, -1], [0, 0], [-1, 0]]),
    np.empty((0, 4), dtype=np.int64),
], ids=["ties", "one-row", "signs", "empty"])
def test_unique_rows_matches_np_unique(keys):
    uniq, inverse, counts = _unique_rows(keys)
    ref_uniq, ref_inverse, ref_counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(inverse, ref_inverse.ravel())
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(uniq[inverse], keys)


def test_round_kernel_never_picks_zero_weight_message():
    sim = round_sim(q=0.25)  # send-x: two messages
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.25, 0.75]])
    T, M = 2 * len(rows), len(sim.messages)
    p_rows = np.repeat(rows, 2, axis=0)
    u_m = np.tile([0.0, _TOP], len(rows))
    blocks = np.zeros((T, sim.total_hash_bits, sim.width + 1), np.uint8)
    m_star, *_ = _round_kernel(
        sim, p_rows, np.ones((T, M), dtype=bool),
        np.ones((T, M), dtype=np.int64), np.zeros(T, dtype=np.int64),
        blocks, np.zeros(T, dtype=np.int64), u_m, 0)
    assert p_rows[np.arange(T), m_star].min() > 0
    assert m_star.tolist() == [1, 1, 0, 0, 0, 1]


def test_interactive_coder_is_round_simulator_on_identity():
    cfg = SliceConfig(0.0, 6.0 + 1e-9, 3.0, 0.0)  # l defaults to 3
    src = product_source(dsbs_source(0.2), 2)
    coder = InteractiveSWCoder(src, cfg, l=2)
    inner = coder.inner
    assert inner.k == 0 and inner.l == coder.l == 2
    assert inner.messages == src.x_alphabet
    assert np.array_equal(inner.p_m_given_x, np.eye(len(src.x_alphabet)))
    assert coder.total_hash_bits == 2 + (coder.n_slices - 1) * 3
    assert coder.bits_for_slice(2) == 2 + 3 + 2
    # the seed space: every live (x, y) and hash family, as before; exact
    # mode decodes one per linear part, 2^-L of it
    live = int((src.mass > 0).sum())
    assert coder.exact_atom_count() == live * (
        1 << (coder.total_hash_bits * (inner.width + 1)))


def test_round_exact_atom_count_counts_supported_messages():
    # send-x supports one of two messages per x, noisy-send both
    for sim, per_x in ((round_sim(k=1, gamma=1.0), 1), (_noisy_round(k=1), 2)):
        live = int((sim.source.mass > 0).sum())
        fams = 1 << (sim.total_hash_bits * (sim.width + 1))
        assert sim.exact_atom_count() == live * per_x * fams * 2


def _true_view_law_by_pairs(sim):
    """The round's true view law built one (x, y) pair at a time."""
    xs, ys = sim.source.x_alphabet, sim.source.y_alphabet
    mass, msgs, p = sim.source.mass, sim.messages, sim.p_m_given_x
    return FiniteDistribution.from_mapping(
        {(msgs[m], msgs[m], xs[i], ys[j]): mass[i, j] * p[i, m]
         for i, j in zip(*np.nonzero(mass > 0))
         for m in np.nonzero(p[i] > 0)[0]})


@pytest.mark.parametrize("make", [
    lambda: build_engine({"source": "dsbs^3:0.11", "protocol": "p3",
                          "target": "send-x", "gamma": 3.0}),
    lambda: _noisy_round(k=1),
    lambda: _noisy_round(improved=True),
], ids=["p3-send-x-dsbs3", "p3-noisy", "p4-noisy"])
def test_round_true_view_law_matches_pair_loop(make):
    engine = make()
    law = engine.true_view_law()
    ref = _true_view_law_by_pairs(getattr(engine, "inner", engine))
    assert law.symbols == ref.symbols
    assert law.probs.tobytes() == ref.probs.tobytes()


# -- engine 1: the trial kernel against the scalar reference -----------------


def _p1(source, l, gamma=1.0):
    return SlepianWolfCoder(source, l, gamma)


@pytest.mark.parametrize("make, outcomes", [
    # x = y typical only: a flip is atypical, decoded wrong or a tail
    (lambda: sw_coder(l=2, gamma=1.0), {None, "mismatch", "tail"}),
    # the exact benchmark instance: up to one flip is typical
    (lambda: _p1(product_source(dsbs_source(0.25), 2), 4),
     {None, "mismatch", "multiple_match", "tail"}),
], ids=["dsbs-l2", "dsbs2-l4"])
def test_sw_kernel_matches_scalar_seed_for_seed(make, outcomes):
    """Trial t of the scalar ``run`` draws the pair, then the hash block
    (matrix and offset) from ``default_rng([s, t])``; the replay takes the
    same draws and runs all trials in one kernel call."""
    coder = make()
    T, s = 2_000, 17
    xi = np.empty(T, dtype=np.int64)
    yj = np.empty(T, dtype=np.int64)
    blocks = np.empty((T, coder.l, coder.width + 1), dtype=np.uint8)
    for t in range(T):
        rng = np.random.default_rng([s, t])
        xi[t], yj[t] = coder.source.sample(rng)
        blocks[t] = rng.integers(0, 2, size=(coder.l, coder.width + 1),
                                 dtype=np.uint8)
    decoded, cause = _sw_kernel(coder, xi, yj, pack_hashes(blocks, coder.enc))
    xs, ys = coder.source.x_alphabet, coder.source.y_alphabet
    seen = set()
    for t in range(T):
        out = coder.run(np.random.default_rng([s, t]))
        c = int(cause[t])
        got = ((xs[xi[t]], None if decoded[t] < 0 else xs[decoded[t]],
                xs[xi[t]], ys[yj[t]]), coder.l,
               None if c == 0 else ERROR_CAUSES[c - 1])
        assert got == (out.view, out.bits, out.error), t
        seen.add("mismatch" if out.error is None and out.tau_x != out.tau_y
                 else out.error)
    assert outcomes <= seen
    # a typical x always matches its own hash, so engine 1 never reports
    # no_match: the no-match branch of the rule is unreachable
    assert "no_match" not in seen


def test_sw_batch_runs_chunks_on_part_streams(monkeypatch):
    # chunk part of engine.chunk trials runs on the stream [seed, part]
    monkeypatch.setattr(icsim.simulate, "BATCH_BYTES",
                        300 * _kernel_bytes(2, 3, 1))
    coder = sw_coder(l=3, gamma=1.0)
    assert coder.chunk == 300
    agg = batch_round_trials(coder, 700, 9)
    views, errors, bits = Counter(), Counter(), []
    for part, n in enumerate((300, 300, 100)):
        v, e, b, _ = _sw_chunk(coder, n, [9, part])
        views.update(v)
        errors.update(e)
        bits.append(b)
    assert agg.views == views and agg.errors == errors
    assert np.array_equal(agg.bits, np.concatenate(bits))


def _sw_reference_law(coder):
    """Engine 1's view law from the enumerated families, the scalar
    hashing and the decode rule written out."""
    src = coder.source
    xs, ys = src.x_alphabet, src.y_alphabet
    n_fam = family_size(coder.width, coder.l)
    acc = Counter()
    for fam in enumerate_family(coder.width, coder.l):
        h = fam.apply_packed(coder.enc)
        for i, j in zip(*np.nonzero(src.mass > 0)):
            cands = np.nonzero(coder.typical[:, j])[0]
            match = cands[h[cands] == h[i]]
            decoded = xs[match[0]] if match.size == 1 else None
            acc[(xs[i], decoded, xs[i], ys[j])] += src.mass[i, j] / n_fam
    return acc


@pytest.mark.parametrize("q, m, l, dyadic", [
    (0.25, 1, 3, True), (0.25, 2, 3, True), (0.25, 2, 4, True),
    (0.11, 2, 4, False)])
def test_sw_exact_law_matches_reference(q, m, l, dyadic):
    coder = _p1(product_source(dsbs_source(q), m), l)
    law = coder.exact_view_law()
    ref = _sw_reference_law(coder)
    assert set(law.symbols) == set(ref)
    got = np.array([law.prob(v) for v in ref])
    want = np.array(list(ref.values()))
    if dyadic:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12


def _sw_full_walk(coder):
    """Engine 1's exact view law from a walk of every member of the affine
    family, matrix and offset, in blocks of :func:`family_blocks`: the walk
    that the walk over linear parts replaced, with the same counts and the
    same float operations per view."""
    n_fam = family_size(coder.width, coder.l)
    live_i, live_j = np.nonzero(coder.source.mass > 0)
    P, M = live_i.size, len(coder.source.x_alphabet)
    step = max(1, icsim.simulate.EXACT_BLOCK_BYTES // (
        P * _kernel_bytes(M, coder.l, coder.width)))
    counts = np.zeros((P, M + 1), dtype=np.int64)
    for start in range(0, n_fam, step):
        h = pack_hashes(family_blocks(
            coder.width, coder.l, start, min(start + step, n_fam)), coder.enc)
        n = h.shape[0]
        decoded, _ = _sw_kernel(coder, np.repeat(live_i, n),
                                np.repeat(live_j, n), np.tile(h, (P, 1)))
        counts += np.bincount(
            np.repeat(np.arange(P), n) * (M + 1) + decoded + 1,
            minlength=P * (M + 1)).reshape(P, M + 1)
    xs, ys = coder.source.x_alphabet, coder.source.y_alphabet
    acc = {}
    for p, (i, j) in enumerate(zip(live_i, live_j)):
        w = float(coder.source.mass[i, j])
        for d in np.nonzero(counts[p])[0]:
            acc[(xs[i], None if d == 0 else xs[d - 1], xs[i], ys[j])] = \
                w * int(counts[p, d]) / n_fam
    return FiniteDistribution.from_mapping(acc)


def _round_full_walk(sim):
    """Engine 3's exact view law from a walk of every member of the affine
    family, one row per (family, shared string u, live pair, supported
    message), each weighing its pair's mass over the family size and 2^k."""
    L, k, M = sim.total_hash_bits, sim.k, len(sim.messages)
    n_fam = family_size(sim.width, L)
    strings = ((np.arange(1 << k)[:, None] >> (k - 1 - np.arange(k))) & 1
               ) @ (1 << np.arange(k, dtype=np.int64))
    live_i, live_j = np.nonzero(sim.source.mass > 0)
    support = sim.p_m_given_x[live_i] > 0
    support[~support.any(axis=1), 0] = True
    pair, m = np.nonzero(support)
    first = np.r_[True, pair[1:] != pair[:-1]]
    i, j = live_i[pair], live_j[pair]
    base = sim.source.mass[i, j] * (1.0 / n_fam) * 2.0 ** (-k)
    step = max(1, icsim.simulate.EXACT_BLOCK_BYTES // (
        strings.size * pair.size * _kernel_bytes(M, L, sim.width)))
    sums: dict = {}
    for start in range(0, n_fam, step):
        hs = pack_hashes(family_blocks(
            sim.width, L, start, min(start + step, n_fam)), sim.enc)
        f, s, c = (a.ravel() for a in np.indices(
            (hs.shape[0], strings.size, pair.size)))
        h, u, mc, rows = hs[f], strings[s], m[c], np.arange(f.size)
        wt = sim.p_m_given_x[i[c]] * ((h & ((1 << k) - 1)) == u[:, None])
        tot = wt.sum(axis=1)
        pick = np.where(tot > 0, wt[rows, mc] > 0, first[c])
        h, u, mc, c = h[pick], u[pick], mc[pick], c[pick]
        w_m, tot = wt[pick, mc], tot[pick]
        p = np.where(tot > 0, base[c] * w_m / np.where(tot > 0, tot, 1),
                     base[c])
        decoded = icsim.simulate._slice_search(
            sim, h, mc, sim.slice_rx[:, j[c]].T, np.full(c.size, k), u, 0)[0]
        icsim.simulate._add_views(
            sums, np.column_stack([mc, decoded, i[c], j[c]]), p)
    msgs = (None,) + sim.messages
    xs, ys = sim.source.x_alphabet, sim.source.y_alphabet
    return FiniteDistribution.from_mapping(
        {(msgs[a + 1], msgs[d + 1], xs[x], ys[y]): p
         for (a, d, x, y), p in sums.items()})


def _protocol_full_walk(sim):
    """Engine 5's exact view law from :meth:`run_batch` on every live pair
    and chain of affine family members, one per round, each weighing its
    pair's mass over the number of chains."""
    sizes = [family_size(tab.inner.width, tab.inner.total_hash_bits)
             for tab in sim.tables]
    chains = math.prod(sizes)
    live_i, live_j = np.nonzero(sim.src.mass > 0)
    term = sim.src.mass[live_i, live_j] * (1.0 / chains)
    total = live_i.size * chains
    rng = np.random.default_rng(0)
    sums: dict = {}
    for start in range(0, total, sim.chunk):
        pair, code = np.divmod(
            np.arange(start, min(start + sim.chunk, total)), chains)
        blocks = []
        for tab, size in zip(sim.tables[::-1], sizes[::-1]):
            code, member = np.divmod(code, size)
            blocks.insert(0, member_blocks(
                tab.inner.width, tab.inner.total_hash_bits, member))
        batch = sim.run_batch(rng, pair.size, blocks=blocks,
                              pairs=(live_i[pair], live_j[pair]))
        icsim.simulate._add_views(sums, batch.keys, term[pair])
    return FiniteDistribution.from_mapping(
        {sim.view_of(key): p for key, p in sums.items()})


@pytest.mark.parametrize("q", [0.25, 0.11])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("l", [3, 4, 5])
def test_sw_exact_law_is_full_family_walk(q, m, l):
    coder = _p1(product_source(dsbs_source(q), m), l)
    if coder.exact_atom_count() > ENUMERATION_CAP:
        # dsbs^3 at l = 5: 64 pairs times 2^20 families
        with pytest.raises(TooLarge):
            coder.exact_view_law()
        return
    law, ref = coder.exact_view_law(), _sw_full_walk(coder)
    # the same integer counts, so every view keeps its bits
    assert law.symbols == ref.symbols
    assert law.probs.tobytes() == ref.probs.tobytes()


@pytest.mark.parametrize("make, dyadic", [
    (lambda: round_sim(k=1, gamma=1.0), True),
    (lambda: round_sim(k=2, gamma=1.0), True),
    (lambda: round_sim(k=1, gamma=1.0, q=0.11), False),
    (lambda: _noisy_round(k=0), False),
    (lambda: _noisy_round(k=1), False),
    (lambda: InteractiveSWCoder(dsbs_source(0.25),
                                SliceConfig(0.0, 2.0 + 1e-9, 2.0, 0.0), l=2),
     True),
    (lambda: InteractiveSWCoder(dsbs_source(0.11),
                                SliceConfig(0.0, 4.0 + 1e-9, 2.0, 0.0), l=2),
     False),
    (criterion7_sim, True),
    (lambda: criterion7_sim(data_exchange_protocol(dsbs_source(0.11))),
     False),
    (lambda: criterion7_sim(xor_reply_protocol(dsbs_source(0.25))), True),
    (lambda: criterion7_sim(l_max=3), True),
], ids=["p3-k1", "p3-k2", "p3-k1-q.11", "p3-noisy-k0", "p3-noisy-k1",
        "p2-l2", "p2-l2-q.11", "p5-exchange", "p5-exchange-q.11",
        "p5-xor-reply", "p5-l_max=3"])
def test_exact_law_is_full_family_walk(make, dyadic):
    engine = make()
    law = engine.exact_view_law()
    ref = (_protocol_full_walk(engine)
           if isinstance(engine, ProtocolSimulator)
           else _round_full_walk(getattr(engine, "inner", engine)))
    assert law.symbols == ref.symbols
    if dyadic:
        # every sum is exact, however many terms it has
        assert law.probs.tobytes() == ref.probs.tobytes()
    else:
        # one term per linear part in place of 2^L equal ones per family
        assert np.all(np.abs(law.probs - ref.probs) <= 1e-13 * ref.probs)


def _packed_offsets(blocks):
    """The packed offset b of each hash block: the hash of the zero row."""
    return pack_hashes(blocks, np.zeros((1, blocks.shape[2] - 1),
                                        dtype=np.uint8))[:, 0]


def test_offset_cancels_in_sw_kernel():
    coder = _p1(product_source(dsbs_source(0.25), 2), 4)
    rng = np.random.default_rng(5)
    T = 4_000
    xi, yj = coder.source.sample(rng, size=T)
    blocks = rng.integers(0, 2, size=(T, coder.l, coder.width + 1),
                          dtype=np.uint8)
    linear = blocks.copy()
    linear[:, :, -1] = 0
    got = _sw_kernel(coder, xi, yj, pack_hashes(blocks, coder.enc))
    want = _sw_kernel(coder, xi, yj, pack_hashes(linear, coder.enc))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert _packed_offsets(blocks).any() and len(set(got[1].tolist())) > 1


def _kernel_inputs(name, rng, T):
    """A round simulator and per-trial (p_rows, restrict, slc) of T trials
    on random source pairs: engine 3 on send-x over dsbs^2 or on
    noisy-send, or round 2 of engine 5 on data exchange over dsbs^2, whose
    restriction is the drawn slice index."""
    if name == "data-exchange":
        law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
        tab = ProtocolSimulator(law, auto_round_plans(law, gamma=2.0),
                                k_override=None).tables[1]
        hist = rng.integers(0, tab.p_m.shape[0], size=T)
        s_tx = rng.integers(0, tab.p_m.shape[1], size=T)
        s_rx = rng.integers(0, tab.slice_rx.shape[1], size=T)
        jj = _pick_slice(tab.cum_j[hist, s_tx], rng.random(T))
        return (tab.inner, tab.p_m[hist, s_tx],
                tab.slice_tx[hist, s_tx] == jj[:, None],
                tab.slice_rx[hist, s_rx])
    inner = (build_engine({"source": "dsbs^2:0.25", "protocol": "p3",
                           "target": "send-x", "gamma": 1.0})
             if name == "send-x-dsbs2" else _noisy_round())
    xi, yj = inner.source.sample(rng, size=T)
    return (inner, inner.p_m_given_x[xi],
            np.ones((T, len(inner.messages)), dtype=bool),
            inner.slice_rx.T[yj])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["send-x-dsbs2", "noisy-send",
                                  "data-exchange"])
def test_offset_cancels_in_round_kernel(name, k):
    """The round at (matrix A, offset b, string u) is the round at
    (A, 0, u ^ (b mod 2^k)): the same M*, decode, cause, bits and hit."""
    rng = np.random.default_rng(k)
    T = 4_000
    inner, p_rows, restrict, slc = _kernel_inputs(name, rng, T)
    assert inner.total_hash_bits >= 2
    blocks = rng.integers(0, 2, size=(T, inner.total_hash_bits,
                                      inner.width + 1), dtype=np.uint8)
    linear = blocks.copy()
    linear[:, :, -1] = 0
    k_t = np.full(T, k, dtype=np.int64)
    u = rng.integers(0, 1 << k, size=T, dtype=np.int64)
    u_m = rng.random(T)
    shifted = u ^ (_packed_offsets(blocks) & ((1 << k) - 1))

    def run(b, s):
        return _round_kernel(inner, p_rows, restrict, slc, k_t, b, s, u_m, 0)

    got, want = run(blocks, u), run(linear, shifted)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # some trials decode, and with a shared prefix the string must move
    # with the offset
    assert (got[1] >= 0).any()
    if k:
        assert not all(np.array_equal(a, b)
                       for a, b in zip(got, run(linear, u)))


def _blocks_spy(monkeypatch):
    calls = []
    inner = icsim.simulate.linear_blocks

    def spy(width, out_bits, start, stop):
        calls.append((width, out_bits, start, stop))
        return inner(width, out_bits, start, stop)

    monkeypatch.setattr(icsim.simulate, "linear_blocks", spy)
    return calls


@pytest.mark.parametrize("make", [
    lambda: _p1(product_source(dsbs_source(0.25), 2), 3),
    lambda: round_sim(k=1, gamma=1.0),
    criterion7_sim,
], ids=["p1", "p3-k1", "p5"])
def test_exact_law_same_across_family_blocks(make, monkeypatch):
    engine = make()
    whole = engine.exact_view_law()
    if isinstance(engine, ProtocolSimulator):
        # each round's linear parts are built once; the rows (live pair,
        # chain of matrices) run in chunks of 2/5 of them
        n_lin = [1 << (tab.inner.total_hash_bits * tab.inner.width)
                 for tab in engine.tables]
        rows = int((engine.src.mass > 0).sum()) * math.prod(n_lin)
        monkeypatch.setattr(engine, "chunk", 2 * rows // 5)
        sizes = []
        run_batch = engine.run_batch

        def spy_batch(rng, T, **kw):
            sizes.append(T)
            return run_batch(rng, T, **kw)

        monkeypatch.setattr(engine, "run_batch", spy_batch)
        calls = _blocks_spy(monkeypatch)
        law = engine.exact_view_law()
        assert calls == [(tab.inner.width, tab.inner.total_hash_bits, 0, n)
                         for tab, n in zip(engine.tables, n_lin)]
        assert sizes == [2 * rows // 5] * 2 + [rows - 4 * rows // 5]
    else:
        if isinstance(engine, SlepianWolfCoder):
            out_bits, M = engine.l, len(engine.source.x_alphabet)
        else:
            out_bits, M = engine.total_hash_bits, len(engine.messages)
        n_fam = family_size(engine.width, out_bits)
        n_lin = n_fam >> out_bits
        # a block decodes one row per atom of each of its linear parts
        per_part = engine.exact_atom_count() // n_fam \
            * _kernel_bytes(M, out_bits, engine.width)
        # blocks of 2/5 of the linear parts: two full blocks and a partial
        monkeypatch.setattr(icsim.simulate, "EXACT_BLOCK_BYTES",
                            per_part * (2 * n_lin // 5))
        calls = _blocks_spy(monkeypatch)
        law = engine.exact_view_law()
        assert len(calls) >= 3
        assert {c[:2] for c in calls} == {(engine.width, out_bits)}
        assert calls[-1][3] - calls[-1][2] < calls[0][3] - calls[0][2]
        assert [c[2] for c in calls[1:]] == [c[3] for c in calls[:-1]]
        assert calls[0][2] == 0 and calls[-1][3] == n_lin
    assert law.symbols == whole.symbols
    assert np.array_equal(law.probs, whole.probs)


# -- trial chunks decoded in row blocks on threads ---------------------------


_LAYOUT_ENGINES = {
    "p1": lambda: sw_coder(l=3, gamma=1.0),
    "p2": interactive_coder,  # engine 3 on the identity channel
    "p3": lambda: round_sim(k=1),
    "p4": lambda: TestImprovedRound().make(),
    "p5": lambda: TestProtocolSimulator().make(gamma=2.0, k_override=None),
}


def _assert_same_trials(agg, ref):
    assert list(agg.views.items()) == list(ref.views.items())
    assert agg.bits.dtype == ref.bits.dtype
    assert agg.bits.tobytes() == ref.bits.tobytes()
    assert list(agg.errors.items()) == list(ref.errors.items())
    assert agg.mismatches == ref.mismatches


def _kernel_rows(monkeypatch) -> list:
    """Rows of every trial-kernel call, from whichever thread."""
    rows = []
    for name in ("_sw_kernel", "_round_kernel"):
        def spy(*args, _kernel=getattr(icsim.simulate, name)):
            rows.append(len(args[1]))
            return _kernel(*args)
        monkeypatch.setattr(icsim.simulate, name, spy)
    return rows


@pytest.mark.parametrize("name", sorted(_LAYOUT_ENGINES))
def test_run_trials_same_across_blocks_and_workers(name, monkeypatch):
    # chunks of 300, 300 and 100 trials, each on its own seed stream; each
    # chunk decoded in blocks of 1 row, 7 rows and the whole chunk, on one
    # to three threads, switching threads as often as the interpreter allows
    engine = _LAYOUT_ENGINES[name]()
    engine.chunk = 300
    ref = run_trials(engine, 700, 5)
    assert len(ref.views) > 1
    # every kernel of the engine has the same row bytes, so the same rows
    (row_bytes,) = {_kernel_bytes(*k) for k in _kernels(engine)}
    rows = _kernel_rows(monkeypatch)
    monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block in (1, 7, 300):
            monkeypatch.setattr(icsim.simulate, "TRIAL_BLOCK_BYTES",
                                block * row_bytes)
            for workers in (1, 2, 3):
                monkeypatch.setattr(icsim.simulate, "_MAX_WORKERS", workers)
                rows.clear()
                _assert_same_trials(run_trials(engine, 700, 5), ref)
                assert max(rows) == block, (block, workers)
    finally:
        sys.setswitchinterval(interval)


def test_one_block_chunk_runs_inline(monkeypatch):
    # a chunk that fits one block starts no thread and asks for no CPU count
    engine = TestProtocolSimulator().make(gamma=2.0)
    ref = run_trials(engine, 2_000, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-block chunk left the calling thread")

    monkeypatch.setattr(icsim.simulate, "_usable_cpus", refuse)
    monkeypatch.setattr(icsim.simulate, "ThreadPoolExecutor", refuse)
    _assert_same_trials(run_trials(engine, 2_000, 3), ref)


SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_traced_trial_threads_call_no_span_target(monkeypatch):
    # benchmarks/spans.py keeps one span stack for all threads, so no span
    # target may run in the decode threads: record the thread of every
    # wrapped call while engines 4 and 5 decode chunks of 40 blocks
    import icsim.cli  # noqa: F401  (holds the phase targets)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    callers = []
    wrap = tracer.wrap

    def recording_wrap(span, fn, **kwargs):
        wrapped = wrap(span, fn, **kwargs)

        @functools.wraps(fn)
        def recorder(*args, **kw):
            callers.append((span, threading.get_ident()))
            return wrapped(*args, **kw)
        return recorder

    tracer.wrap = recording_wrap
    decoders = set()
    kernel = icsim.simulate._round_kernel

    def spy(*args):
        decoders.add(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(icsim.simulate, "_round_kernel", spy)
    monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: 2)
    tracer.set_traced(True)
    try:
        for make in (lambda: TestImprovedRound().make(),
                     lambda: TestProtocolSimulator().make(gamma=2.0)):
            engine = make()
            row_bytes = max(_kernel_bytes(*k) for k in _kernels(engine))
            monkeypatch.setattr(icsim.simulate, "TRIAL_BLOCK_BYTES",
                                50 * row_bytes)
            agg = icsim.simulate.run_trials(engine, 2_000, 1)
            assert agg.trials == 2_000
    finally:
        tracer.restore()
    main = threading.get_ident()
    assert {"simulate.build", "simulate.driver"} <= {s for s, _ in callers}
    assert {t for _, t in callers} == {main}
    assert decoders - {main}  # the blocks ran on the decode threads


def test_trial_decode_memory_bounded(monkeypatch):
    # send-x over dsbs^6: one chunk of 10,000 trials of 3.8 KB kernel rows,
    # 38 MB of (T, M) temporaries decoded at once.  Each decode thread holds
    # one block of TRIAL_BLOCK_BYTES, and the thread count is capped, so the
    # bound holds on this machine and on one with 64 CPUs
    engine = _big("p4")
    run_trials(engine, 50, 0)  # warm up outside the trace
    for cpus in (None, 64):
        if cpus is not None:
            monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            agg = run_trials(engine, 10_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert agg.trials == 10_000
        assert peak <= 12_000_000, (cpus, peak)


def _slice_table_reference(cond, cfg):
    """``_slice_table`` as first written: ``SliceConfig.slice_of`` per
    entry."""
    h = icsim.simulate._conditional_density(cond)
    finite = np.isfinite(h)
    slices = np.vectorize(cfg.slice_of)(np.where(finite, h, 0.0))
    return np.where(finite, slices, 0).astype(int)


def _cli(**cfg):
    return lambda: build_engine(cfg)


def _criterion_3_coders():
    """The interactive coders of acceptance criterion 3."""
    rng = np.random.default_rng(2024)
    for _ in range(10):
        q = float(rng.uniform(0.1, 0.4))
        m = int(rng.integers(2, 4))
        g = float(rng.integers(2, 5))
        src = product_source(dsbs_source(q), m)
        InteractiveSWCoder(src, auto_slice_config(
            spectrum(src, "cond_x_given_y"), gamma=g))


def _criterion_4_engines():
    """The round and protocol simulators of acceptance criterion 4."""
    for i, q in enumerate((0.2, 0.25, 0.3, 0.35, 0.15)):
        src = dsbs_source(q)
        law = (noisy_send_protocol(src, 0.1 + 0.05 * i) if i % 2
               else send_value_protocol(src))
        view = law.round_view(1, ())
        rx, tx = (auto_slice_config(round_density_spectrum(law, 1, side),
                                    gamma=3.0) for side in ("rx", "tx"))
        RoundSimulator(src, view.p_m_given_x, view.messages, rx, k=i % 3)
        ImprovedRoundSimulator(src, view.p_m_given_x, view.messages, rx, tx)
    for law, g in ((data_exchange_protocol(dsbs_source(0.25)), 2.0),
                   (data_exchange_protocol(dsbs_source(0.3)), 3.0),
                   (xor_reply_protocol(dsbs_source(0.3)), 2.0)):
        ProtocolSimulator(law, auto_round_plans(law, gamma=g), k_override=0)


# every engine construction of the tier-1 tests that slices a table: the
# hand-made slicings above, acceptance criteria 3 and 4, and the config
# documents of the CLI and evaluate tests
_SLICED_ENGINES = {
    "acceptance-3": _criterion_3_coders,
    "acceptance-4": _criterion_4_engines,
    "p2-dsbs": lambda: interactive_coder(gamma=1.0),
    "p2-dsbs2-delta2": lambda: InteractiveSWCoder(
        product_source(dsbs_source(0.2), 2),
        SliceConfig(0.0, 4.0 + 1e-9, 2.0, 0.0)),
    "p2-dsbs2-delta3": lambda: InteractiveSWCoder(
        product_source(dsbs_source(0.2), 2),
        SliceConfig(0.0, 6.0 + 1e-9, 3.0, 0.0), l=2),
    "p3-round-sim": lambda: round_sim(k=2, gamma=1.0),
    "p3-noisy": lambda: _noisy_round(k=1),
    "p4-noisy": lambda: _noisy_round(improved=True),
    "p5-exchange-tiny-tx": lambda: TestProtocolSimulator().make(),
    "p5-bit-then-y": _bit_then_y,
    "cli-p2-dsbs2": _cli(source="dsbs^2:0.25", protocol="p2", gamma=2.0),
    "cli-p3-dsbs": _cli(source="dsbs:0.25", protocol="p3", target="send-x",
                        gamma=2.0, k=1),
    "cli-p3-dsbs3": _cli(source="dsbs^3:0.11", protocol="p3",
                         target="send-x", gamma=3.0),
    "cli-p3-skewed": _cli(source={"x_alphabet": [0, 1, 2],
                                  "y_alphabet": [0, 1],
                                  "mass": [[0.3, 0.1], [0.05, 0.25],
                                           [0.2, 0.1]]},
                          protocol="p3", target="send-x", gamma=1.0),
    "cli-p4-dsbs": _cli(source="dsbs:0.25", protocol="p4", target="send-x",
                        gamma=2.0),
    "cli-p4-dsbs3": _cli(source="dsbs^3:0.11", protocol="p4",
                         target="send-x", gamma=3.0),
    "cli-p4-noisy": _cli(source="dsbs:0.25", protocol="p4",
                         target="noisy-send:0.1", gamma=2.0),
    "cli-p5-exchange": _cli(source="dsbs:0.25", protocol="p5",
                            target="data-exchange", gamma=2.0,
                            k_override=0),
    "cli-p5-xor": _cli(source="dsbs:0.3", protocol="p5", target="xor-reply",
                       gamma=2.0),
    **{f"dsbs6-{name}": functools.partial(_big, name)
       for name in ("p2", "p3", "p4", "p5")},
}


@pytest.mark.parametrize("name", sorted(_SLICED_ENGINES))
def test_slice_table_matches_slice_of(name, monkeypatch):
    calls = []

    def spy(cond, cfg):
        out = _slice_table(cond, cfg)
        calls.append((np.array(cond), cfg, out))
        return out

    monkeypatch.setattr(icsim.simulate, "_slice_table", spy)
    _SLICED_ENGINES[name]()
    assert calls
    for cond, cfg, got in calls:
        want = _slice_table_reference(cond, cfg)
        assert got.dtype == want.dtype and np.array_equal(got, want), cfg


@pytest.mark.parametrize("cfg", [
    SliceConfig(1.0, 7.0, 2.0, 1.0),
    SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0),
    # (lambda_max - lambda_min) / delta just above 3: n_slices is 3, and
    # values in [3, lambda_max) clip to it
    SliceConfig(0.0, 3.0 + 1e-13, 1.0, 0.0),
    SliceConfig(0.3, 5.7, 1.0, 0.0),
    SliceConfig(-0.5, 4.25, 0.5, 0.0),
], ids=["floors", "auto-like", "clip", "offset", "half-width"])
def test_slice_table_edges(cfg, monkeypatch):
    # densities at every slice floor, at lambda_max, an ulp either side of
    # each, just below lambda_min, past lambda_max and at zero mass (+inf);
    # the table is taken as its own density, so each value is exact
    monkeypatch.setattr(icsim.simulate, "_conditional_density",
                        lambda h: h)
    floors = [cfg.lambda_min + (i - 1) * cfg.delta
              for i in range(1, cfg.n_slices + 2)] + [cfg.lambda_max]
    h = [np.inf, cfg.lambda_min - 1e-12, cfg.lambda_max + 5.0]
    for f in floors:
        h += [f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf)]
    h = np.array(h).reshape(3, -1)
    got = _slice_table(h, cfg)
    want = _slice_table_reference(h, cfg)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.flat[0] == got.flat[1] == got.flat[2] == 0
    assert set(got.flat) == set(range(cfg.n_slices + 1))
    if cfg.lambda_max == 3.0 + 1e-13:
        assert got.flat[list(h.flat).index(3.0)] == cfg.n_slices == 3


_VIEW_COUNTED = {
    "p3-send-x-dsbs3": {"source": "dsbs^3:0.11", "protocol": "p3",
                        "target": "send-x", "gamma": 3.0},
    "p4-send-x-dsbs3": {"source": "dsbs^3:0.11", "protocol": "p4",
                        "target": "send-x", "gamma": 3.0},
    "p4-noisy": {"source": "dsbs:0.25", "protocol": "p4",
                 "target": "noisy-send:0.1", "gamma": 2.0},
    "p5-exchange": {"source": "dsbs:0.25", "protocol": "p5",
                    "target": "data-exchange", "gamma": 2.0,
                    "k_override": 0},
    "p5-exchange-dsbs2-plans": {
        "source": "dsbs^2:0.2", "protocol": "p5", "target": "data-exchange",
        "gamma": 2.0, "plans": [{}, {"rx": "auto"}]},
    "p5-xor": {"source": "dsbs:0.3", "protocol": "p5",
               "target": "xor-reply", "gamma": 2.0},
}


def _count_view_computations(monkeypatch) -> Counter:
    """Count the uncached round-view computations, by (law, t, hist)."""
    counts = Counter()
    compute = TranscriptLaw._round_view

    def spy(law, t, hist):
        counts[(id(law), t, hist)] += 1
        return compute(law, t, hist)

    monkeypatch.setattr(TranscriptLaw, "_round_view", spy)
    return counts


def _built_laws(monkeypatch) -> list:
    """The target laws that ``build_engine`` parses, in order."""
    laws = []
    parse = icsim.cli.parse_target

    def spy(token, source):
        laws.append(parse(token, source))
        return laws[-1]

    monkeypatch.setattr(icsim.cli, "parse_target", spy)
    return laws


def _all_views(law) -> set:
    return {(id(law), t, h) for t in range(1, law.n_rounds + 1)
            for h in law.histories(t)}


@pytest.mark.parametrize("name", sorted(_VIEW_COUNTED))
def test_build_computes_each_round_view_once(name, monkeypatch):
    laws = _built_laws(monkeypatch)
    counts = _count_view_computations(monkeypatch)
    build_engine(_VIEW_COUNTED[name])
    (law,) = laws
    assert set(counts) == _all_views(law)
    assert set(counts.values()) == {1}


def test_p5_eval_with_budget_computes_each_round_view_once(monkeypatch,
                                                           tmp_path):
    laws = _built_laws(monkeypatch)
    budgets = []
    p5_budget = icsim.cli.protocol5_tv_budget
    monkeypatch.setattr(icsim.cli, "protocol5_tv_budget",
                        lambda sim: budgets.append(p5_budget(sim))
                        or budgets[-1])
    counts = _count_view_computations(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_VIEW_COUNTED["p5-exchange"]))
    out = tmp_path / "out.json"
    assert icsim.cli.main(["eval", "--config", str(cfg), "--mode", "plugin",
                           "--trials", "500", "--seed", "1",
                           "--out", str(out)]) == 0
    assert json.loads(out.read_text())["budget"] == budgets[0]
    (law,) = laws
    assert set(counts) == _all_views(law)
    assert set(counts.values()) == {1}


def test_p4_build_memory_bounded():
    # send-x over dsbs^7: the law is a (128, 128, 128) float64 table,
    # 16 MiB.  Computing the round view three times, each with four full
    # temporaries, peaked at 113 MB; one view, summed in blocks of messages
    # and shared by both spectra and the engine, needs about three tables
    cfg = {"source": "dsbs^7:0.11", "protocol": "p4", "target": "send-x",
           "gamma": 3.0}
    tracemalloc.start()
    try:
        engine = build_engine(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.slice_tx.shape == (128, 128)
    assert peak < 80 << 20, peak
