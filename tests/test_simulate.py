import dataclasses
import functools
import gc
import importlib.util
import itertools
import json
import math
import sys
import threading
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from icsim.bounds import (
    protocol3_tv_budget,
    protocol4_tv_budget,
    protocol5_tv_budget,
    round_budget_inputs,
)
import icsim.cli
from icsim.cli import build_engine
from icsim.errors import OutOfRange, TooLarge
import icsim.evaluate
from icsim.evaluate import measure_sim_error
import icsim.simulate
from icsim.hashing import (
    ENUMERATION_CAP,
    HashFamily,
    encode_universe,
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
    RoundView,
    TranscriptLaw,
    data_exchange_protocol,
    exchange_bits_protocol,
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
    _RoundTables,
    _column_lists,
    _conditional_density,
    _first_seen,
    _kernel_bytes,
    _pick_slice,
    _round_kernel,
    _slice_table,
    _sw_kernel,
    _sw_trials,
    _unique_rows,
    _trial_walk,
    _walk_chunk,
    _write_back,
    auto_round_plans,
    batch_round_trials,
    round_density_spectrum,
    run_trials,
)
from reference import dense_hashes, dense_round_kernel, dense_round_spectrum


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
    return RoundSimulator(src, view, cfg, k)


def hand_view(src, p_m_x, p_m_y=None):
    """A round view on the messages (0, 1) built by hand: P(M | Y) uniform
    unless given, the source's x marginal as prior, and no atoms, which no
    engine reads."""
    ny = src.mass.shape[1]
    return RoundView((0, 1), np.asarray(p_m_x, dtype=float),
                     np.full((ny, 2), 0.5) if p_m_y is None
                     else np.asarray(p_m_y, dtype=float), src.p_x, ())


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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_gamma_finite_and_nonnegative(self, gamma):
        # a NaN gamma would make no pair typical, so every trial a tail
        with pytest.raises(OutOfRange, match="gamma"):
            SlepianWolfCoder(dsbs_source(0.25), 4, gamma)


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
        # the view's P(M | Y) must be (ny, M), as its P(M | X) is (nx, M)
        src = dsbs_source(0.25)
        cfg = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
        with pytest.raises(OutOfRange, match="wrong shape"):
            RoundSimulator(src, hand_view(src, np.eye(2),
                                          np.full(shape[::-1], 0.5)), cfg, 0)

    @pytest.mark.parametrize("rows", [[[0.0, 0.0], [0.3, 0.3]],
                                      [[1.5, -0.5], [0.5, 0.5]],
                                      [[math.nan, 1.0], [0.5, 0.5]]],
                             ids=["unnormalised", "negative", "nan"])
    def test_channel_rows_checked(self, rows):
        src = dsbs_source(0.25)
        cfg = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
        with pytest.raises(OutOfRange, match="rows must be distributions"):
            RoundSimulator(src, hand_view(src, rows), cfg, 0)

    def test_channel_rows_free_off_the_support(self):
        # x = 1 has no mass, so its row is never read and may be zero
        src = JointSource((0, 1), (0, 1), np.array([[0.6, 0.4], [0.0, 0.0]]))
        cfg = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
        sim = RoundSimulator(src, hand_view(src, [[0.5, 0.5], [0.0, 0.0]]),
                             cfg, 0)
        assert sim.run(np.random.default_rng(0)).x == 0

    @pytest.mark.parametrize("prior", [[0.2, 0.3, 0.5], [1.5, -0.5],
                                       [0.0, 0.0]],
                             ids=["shape", "negative", "zero"])
    def test_prior_checked(self, prior):
        law = noisy_send_protocol(dsbs_source(0.25), 0.15)
        view = law.round_view(1, ())
        cfg = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
        with pytest.raises(OutOfRange):
            ImprovedRoundSimulator(
                law.source, dataclasses.replace(view, prior=np.array(prior)),
                cfg, cfg)


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
        return ImprovedRoundSimulator(src, view, rx, tx)

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
            assert 0 <= k <= sim.total_hash_bits

    def test_plugin_tv_below_budget(self):
        sim = self.make()
        agg = batch_round_trials(sim, 60_000, 1)
        est = measure_sim_error(sim, "plugin", master_seed=1, agg=agg)
        assert est.value <= protocol4_tv_budget(sim) + est.ci_halfwidth

    @pytest.mark.parametrize("cfg, mode, tv, budget", [
        ({"source": "dsbs:0.2", "target": "send-x"}, "exact",
         0.0031250000000011043, 1.375),
        ({"source": "dsbs:0.25", "target": "noisy-send:0.15"}, "exact",
         0.16328124999999982, 0.75),
        ({"source": "dsbs^6:0.11", "target": "send-x"}, "plugin",
         0.12553484037517187, 1.52059361799),
    ], ids=["send-x", "noisy-send", "p4-product6"])
    def test_report_values_pinned(self, cfg, mode, tv, budget):
        """The tv and budget that ``icsim eval`` reports on three engine 4
        configs (gamma 3; plug-in: seed 1, 10,000 trials)."""
        engine = build_engine({**cfg, "protocol": "p4", "gamma": 3.0})
        agg = run_trials(engine, 10_000, 1) if mode == "plugin" else None
        est = measure_sim_error(engine, mode, master_seed=1, agg=agg)
        assert est.value == tv
        assert protocol4_tv_budget(engine) == budget


@pytest.mark.parametrize("q, crossover, p3, p4", [
    (0.065, 0.01, 0.0737, 0.07435),
    (0.2, 0.15, 0.015625, 0.16328125),
], ids=["noisy001-dsbs0065", "noisy015-dsbs02"])
def test_library_engines_on_the_round_view_read_the_cli_tv(q, crossover,
                                                           p3, p4):
    """Engines 3 and 4 built from ``law.round_view(1, ())`` with auto
    plans at gamma 3 read the exact tv of ``icsim eval`` bit for bit: at a
    slice floor, a P(M | Y) one ulp off the view's put a message in the
    wrong slice (tv 1.0 / 1.0 and 0.71 / 0.83 here)."""
    law = noisy_send_protocol(dsbs_source(q), crossover)
    view = law.round_view(1, ())
    rx, tx = (auto_slice_config(round_density_spectrum(law, 1, side),
                                gamma=3.0) for side in ("rx", "tx"))
    cfg = {"source": f"dsbs:{q}", "target": f"noisy-send:{crossover}",
           "gamma": 3.0}
    for engine, proto, tv in (
            (RoundSimulator(law.source, view, rx, 0), "p3", p3),
            (ImprovedRoundSimulator(law.source, view, rx, tx, 0), "p4", p4)):
        got = measure_sim_error(engine, "exact").value
        cli = build_engine({**cfg, "protocol": proto})
        assert got == measure_sim_error(cli, "exact").value
        assert got == pytest.approx(tv, abs=1e-12)


@pytest.mark.parametrize("improved, k", [
    (False, 99), (False, None), (False, 1.5), (False, True), (True, 99),
    (True, -1)], ids=["p3-99", "p3-none", "p3-float", "p3-bool", "p4-99",
                      "p4-negative"])
def test_out_of_range_k_fails_at_construction(improved, k):
    # the one check of k is _k_table's, made as the round table is built
    law = send_value_protocol(dsbs_source(0.25))
    view = law.round_view(1, ())
    rx = SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0)
    with pytest.raises(OutOfRange, match=r"integer in \[0, "):
        if improved:
            ImprovedRoundSimulator(law.source, view, rx, rx, k)
        else:
            RoundSimulator(law.source, view, rx, k)


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

    def test_budget_must_be_a_number(self):
        # a NaN budget compares false, so it would run with no budget
        with pytest.raises(OutOfRange, match="l_max"):
            self.make(l_max=math.nan)
        assert self.make(l_max=math.inf).l_max == math.inf

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


SPECTRUM_LOOP_LAWS = {
    "two-round": _two_round_law,
    **{f"send-x-dsbs{m}": lambda m=m: send_value_protocol(
        product_source(dsbs_source(0.11), m)) for m in range(1, 5)},
    **{f"data-exchange-dsbs{m}": lambda m=m: data_exchange_protocol(
        product_source(dsbs_source(0.2), m)) for m in range(1, 5)},
    "noisy-send": lambda: noisy_send_protocol(dsbs_source(0.25), 0.1),
    "xor-reply": lambda: xor_reply_protocol(dsbs_source(0.3)),
}


def test_round_density_spectrum_matches_atom_loop():
    for name, make in SPECTRUM_LOOP_LAWS.items():
        law = make()
        for t in range(1, law.n_rounds + 1):
            for side in ("tx", "rx"):
                got = round_density_spectrum(law, t, side)
                want_v, want_p = dense_round_spectrum(law, t, side)
                where = (name, t, side)
                assert got.values.tobytes() == want_v.tobytes(), where
                assert got.probs.tobytes() == want_p.tobytes(), where


@pytest.mark.parametrize("proto, target", [
    ("p4", "send-x"), ("p4", "noisy-send:0.1"), ("p5", "data-exchange"),
    ("p5", "xor-reply")])
def test_build_scans_each_round_view_once(monkeypatch, proto, target):
    """Both sides' round spectra, the engine, and the round budgets after
    them, read one pass over each round's atoms."""
    scans = []
    round_views = TranscriptLaw._round_views

    def counted(self, t):
        scans.append(t)
        return round_views(self, t)

    laws = []

    def spy(token, source):
        laws.append(parse_target(token, source))
        return laws[-1]

    parse_target = icsim.cli.parse_target
    monkeypatch.setattr(TranscriptLaw, "_round_views", counted)
    monkeypatch.setattr(icsim.cli, "parse_target", spy)
    source = "dsbs^2:0.11" if target == "send-x" else "dsbs:0.25"
    engine = build_engine({"source": source, "protocol": proto,
                           "target": target, "gamma": 3.0})
    assert scans == list(range(1, laws[-1].n_rounds + 1))
    if proto == "p5":
        round_budget_inputs(laws[-1], engine.plans)
        assert scans == [1, 2]


def test_slice_tables_and_spectra_take_the_same_log2():
    """The slice tables take -log2 of the conditional tables as the spectra
    that set their plans do, with ``math.log2`` per entry, on every entry.
    At q = 0.102 and 0.14 ``np.log2`` differs from it in the last bit on
    entries at a slice floor."""
    checked = 0
    for q in (0.05, 0.102, 0.11, 0.14, 0.25):
        for m in range(1, 9):
            law = send_value_protocol(product_source(dsbs_source(q), m))
            view = law.round_view(1, ())
            for cond in (view.p_m_given_x, view.p_m_given_y):
                live = cond > 0
                got = _conditional_density(cond)[live]
                want = np.array([-math.log2(c) for c in cond[live].tolist()])
                assert got.tobytes() == want.tobytes(), (q, m)
                checked += got.size
            del law, view  # free the dsbs^8 tables before the next law
    assert checked == 5 * sum(4 ** m + 2 ** m for m in range(1, 9))


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
                      block[:, -1]).apply_bits(
        encode_universe(len(inner.messages), inner.width))


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
    return _round_rule(eng, eng.p_m_given_x[s_tx],
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
    rng = np.random.default_rng(seed)
    xi, yj = engine.source.sample(rng, size=T)
    blocks = rng.integers(0, 2, size=(T, engine.total_hash_bits,
                                      engine.width + 1), dtype=np.uint8)
    ks = [engine.k] * T
    if improved:
        jj = [_pick(engine.p_j_given_x[i], u)
              for i, u in zip(xi, rng.random(T))]
        ks = [engine.k_of(j) for j in jj]
    us = _draw_strings(rng, ks)
    u_m = rng.random(T)
    msgs = (None,) + tuple(engine.messages)
    xs, ys = engine.source.x_alphabet, engine.source.y_alphabet
    out = []
    for n in range(T):
        i, j = xi[n], yj[n]
        if improved:
            m, d, cause, bits = _improved_rule(
                engine, i, engine.slice_rx[:, j], blocks[n], jj[n], us[n],
                u_m[n])
        else:
            m, d, cause, bits = _round_rule(
                engine, engine.p_m_given_x[i], np.ones(len(msgs) - 1, bool),
                engine.slice_rx[:, j], blocks[n], ks[n],
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
        return ImprovedRoundSimulator(src, view, rx, tx, k_override)
    return RoundSimulator(src, view, rx, k)


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
    batch = _trial_walk(engine, np.random.default_rng(seed), T)
    tx, decoded, xi, yj = batch.keys.T
    cause, bits = batch.cause, batch.bits
    msgs = (None,) + tuple(engine.messages)
    xs, ys = engine.source.x_alphabet, engine.source.y_alphabet
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


def _round_outcomes(engine, s_tx, slc, hb):
    """Every outcome ``(m_star, decoded, cause, bits)`` of one round of
    engine 3 or 4 at transmitter symbol ``s_tx``, receiver slices ``slc``
    and hash bits ``hb``, with its probability: the slice index J with
    P(J | x) on engine 4 (a rejected J costs ``j_cost`` bits), the shared
    string u uniform on k bits, and M* with its prefix weight, or the first
    supported restricted message when all of them are zero."""
    improved = isinstance(engine, ImprovedRoundSimulator)
    p_row = engine.p_m_given_x[s_tx]
    j_law = engine.p_j_given_x[s_tx] if improved else np.ones(1)
    for jj in np.nonzero(j_law)[0]:
        q_j = j_law[jj] / j_law.sum()
        if improved and not engine.good[jj]:
            yield q_j, (None, None, "bad_J", engine.j_cost)
            continue
        k = engine.k_of(jj) if improved else engine.k
        restrict = (engine.slice_tx[:, s_tx] == jj if improved
                    else np.ones(len(p_row), dtype=bool))
        extra = engine.j_cost if improved else 0
        for u in range(1 << k):
            w = _prefix_weights(hb, p_row, restrict, k, u)
            if w.sum() > 0:
                picks = [(w[m] / w.sum(), m) for m in np.nonzero(w)[0]]
            else:
                supported = np.nonzero(restrict & (p_row > 0))[0]
                picks = [(1.0, int(supported[0]) if supported.size else 0)]
            for q, m in picks:
                yield q_j * 2.0 ** -k * q, (m,) + _search_rule(
                    engine, hb, slc, m, k, u, extra)


def _round_law(engine):
    """Exact view law of engine 3 or 4 from the rule: every live (x, y),
    hash family and outcome of :func:`_round_outcomes`, each view's terms
    summed with ``math.fsum``."""
    src = engine.source
    n_fam = family_size(engine.width, engine.total_hash_bits)

    def msg(a):
        return None if a is None else engine.messages[a]

    terms = defaultdict(list)
    for fam in enumerate_family(engine.width, engine.total_hash_bits):
        hb = fam.apply_bits(encode_universe(len(engine.messages),
                                            engine.width))
        for i, j in zip(*np.nonzero(src.mass > 0)):
            for q, (m, d, _, _) in _round_outcomes(
                    engine, i, engine.slice_rx[:, j], hb):
                terms[(msg(m), msg(d), src.x_alphabet[i],
                       src.y_alphabet[j])].append(src.mass[i, j] / n_fam * q)
    return {view: math.fsum(t) for view, t in terms.items()}


def _send_x_improved(k_override):
    """Engine 4 on send-x over dsbs:0.25 with one transmitter slice."""
    src = dsbs_source(0.25)
    view = send_value_protocol(src).round_view(1, ())
    return ImprovedRoundSimulator(
        src, view, SliceConfig(0.0, 2.0 + 1e-9, 1.0, 1.0),
        SliceConfig(0.0, 1e-9, 1e-9, 1.0), k_override=k_override)


@pytest.mark.parametrize("make, dyadic", [
    (lambda: round_sim(k=1, gamma=1.0), True),
    (lambda: round_sim(k=2, gamma=1.0), True),
    (lambda: _noisy_round(k=1), False),
    (lambda: InteractiveSWCoder(dsbs_source(0.25),
                                SliceConfig(0.0, 2.0 + 1e-9, 2.0, 0.0),
                                l=2), True),
    (lambda: _noisy_round(improved=True), False),
    (lambda: _noisy_round(k_override=2, improved=True), False),
    (lambda: _send_x_improved(k_override=1), True),
    (lambda: _send_x_improved(k_override=2), True),
], ids=["p3-k1", "p3-k2", "p3-noisy-k1", "p2-l2", "p4-noisy", "p4-noisy-k2",
        "p4-send-x-k1", "p4-send-x-k2"])
def test_round_exact_law_matches_rule(make, dyadic, request):
    sim = make()
    law = sim.exact_view_law()
    ref = _round_law(sim)
    # engine 4 reaches a rejected J on noisy-send, shares bits on send-x
    name = request.node.callspec.id
    if name.startswith("p4-noisy"):
        assert any(v[:2] == (None, None) for v in ref)
    if name.startswith("p4-send-x"):
        assert sim.k_table[sim.good].min() > 0
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


def _history_inputs(sim):
    """The round inputs of every (round, history) of ``sim``, keyed by
    (t, hist): ``(src, p_tx, p_rx, prior)``, read one history at a time
    from the law's round views on the round's message universe.

    The speaker is always "x" (the source is transposed in even rounds);
    its slice-index prior is its history-conditional input marginal, and
    the listener slices its history-conditional law of the message.
    """
    law, inputs = sim.law, {}
    for t in range(1, law.n_rounds + 1):
        universe = law.messages[t - 1]
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
            inputs[(t, hist)] = (src, p_tx, p_rx, view.prior)
    return inputs


def _history_engines(sim):
    """Engine 4 of every (round, history) of ``sim``, keyed by (t, hist),
    each on a round view of :func:`_history_inputs`' arrays (with no
    atoms, which no engine reads): the per-history reference for engine
    5's round tables."""
    engines = {}
    for (t, hist), (src, p_tx, p_rx, prior) in _history_inputs(sim).items():
        plan = sim.plans[t - 1]
        view = RoundView(sim.law.messages[t - 1], p_tx, p_rx, prior, ())
        engines[(t, hist)] = ImprovedRoundSimulator(
            src, view, plan.rx, plan.tx, sim.k_override)
    return engines


def _chain_oracle(sim, rng, T, blocks=None):
    """Per trial (view, bits, cause) of ``_trial_walk(sim, rng, T,
    blocks)``.

    The draws follow ``_trial_walk``'s order: the source pairs, then per
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
                e_tx, s_tx, e_rx.slice_rx[:, s_rx], blk[a], jj[a],
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
    batch = _trial_walk(sim, rng, T, blocks=blocks)
    seen = set()
    views = sim.views_of(batch.keys)
    for n, want in enumerate(_chain_oracle(sim, ref, T, blocks)):
        c = int(batch.cause[n])
        got = (views[n], int(batch.bits[n]),
               None if c == 0 else ERROR_CAUSES[c - 1], int(batch.rounds[n]))
        assert got == want, n
        view, _, error, _ = want
        seen.add("mismatch" if error is None and view[0] != view[1]
                 else error)
    # the trials reach the outcomes the instance is meant to cover
    assert outcomes <= seen
    assert np.any(batch.cause != 0)
    # the scalar run is one trial of the walk; slice_hit counts its rounds
    xs, ys = sim.src.x_alphabet, sim.src.y_alphabet
    for s in range(50):
        out = sim.run(np.random.default_rng(s))
        assert (out.view, out.bits, out.error, out.slice_hit) == \
            _chain_oracle(sim, np.random.default_rng(s), 1)[0]
        given = sim.run(np.random.default_rng(s), x=xs[s % len(xs)], y=ys[-1])
        assert given.view[2:] == (xs[s % len(xs)], ys[-1])


def _chain_law(sim):
    """Engine 5's exact view law: the chained rule on every live (x, y),
    every hash family of each round and every outcome of
    :func:`_round_outcomes` (slice index, shared string and M*, with their
    probabilities), each view's terms summed with ``math.fsum``."""
    fams = [list(enumerate_family(tab.inner.width, tab.inner.total_hash_bits))
            for tab in sim.tables]
    engines = _history_engines(sim)
    memo = {}

    def step(t, hist, syms, f):
        """Round t's outcomes for one trial under family f, memoized."""
        tx = 1 - t % 2
        key = (t, hist[tx], hist[1 - tx], syms[tx], syms[1 - tx], f)
        if key not in memo:
            e_tx = engines.get((t, hist[tx]))
            e_rx = engines.get((t, hist[1 - tx]))
            if e_tx is None or e_rx is None:
                memo[key] = [(1.0, (None, None, "no_match", 0))], e_tx
            else:
                memo[key] = list(_round_outcomes(
                    e_tx, syms[tx], e_rx.slice_rx[:, syms[1 - tx]],
                    fams[t - 1][f].apply_bits(encode_universe(
                        len(e_tx.messages), e_tx.width)))), e_tx
        return memo[key]

    src = sim.src
    terms = defaultdict(list)

    def walk(t, hist, bits, p, syms, xy):
        if t > sim.law.n_rounds:
            terms[tuple(hist) + xy].append(p)
            return
        for f in range(len(fams[t - 1])):
            outcomes, e_tx = step(t, hist, syms, f)
            for q, (m, d, cause, b) in outcomes:
                if cause is None and bits + b > sim.l_max:
                    cause = "budget_exceeded"
                w = p / len(fams[t - 1]) * q
                if cause is not None:
                    terms[(None, None) + xy].append(w)
                    continue
                tx = 1 - t % 2
                nxt = list(hist)
                nxt[tx] += (e_tx.messages[m],)
                nxt[1 - tx] += (e_tx.messages[d],)
                walk(t + 1, nxt, bits + b, w, syms, xy)

    for i, j in zip(*np.nonzero(src.mass > 0)):
        walk(1, [(), ()], 0, src.mass[i, j], (i, j),
             (src.x_alphabet[i], src.y_alphabet[j]))
    return {view: math.fsum(t) for view, t in terms.items()}


@pytest.mark.parametrize("make, dyadic", [
    (lambda: criterion7_sim(), True),
    (lambda: criterion7_sim(xor_reply_protocol(dsbs_source(0.25))), True),
    (lambda: criterion7_sim(l_max=3), True),
    (lambda: ProtocolSimulator(
        noisy_send_protocol(dsbs_source(0.25), 0.15),
        auto_round_plans(noisy_send_protocol(dsbs_source(0.25), 0.15),
                         gamma=1.0)), False),
    (lambda: ProtocolSimulator(
        data_exchange_protocol(dsbs_source(0.25)),
        auto_round_plans(data_exchange_protocol(dsbs_source(0.25)),
                         gamma=0.5), k_override=None), True),
], ids=["data-exchange", "xor-reply", "l_max=3", "noisy-send",
        "k_override=None"])
def test_protocol_exact_law_matches_chained_rule(make, dyadic, request):
    sim = make()
    law = sim.exact_view_law()
    ref = _chain_law(sim)
    assert set(law.symbols) == set(ref)
    got = np.array([law.prob(v) for v in ref])
    want = np.array(list(ref.values()))
    if dyadic:
        # every sum is exact, whatever its order
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-13 * want)
    # a rejected J on noisy-send, shared prefix bits with k_override=None
    if request.node.callspec.id == "noisy-send":
        assert law.prob((None, None, 0, 0)) > 0
        assert not sim.tables[0].good.all()
    if request.node.callspec.id == "k_override=None":
        assert all(tab.k_of[tab.good.any(axis=0)].min() > 0
                   for tab in sim.tables)


def test_protocol_exact_guards(monkeypatch):
    # data exchange over dsbs^2 with 13 hash bits per round: 16 pairs times
    # 2^26 linear parts in round 1, past the cap on the rows a round decodes
    law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
    big = ProtocolSimulator(law, [RoundPlan(
        SliceConfig(0.0, 12.0, 1.0, 0.5),
        SliceConfig(0.0, 1e-9, 1e-9, 0.5))] * 2, k_override=0)
    assert [tab.inner.total_hash_bits for tab in big.tables] == [13, 13]
    # the walk would build its first hash block here
    monkeypatch.setattr(icsim.simulate, "linear_blocks", None)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="rows in round 1"):
            big.exact_view_law()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _criterion4_round(i, q):
    """Criterion 4's engine 4 instance i: send-x (even i) or noisy-send at
    crossover 0.1 + 0.05 i (odd i) over dsbs:q, auto plans at gamma 3."""
    src = dsbs_source(q)
    law = (noisy_send_protocol(src, 0.1 + 0.05 * i) if i % 2
           else send_value_protocol(src))
    view = law.round_view(1, ())
    rx, tx = (auto_slice_config(round_density_spectrum(law, 1, side),
                                gamma=3.0) for side in ("rx", "tx"))
    return ImprovedRoundSimulator(src, view, rx, tx)


_NEWLY_EXACT = {
    "p4-noisy": lambda: _noisy_round(improved=True),
    "p4-noisy-k2": lambda: _noisy_round(k_override=2, improved=True),
    "p4-send-x-k1": lambda: _send_x_improved(k_override=1),
    **{f"criterion4-p4-{i}": functools.partial(_criterion4_round, i, q)
       for i, q in enumerate((0.2, 0.25, 0.3, 0.35, 0.15))},
    "p5-noisy-send": lambda: ProtocolSimulator(
        noisy_send_protocol(dsbs_source(0.25), 0.15),
        auto_round_plans(noisy_send_protocol(dsbs_source(0.25), 0.15),
                         gamma=1.0)),
    "p5-k_override=None": lambda: ProtocolSimulator(
        data_exchange_protocol(dsbs_source(0.25)),
        auto_round_plans(data_exchange_protocol(dsbs_source(0.25)),
                         gamma=0.5), k_override=None),
    # 2^26 seeds but 64 linear parts per round: refused when the cap
    # counted seeds
    "criterion4-p5-dsbs:0.3": lambda: ProtocolSimulator(
        data_exchange_protocol(dsbs_source(0.3)),
        auto_round_plans(data_exchange_protocol(dsbs_source(0.3)),
                         gamma=3.0), k_override=0),
}


@pytest.mark.parametrize("name", sorted(_NEWLY_EXACT))
def test_plugin_interval_covers_newly_exact_tv(name):
    """Engines 4 and 5 on instances the earlier exact modes refused: the
    exact tv lies in the plug-in interval of 200,000 trials."""
    engine = _NEWLY_EXACT[name]()
    exact = measure_sim_error(engine, "exact").value
    plug = measure_sim_error(engine, "plugin", trials=200_000, master_seed=0)
    assert abs(plug.value - exact) <= plug.ci_halfwidth, (exact, plug)


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
                [e.p_m_given_x for e in engs]))
            assert _same_array(tab.slice_tx, np.stack(
                [e.slice_tx.T for e in engs]))
            assert _same_array(tab.slice_rx, np.stack(
                [e.slice_rx.T for e in engs]))
            assert _same_array(np.cumsum(tab.p_j_given_x, axis=2), np.cumsum(
                np.stack([e.p_j_given_x for e in engs]), axis=2))
            assert _same_array(tab.good, np.stack([e.good for e in engs]))
            for e in engs:
                assert _same_array(tab.k_of, [e.k_of(j) for j in range(n_j)])
                assert tab.j_cost == e.j_cost
            first, inner = engs[0], tab.inner
            assert inner.messages == first.messages == law.messages[t - 1]
            assert (inner.width, inner.l, inner.delta, inner.n_slices,
                    inner.total_hash_bits, inner.chunk) == (
                first.width, first.l, first.delta, first.n_slices,
                first.total_hash_bits, first.chunk)
            assert _same_array(
                encode_universe(len(inner.messages), inner.width),
                encode_universe(len(first.messages), first.width))
            if t == law.n_rounds:
                assert tab.next is None
                continue
            nxt = {h: a for a, h in enumerate(law.histories(t + 1))}
            assert _same_array(tab.next, np.array(
                [[nxt.get(h + (m,), -1) for m in inner.messages]
                 for h in hists], dtype=np.int64))


# (law, gamma): noisy-send rejects its transmitter tail index (bad_J); at
# gamma 0.5, send-x with k_override=None shares hash bits (k > 0)
_ROUND_ONE_LAWS = {
    "noisy-send": (lambda: noisy_send_protocol(dsbs_source(0.25), 0.15), 1.0),
    "send-x-dsbs^2": (lambda: send_value_protocol(
        product_source(dsbs_source(0.11), 2)), 0.5),
    "send-x-dsbs^3": (lambda: send_value_protocol(
        product_source(dsbs_source(0.11), 3)), 0.5),
}


@pytest.mark.parametrize("k_override", [0, None])
@pytest.mark.parametrize("name", sorted(_ROUND_ONE_LAWS))
def test_engine4_is_round_one_of_engine5(name, k_override):
    """Engine 4, built from the round view, plan and prior as
    ``_history_engines`` builds it, runs round 1 of engine 5 on a one-round
    law seed for seed: the same pairs, causes and bits everywhere, and the
    same M* and decode wherever the round succeeds."""
    make, gamma = _ROUND_ONE_LAWS[name]
    law = make()
    sim = ProtocolSimulator(law, auto_round_plans(law, gamma=gamma),
                            k_override=k_override)
    engine = _history_engines(sim)[(1, ())]
    T, seed = 4_000, 29
    batch = _trial_walk(sim, np.random.default_rng(seed), T)
    one = _trial_walk(engine, np.random.default_rng(seed), T)
    tx, decoded, xi, yj = one.keys.T
    cause, bits = one.cause, one.bits
    assert np.array_equal(batch.keys[:, 2], xi)
    assert np.array_equal(batch.keys[:, 3], yj)
    assert np.array_equal(batch.cause, cause)
    assert np.array_equal(batch.bits, bits)
    ok = cause == 0
    assert np.array_equal(batch.keys[ok, 0], tx[ok])
    assert np.array_equal(batch.keys[ok, 1], decoded[ok])
    assert ok.any()
    if name == "noisy-send":
        assert (cause == ERROR_CAUSES.index("bad_J") + 1).any()
    else:
        assert (tx[ok] != decoded[ok]).any()  # silent wrong decodes
        shared = engine.k_table[engine.good] > 0
        assert shared.any() == (k_override is None)
    # exact mode walks both the same way, bit for bit; send-x over dsbs^3
    # would decode 2^30 rows or more, past the cap, in both
    if name == "send-x-dsbs^3":
        for engine_ in (engine, sim):
            with pytest.raises(TooLarge):
                engine_.exact_view_law()
        return
    walks = [icsim.simulate._exact_walk(tables, law.source)
             for tables in ([engine.table], sim.tables)]
    assert all(_same_array(a, b) for a, b in zip(*walks))


@pytest.mark.parametrize("source, target", [
    ("dsbs:0.102", "send-x"), ("dsbs:0.065", "noisy-send:0.01"),
    ("dsbs^2:0.11", "send-x")])
def test_cli_engines_3_and_4_are_round_one_of_engine5(source, target):
    """Engines 3 and 4 from ``build_engine`` slice the conditional and
    prior of the round view that engine 5's round 1 slices: p4's table
    equals p5's round-1 table in every field, and p3's message law and
    receiver slices equal it too."""
    cfg = {"source": source, "target": target, "gamma": 3.0}
    p3, p4, p5 = (build_engine({**cfg, "protocol": p})
                  for p in ("p3", "p4", "p5"))
    want = p5.tables[0]
    for field in dataclasses.fields(want):
        got, ref = getattr(p4.table, field.name), getattr(want, field.name)
        if isinstance(ref, np.ndarray):
            assert _same_array(got, ref), field.name
        else:
            assert got == ref, field.name
    assert _same_array(p3.table.p_m, want.p_m)
    assert _same_array(p3.table.slice_rx, want.slice_rx)


def test_protocol_builds_one_round_simulator_per_round(monkeypatch):
    """Engine 5 builds no engine 3 or 4 and no source: each round's table
    holds a hash schedule, however many histories the round has."""
    law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
    plans = auto_round_plans(law, gamma=1.0)
    assert len(law.histories(2)) == 4
    calls = Counter()
    for cls in (RoundSimulator, ImprovedRoundSimulator, JointSource):
        def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            calls[_name] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", spy)
    sim = ProtocolSimulator(law, plans)
    assert not calls
    assert all(type(tab.inner).__name__ == "_HashSchedule"
               for tab in sim.tables)


def _slice_index_reference(p_m, prior, tx, gamma, total_hash_bits):
    """Engine 4's slice-index tables of message laws ``p_m`` (n_x, M) under
    the input prior ``prior``, written out per entry: ``(slice_tx,
    p_j_given_x, p_j, good, k_of, j_cost)``.  The slice of each message
    (n_x, M); P(J | x) sums the messages of slice J in order; p_j weighs it
    by the prior; the tail index and those of prior mass below 1 / n_tx^2
    are rejected; k(J) is the floored, clipped min-entropy of slice J."""
    n_tx, (nx, M) = tx.n_slices, p_m.shape
    slc = np.zeros((nx, M), dtype=np.int64)
    p_j_x = np.zeros((nx, n_tx + 1))
    for x in range(nx):
        for m in range(M):
            p = p_m[x, m]
            slc[x, m] = j = tx.slice_of(-math.log2(p)) if p > 0 else 0
            p_j_x[x, j] += p
    p_j = sum(prior[x] * p_j_x[x] for x in range(nx))
    good = [j > 0 and p_j[j] >= 1 / n_tx ** 2 - 1e-12
            for j in range(n_tx + 1)]
    k_of = [max(0, min(math.floor(tx.lambda_min + (j - 1) * tx.delta
                                  - 2 * math.log2(n_tx) - 2 * gamma + 2),
                       total_hash_bits)) for j in range(n_tx + 1)]
    j_cost = max(1, math.ceil(math.log2(max(n_tx, 2)))) + 1
    return slc, p_j_x, p_j, good, k_of, j_cost


def test_slice_index_tables_match_scalar_formulas():
    """Engine 4's slice-index tables against the formulas written out per
    entry (:func:`_slice_index_reference`)."""
    law = noisy_send_protocol(dsbs_source(0.25), 0.15)
    view = law.round_view(1, ())
    for gamma, prior, one_slice in itertools.product(
            (0.5, 1.0, 2.0), (None, np.array([0.8, 0.2])), (False, True)):
        rx = auto_slice_config(round_density_spectrum(law, 1, "rx"), gamma)
        tx = (SliceConfig(0.0, 1e-9, 1e-9, gamma) if one_slice else
              auto_slice_config(round_density_spectrum(law, 1, "tx"), gamma))
        e = ImprovedRoundSimulator(
            law.source, view if prior is None
            else dataclasses.replace(view, prior=prior), rx, tx)
        slc, p_j_x, p_j, good, k_of, j_cost = _slice_index_reference(
            view.p_m_given_x, view.prior if prior is None else prior,
            tx, gamma, e.total_hash_bits)
        assert np.array_equal(e.slice_tx, slc.T)
        assert np.array_equal(e.p_j_given_x, p_j_x)
        assert np.abs(e.p_j - p_j).max() <= 1e-15
        assert list(e.good) == good
        assert e.j_cost == j_cost
        assert [e.k_of(j) for j in range(tx.n_slices + 1)] == k_of


# (law, gamma, fixed transmitter slicing of round 2): data exchange's
# messages are deterministic, so every history accepts J = 1 only; on the
# two-round law the history priors decide the accepted indices, and k > 0
_ROUND_TWO_TX = {
    "data-exchange-dsbs^2:0.25": (1.0, SliceConfig(0.0, 3.0 + 1e-9, 1.0,
                                                   1.0)),
    "two-round": (0.5, SliceConfig(0.0, 6.0 + 1e-9, 1.0, 0.5)),
}


@pytest.mark.parametrize("name", sorted(_ROUND_TWO_TX))
def test_round_tables_match_scalar_formulas(name):
    """Round 2 of engine 5, stacked over its histories, against the
    per-entry formulas of :func:`_slice_index_reference` on each history's
    message law and prior."""
    law = _TABLE_LAWS[name]()
    gamma, tx = _ROUND_TWO_TX[name]
    sim = ProtocolSimulator(law, [RoundPlan(plan.rx, tx) for plan in
                                  auto_round_plans(law, gamma=gamma)])
    tab, hists = sim.tables[1], law.histories(2)
    inputs = _history_inputs(sim)
    assert tab.p_m.shape[0] == len(hists) > 1
    for h, hist in enumerate(hists):
        _, p_tx, _, prior = inputs[(2, hist)]
        slc, p_j_x, _, good, k_of, _ = _slice_index_reference(
            p_tx, prior, tx, gamma, tab.inner.total_hash_bits)
        assert np.array_equal(tab.slice_tx[h], slc)
        assert np.array_equal(np.cumsum(tab.p_j_given_x[h], axis=1),
                              np.cumsum(p_j_x, axis=1))
        assert tab.good[h].tolist() == good
        assert tab.k_of.tolist() == k_of
    if name == "two-round":
        assert (tab.good[0] != tab.good[1]).any() and tab.k_of.max() > 0


def test_engine4_builds_its_table_through_the_round_builder(monkeypatch):
    """Engine 4 builds one engine 3 (hash schedule, receiver slicing) and
    its tables with one call of the builder engine 5 uses, at one
    history."""
    calls = Counter()

    def spy(self, *args, _init=RoundSimulator.__init__, **kw):
        calls["RoundSimulator"] += 1
        _init(self, *args, **kw)

    build = _RoundTables.build

    def spy_build(cls, *args, **kw):
        calls["build"] += 1
        return build(*args, **kw)

    monkeypatch.setattr(RoundSimulator, "__init__", spy)
    monkeypatch.setattr(_RoundTables, "build", classmethod(spy_build))
    engine = build_engine({"source": "dsbs:0.25", "protocol": "p4",
                           "target": "noisy-send:0.15", "gamma": 3.0})
    assert calls == {"RoundSimulator": 1, "build": 1}
    assert engine.table.p_m.shape[0] == 1


@pytest.mark.parametrize("cfg", [
    {"protocol": "p1", "l": 3, "gamma": 1.0},
    {"protocol": "p2", "gamma": 1.0},
    {"protocol": "p3", "target": "send-x", "gamma": 1.0},
    {"protocol": "p4", "target": "noisy-send:0.15", "gamma": 3.0},
    {"protocol": "p5", "target": "data-exchange", "gamma": 2.0,
     "k_override": 0},
], ids=lambda cfg: cfg["protocol"])
def test_mismatches_count_views_with_tau_x_not_tau_y(cfg):
    """``TrialAggregate.mismatches`` counts the trials whose view has
    tau_x != tau_y.  So a declared failure is a mismatch on engines 1 to 3
    (tau_y is None), on engine 4 except ``bad_J`` (M* and the decode are
    both None) and never on engine 5 (a failed view is (None, None, x,
    y))."""
    engine = build_engine({"source": "dsbs:0.25", **cfg})
    agg = run_trials(engine, 4_000, 3)
    assert agg.mismatches == sum(n for v, n in agg.views.items()
                                 if v[0] != v[1])
    failed = sum(agg.errors.values())
    both_none = sum(n for v, n in agg.views.items()
                    if v[0] is None and v[1] is None)
    assert failed > 0
    assert both_none == {"p4": agg.errors["bad_J"], "p5": failed}.get(
        cfg["protocol"], 0)
    if cfg["protocol"] == "p4":
        assert 0 < agg.errors["bad_J"] < failed


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
              else [engine])
    return [(len(i.messages), i.total_hash_bits, i.width) for i in inners]


def _block_kernels(engine):
    """(columns, L, w) of the decode blocks of every trial kernel an engine
    runs: engine 1 hashes all M messages, engines 2 to 5 the S + C columns
    of a round table's candidate lists."""
    if isinstance(engine, SlepianWolfCoder):
        return _kernels(engine)
    tables = (engine.tables if isinstance(engine, ProtocolSimulator)
              else [engine.table])
    return [(tab.support[0].shape[-1] + tab.candidates[0].shape[-1],
             tab.inner.total_hash_bits, tab.inner.width) for tab in tables]


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
    lambda: sw_coder(l=3, gamma=1.0), interactive_coder, round_sim,
    lambda: TestImprovedRound().make(),
], ids=["p1", "p2", "p3", "p4"])
def test_round_run_trials_chunks_on_part_streams(make, monkeypatch):
    # BATCH_BYTES over the kernel's bytes per trial sets the chunk, and
    # chunk part of engine.chunk trials runs on the stream [seed, part]
    (kernel,) = _kernels(make())
    monkeypatch.setattr(icsim.simulate, "BATCH_BYTES",
                        300 * _kernel_bytes(*kernel))
    engine = make()
    assert engine.chunk == 300
    agg = run_trials(engine, 700, 9)
    views, errors, bits, mism = Counter(), Counter(), [], 0
    for part, n in enumerate((300, 300, 100)):
        k, c, e, b, mm = _walk_chunk(engine, n, [9, part])
        views.update(dict(zip(engine.views_of(k), c.tolist())))
        errors.update(e)
        bits.append(b)
        mism += mm
    assert list(agg.views.items()) == list(views.items())
    assert agg.errors == errors
    assert np.array_equal(agg.bits, np.concatenate(bits))
    assert agg.mismatches == mism


def test_interactive_coder_builds_its_table_once(monkeypatch):
    coder = interactive_coder(gamma=1.0)
    assert coder.table is coder.table and coder.tables == [coder.table]
    built = []
    column_lists = icsim.simulate._column_lists
    monkeypatch.setattr(icsim.simulate, "_column_lists",
                        lambda *a: built.append(a) or column_lists(*a))
    coder.chunk = 300
    run_trials(coder, 700, 9)  # three chunks
    coder.run(np.random.default_rng(0))
    coder.exact_view_law()
    # the support and candidate lists, each built once
    assert len(built) == 2


def _assert_one_index_law(tab, k):
    """The slice-index law of engines 2 and 3: the one index J = 0, every
    message in slice 0, accepted and sent in no bits, k shared bits."""
    assert tab.p_j_given_x.shape[-1] == 1 and tab.j_cost == 0 \
        and tab.good.all()
    assert not tab.slice_tx.any() and tab.k_of.tolist() == [k]


def test_round_simulator_builds_its_table_once(monkeypatch):
    # send-x over dsbs^6 at k = 1: the table holds the hash schedule, not
    # the engine, so the engine stores it; two chunks and three scalar runs
    # read one pair of candidate lists
    engine = build_engine({"source": "dsbs^6:0.11", "protocol": "p3",
                           "target": "send-x", "k": 1, "gamma": 3.0})
    assert engine.table is engine.table
    assert engine.table.inner is engine.schedule
    _assert_one_index_law(engine.table, 1)
    assert engine.chunk < 20_000 <= 2 * engine.chunk
    built = []
    column_lists = icsim.simulate._column_lists
    monkeypatch.setattr(icsim.simulate, "_column_lists",
                        lambda *a: built.append(a) or column_lists(*a))
    assert run_trials(engine, 20_000, 1).trials == 20_000
    for seed in range(3):
        engine.run(np.random.default_rng(seed))
    assert len(built) == 2
    # engine 4 is engine 3 with one table, built on its schedule, whose
    # law has the n_tx + 1 slice indices of its transmitter slicing
    improved = _big("p4")
    assert improved.table.inner is improved.schedule
    assert improved.table.p_j_given_x.shape[-1] == \
        improved.cfg_tx.n_slices + 1


def test_protocol_run_trials_chunks_on_part_streams():
    sim = TestProtocolSimulator().make(gamma=2.0)
    sim.chunk = 300
    agg = run_trials(sim, 700, 9)
    for part, (lo, hi) in enumerate([(0, 300), (300, 600), (600, 700)]):
        batch = _trial_walk(sim, np.random.default_rng([9, part]), hi - lo)
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
    # columns too wide to share an int64 code: one code per column, then
    # small columns packed into one code after a wide one
    np.random.default_rng(4).integers(-2, 2, size=(3_000, 4)) << 40,
    np.random.default_rng(5).integers(-1, 3, size=(3_000, 5))
    * np.array([1, 1 << 61, 1, 1, 5]),
    # a column-major view, as the trial walk keeps its keys
    np.zeros((7, 2_000), dtype=np.int64).T[:, :5]
    + np.random.default_rng(6).integers(-1, 2, size=(2_000, 5)),
], ids=["ties", "one-row", "signs", "empty", "wide", "mixed", "columns"])
def test_unique_rows_matches_np_unique(keys):
    uniq, inverse, counts = _unique_rows(keys)
    ref_uniq, ref_inverse, ref_counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True)
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(inverse, ref_inverse.ravel())
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(uniq[inverse], keys)


def test_first_seen_merges_chunks_as_counter_update():
    # run_trials merges its chunks' distinct rows in the order they are
    # first seen, as Counter.update merged the chunks' views
    rng = np.random.default_rng(3)
    keys, counts, ref = [], [], Counter()
    for n in (40, 60, 1, 80):
        k, _, c = _unique_rows(rng.integers(-1, 4, size=(n, 4)))
        keys.append(k)
        counts.append(c)
        ref.update(dict(zip(map(tuple, k.tolist()), c.tolist())))
    rows, total = _first_seen(keys, counts)
    assert list(zip(map(tuple, rows.tolist()), total.tolist())) == \
        list(ref.items())
    assert total.dtype == np.int64
    one = _first_seen(keys[:1], counts[:1])
    assert one[0] is keys[0] and one[1] is counts[0]


def test_write_back_ends_unknown_histories_and_spent_budgets():
    """Round 1 of 2 written back as both walks write it: M* and the decode
    into the keys, also when the round failed; the bits, past ``l_max``
    a budget failure; and for the trials that completed the round, both
    parties' next histories, an unknown one ending the trial as no_match.
    The tests' laws reach no unknown history: a party sends and decodes
    only messages of positive probability at its own history."""
    R, K = 2, 6
    # round 1's next history of each message: message 1 leads nowhere
    tab = SimpleNamespace(next=np.array([[0, -1, 1]]))
    rows = np.zeros((5, K + 4), dtype=np.int64)
    rows[:, :2 * R] = -1
    rows[:, K + 2] = [0, 0, 0, 0, 6]
    m_star, decoded = np.array([0, 1, 2, 2, 0]), np.array([2, 0, 1, 0, 0])
    cause = np.array([0, 0, 0, ERROR_CAUSES.index("tail") + 1, 0])
    done = _write_back(rows, R, 1, tab, m_star, decoded, cause,
                       np.full(5, 3), 8)
    assert done.tolist() == [True, True, True, False, False]
    assert [ERROR_CAUSES[c - 1] if c else None for c in rows[:, K + 3]] == \
        [None, "no_match", "no_match", "tail", "budget_exceeded"]
    assert rows[:, 0].tolist() == m_star.tolist()      # x spoke round 1
    assert rows[:, R].tolist() == decoded.tolist()     # y decoded it
    assert (rows[:, [1, R + 1]] == -1).all()
    assert rows[:, K + 2].tolist() == [3, 3, 3, 3, 9]
    # histories of x and y: looked up only for the completed trials
    assert rows[:, K:K + 2].tolist() == [[0, 1], [-1, 0], [1, -1], [0, 0],
                                         [0, 0]]


def test_round_kernel_never_picks_zero_weight_message():
    sim = round_sim(q=0.25)  # send-x: two messages
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.25, 0.75]])
    T = 2 * len(rows)
    p_rows = np.repeat(rows, 2, axis=0)
    u_m = np.tile([0.0, _TOP], len(rows))
    blocks = np.zeros((T, sim.total_hash_bits, sim.width + 1), np.uint8)
    # every message allowed, and the listener at its table's row 0
    sup, (p_sup,), _ = _column_lists(p_rows > 0, 1, p_rows)
    m_star, *_ = _round_kernel(
        sim.table, sup, p_sup, np.ones(sup.shape, dtype=bool),
        np.zeros(T, dtype=np.int64), np.zeros(T, dtype=np.int64), blocks,
        np.zeros(T, dtype=np.int64), u_m)
    assert p_rows[np.arange(T), m_star].min() > 0
    assert m_star.tolist() == [1, 1, 0, 0, 0, 1]


def test_interactive_coder_is_round_simulator_on_identity():
    cfg = SliceConfig(0.0, 6.0 + 1e-9, 3.0, 0.0)  # l defaults to 3
    src = product_source(dsbs_source(0.2), 2)
    coder = InteractiveSWCoder(src, cfg, l=2)
    assert isinstance(coder, RoundSimulator)
    assert coder.k == 0 and coder.l == 2
    assert coder.messages == src.x_alphabet
    assert np.array_equal(coder.p_m_given_x, np.eye(len(src.x_alphabet)))
    assert coder.total_hash_bits == 2 + (coder.n_slices - 1) * 3
    assert coder.bits_for_slice(2) == 2 + 3 + 2
    # trials and exact mode both read the engine's one-index table
    assert coder.table.p_m.base is coder.p_m_given_x
    _assert_one_index_law(coder.table, 0)
    # so a trial batch of engine 3 at k = 0 draws the source pairs, the hash
    # blocks and the M* uniforms, and no slice index
    T = 50
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    _trial_walk(coder, rng, T)
    src.sample(ref, size=T)
    ref.integers(0, 2, size=(T, coder.total_hash_bits, coder.width + 1),
                 dtype=np.uint8)
    ref.random(T)
    assert rng.bit_generator.state == ref.bit_generator.state


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
    interactive_coder,
], ids=["p3-send-x-dsbs3", "p3-noisy", "p4-noisy", "p2"])
def test_round_true_view_law_matches_pair_loop(make):
    engine = make()
    law = engine.true_view_law()
    ref = _true_view_law_by_pairs(engine)
    assert law.symbols == ref.symbols
    assert law.probs.tobytes() == ref.probs.tobytes()


def test_round_true_view_law_joins_pairs_with_the_support():
    # engine 2 over dsbs^8 has 256 x values, 256 y values and 256
    # messages: an (x, y, m) mask of the live triples is 16 MiB, while the
    # key form of the true law, 65,536 rows of 4 int64 keys with their
    # weights, takes 2.5 MiB
    engine = build_engine({"source": "dsbs^8:0.11", "protocol": "p2",
                           "gamma": 3.0})
    tracemalloc.start()
    try:
        keys, p = engine.true_view_rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.shape == (1 << 16, 4) and p.shape == (1 << 16,)
    assert peak < 16 << 20, peak


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


def test_sw_run_is_trial_zero_of_the_batch():
    # the scalar run is trial 0 of the trial batch on the same stream, on
    # the given (x, y) or on a sampled pair
    coder = _p1(product_source(dsbs_source(0.25), 2), 4)
    xs, ys = coder.source.x_alphabet, coder.source.y_alphabet
    T = 5
    for s in range(60):
        i, j = s % len(xs), (s // 4) % len(ys)
        pairs = (np.r_[i, np.arange(T - 1) % len(xs)],
                 np.r_[j, np.arange(T - 1) % len(ys)])
        for given in (True, False):
            out = (coder.run(np.random.default_rng(s), xs[i], ys[j])
                   if given else coder.run(np.random.default_rng(s)))
            batch = _sw_trials(coder, np.random.default_rng(s),
                               T if given else 1,
                               pairs=pairs if given else None)
            a, d, xi, yj = batch.keys[0].tolist()
            c = int(batch.cause[0])
            assert a == xi
            assert (out.x, out.y, out.tau_x, out.tau_y) == (
                xs[xi], ys[yj], xs[a], None if d < 0 else xs[d]), s
            # one round at l bits, ending in slice 1, done unless it failed
            assert (out.bits, out.error, out.slice_hit) == (
                coder.l, None if c == 0 else ERROR_CAUSES[c - 1], 1)
            assert (batch.bits[0], batch.hit[0], batch.rounds[0]) == (
                coder.l, 1, c == 0)
            if given:
                assert (out.x, out.y, out.tau_x) == (xs[i], ys[j], xs[i])


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
    keys, terms = [], []
    for start in range(0, n_fam, step):
        hs = pack_hashes(family_blocks(
            sim.width, L, start, min(start + step, n_fam)),
            encode_universe(M, sim.width))
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
            sim.table, j[c], mc, h[np.arange(c.size), mc],
            lambda rows, idx: np.take_along_axis(h[rows], idx, axis=1),
            np.full(c.size, k), u)[0]
        keys.append(np.column_stack([mc, decoded, i[c], j[c]]))
        terms.append(p)
    # each view's terms summed in row order, from 0.0
    uniq, w = icsim.simulate._merge_rows(np.concatenate(keys),
                                         np.concatenate(terms))
    msgs = (None,) + sim.messages
    xs, ys = sim.source.x_alphabet, sim.source.y_alphabet
    return FiniteDistribution.from_mapping(
        {(msgs[a + 1], msgs[d + 1], xs[x], ys[y]): p
         for (a, d, x, y), p in zip(uniq.tolist(), w.tolist())})


def _protocol_full_walk(sim):
    """Engine 5's exact view law from :func:`_trial_walk` on every live pair
    and chain of affine family members, one per round, each weighing its
    pair's mass over the number of chains."""
    sizes = [family_size(tab.inner.width, tab.inner.total_hash_bits)
             for tab in sim.tables]
    chains = math.prod(sizes)
    live_i, live_j = np.nonzero(sim.src.mass > 0)
    term = sim.src.mass[live_i, live_j] * (1.0 / chains)
    total = live_i.size * chains
    rng = np.random.default_rng(0)
    keys, terms = [], []
    for start in range(0, total, sim.chunk):
        pair, code = np.divmod(
            np.arange(start, min(start + sim.chunk, total)), chains)
        blocks = []
        for tab, size in zip(sim.tables[::-1], sizes[::-1]):
            code, member = np.divmod(code, size)
            blocks.insert(0, member_blocks(
                tab.inner.width, tab.inner.total_hash_bits, member))
        batch = _trial_walk(sim, rng, pair.size, blocks=blocks,
                            pairs=(live_i[pair], live_j[pair]))
        keys.append(batch.keys)
        terms.append(term[pair])
    # each view's terms summed in row order, from 0.0
    uniq, w = icsim.simulate._merge_rows(np.concatenate(keys),
                                         np.concatenate(terms))
    return FiniteDistribution.from_mapping(
        dict(zip(sim.views_of(uniq), w.tolist())))


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
           else _round_full_walk(engine))
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


def _round_rows(tab, rng, tx, rx):
    """Per-trial inputs of one round on the table ``tab`` at the speaker
    rows ``tx`` and listener rows ``rx`` ((history, symbol) arrays), with
    slice indices drawn from each speaker row's law of J (1 on a row with
    no law, whose restriction is then empty): ``(jj, dense, lists)``.
    ``dense`` holds the (T, M) rows ``(p_rows, restrict, slc)`` of the
    reference kernel, ``lists`` the same trials' inputs ``(sup, p_sup,
    restrict, r)`` of :func:`_round_kernel`: the support-list rows and the
    listener's flat table rows."""
    T = tx[0].size
    sup, p_sup, slc_tx = (None if a is None else a[tx] for a in tab.support)
    r = rx[0] * tab.slice_rx.shape[1] + rx[1]
    if tab.p_j_given_x is None:
        jj = np.zeros(T, dtype=np.int64)
        dense_restrict = np.ones((T, tab.p_m.shape[-1]), dtype=bool)
        restrict = np.ones(sup.shape, dtype=bool)
    else:
        cum = np.cumsum(tab.p_j_given_x[tx], axis=1)
        jj = np.where(cum[:, -1] > 0, _pick_slice(cum, rng.random(T)), 1)
        dense_restrict = tab.slice_tx[tx] == jj[:, None]
        restrict = slc_tx == jj[:, None]
    return jj, (tab.p_m[tx], dense_restrict, tab.slice_rx[rx]), (
        sup, p_sup, restrict, r)


def _kernel_inputs(name, rng, T):
    """A round table and kernel inputs of T trials on it: engine 3 on
    send-x over dsbs^2 or on noisy-send, at random source pairs, or round 2
    of engine 5 on data exchange over dsbs^2 at random rows, whose
    restriction is the drawn slice index.  Returns ``(tab,) +``
    :func:`_round_rows`."""
    if name == "data-exchange":
        law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
        tab = ProtocolSimulator(law, auto_round_plans(law, gamma=2.0),
                                k_override=None).tables[1]
        H, n_tx, _ = tab.p_m.shape
        tx = (rng.integers(0, H, size=T), rng.integers(0, n_tx, size=T))
        rx = (tx[0], rng.integers(0, tab.slice_rx.shape[1], size=T))
        return (tab,) + _round_rows(tab, rng, tx, rx)
    inner = (build_engine({"source": "dsbs^2:0.25", "protocol": "p3",
                           "target": "send-x", "gamma": 1.0})
             if name == "send-x-dsbs2" else _noisy_round())
    xi, yj = inner.source.sample(rng, size=T)
    h = np.zeros(T, dtype=np.int64)
    return (inner.table,) + _round_rows(inner.table, rng, (h, xi), (h, yj))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["send-x-dsbs2", "noisy-send",
                                  "data-exchange"])
def test_offset_cancels_in_round_kernel(name, k):
    """The round at (matrix A, offset b, string u) is the round at
    (A, 0, u ^ (b mod 2^k)): the same M*, decode, cause, bits and hit."""
    rng = np.random.default_rng(k)
    T = 4_000
    tab, _, _, lists = _kernel_inputs(name, rng, T)
    inner = tab.inner
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
        return _round_kernel(tab, *lists, k_t, b, s, u_m)

    got, want = run(blocks, u), run(linear, shifted)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # some trials decode, and with a shared prefix the string must move
    # with the offset
    assert (got[1] >= 0).any()
    if k:
        assert not all(np.array_equal(a, b)
                       for a, b in zip(got, run(linear, u)))


def _oracle_tables(name):
    """The round tables of a kernel oracle case."""
    if name == "send-x-dsbs2":
        return [build_engine({"source": "dsbs^2:0.25", "protocol": "p3",
                              "target": "send-x", "gamma": 1.0}).table]
    if name == "noisy-send":  # engine 4: a rejected tail index, S = 2
        return [_noisy_round(improved=True).table]
    if name == "p2-dsbs2":  # a 2-bit first slice: multiple matches
        return [InteractiveSWCoder(product_source(dsbs_source(0.2), 2),
                                   SliceConfig(0.0, 4.0 + 1e-9, 2.0,
                                               0.0)).table]
    law = (data_exchange_protocol if name == "data-exchange"
           else exchange_bits_protocol)(product_source(dsbs_source(0.25), 2))
    return ProtocolSimulator(law, auto_round_plans(law, gamma=2.0),
                             k_override=None).tables


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ["send-x-dsbs2", "noisy-send", "p2-dsbs2",
                                  "data-exchange", "exchange-bits"])
def test_round_kernel_matches_dense_reference(name, k):
    """The candidate-list kernel gives the dense kernel's M*, decode,
    cause, bits and hit on every trial, on the same draws and the rows of
    real tables (engines 2 to 4, and every round of data exchange and of
    the 4-round exchange-bits over dsbs^2), the speaker and listener rows
    drawn independently."""
    rng = np.random.default_rng([7, k])
    T = 4_000
    seen = Counter()
    for tab in _oracle_tables(name):
        inner = tab.inner
        H, n_tx, M = tab.p_m.shape
        tx = (rng.integers(0, H, size=T), rng.integers(0, n_tx, size=T))
        rx = (rng.integers(0, H, size=T),
              rng.integers(0, tab.slice_rx.shape[1], size=T))
        jj, dense, lists = _round_rows(tab, rng, tx, rx)
        blocks = rng.integers(0, 2, size=(T, inner.total_hash_bits,
                                          inner.width + 1), dtype=np.uint8)
        k_t = np.full(T, k, dtype=np.int64)
        u = rng.integers(0, 1 << 62, size=T, dtype=np.int64)
        u_m = rng.random(T)
        u_m[:T // 10] = 0.0
        u_m[T // 10:T // 5] = _TOP
        got = _round_kernel(tab, *lists, k_t, blocks, u, u_m)
        want = dense_round_kernel(inner, dense[0], dense[1], dense[2], k_t,
                                  blocks, u, u_m, tab.j_cost)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # what the trials went through
        p_rows, restrict, slc = dense
        h = dense_hashes(inner, blocks)
        mask = (np.int64(1) << k_t) - 1
        prefix = (h & mask[:, None]) == (u & mask)[:, None]
        seen["no prefix match"] += int(
            ((p_rows * (prefix & restrict)).sum(axis=1) <= 0).sum())
        seen["fallback to message 0"] += int(
            ((p_rows * (prefix & restrict)).sum(axis=1) <= 0)
            [got[0] == 0].sum())
        seen["no support"] += int((p_rows.sum(axis=1) == 0).sum())
        seen["no candidate"] += int((slc < 1).all(axis=1).sum())
        seen["multiple match"] += int((got[2] == 3).sum())
        seen["support of 2"] += int(((p_rows > 0).sum(axis=1) == 2).sum())
        if tab.good is not None:
            ok = jj < tab.good.shape[1]
            seen["rejected J"] += int((~tab.good[tx[0][ok], jj[ok]]).sum())
        seen["decoded"] += int((got[1] >= 0).sum())
    assert seen["decoded"]
    if k:
        assert seen["no prefix match"] and seen["fallback to message 0"]
    if name == "noisy-send":
        assert seen["support of 2"] and seen["rejected J"]
    if name == "p2-dsbs2":
        assert seen["multiple match"]
    if name == "data-exchange":
        assert seen["no candidate"]
    if name == "exchange-bits":
        assert seen["no support"] and seen["no candidate"]
        assert seen["fallback to message 0"]


#: a source whose listener rows hold 2 or 4 messages in receiver slice 1
#: of p4 send-x at gamma = 2, and 2 in slice 2
_UNEVEN_SOURCE = {
    "x_alphabet": [0, 1, 2, 3, 4, 5], "y_alphabet": ["a", "b", "c"],
    "mass": [[0.125, 0.0625, 0.125], [0.0625, 0.0625, 0.125],
             [0.03125, 0.0625, 0.0625], [0.015625, 0.0625, 0.0625],
             [0.0078125, 0.03125, 0.03125], [0.0078125, 0.03125, 0.03125]]}


def _lazy_search_table(name):
    """The round table of a lazy-search oracle case: p4 send-x on
    ``_UNEVEN_SOURCE``, whose block of slice 1 pads the rows of 2
    candidates to 4, or p2 over dsbs^3 with slices of 2 bits from 0 and a
    1-bit first slice, whose four blocks hold 1, 3, 3 and 0 candidates."""
    if name == "uneven-slices":
        return build_engine({"source": _UNEVEN_SOURCE, "protocol": "p4",
                             "target": "send-x", "gamma": 2.0}).table
    return InteractiveSWCoder(product_source(dsbs_source(0.2), 3),
                              SliceConfig(0.0, 6.0 + 1e-9, 2.0, 0.0),
                              l=1).table


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", ["uneven-slices", "every-slice"])
def test_lazy_slice_search_matches_dense_reference(name, k):
    """The slice-major candidate blocks hold each listener row's messages
    of each slice in message order, padded with message 0 in slice 0, and
    the search over the trials still searching gives the dense kernel's
    M*, decode, cause, bits and hit on every trial: with padding in a
    block, and with trials ending in every slice by an ACK, after slice 1
    by a multiple match, and in the last slice, an empty one, by a no
    match or a tail."""
    tab = _lazy_search_table(name)
    inner = tab.inner
    n = inner.n_slices
    cand, starts = tab.candidates
    rx_rows = tab.slice_rx.reshape(-1, tab.slice_rx.shape[-1])
    for row, c_row in enumerate(cand.reshape(len(rx_rows), -1)):
        for s in range(1, n + 1):
            c_blk = c_row[starts[s - 1]:starts[s]]
            own = np.flatnonzero(rx_rows[row] == s)
            assert c_blk[:own.size].tolist() == own.tolist()
            assert (c_blk[own.size:] == -1).all()
    rng = np.random.default_rng([11, k])
    T = 4_000
    H, n_tx, M = tab.p_m.shape
    tx = (rng.integers(0, H, size=T), rng.integers(0, n_tx, size=T))
    rx = (rng.integers(0, H, size=T),
          rng.integers(0, tab.slice_rx.shape[1], size=T))
    _, dense, lists = _round_rows(tab, rng, tx, rx)
    blocks = rng.integers(0, 2, size=(T, inner.total_hash_bits,
                                      inner.width + 1), dtype=np.uint8)
    k_t = np.full(T, k, dtype=np.int64)
    u = rng.integers(0, 1 << 62, size=T, dtype=np.int64)
    u_m = rng.random(T)
    got = _round_kernel(tab, *lists, k_t, blocks, u, u_m)
    want = dense_round_kernel(inner, *dense, k_t, blocks, u, u_m,
                              tab.j_cost)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # (hit, cause) of the trials: 0 none, 1 tail, 2 no match, 3 multiple
    ends = set(zip(got[4].tolist(), got[2].tolist()))
    if name == "uneven-slices":
        assert starts.tolist() == [0, 4, 6]
        assert (cand[..., :4] == -1).any()
        assert {(1, 0), (2, 0), (2, 1), (2, 2), (2, 3)} <= ends
    else:
        assert starts.tolist() == [0, 1, 4, 7, 7]
        assert {(1, 0), (2, 0), (3, 0), (2, 3), (3, 3), (n, 1)} <= ends
        if k:
            assert (n, 2) in ends


def test_receiver_with_no_slice_ends_every_trial_as_tail():
    # a range of 1e-13 below a slice width of 1 holds no slice, and would
    # give a hash budget below l: it is refused
    with pytest.raises(OutOfRange, match="holds no slice"):
        SliceConfig(lambda_min=0.0, lambda_max=1e-13, delta=1.0, gamma=2.0)
    # one slice, [5, 6), that no message reaches (the receiver's densities
    # are log2(4/3) and 2): the candidate lists are one padding column, no
    # slice is searched, and every trial and every exact atom ends as a tail
    src = dsbs_source(0.25)
    cfg = SliceConfig(lambda_min=5.0, lambda_max=6.0, delta=1.0, gamma=2.0)
    assert cfg.n_slices == 1
    sim = RoundSimulator(src, send_value_protocol(src).round_view(1, ()),
                         cfg, 0)
    cand, starts = sim.table.candidates
    assert cand.shape[-1] == 1 and (cand == -1).all()
    assert starts.tolist() == [0, 1]
    agg = run_trials(sim, 500, 1)
    assert agg.errors == {"tail": 500}
    law = sim.exact_view_law()
    assert [v[1] for v in law.symbols] == [None] * 4
    assert np.array_equal(law.probs, src.mass.ravel())


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
        # blocks of one linear part: every round walks each of its own
        monkeypatch.setattr(icsim.simulate, "EXACT_BLOCK_BYTES", 1)
        calls = _blocks_spy(monkeypatch)
        law = engine.exact_view_law()
        assert calls == [
            (tab.inner.width, tab.inner.total_hash_bits, a, a + 1)
            for tab in engine.tables
            for a in range(1 << (tab.inner.total_hash_bits
                                 * tab.inner.width))]
    else:
        if isinstance(engine, SlepianWolfCoder):
            out_bits, M = engine.l, len(engine.source.x_alphabet)
            # a block decodes one row per live pair of each linear part
            per_part = int((engine.source.mass > 0).sum())
        else:
            out_bits, M = engine.total_hash_bits, len(engine.messages)
            # one row per live pair and shared string: send-x supports one
            # message per x
            per_part = int((engine.source.mass > 0).sum()) << engine.k
        n_lin = family_size(engine.width, out_bits) >> out_bits
        # blocks of 2/5 of the linear parts: two full blocks and a partial
        monkeypatch.setattr(icsim.simulate, "EXACT_BLOCK_BYTES",
                            per_part * _kernel_bytes(M, out_bits, engine.width)
                            * (2 * n_lin // 5))
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
    # every kernel of the engine has the same block row bytes, so the same
    # rows
    (row_bytes,) = {_kernel_bytes(*k) for k in _block_kernels(engine)}
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
    # target may run in a worker thread: record the thread of every wrapped
    # call while engines 1, 4 and 5 decode chunks of 40 blocks and the
    # plug-in bootstrap draws 1,000 one-row blocks.  The traced bench-smoke
    # runs reach neither engine 1's nor the bootstrap's worker threads
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
    decoders, samplers = set(), []
    for name in ("_sw_kernel", "_round_kernel"):
        def spy(*args, _kernel=getattr(icsim.simulate, name)):
            decoders.add(threading.get_ident())
            return _kernel(*args)
        monkeypatch.setattr(icsim.simulate, name, spy)
    default_rng = np.random.default_rng

    def recording_rng(seed):
        samplers.append(threading.get_ident())
        return default_rng(seed)

    monkeypatch.setattr(icsim.simulate, "_usable_cpus", lambda: 2)
    tracer.set_traced(True)
    try:
        for make in (lambda: sw_coder(l=3, gamma=1.0),
                     lambda: TestImprovedRound().make(),
                     lambda: TestProtocolSimulator().make(gamma=2.0)):
            engine = make()
            row_bytes = max(_kernel_bytes(*k) for k in _kernels(engine))
            monkeypatch.setattr(icsim.simulate, "TRIAL_BLOCK_BYTES",
                                50 * row_bytes)
            agg = icsim.simulate.run_trials(engine, 2_000, 1)
            assert agg.trials == 2_000
        with monkeypatch.context() as m:
            m.setattr(icsim.evaluate, "EXACT_BLOCK_BYTES", 1)
            m.setattr(np.random, "default_rng", recording_rng)
            est = icsim.evaluate.measure_sim_error(engine, "plugin",
                                                   master_seed=1, agg=agg)
        assert est.samples == 2_000
    finally:
        tracer.restore()
    main = threading.get_ident()
    # the estimate reads the engine's true law as key rows, through no
    # span target (true_view_law is one)
    assert {"simulate.build", "simulate.driver"} <= {s for s, _ in callers}
    assert {t for _, t in callers} == {main}
    assert decoders - {main}  # the blocks ran on the decode threads
    # and the bootstrap's 1,000 blocks too
    assert len(samplers) == 1_000 and main not in samplers


def test_decode_blocks_sized_by_candidate_width(monkeypatch):
    # send-x over dsbs^6 (M = 64): a chunk is still sized by all 64
    # messages, 17,650 trials, while its decode blocks are sized by the 23
    # columns of the candidate lists, the sender's one supported message
    # and the receiver's 22 messages of slices 1 to 3: 2,574 rows where
    # blocks of 64 columns held 1,103
    engine = _big("p4")
    tab = engine.table
    assert (tab.support[0].shape[-1], tab.candidates[0].shape[-1]) == (1, 22)
    assert engine.chunk == 17_650
    L, w = engine.total_hash_bits, engine.width
    assert icsim.simulate.TRIAL_BLOCK_BYTES // _kernel_bytes(64, L, w) == 1_103
    rows = _kernel_rows(monkeypatch)
    assert run_trials(engine, 10_000, 1).trials == 10_000
    assert sorted(rows, reverse=True) == [2_574] * 3 + [10_000 - 3 * 2_574]


def test_protocol_slices_each_history_once(monkeypatch):
    # each round slices the listener's tables and the speaker's once, all
    # histories in one call
    law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
    plans = auto_round_plans(law, gamma=2.0)
    shapes = []
    slice_table = icsim.simulate._slice_table
    monkeypatch.setattr(
        icsim.simulate, "_slice_table", lambda shape, cells, density, cfg: (
            shapes.append(shape) or slice_table(shape, cells, density, cfg)))
    sim = ProtocolSimulator(law, plans, k_override=0)
    want = []
    for tab in sim.tables:
        want += [tab.slice_rx.shape, tab.p_m.shape]
    assert shapes == want
    assert [tab.slice_rx.shape[0] for tab in sim.tables] == [1, 4]


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


@pytest.mark.parametrize("cfg, trials", [
    ({"source": "dsbs^2:0.25", "protocol": "p1", "l": 4, "gamma": 1.0},
     2_000),
    ({"source": "dsbs^2:0.25", "protocol": "p2", "gamma": 2.0}, 2_000),
    ({"source": "dsbs^2:0.25", "protocol": "p3", "target": "send-x",
      "gamma": 2.0, "k": 1}, 2_000),
    # the benchmark's p4-product6 job: an 18-block bootstrap on two threads
    ({"source": "dsbs^6:0.11", "protocol": "p4", "target": "send-x",
      "gamma": 3.0}, 10_000),
    ({"source": "dsbs:0.25", "protocol": "p5", "target": "data-exchange",
      "gamma": 2.0, "k_override": 0}, 2_000),
], ids=["p1", "p2", "p3", "p4", "p5"])
def test_job_leaves_no_garbage_cycle(cfg, trials):
    # a job's engine and aggregates are freed by reference counting alone:
    # a cycle (say, a round table that holds its own engine) would keep
    # their arrays alive until the cyclic collector runs.  The first job of
    # a process imports modules lazily (numpy.ma), which leaves cycles of
    # its own, so one job runs before the one that is checked
    for warm_up in (True, False):
        gc.collect()
        gc.disable()
        try:
            engine = build_engine(cfg)
            agg = run_trials(engine, trials, 1)
            est = measure_sim_error(engine, "plugin", master_seed=1, agg=agg)
            assert est.samples == trials
            del engine, agg, est
            assert warm_up or gc.collect() == 0
        finally:
            gc.enable()


def _slice_table_reference(shape, cells, density, cfg):
    """``_slice_table`` as first written: ``SliceConfig.slice_of`` per
    entry, on each entry's density; 0 at the entries of zero mass."""
    values, rank = density
    out = np.zeros(int(np.prod(shape)), dtype=int)
    for cell, h in zip(cells.tolist(), values[rank].tolist()):
        out[cell] = cfg.slice_of(h)
    return out.reshape(shape)


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
        RoundSimulator(src, view, rx, k=i % 3)
        ImprovedRoundSimulator(src, view, rx, tx)
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

    def spy(shape, cells, density, cfg):
        out = _slice_table(shape, cells, density, cfg)
        calls.append((shape, cells, density, cfg, out))
        return out

    monkeypatch.setattr(icsim.simulate, "_slice_table", spy)
    _SLICED_ENGINES[name]()
    assert calls
    for shape, cells, density, cfg, got in calls:
        want = _slice_table_reference(shape, cells, density, cfg)
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
def test_slice_table_edges(cfg):
    # densities at every slice floor, at lambda_max, an ulp either side of
    # each, just below lambda_min, past lambda_max and at zero mass (+inf,
    # an entry no density is given for); each value is exact
    floors = [cfg.lambda_min + (i - 1) * cfg.delta
              for i in range(1, cfg.n_slices + 2)] + [cfg.lambda_max]
    h = [np.inf, cfg.lambda_min - 1e-12, cfg.lambda_max + 5.0]
    for f in floors:
        h += [f, np.nextafter(f, -np.inf), np.nextafter(f, np.inf)]
    h = np.array(h).reshape(3, -1)
    cells = np.flatnonzero(np.isfinite(h))
    values, rank = np.unique(h.flat[cells], return_inverse=True)
    got = _slice_table(h.shape, cells, (values, rank), cfg)
    want = _slice_table_reference(h.shape, cells, (values, rank), cfg)
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
    """Count the uncached round-view computations, by (law, t, hist): a
    round's views are computed together."""
    counts = Counter()
    compute = TranscriptLaw._round_views

    def spy(law, t):
        views = compute(law, t)
        counts.update((id(law), t, hist) for hist in law.histories(t))
        return views

    monkeypatch.setattr(TranscriptLaw, "_round_views", spy)
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
    # the plans and the budget read the same (round, side) spectra
    spectra = []
    from_atoms = SpectrumTable.from_atoms.__func__
    monkeypatch.setattr(SpectrumTable, "from_atoms", classmethod(
        lambda cls, *a: spectra.append(a) or from_atoms(cls, *a)))
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
    # two rounds, two sides: each spectrum built once
    assert len(spectra) == 2 * law.n_rounds == 4


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


# -- the prices of the engines' own tables -------------------------------------


def _priced_peak(builds, monkeypatch) -> tuple:
    """The tracemalloc peak of the last of ``builds`` (callables), and the
    prices ``icsim.simulate`` checks while it runs; the others run first,
    untraced, so one-time initializations are not counted."""
    prices = []
    monkeypatch.setattr(icsim.simulate, "check_bytes",
                        lambda nbytes, what: prices.append(nbytes))
    for build in builds[:-1]:
        build()
    prices.clear()
    tracemalloc.start()
    try:
        builds[-1]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, prices


@pytest.mark.parametrize("m", [6, 8])
def test_engine1_price_bounds_its_build_peak(monkeypatch, m):
    # the (nx, ny) conditional, its densities with log2_each's sort and the
    # typical set, on a source whose conditional is not yet cached: the
    # peak is at most the price, up to 16 KiB of fixed overhead
    sources = [product_source(dsbs_source(0.11), m) for _ in range(2)]
    peak, prices = _priced_peak(
        [lambda src=src: SlepianWolfCoder(src, 20, 2.0) for src in sources],
        monkeypatch)
    assert len(prices) == 1 and peak <= prices[0] + (16 << 10), (peak, prices)


def _two_round_law(m):
    rng = np.random.default_rng(5)
    src = product_source(dsbs_source(0.11), m)
    return two_round_protocol(src, rng.dirichlet(np.ones(4), 1 << m),
                              range(4), rng.dirichlet(np.ones(4), (1 << m, 4)),
                              range(4))


@pytest.mark.parametrize("law", [
    lambda: send_value_protocol(product_source(dsbs_source(0.11), 6)),
    lambda: data_exchange_protocol(product_source(dsbs_source(0.11), 4)),
    lambda: exchange_bits_protocol(product_source(dsbs_source(0.11), 5)),
    lambda: _two_round_law(5),
], ids=["send-x", "data-exchange", "exchange-bits", "two-round"])
def test_engine5_price_bounds_its_tables_peak(monkeypatch, law):
    # every round's tables with their support and candidate lists, from
    # views and plans already built: the peak is at most the one price
    # checked before the first table, up to 16 KiB of fixed overhead
    def tables():
        target = law()
        plans = auto_round_plans(target, gamma=3.0)
        return lambda: [(tab.support, tab.candidates) for tab in
                        ProtocolSimulator(target, plans, k_override=0).tables]

    peak, prices = _priced_peak([tables(), tables()], monkeypatch)
    assert len(prices) == 1 and peak <= prices[0] + (16 << 10), (peak, prices)
