import math
import tracemalloc

import numpy as np
import pytest

import icsim.protocol
from icsim.errors import (
    AlphabetMismatch,
    OutOfRange,
    SupportViolation,
    TooLarge,
)
from icsim.probcore import (
    JointSource,
    dsbs_source,
    entropy_density,
    product_source,
    spectrum,
)
from icsim.protocol import (
    LAW_BYTES_CAP,
    MixedProtocol,
    ProtocolTree,
    ThresholdExample,
    appendix_threshold_example,
    constant_protocol,
    data_exchange_protocol,
    mixed_protocol,
    noisy_send_protocol,
    one_round_protocol,
    product_protocol,
    send_value_protocol,
    transcript_law,
    two_round_protocol,
    xor_reply_protocol,
)

LOG2_4_3 = 2.0 - math.log2(3.0)


def random_source(rng, nx=2, ny=2):
    mass = rng.random((nx, ny)) + 0.05
    mass /= mass.sum()
    return JointSource(tuple(range(nx)), tuple(range(ny)), mass)


class TestSendValue:
    def test_dsbs_ic_atoms(self):
        law = send_value_protocol(dsbs_source(0.25))
        spec = law.spectrum("ic")
        assert spec.values == pytest.approx([LOG2_4_3, 2.0])
        assert spec.probs == pytest.approx([0.75, 0.25])
        assert law.ic_mean == pytest.approx(0.75 * LOG2_4_3 + 0.5)

    def test_ic_pointwise(self):
        src = dsbs_source(0.25)
        law = send_value_protocol(src)
        # announcing X costs the receiver-side surprise:
        # ic((x,), x, y) = 0 + log2 1/P(x|y) = h(x|y)
        for x in (0, 1):
            for y in (0, 1):
                expect = entropy_density(src, "cond_x_given_y", x, y)
                assert law.ic((x,), x, y) == pytest.approx(expect, abs=1e-12)


def test_constant_protocol_zero_ic():
    law = constant_protocol(dsbs_source(0.3))
    spec = law.spectrum("ic")
    assert spec.values == pytest.approx([0.0])
    assert law.ic_mean == 0.0


def test_data_exchange_ic_is_sum_density():
    # for omniscience the ic density collapses to h(x|y) + h(y|x)
    src = dsbs_source(0.25)
    law = data_exchange_protocol(src)
    got = law.spectrum("ic")
    want = spectrum(src, "sum")
    assert got.values == pytest.approx(want.values, abs=1e-12)
    assert got.probs == pytest.approx(want.probs, abs=1e-12)


def test_xor_reply_equivalent_to_exchange():
    src = dsbs_source(0.3)
    assert xor_reply_protocol(src).ic_mean == pytest.approx(
        data_exchange_protocol(src).ic_mean, abs=1e-12)


def test_noisy_send_randomized_transcript():
    law = noisy_send_protocol(dsbs_source(0.25), 0.1)
    # transcript no longer determines x: conditional probs strictly inside (0,1)
    assert np.all(law.p_tau_given_xy > 0)
    assert law.ic_mean < send_value_protocol(dsbs_source(0.25)).ic_mean


def test_ic_identity_against_auxiliary_densities():
    # -ic(tau;x,y) = i(x^y) - h(x,y) + hsum_ext(tau,x,y) pointwise
    rng = np.random.default_rng(12)
    for _ in range(8):
        src = random_source(rng)
        ch1 = rng.random((2, 2)) + 0.1
        ch1 /= ch1.sum(axis=1, keepdims=True)
        ch2 = rng.random((2, 2, 2)) + 0.1
        ch2 /= ch2.sum(axis=2, keepdims=True)
        law = two_round_protocol(src, ch1, ("a", "b"), ch2, ("c", "d"))
        joint = law.joint
        p_ty = joint.sum(axis=1)
        p_tx = joint.sum(axis=2)
        for t, tau in enumerate(law.transcripts):
            for i, x in enumerate(src.x_alphabet):
                for j, y in enumerate(src.y_alphabet):
                    w = joint[t, i, j]
                    if w <= 0:
                        continue
                    hsum_ext = (-math.log2(w / p_ty[t, j])
                                - math.log2(w / p_tx[t, i]))
                    mut = entropy_density(src, "mutual", x, y)
                    hxy = entropy_density(src, "joint", x, y)
                    assert -law.ic(tau, x, y) == pytest.approx(
                        mut - hxy + hsum_ext, abs=1e-10)


def test_spectrum_masses_sum_to_one():
    law = data_exchange_protocol(dsbs_source(0.2))
    for sel in ("ic", "h_xy", "h_x_given_ypi", "hsum_ext", "compression"):
        assert float(law.spectrum(sel).probs.sum()) == pytest.approx(1.0)
    with pytest.raises(OutOfRange):
        law.spectrum("nope")


class TestTree:
    def test_single_bit_tree_matches_send(self):
        doc = {"nodes": [{"owner": "x", "bit_one": {"0": 0.0, "1": 1.0},
                          "children": [None, None]}]}
        law = transcript_law(ProtocolTree.from_json(doc), dsbs_source(0.25))
        want = send_value_protocol(dsbs_source(0.25)).spectrum("ic")
        got = law.spectrum("ic")
        assert got.values == pytest.approx(want.values, abs=1e-12)
        assert got.probs == pytest.approx(want.probs, abs=1e-12)

    def test_runs_split_by_owner(self):
        # x speaks twice then y once: transcript has two rounds
        doc = {"nodes": [
            {"owner": "x", "bit_one": {"0": 0.0, "1": 1.0},
             "children": [1, 1]},
            {"owner": "x", "bit_one": {"0": 0.5, "1": 0.5},
             "children": [2, 2]},
            {"owner": "y", "bit_one": {"0": 0.0, "1": 1.0},
             "children": [None, None]},
        ]}
        law = transcript_law(ProtocolTree.from_json(doc), dsbs_source(0.25))
        assert law.n_rounds == 2
        assert all(len(tau[0]) == 2 and len(tau[1]) == 1
                   for tau in law.transcripts)

    def test_unknown_symbol(self):
        doc = {"nodes": [{"owner": "x", "bit_one": {"7": 1.0},
                          "children": [None, None]}]}
        with pytest.raises(AlphabetMismatch):
            transcript_law(ProtocolTree.from_json(doc), dsbs_source(0.25))


class TestRoundStructure:
    def test_histories_and_messages(self):
        law = data_exchange_protocol(dsbs_source(0.25))
        assert law.histories(1) == ((),)
        assert set(law.histories(2)) == {(0,), (1,)}
        assert law.round_messages(2) == (0, 1)

    def test_round_view_normalizes(self):
        law = data_exchange_protocol(dsbs_source(0.25))
        view = law.round_view(2, (0,))
        live = view.p_hist_xy.sum(axis=1) > 0
        assert np.allclose(view.p_m_given_x[live].sum(axis=1), 1.0)
        assert float(view.p_hist_xy.sum()) == pytest.approx(0.5)

    def test_unknown_history(self):
        law = send_value_protocol(dsbs_source(0.25))
        with pytest.raises(SupportViolation):
            law.round_view(1, ("zzz",))


class TestProduct:
    def test_expand_matches_convolution(self):
        base = send_value_protocol(dsbs_source(0.25))
        prod = product_protocol(base, 2)
        want = prod.spectrum("ic")
        got = prod.expand().spectrum("ic")
        assert got.values == pytest.approx(want.values, abs=1e-9)
        assert got.probs == pytest.approx(want.probs, abs=1e-12)
        assert prod.ic_mean == pytest.approx(2 * base.ic_mean)


class TestMixed:
    def test_ic_mean_identity(self):
        src = dsbs_source(0.45)
        head = send_value_protocol(src)
        tail = constant_protocol(src)
        mix = mixed_protocol(head, tail, 0.3, 50)
        assert mix.ic_mean == pytest.approx(50 * 0.3 * head.ic_mean,
                                            abs=1e-9)

    def test_coin_contributes_nothing(self):
        # spectrum is exactly the two branch convolutions, mixed by the coin
        src = dsbs_source(0.25)
        head = send_value_protocol(src)
        tail = constant_protocol(src)
        mix = mixed_protocol(head, tail, 0.5, 3)
        spec = mix.spectrum("ic")
        want = head.spectrum("ic").convolve_n(3).mix(
            tail.spectrum("ic").convolve_n(3), 0.5)
        assert spec.values == pytest.approx(want.values, abs=1e-12)
        assert spec.probs == pytest.approx(want.probs, abs=1e-12)

    def test_sample_ic_mean(self):
        src = dsbs_source(0.25)
        mix = mixed_protocol(send_value_protocol(src),
                             constant_protocol(src), 0.5, 10)
        draws = mix.sample_ic(np.random.default_rng(0), 50_000)
        assert draws.mean() == pytest.approx(mix.ic_mean, abs=0.05)

    def test_mismatched_sources_rejected(self):
        with pytest.raises(AlphabetMismatch):
            MixedProtocol(send_value_protocol(dsbs_source(0.25)),
                          constant_protocol(dsbs_source(0.3)), 0.5, 2)


class TestThresholdExample:
    def test_case_table_n8(self):
        ex = appendix_threshold_example(8)
        spec = ex.spectrum("ic")
        d = 1 / 8
        mixed = -math.log2(d) - math.log2(1 - d)
        assert spec.values == pytest.approx(
            [-2 * math.log2(1 - d), mixed, 16.0], abs=1e-12)
        assert spec.probs == pytest.approx(
            [(1 - d) ** 2, 2 * d * (1 - d), d * d], abs=1e-15)

    def test_tail_is_2n(self):
        for n in (8, 16, 32):
            ex = appendix_threshold_example(n)
            assert ex.lambda_eps() == 2.0 * n

    def test_expand_matches_regions_n4(self):
        ex = ThresholdExample(n=4, delta=0.25)
        dense = ex.expand().spectrum("ic")
        coarse = ex.spectrum("ic")
        assert dense.values == pytest.approx(coarse.values, abs=1e-10)
        assert dense.probs == pytest.approx(coarse.probs, abs=1e-12)

    def test_transcript_map(self):
        ex = ThresholdExample(n=4, delta=0.25)
        assert ex.threshold == 4
        assert ex.transcript_of(10, 9) == ("a",)
        assert ex.transcript_of(10, 2) == ("b",)
        assert ex.transcript_of(2, 10) == ("c",)
        assert ex.transcript_of(2, 3) == (("pair", 2, 3),)

    def test_guards(self):
        with pytest.raises(OutOfRange):
            ThresholdExample(n=3, delta=0.5)
        with pytest.raises(OutOfRange):
            ThresholdExample(n=5, delta=0.3).threshold


def test_one_round_channel_shape_guard():
    with pytest.raises(Exception):
        one_round_protocol(dsbs_source(0.25), np.eye(3), (0, 1, 2))


def test_dense_law_size_cap(monkeypatch):
    # send-x over dsbs^8 is a 128 MiB table and fits; dsbs^10 is 8 GiB
    assert 8 * 256 ** 3 <= LAW_BYTES_CAP < 8 * 1024 ** 3
    src = product_source(dsbs_source(0.25), 2)  # 4 x 4 inputs
    # send-x: 4 transcripts; data exchange: 16
    monkeypatch.setattr(icsim.protocol, "LAW_BYTES_CAP", 8 * 4 * 16)
    assert send_value_protocol(src).p_tau_given_xy.nbytes == 8 * 4 * 16
    with pytest.raises(TooLarge, match="16 transcripts over 4 x 4 inputs"):
        data_exchange_protocol(src)
    monkeypatch.setattr(icsim.protocol, "LAW_BYTES_CAP", 8 * 4 * 16 - 1)
    with pytest.raises(TooLarge, match="4 transcripts over 4 x 4 inputs"):
        send_value_protocol(src)


def test_data_exchange_fails_before_its_reply_channel(monkeypatch):
    # over dsbs^7 the reply channel is a (128, 128, 128) table, 16 MiB, and
    # the law 2 GiB; the size check comes before either
    monkeypatch.setattr(icsim.protocol, "LAW_BYTES_CAP", 1 << 20)
    src = product_source(dsbs_source(0.11), 7)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="16384 transcripts"):
            data_exchange_protocol(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
