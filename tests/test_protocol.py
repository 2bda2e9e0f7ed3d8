import math
import tracemalloc

import numpy as np
import pytest

import icsim.errors
import icsim.probcore
import icsim.protocol
import icsim.simulate
from icsim.errors import (
    AlphabetMismatch,
    MismatchedSupport,
    OutOfRange,
    SupportViolation,
    TooLarge,
    ZeroMassAtom,
)
from icsim.probcore import (
    JointSource,
    dsbs_source,
    entropy_density,
    product_source,
    spectrum,
)
from icsim.protocol import (
    LAW_SELECTORS,
    MixedProtocol,
    ProductProtocol,
    ProtocolTree,
    ThresholdExample,
    TranscriptLaw,
    appendix_threshold_example,
    coded,
    constant_protocol,
    data_exchange_protocol,
    exchange_bits_protocol,
    noisy_send_protocol,
    one_round_protocol,
    send_value_protocol,
    transcript_law,
    two_round_protocol,
    xor_reply_protocol,
)
from icsim.cli import build_engine
import icsim.cli
from icsim.evaluate import measure_sim_error
from icsim.simulate import ProtocolSimulator, auto_round_plans
from reference import (
    dense_histories,
    dense_joint,
    dense_law_spectrum,
    dense_marginals,
    dense_product,
    dense_round_view,
    dense_view_atoms,
    dense_view_prior,
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


@pytest.mark.parametrize("make", [
    lambda: data_exchange_protocol(product_source(dsbs_source(0.25), 2)),
    # (x, y) = (1, 0) has no mass
    lambda: noisy_send_protocol(JointSource(
        (0, 1), (0, 1), np.array([[0.5, 0.2], [0.0, 0.3]])), 0.15),
    lambda: send_value_protocol(dsbs_source(0.25)),
], ids=["data-exchange", "noisy-send", "send-x"])
def test_ic_density_reads_the_atoms(make):
    # law.ic is the dense ic density on every atom, raises ZeroMassAtom off
    # them and at a transcript the law does not have (2 is no message, and
    # a transcript has n_rounds of them), AlphabetMismatch at a symbol
    # outside the alphabets, and builds no dense table
    law = make()
    tau, x, y = law.transcripts[0], law.source.x_alphabet[0], \
        law.source.y_alphabet[0]
    for foreign in ((2,) * law.n_rounds, tau + tau, tau[:-1]):
        with pytest.raises(ZeroMassAtom):
            law.ic(foreign, x, y)
    for pair in ((2, y), (x, 2)):
        with pytest.raises(AlphabetMismatch):
            law.ic(tau, *pair)
    xs, ys, taus = law.source.x_alphabet, law.source.y_alphabet, \
        law.transcripts
    live = list(zip(*(a.tolist() for a in law.atoms[:3])))
    got = [law.ic(taus[k], xs[i], ys[j]) for k, i, j in live]
    dead = set(np.ndindex(len(taus), len(xs), len(ys))) - set(live)
    assert dead
    for k, i, j in dead:
        with pytest.raises(ZeroMassAtom):
            law.ic(taus[k], xs[i], ys[j])
    assert "p_tau_given_xy" not in law.__dict__
    p_x, p_y = dense_marginals(law)
    for v, (k, i, j) in zip(got, live):
        pxy = float(law.p_tau_given_xy[k, i, j])
        assert v == (math.log2(pxy / float(p_x[k, i]))
                     + math.log2(pxy / float(p_y[k, j])))


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
        joint = dense_joint(law)
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

    def test_y_rooted_tree_opens_with_an_empty_x_round(self):
        # party x speaks the odd rounds, so y's bit is round 2; engine 5
        # then simulates it as well as the mirrored x-rooted tree
        laws, tvs = [], []
        for owner in ("y", "x"):
            doc = {"nodes": [{"owner": owner, "bit_one": {"0": 0.0, "1": 1.0},
                              "children": [None, None]}]}
            laws.append(transcript_law(ProtocolTree.from_json(doc),
                                       dsbs_source(0.1)))
            engine = ProtocolSimulator(
                laws[-1], auto_round_plans(laws[-1], gamma=3.0))
            tvs.append(measure_sim_error(engine, "exact").value)
        assert laws[0].transcripts == (("", "0"), ("", "1"))
        assert laws[1].transcripts == (("0",), ("1",))
        assert tvs[0] == pytest.approx(tvs[1], abs=1e-15)
        assert tvs[1] < 0.01

    def test_short_paths_padded_and_simulated(self):
        # x sends a bit; after a 1, y sends its bit: the path "0" ends
        # after round 1 and sends the empty message in round 2
        doc = {"nodes": [
            {"owner": "x", "bit_one": {"0": 0.0, "1": 1.0},
             "children": [None, 1]},
            {"owner": "y", "bit_one": {"0": 0.0, "1": 1.0},
             "children": [None, None]},
        ]}
        law = transcript_law(ProtocolTree.from_json(doc), dsbs_source(0.1))
        assert law.transcripts == (("0", ""), ("1", "0"), ("1", "1"))
        assert law.messages[1] == ("", "0", "1")
        engine = ProtocolSimulator(law, auto_round_plans(law, gamma=3.0))
        tv = measure_sim_error(engine, "exact").value
        assert tv == pytest.approx(0.05078125, abs=1e-9)

    def test_ragged_transcripts_rejected(self):
        src = dsbs_source(0.1)
        with pytest.raises(MismatchedSupport, match="numbers of rounds"):
            TranscriptLaw.from_index(src, *coded((("0",), ("1", "0"))),
                                     np.array([[0, 0], [1, 1]]))

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
        assert law.messages[1] == (0, 1)

    def test_round_view_normalizes(self):
        law = data_exchange_protocol(dsbs_source(0.25))
        view = law.round_view(2, (0,))
        a, i, j, w = view.atoms
        live = np.isin(np.arange(2), i)  # the x with mass given (0,)
        assert np.allclose(view.p_m_given_x[live].sum(axis=1), 1.0)
        assert float(w.sum()) == pytest.approx(0.5)  # P(hist)
        assert float(view.prior.sum()) == pytest.approx(1.0)

    def test_unknown_history(self):
        law = send_value_protocol(dsbs_source(0.25))
        with pytest.raises(SupportViolation):
            law.round_view(1, ("zzz",))


def _shared_message_tree(source):
    """x sends two random bits, then y one random bit: four transcripts
    share each round-1 message, and round 1 has two histories' worth of
    continuations per message."""
    return transcript_law(ProtocolTree.from_json({"nodes": [
        {"owner": "x", "bit_one": {"0": 0.3, "1": 0.8}, "children": [1, 1]},
        {"owner": "x", "bit_one": {"0": 0.55, "1": 0.1}, "children": [2, 2]},
        {"owner": "y", "bit_one": {"0": 0.35, "1": 0.9},
         "children": [None, None]},
    ]}), source)


def _zero_mass_source():
    # x = 2 never occurs, and (0, 1), (1, 0) have zero mass
    return JointSource((0, 1, 2), (0, 1, 2), np.array(
        [[0.3, 0.0, 0.1], [0.0, 0.25, 0.15], [0.0, 0.0, 0.0]]) / 0.8)


def _unused_message_law():
    # non-dyadic; message "z" and reply "n" never occur
    src = JointSource(("a", "b", "c"), (0, 1),
                      np.array([[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]]))
    ch1 = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [1 / 3, 2 / 3, 0.0]])
    ch2 = np.zeros((2, 3, 2))
    ch2[:, :, 0] = [[0.6, 0.1, 1.0], [0.25, 0.5, 1.0]]
    ch2[:, :, 1] = 1.0 - ch2[:, :, 0]
    return two_round_protocol(src, ch1, ("p", "q", "z"), ch2, ("y", "n"))


def _signed_dust_law():
    # on the zero-mass input x = 2 the channel holds +-1e-13, within the
    # law's tolerance: P(hist | x, y) is 0 there but P(hist + m | x, y) not
    ch = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-13, -1e-13, 0.0]])
    return one_round_protocol(_zero_mass_source(), ch, ("a", "b", "c"))


VIEW_LAWS = {
    "send-x-dsbs3": lambda: send_value_protocol(
        product_source(dsbs_source(0.11), 3)),
    "noisy-send": lambda: noisy_send_protocol(dsbs_source(0.25), 0.1),
    "data-exchange": lambda: data_exchange_protocol(dsbs_source(0.25)),
    "data-exchange-dsbs2": lambda: data_exchange_protocol(
        product_source(dsbs_source(0.2), 2)),
    "xor-reply": lambda: xor_reply_protocol(dsbs_source(0.3)),
    "tree-shared-messages": lambda: _shared_message_tree(dsbs_source(0.25)),
    "zero-mass-send-x": lambda: send_value_protocol(_zero_mass_source()),
    "zero-mass-exchange": lambda: data_exchange_protocol(_zero_mass_source()),
    "unused-messages": _unused_message_law,
    "signed-dust": _signed_dust_law,
}


@pytest.mark.parametrize("block_bytes", [1, 1 << 21],
                         ids=["one-message-blocks", "default-blocks"])
@pytest.mark.parametrize("name", sorted(VIEW_LAWS))
def test_round_view_matches_reference_bytes(name, block_bytes):
    """Each view, from the law's atoms, holds the bits of the dense
    reference view, whose sums over blocks of one message or of many
    messages agree."""
    law = VIEW_LAWS[name]()
    shared = 0
    for t in range(1, law.n_rounds + 1):
        for hist in law.histories(t):
            got = law.round_view(t, hist)
            msgs, p_m_x, p_m_y, p_m_xy, joint_h = dense_round_view(
                law, t, hist, block_bytes)
            assert got.messages == msgs
            for field, b in (("p_m_given_x", p_m_x), ("p_m_given_y", p_m_y),
                             ("prior", dense_view_prior(joint_h, t))):
                a = getattr(got, field)
                assert a.dtype == b.dtype and a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), (t, hist, field)
            for a, b in zip(got.atoms, dense_view_atoms(p_m_xy, joint_h)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            shared += len(msgs) < sum(
                1 for tau in law.transcripts
                if len(tau) >= t and tau[: t - 1] == hist)
    if name == "tree-shared-messages":
        assert shared  # some message sums more than one transcript


def test_round_view_memoized_read_only():
    law = data_exchange_protocol(dsbs_source(0.25))
    for t in (1, 2):
        for hist in law.histories(t):
            view = law.round_view(t, hist)
            assert law.round_view(t, hist) is view
            for arr in (view.p_m_given_x, view.p_m_given_y, view.prior,
                        *view.atoms):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 0.5
                with pytest.raises(ValueError):
                    arr += 0.0


@pytest.mark.parametrize("name", sorted(VIEW_LAWS) + [
    "constant", "send-x-skewed", "threshold-n4", "exchange-dsbs3"])
def test_histories_unchanged_without_joint(name):
    skewed = JointSource((0, 1, 2), (0, 1), np.array(
        [[0.3, 0.1], [0.05, 0.25], [0.2, 0.1]]))
    law = {
        "constant": lambda: constant_protocol(dsbs_source(0.25)),
        "send-x-skewed": lambda: send_value_protocol(skewed),
        "threshold-n4": lambda: ThresholdExample(n=4, delta=0.25).expand(),
        "exchange-dsbs3": lambda: data_exchange_protocol(
            product_source(dsbs_source(0.11), 3)),
    }.get(name, VIEW_LAWS.get(name))()
    got = [law.histories(t) for t in range(1, law.n_rounds + 1)]
    assert "p_tau_given_xy" not in law.__dict__
    assert got == [dense_histories(law, t)
                   for t in range(1, law.n_rounds + 1)]


SPECTRUM_LAWS = {
    **VIEW_LAWS,
    **{f"send-x-dsbs{m}": lambda m=m: send_value_protocol(
        product_source(dsbs_source(0.11), m)) for m in (1, 2, 4)},
    **{f"data-exchange-dsbs{m}": lambda m=m: data_exchange_protocol(
        product_source(dsbs_source(0.3), m)) for m in (1, 3)},
    "constant": lambda: constant_protocol(dsbs_source(0.25)),
    "threshold-n4": lambda: ThresholdExample(n=4, delta=0.25).expand(),
}


@pytest.mark.parametrize("name", sorted(SPECTRUM_LAWS))
def test_law_spectrum_matches_atom_loop(name):
    law = SPECTRUM_LAWS[name]()
    for selector in LAW_SELECTORS:
        got = law.spectrum(selector)
        want_v, want_p = dense_law_spectrum(law, selector)
        assert got.values.tobytes() == want_v.tobytes(), selector
        assert got.probs.tobytes() == want_p.tobytes(), selector


def test_engine_build_keeps_no_joint_table(monkeypatch):
    laws = []

    def spy(token, source):
        laws.append(parse_target(token, source))
        return laws[-1]

    parse_target = icsim.cli.parse_target
    monkeypatch.setattr(icsim.cli, "parse_target", spy)
    for proto in ("p3", "p4", "p5"):
        build_engine({"source": "dsbs^3:0.11", "protocol": proto,
                      "target": "send-x", "gamma": 3.0})
        assert "p_tau_given_xy" not in laws[-1].__dict__, proto


PRODUCT_TARGETS = {
    "send-x": send_value_protocol,
    "noisy-send": lambda src: noisy_send_protocol(src, 0.15),
    "data-exchange": data_exchange_protocol,
    "xor-reply": xor_reply_protocol,
    "constant": constant_protocol,
}


class TestProduct:
    def test_expand_matches_convolution(self):
        base = send_value_protocol(dsbs_source(0.25))
        prod = ProductProtocol(base, 2)
        want = prod.spectrum("ic")
        got = prod.expand().spectrum("ic")
        assert got.values == pytest.approx(want.values, abs=1e-9)
        assert got.probs == pytest.approx(want.probs, abs=1e-12)
        assert prod.ic_mean == pytest.approx(2 * base.ic_mean)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("target", sorted(PRODUCT_TARGETS))
    @pytest.mark.parametrize("source", [
        dsbs_source(0.11),
        # (1, 0) has no mass
        JointSource((0, 1), (0, 1), np.array([[0.5, 0.2], [0.0, 0.3]])),
    ], ids=["dsbs", "zero-cell"])
    def test_expand_matches_dense_kron(self, source, target, n):
        base = PRODUCT_TARGETS[target](source)
        law = ProductProtocol(base, n).expand()
        xs, ys, mass, taus, atoms = dense_product(base, n)
        assert law.source.x_alphabet == xs and law.source.y_alphabet == ys
        assert law.source.mass.tobytes() == mass.tobytes()
        assert law.transcripts == taus
        for got, want in zip(law.atoms, atoms):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_send_x_product_is_send_x_over_the_product_source(self, n):
        # the copies' messages share round 1: x speaks each copy
        src = dsbs_source(0.1)
        law = ProductProtocol(send_value_protocol(src), n).expand()
        want = send_value_protocol(product_source(src, n))
        assert law.n_rounds == 1
        assert law.transcripts == want.transcripts
        for got, ref in zip(law.atoms, want.atoms):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_product_keeps_the_base_rounds(self):
        law = ProductProtocol(data_exchange_protocol(dsbs_source(0.1)),
                              2).expand()
        assert law.n_rounds == 2
        assert law.transcripts[1] == ((0, 0), (0, 1))
        assert law.messages[1] == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_send_x_product_simulates_as_send_x(self):
        # engine 5 gives round 1 to x on both laws, so the views agree
        src = dsbs_source(0.1)
        tvs = []
        for law in (ProductProtocol(send_value_protocol(src), 2).expand(),
                    send_value_protocol(product_source(src, 2))):
            engine = ProtocolSimulator(law, auto_round_plans(law, gamma=1.0))
            assert engine.tables[0].inner.n_slices == 2
            tvs.append(measure_sim_error(engine, "exact").value)
        assert tvs[0] == tvs[1] == 0.016306152343938524

    def test_expand_checks_the_law_size(self, monkeypatch):
        # data exchange over dsbs^2 squared: 256 transcripts, each the
        # codes of two rounds, 8 B each, and 24 B more, 256 candidate atoms,
        # 80 B each, and the 16 x 16 product source held, 12 B a cell and
        # 768 B a symbol
        base = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
        price = 256 * (8 * 2 + 24) + 256 * 80 + 12 * 256 + 768 * 32
        monkeypatch.setattr(icsim.errors, "BYTES_CAP", price - 1)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="^transcript law of 256 "
                               "transcripts and 256 atoms needs 0 MiB"):
                ProductProtocol(base, 2).expand()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < price // 4, peak  # refused before anything is built
        monkeypatch.setattr(icsim.errors, "BYTES_CAP", price)
        assert len(ProductProtocol(base, 2).expand().transcripts) == 256


class TestMixed:
    def test_ic_mean_identity(self):
        src = dsbs_source(0.45)
        head = send_value_protocol(src)
        tail = constant_protocol(src)
        mix = MixedProtocol(head, tail, 0.3, 50)
        assert mix.ic_mean == pytest.approx(50 * 0.3 * head.ic_mean,
                                            abs=1e-9)

    def test_coin_contributes_nothing(self):
        # spectrum is exactly the two branch convolutions, mixed by the coin
        src = dsbs_source(0.25)
        head = send_value_protocol(src)
        tail = constant_protocol(src)
        mix = MixedProtocol(head, tail, 0.5, 3)
        spec = mix.spectrum("ic")
        want = head.spectrum("ic").convolve_n(3).mix(
            tail.spectrum("ic").convolve_n(3), 0.5)
        assert spec.values == pytest.approx(want.values, abs=1e-12)
        assert spec.probs == pytest.approx(want.probs, abs=1e-12)

    def test_sample_ic_mean(self):
        src = dsbs_source(0.25)
        mix = MixedProtocol(send_value_protocol(src),
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
        law = ex.expand()

        def transcript(x, y):
            k, i, j, _ = law.atoms
            (at,) = np.flatnonzero((i == x - 1) & (j == y - 1))
            return law.transcripts[k[at]]

        assert transcript(10, 9) == (1, 1, "-", "-")
        assert transcript(10, 2) == (1, 0, "-", "-")
        assert transcript(2, 10) == (0, 1, "-", "-")
        assert transcript(2, 3) == (0, 0, 2, 3)
        assert transcript(4, 4) == (0, 0, 4, 4)
        assert transcript(5, 4) == (1, 0, "-", "-")

    def test_expand_is_the_four_round_protocol(self):
        law = ThresholdExample(n=4, delta=0.25).expand()
        assert law.n_rounds == 4
        assert law.transcripts == (
            (1, 1, "-", "-"), (1, 0, "-", "-"), (0, 1, "-", "-"),
            *((0, 0, x, y) for x in range(1, 5) for y in range(1, 5)))
        # each party's first message is its own side of t
        assert law.messages[0] == law.messages[1] == (0, 1)
        view = law.round_view(1, ())
        assert view.p_m_given_x.tolist() == [[0.0, 1.0] if x > 4
                                             else [1.0, 0.0]
                                             for x in range(1, 17)]

    @pytest.mark.parametrize("n, delta", [(4, 1 / 4), (5, 1 / 4),
                                          (6, 1 / 8), (8, 1 / 16),
                                          (8, 1 / 8)])
    def test_expand_ic_mean_matches_cells(self, n, delta):
        ex = ThresholdExample(n=n, delta=delta)
        law = ex.expand()
        assert len(law.transcripts) == 3 + ex.threshold ** 2
        assert abs(law.ic_mean - ex.ic_mean) <= 1e-15

    def test_expand_over_the_cap_fails_before_building(self):
        # t = 1024: 1,048,579 transcripts and 2^26 atoms over 8192 x 8192
        # inputs, 5 GiB at the build's peak.  The check comes first, so
        # neither the uniform source nor the transcript list nor the index
        # table (512 MiB each for the tables) is made
        ex = ThresholdExample(n=13, delta=1 / 8)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="^transcript law of 1,048,579 "
                               "transcripts and 67,108,864 atoms needs "):
                ex.expand()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    def test_expand_runs_on_engine_5(self, monkeypatch):
        law = ThresholdExample(n=4, delta=0.25).expand()
        engine = ProtocolSimulator(law, auto_round_plans(law, gamma=3.0),
                                   k_override=0)
        est = measure_sim_error(engine, "plugin", trials=2000,
                                master_seed=1)
        assert est.samples == 2000 and 0.0 < est.value < 0.5
        # exact mode over its 33,554,432 round-3 rows is refused before
        # any decode
        def search(*args):
            raise AssertionError("exact mode decoded a round")

        monkeypatch.setattr(icsim.simulate, "_slice_search", search)
        with pytest.raises(TooLarge, match="rows in round 3"):
            engine.exact_view_law()

    def test_guards(self):
        with pytest.raises(OutOfRange):
            ThresholdExample(n=3, delta=0.5)
        with pytest.raises(OutOfRange):
            ThresholdExample(n=5, delta=0.3).threshold


def test_one_round_channel_shape_guard():
    with pytest.raises(Exception):
        one_round_protocol(dsbs_source(0.25), np.eye(3), (0, 1, 2))


def test_dense_law_size_cap(monkeypatch):
    # the cap prices what is built, at each build's peak: over 4 x 4
    # inputs, send-x's 16 atoms take 80 B each and its 4 transcripts 8 B a
    # round and 24 B more, data exchange's 16 transcripts 8 B more each, a
    # round view takes 80 B an atom and 8 B for each of (H, nx + ny, 2U + 1)
    # cells, the marginals 128 B an atom, the ic spectrum the law's 672 B
    # (four 8 B arrays of atoms, 4 codes and 16 masses) and 120 B an atom,
    # and the dense send-x table 8 B a cell
    cap = icsim.errors.BYTES_CAP
    assert cap == 2 << 30
    src = product_source(dsbs_source(0.25), 2)
    for price, match, build in [
            (80 * 16 + 32 * 4, "transcript law of 4 transcripts and 16 atoms",
             lambda law: send_value_protocol(src)),
            (80 * 16 + 40 * 16, "transcript law of 16 transcripts and 16 "
             "atoms", lambda law: data_exchange_protocol(src)),
            (4 * 8 * 16 + 8 * 4 + 8 * 16 + 120 * 16, "ic spectrum of 16 atoms",
             lambda law: law.spectrum("ic")),
            (80 * 16 + 8 * 8 * 9, "views of 1 round",
             lambda law: law.round_views(1)),
            (128 * 16, "transcript marginals of 16 atoms",
             lambda law: law._marginals),
            (8 * 4 * 16, "dense law table of 4 transcripts over 4 x 4 inputs",
             lambda law: law.p_tau_given_xy)]:
        for over in (False, True):
            monkeypatch.setattr(icsim.errors, "BYTES_CAP", cap)
            law = send_value_protocol(src)
            monkeypatch.setattr(icsim.errors, "BYTES_CAP", price - over)
            if not over:
                build(law)
                continue
            with pytest.raises(TooLarge, match=f"^{match} needs 0 MiB, over "
                               "the 0 MiB cap$"):
                build(law)


def _exchange_bits(m):
    return exchange_bits_protocol(product_source(dsbs_source(0.11), m))


def _two_round(m):
    # "x" sends one of 4 messages, "y" replies with one of 4
    rng = np.random.default_rng(5)
    src = product_source(dsbs_source(0.11), m)
    ch1 = rng.dirichlet(np.ones(4), 1 << m)
    ch2 = rng.dirichlet(np.ones(4), (1 << m, 4))
    return two_round_protocol(src, ch1, range(4), ch2, range(4))


@pytest.mark.parametrize("build", [
    lambda: product_source(dsbs_source(0.11), 9),
    lambda: send_value_protocol(product_source(dsbs_source(0.11), 6)),
    lambda: data_exchange_protocol(product_source(dsbs_source(0.11), 6)),
    lambda: _exchange_bits(6),
    lambda: _two_round(5),
    lambda: ProductProtocol(send_value_protocol(
        product_source(dsbs_source(0.25), 2)), 4).expand(),
    lambda: ProductProtocol(data_exchange_protocol(
        product_source(dsbs_source(0.25), 2)), 3).expand(),
    lambda: ThresholdExample(n=8, delta=1 / 8).expand(),
    lambda: spectrum(product_source(dsbs_source(0.11), 6), "sum"),
    lambda: data_exchange_protocol(
        product_source(dsbs_source(0.11), 5)).spectrum("ic"),
], ids=["product-source", "send-x", "data-exchange", "exchange-bits",
        "two-round", "product-send-x", "product-data-exchange", "threshold",
        "source-spectrum", "data-exchange-ic-spectrum"])
def test_price_bounds_the_build_peak(monkeypatch, build):
    # each build's tracemalloc peak is at most the largest price checked
    # while it runs (a product's law price holds its source's), up to 16 KiB
    # of fixed overhead (interpreter frames, numpy's small temporaries); a
    # first build runs untraced, so one-time initializations are not counted
    prices = []

    def check(nbytes, what):
        prices.append(nbytes)

    monkeypatch.setattr(icsim.probcore, "check_bytes", check)
    monkeypatch.setattr(icsim.protocol, "check_bytes", check)
    build()
    prices.clear()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prices and peak <= max(prices) + (16 << 10), (peak, prices)


@pytest.mark.parametrize("law, derive", [
    (lambda: send_value_protocol(product_source(dsbs_source(0.11), 6)),
     lambda law: law.round_views(1)),
    (lambda: data_exchange_protocol(product_source(dsbs_source(0.11), 5)),
     lambda law: [law.round_views(t) for t in (1, 2)]),
    (lambda: _exchange_bits(5),
     lambda law: [law.round_views(t) for t in range(1, 11)]),
    (lambda: send_value_protocol(product_source(dsbs_source(0.11), 9)),
     lambda law: law._marginals),
    (lambda: data_exchange_protocol(product_source(dsbs_source(0.11), 8)),
     lambda law: law._marginals),
    (lambda: _exchange_bits(7), lambda law: law._marginals),
    (lambda: ProductProtocol(noisy_send_protocol(dsbs_source(0.11), 0.1),
                             5).expand(),
     lambda law: law._marginals),
    (lambda: send_value_protocol(product_source(dsbs_source(0.11), 6)),
     lambda law: law.p_tau_given_xy),
], ids=["send-x-views", "data-exchange-views", "exchange-bits-views",
        "send-x-marginals", "data-exchange-marginals",
        "exchange-bits-marginals", "noisy-send-product-marginals",
        "send-x-dense"])
def test_price_bounds_the_derived_tables_peak(monkeypatch, law, derive):
    # every round's views together, the per-atom marginals, and the dense
    # table, each from a built law: the peak is at most the price checked,
    # up to 16 KiB of fixed overhead, on a second law after a first one
    # untraced
    derive(law())
    law = law()
    prices = []

    def check(nbytes, what):
        prices.append(nbytes)

    monkeypatch.setattr(icsim.protocol, "check_bytes", check)
    tracemalloc.start()
    try:
        derive(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prices and peak <= max(prices) + (16 << 10), (peak, prices)


def test_data_exchange_fails_before_its_reply_channel(monkeypatch):
    # over dsbs^7 data exchange lists 16,384 transcripts (about 1.7 MB)
    # and 16,384 atoms; under a 1 MiB cap the size check comes before either
    monkeypatch.setattr(icsim.errors, "BYTES_CAP", 1 << 20)
    src = product_source(dsbs_source(0.11), 7)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="16,384 transcripts"):
            data_exchange_protocol(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
