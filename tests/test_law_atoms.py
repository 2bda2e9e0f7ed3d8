"""Transcript laws as positive atoms.

Every quantity derived from a law's atoms holds the bits of the dense
(T, nx, ny) computation in ``reference``; the engines never build the
dense table; the multi-round ``exchange-bits`` target runs exactly; and
the exact walk bounds every round's rows before it decodes anything.
"""

import json
import tracemalloc

import numpy as np
import pytest

import icsim.cli
import icsim.simulate
from icsim.errors import TooLarge
from icsim.probcore import (
    FiniteDistribution,
    JointSource,
    SliceConfig,
    SpectrumTable,
    auto_slice_config,
    dsbs_source,
    product_source,
)
from icsim.protocol import (
    LAW_SELECTORS,
    ProductProtocol,
    ProtocolTree,
    ThresholdExample,
    TranscriptLaw,
    _axis_sums,
    _pairwise_sums,
    constant_protocol,
    data_exchange_protocol,
    exchange_bits_protocol,
    noisy_send_protocol,
    send_value_protocol,
    transcript_law,
    xor_reply_protocol,
)
from icsim.simulate import (
    ImprovedRoundSimulator,
    ProtocolSimulator,
    RoundPlan,
    _RoundTables,
    _tx_tables,
    auto_round_plans,
    round_density_spectrum,
)
from reference import (
    add_at_j_given_x,
    atom_round_spectrum,
    dense_histories,
    dense_law_spectrum,
    dense_marginals,
    dense_round_inputs,
    dense_round_messages,
    dense_round_spectrum,
    dense_round_view,
    dense_true_view_law,
    dense_view_atoms,
    dense_view_prior,
    k_table,
    slice_table,
)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# -- sums in numpy's order ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 8, 9, 16, 63, 64, 127, 128, 129, 136,
                               200, 256, 1000])
def test_pairwise_sums_are_numpy_sums(n):
    rng = np.random.default_rng(n)
    table = rng.random((6, n)) ** 4 * (rng.random((6, n)) < 0.6)
    g, pos = np.nonzero(table)
    got = _pairwise_sums(g, pos, table[g, pos], 6, n)
    assert _same(got, table.sum(axis=1))


@pytest.mark.parametrize("shape", [(3, 40, 5), (3, 40, 1), (1, 40, 1),
                                   (3, 5, 40), (2, 200, 3)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_axis_sums_follow_numpy_order(shape, axis):
    # numpy sums the last axis pairwise, and any axis whose trailing axes
    # hold one element; any other axis in order
    rng = np.random.default_rng(sum(shape) + axis)
    table = rng.random(shape) ** 4 * (rng.random(shape) < 0.7)
    moved = np.moveaxis(table, axis, -1)
    rows, n = moved.shape[:-1], moved.shape[-1]
    code, pos = np.nonzero(moved.reshape(-1, n))
    pairwise = int(np.prod(shape[axis + 1:])) == 1
    got = _axis_sums(code, pos, moved.reshape(-1, n)[code, pos],
                     int(np.prod(rows)), n, pairwise)
    assert _same(got.reshape(rows), table.sum(axis=axis))


# -- the dense reference -------------------------------------------------------


def _tree_law(source):
    """x sends one or two bits, then y one or two, with bit laws that vary
    by symbol."""
    def bits(alphabet, a, b):
        return {str(s): round(a + b * n / len(alphabet), 3)
                for n, s in enumerate(alphabet)}

    xs, ys = source.x_alphabet, source.y_alphabet
    return transcript_law(ProtocolTree.from_json({"nodes": [
        {"owner": "x", "bit_one": bits(xs, 0.2, 0.6), "children": [1, 2]},
        {"owner": "x", "bit_one": bits(xs, 0.55, -0.4), "children": [3, 3]},
        {"owner": "y", "bit_one": bits(ys, 0.1, 0.8), "children": [None, 3]},
        {"owner": "y", "bit_one": bits(ys, 0.35, 0.5),
         "children": [None, None]},
    ]}), source)


def _sources():
    yield "dsbs", dsbs_source(0.25)
    for m in (2, 3):
        yield f"dsbs^{m}", product_source(dsbs_source(0.2), m)


def _one_cell_law():
    """One input pair, and x sends three bits: the 8 round-1 messages of
    each cell are summed as numpy sums a lone cell's messages, pairwise."""
    src = JointSource(("a",), ("b",), np.ones((1, 1)))
    node = [{"owner": "x", "bit_one": {"a": p}, "children": [n + 1, n + 1]}
            for n, p in enumerate((0.62, 0.29, 0.09))]
    node.append({"owner": "y", "bit_one": {"b": 0.4},
                 "children": [None, None]})
    node[2]["children"] = [3, 3]
    return transcript_law(ProtocolTree.from_json({"nodes": node}), src)


# xor-reply and noisy-send need binary alphabets, so they run over dsbs only
ORACLE_LAWS = {
    "tree-one-cell": _one_cell_law,
    **{f"{name}-{s}": (lambda make=make, src=src: make(src))
       for s, src in _sources()
       for name, make in (("send-x", send_value_protocol),
                          ("data-exchange", data_exchange_protocol),
                          ("exchange-bits", exchange_bits_protocol),
                          ("constant", constant_protocol),
                          ("tree", _tree_law))},
    "xor-reply-dsbs": lambda: xor_reply_protocol(dsbs_source(0.3)),
    "noisy-send:0.1-dsbs": lambda: noisy_send_protocol(dsbs_source(0.25),
                                                       0.1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
def test_atom_law_matches_dense_reference(name):
    law = ORACLE_LAWS[name]()
    k, i, j, _ = law.atoms
    tx, ty = law._marginals
    want_x, want_y = dense_marginals(law)
    assert np.array_equal(tx / law.source.p_x[i], want_x[k, i])
    assert np.array_equal(ty / law.source.p_y[j], want_y[k, j])
    for selector in LAW_SELECTORS:
        spec = law.spectrum(selector)
        want_v, want_p = dense_law_spectrum(law, selector)
        assert _same(spec.values, want_v) and _same(spec.probs, want_p)
    gamma = 3.0
    plans = auto_round_plans(law, gamma=gamma)
    sim = ProtocolSimulator(law, plans)
    for t in range(1, law.n_rounds + 1):
        assert law.histories(t) == dense_histories(law, t)
        assert law.round_messages(t) == dense_round_messages(law, t)
        for hist in law.histories(t):
            view = law.round_view(t, hist)
            msgs, p_m_x, p_m_y, p_m_xy, joint_h = dense_round_view(law, t,
                                                                   hist)
            assert view.messages == msgs
            assert _same(view.p_m_given_x, p_m_x)
            assert _same(view.p_m_given_y, p_m_y)
            assert _same(view.prior, dense_view_prior(joint_h, t))
            assert all(_same(a, b) for a, b in zip(
                view.atoms, dense_view_atoms(p_m_xy, joint_h)))
        specs = {}
        for side in ("tx", "rx"):
            spec = round_density_spectrum(law, t, side)
            specs[side] = SpectrumTable(*dense_round_spectrum(law, t, side))
            assert _same(spec.values, specs[side].values)
            assert _same(spec.probs, specs[side].probs)
        plan = RoundPlan(rx=auto_slice_config(specs["rx"], gamma=gamma),
                         tx=auto_slice_config(specs["tx"], gamma=gamma))
        assert plans[t - 1] == plan
        # the round's tables, built from the dense inputs
        p_tx, p_rx, prior, nxt = dense_round_inputs(law, t)
        tab = sim.tables[t - 1]
        want = _RoundTables.build(tab.inner, p_tx, slice_table(p_rx, plan.rx),
                                  slice_table(p_tx, plan.tx), prior, plan.tx,
                                  None, nxt)
        for field in ("j_cost", "p_m", "slice_rx", "k_of", "slice_tx",
                      "p_j_given_x", "p_j", "good"):
            assert _same(getattr(tab, field), getattr(want, field)), field
        assert (tab.next is None) == (nxt is None)
        assert nxt is None or _same(tab.next, nxt)
    got = sim.true_view_law()
    want = FiniteDistribution.from_mapping(dense_true_view_law(law))
    assert got.symbols == want.symbols and _same(got.probs, want.probs)


@pytest.mark.parametrize("cfg", [
    {"source": "dsbs^2:0.25", "protocol": "p5", "target": "exchange-bits"},
    {"source": "dsbs:0.25", "protocol": "p5", "target": "noisy-send:0.15",
     "gamma": 2.0},
    {"source": "dsbs:0.25", "protocol": "p4", "target": "noisy-send:0.15",
     "gamma": 3.0},
    {"source": "dsbs^4:0.11", "protocol": "p4", "target": "send-x",
     "gamma": 3.0},
], ids=["p5-exchange-bits-dsbs2", "p5-noisy-send", "p4-noisy-send",
        "p4-send-x-dsbs4"])
def test_j_law_has_the_add_at_bits(cfg):
    # P(J | x) of every round table, against np.add.at on its own inputs
    for tab in icsim.cli.build_engine(cfg).tables:
        assert _same(tab.p_j_given_x, add_at_j_given_x(
            tab.p_m, tab.slice_tx, tab.p_j_given_x.shape[-1]))


def test_j_law_adds_many_terms_per_bin_in_message_order():
    # wide slices put up to 40 messages in one bin, where the order of the
    # additions decides the last bits
    rng = np.random.default_rng(7)
    p_m = rng.random((3, 5, 40))
    p_m /= p_m.sum(axis=-1, keepdims=True)
    cfg = SliceConfig(lambda_min=0.0, lambda_max=12.0, delta=4.0, gamma=1.0)
    prior = np.full((3, 5), 0.2)
    slice_tx = slice_table(p_m, cfg)
    _, p_j_given_x, *_ = _tx_tables(p_m, slice_tx, cfg, prior)
    want = add_at_j_given_x(p_m, slice_tx, cfg.n_slices + 1)
    assert _same(p_j_given_x, want)
    backwards = add_at_j_given_x(p_m[..., ::-1], slice_tx[..., ::-1],
                                 cfg.n_slices + 1)
    assert not _same(backwards, want)


@pytest.mark.parametrize("cfg", [
    {"source": "dsbs^6:0.11", "protocol": "p4", "target": "send-x",
     "gamma": 3.0},
    {"source": "dsbs^3:0.11", "protocol": "p5", "target": "exchange-bits",
     "gamma": 3.0, "k_override": 0},
], ids=["p4-send-x-dsbs6", "p5-exchange-bits-dsbs3"])
def test_plugin_eval_never_builds_the_dense_law(monkeypatch, tmp_path, cfg):
    def dense(self):
        raise AssertionError("the dense law table was built")

    monkeypatch.setattr(TranscriptLaw, "p_tau_given_xy", property(dense))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert icsim.cli.main(["eval", "--config", str(path), "--trials",
                           "2000", "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "plugin"


# -- engine 4's receiver table -------------------------------------------------


@pytest.mark.parametrize("target", ["send-x", "noisy-send:0.15", "constant"])
def test_engine4_receiver_table_computed_once(monkeypatch, target):
    """P(M | Y) is the x-ordered sum of the outer products of P(m | x) and
    P(x, y), computed once per build; the receiver table is sliced once,
    from the view's densities, and both the trial table and ``tail_mass``
    read it."""
    src = "dsbs:0.25" if target.startswith("noisy") else "dsbs^3:0.11"
    slicings = []
    slice_table = icsim.simulate._slice_table

    def spy(shape, cells, density, cfg):
        slicings.append(shape)
        return slice_table(shape, cells, density, cfg)

    monkeypatch.setattr(icsim.simulate, "_slice_table", spy)
    engine = icsim.cli.build_engine({"source": src, "protocol": "p4",
                                     "target": target, "gamma": 3.0})
    assert isinstance(engine, ImprovedRoundSimulator)
    # one receiver slicing (ny, M), one transmitter slicing (1, nx, M)
    assert slicings == [engine.p_m_given_y.shape,
                        (1,) + engine.p_m_given_x.shape]
    assert engine.table.slice_rx.base is engine.slice_rx.base
    joint = sum(np.outer(p_m, p_xy) for p_m, p_xy in
                zip(engine.p_m_given_x, engine.source.mass))
    assert _same(engine.joint_my, joint)
    assert engine.tail_mass() == float(joint[engine.slice_rx == 0].sum())
    assert engine.joint_my is engine.__dict__["joint_my"]


# -- exchange-bits -------------------------------------------------------------


def test_exchange_bits_over_dsbs_is_data_exchange():
    src = dsbs_source(0.25)
    a, b = exchange_bits_protocol(src), data_exchange_protocol(src)
    assert a.transcripts == b.transcripts
    assert all(_same(u, v) for u, v in zip(a.atoms, b.atoms))


@pytest.mark.parametrize("m", [1, 2])
def test_exchange_bits_exact_matches_dense_build(m):
    src = product_source(dsbs_source(0.25), m)
    law = exchange_bits_protocol(src)
    assert law.n_rounds == 2 * m
    # the same law from a dense one-hot table, filled entry by entry
    table = np.zeros((len(law.transcripts),) + src.mass.shape)
    for i, x in enumerate(src.x_alphabet):
        for j, y in enumerate(src.y_alphabet):
            tau = tuple(v for pair in zip(x, y) for v in pair)
            table[law.transcript_index[tau], i, j] = 1.0
    dense = TranscriptLaw.from_table(src, law.transcripts, table)
    laws = []
    for made in (law, dense):
        sim = ProtocolSimulator(made, auto_round_plans(made, gamma=2.0),
                                k_override=0)
        laws.append(sim.exact_view_law())
    assert laws[0].symbols == laws[1].symbols
    assert _same(laws[0].probs, laws[1].probs)
    assert abs(law.ic_mean - data_exchange_protocol(src).ic_mean) < 1e-12


# -- the exact walk's row cap --------------------------------------------------


def test_exact_walk_bounds_every_round_before_decoding(monkeypatch):
    # data exchange over dsbs^2 with 10 hash bits per round: round 1
    # decodes 2^24 rows, within the cap, and round 2 could decode 2^26
    law = data_exchange_protocol(product_source(dsbs_source(0.25), 2))
    rx = SliceConfig(0.0, 9.0, 1.0, 0.5)
    plans = auto_round_plans(law, gamma=0.5)
    sim = ProtocolSimulator(law, [RoundPlan(rx, p.tx) for p in plans],
                            k_override=0)
    calls = []
    search = icsim.simulate._slice_search
    monkeypatch.setattr(icsim.simulate, "_slice_search",
                        lambda *a: calls.append(1) or search(*a))
    with pytest.raises(TooLarge, match="rows in round 2"):
        sim.exact_view_law()
    assert calls == []


# -- the one-pass set-up against the derivation it replaced ------------------


# a zero cell (x = 0, y = 1) and a zero row (x = 1)
_GAPPY = JointSource((0, 1, 2), (0, 1), np.array([[0.3, 0.0], [0.0, 0.0],
                                                  [0.25, 0.45]]))
# noisy-send needs a binary x: a zero cell and a zero column (y = 1)
_GAPPY_BINARY = JointSource((0, 1), (0, 1, 2), np.array([[0.3, 0.0, 0.2],
                                                         [0.35, 0.0, 0.15]]))

# conditionals P(x | y) and P(y | x) that each hold an entry whose
# np.log2 is one ulp off math.log2
_ULP = JointSource((0, 1), (0, 1, 2), np.array([[0.14, 0.21, 0.07],
                                                [0.07, 0.08, 0.43]]))


def _setup_laws():
    sources = [(f"dsbs^{m}", product_source(dsbs_source(0.2), m))
               for m in range(1, 5)] + [("gappy", _GAPPY), ("ulp", _ULP)]
    for s, src in sources:
        for name, make in (("send-x", send_value_protocol),
                           ("data-exchange", data_exchange_protocol),
                           ("exchange-bits", exchange_bits_protocol)):
            yield f"{name}-{s}", lambda make=make, src=src: make(src)
    # past _LOOP_TRANSCRIPTS transcripts, _round_index numbers the
    # histories by np.unique instead of dicts
    yield "exchange-bits-dsbs^5", lambda: exchange_bits_protocol(
        product_source(dsbs_source(0.2), 5))
    for s, src in (("dsbs^1", dsbs_source(0.2)), ("gappy", _GAPPY_BINARY),
                   ("ulp", _ULP)):
        yield f"noisy-send:0.1-{s}", lambda src=src: noisy_send_protocol(
            src, 0.1)
    # over dsbs^m, noisy send runs as the m-fold product of its one round
    for m in range(2, 5):
        yield f"noisy-send:0.1-dsbs^{m}", lambda m=m: ProductProtocol(
            noisy_send_protocol(dsbs_source(0.2), 0.1), m).expand()
    yield "threshold-4-1/4", lambda: ThresholdExample(4, 0.25).expand()


SETUP_LAWS = dict(_setup_laws())


def _equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(SETUP_LAWS))
def test_one_pass_setup_matches_the_derivation_it_replaced(name):
    # per round: the views, both sides' spectra, both slice tables, the J
    # law and k(J), against -log2 of each atom's conditional merged by
    # merge_atoms and the slice tables cut from the dense conditionals with
    # a second log2 of their own, with no tolerance; and engine 4's tables
    # on one-round laws
    law = SETUP_LAWS[name]()
    plans = auto_round_plans(law, gamma=3.0)
    sim = ProtocolSimulator(law, plans)
    for t, (plan, tab) in enumerate(zip(plans, sim.tables), start=1):
        views = law.round_views(t)
        assert views.histories == dense_histories(law, t)
        p_tx, p_rx, prior, nxt = dense_round_inputs(law, t)
        own = (p_tx, p_rx) if t % 2 else (p_rx, p_tx)
        assert _equal(views.p_m_given_x, own[0])
        assert _equal(views.p_m_given_y, own[1])
        assert _equal(views.prior, prior)
        assert (views.next is None) == (nxt is None)
        assert nxt is None or _equal(views.next, nxt)
        for side in ("tx", "rx"):
            spec = round_density_spectrum(law, t, side)
            want_v, want_p = atom_round_spectrum(law, t, side)
            assert _equal(spec.values, want_v) and _equal(spec.probs, want_p)
            dense_v, dense_p = dense_round_spectrum(law, t, side)
            assert _equal(spec.values, dense_v) and _equal(spec.probs, dense_p)
        slice_rx = slice_table(p_rx, plan.rx)
        slice_tx = slice_table(p_tx, plan.tx)
        assert _equal(tab.slice_rx, slice_rx), t
        assert _equal(tab.slice_tx, slice_tx), t
        assert _equal(tab.p_j_given_x, add_at_j_given_x(
            p_tx, slice_tx, plan.tx.n_slices + 1)), t
        assert _equal(tab.k_of, k_table(plan.tx, plan.rx.gamma,
                                        tab.inner.total_hash_bits)), t
    if law.n_rounds > 1:
        return
    view = law.round_view(1, ())
    engine = ImprovedRoundSimulator(law.source, view, plans[0].rx,
                                    plans[0].tx)
    assert _equal(engine.slice_rx, slice_table(view.p_m_given_y,
                                               plans[0].rx).T)
    assert _equal(engine.slice_tx, slice_table(view.p_m_given_x,
                                               plans[0].tx).T)
    assert _equal(engine.k_table, sim.tables[0].k_of)


def test_engine4_setup_over_dsbs10_peaks_under_128_mib():
    # send-x over dsbs^10 (1,048,576 atoms): the source, the law, its
    # views, both round spectra and engine 4, as the CLI builds them
    cfg = {"source": "dsbs^10:0.11", "protocol": "p4", "target": "send-x",
           "gamma": 3.0}
    icsim.cli.build_engine({**cfg, "source": "dsbs^2:0.11"})
    tracemalloc.start()
    try:
        engine = icsim.cli.build_engine(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(engine, ImprovedRoundSimulator)
    assert peak < 128 << 20, peak
