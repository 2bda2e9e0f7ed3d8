"""Key rows in the order of their views' reprs.

``icsim.simulate._canonical`` sorts an engine's key rows by the reprs of
their alphabets' symbols, column by column, where
``FiniteDistribution.from_mapping`` sorts the views by their whole reprs
(``icsim.probcore._repr_key``).  These tests hold the two orders equal: on
alphabets drawn by hypothesis, and on the true and exact laws of every
engine config of the golden report corpus.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import update
from icsim.cli import build_engine
from icsim.errors import TooLarge
from icsim.probcore import FiniteDistribution, JointSource, SliceConfig, \
    _repr_key
from icsim.protocol import TranscriptLaw, coded
from icsim.simulate import (
    ProtocolSimulator,
    RoundPlan,
    SlepianWolfCoder,
    _canonical,
    _key_law,
    _view_ranks,
)


def _assert_from_mapping_order(engine, keys, p):
    """``_canonical`` puts the rows in the repr order of their views, and
    ``_key_law`` builds ``from_mapping``'s law of them, bit for bit."""
    views = engine.views_of(keys)
    want = FiniteDistribution.from_mapping(dict(zip(views, p.tolist())))
    rows, q = _canonical(engine, keys, p)
    got = engine.views_of(rows)
    assert got == sorted(views, key=_repr_key())
    assert dict(zip(got, q.tolist())) == dict(zip(views, p.tolist()))
    law = _key_law(engine, lambda: (rows, q))
    assert law.symbols == want.symbols
    assert law.probs.tobytes() == want.probs.tobytes()


# -- alphabets drawn by hypothesis --------------------------------------------

_ATOMS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.text(alphabet="ab1 ,()'\"\\", max_size=4),
    st.none(),
    st.booleans(),
)
_SYMBOLS = st.recursive(
    _ATOMS, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=4)


def _alphabet(max_size=5, symbols=_SYMBOLS):
    # unique by value: 1, 1.0 and True are one symbol, as in JointSource
    return st.lists(symbols, min_size=1, max_size=max_size, unique=True)


def _uniform(xs, ys) -> JointSource:
    return JointSource(tuple(xs), tuple(ys),
                       np.full((len(xs), len(ys)), 1 / (len(xs) * len(ys))))


def _rows(rng, cols: list, n: int) -> np.ndarray:
    """Up to ``n`` distinct rows, column c drawn from ``cols[c]``
    (low, high), both included."""
    keys = np.stack([rng.integers(lo, hi + 1, size=n) for lo, hi in cols]).T
    return np.unique(keys, axis=0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(xs=_alphabet(symbols=_SYMBOLS.filter(lambda s: s is not None)),
       ys=_alphabet(), seed=st.integers(0, 2 ** 32 - 1))
def test_one_round_order_is_the_repr_order(xs, ys, seed):
    # engine 1's views (M*, decoded, x, y) over its x values as messages,
    # None (key -1) for a failed M* or decode, so no message is None
    engine = SlepianWolfCoder(_uniform(xs, ys), 2, 1.0)
    rng = np.random.default_rng(seed)
    nx, ny = len(xs), len(ys)
    keys = _rows(rng, [(-1, nx - 1), (-1, nx - 1), (0, nx - 1),
                       (0, ny - 1)], 60)
    p = rng.random(len(keys))
    _assert_from_mapping_order(engine, keys, p / p.sum())
    # the ranks, not the fallback, decide the order
    assert _view_ranks(engine) is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(xs=_alphabet(max_size=3), ys=_alphabet(max_size=3),
       rounds=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_protocol_order_is_the_repr_order(xs, ys, rounds, data, seed):
    # engine 5's views (hist_x, hist_y, x, y), each history a tuple of
    # round messages, (None, None, x, y) after a failure
    src = _uniform(xs, ys)
    per_round = [data.draw(_alphabet(max_size=3)) for _ in range(rounds)]
    nx, ny = len(xs), len(ys)
    rng = np.random.default_rng(seed)
    taus = {tuple(msgs[rng.integers(len(msgs))] for msgs in per_round)
            for _ in range(nx * ny)}
    taus = sorted(taus, key=repr)
    index = rng.integers(len(taus), size=(nx, ny))
    law = TranscriptLaw.from_index(src, *coded(taus), index)
    plan = RoundPlan(SliceConfig(0.0, 2.0, 1.0, 1.0),
                     SliceConfig(0.0, 1e-9, 1e-9, 1.0))
    engine = ProtocolSimulator(law, [plan] * law.n_rounds)
    sizes = [len(law.messages[t - 1]) for t in range(1, rounds + 1)]
    cols = [(0, u - 1) for u in sizes] * 2 + [(0, nx - 1), (0, ny - 1)]
    keys = _rows(rng, cols, 40)
    failed = rng.random(len(keys)) < 0.3
    keys[failed, :2 * rounds] = -1
    keys = np.unique(keys, axis=0)
    p = rng.random(len(keys))
    _assert_from_mapping_order(engine, keys, p / p.sum())
    assert _view_ranks(engine) is not None
    # and the law's own atoms, true and failed views side by side
    _assert_from_mapping_order(engine, *engine.true_view_rows())


def test_a_repr_prefix_falls_back_to_from_mapping():
    # a symbol whose repr is another's followed by a space, below ",",
    # sorts before the other's views as a whole and after it as a column:
    # the column has no ranks and the rows take the views' repr order
    class Spelled:
        def __init__(self, text):
            self.text = text

        def __repr__(self):
            return self.text

    a, b = Spelled("a"), Spelled("a a")
    engine = SlepianWolfCoder(_uniform([a, b], [0]), 2, 1.0)
    assert _view_ranks(engine) is None
    keys = np.array([[0, 0, 0, 0], [1, 1, 1, 0]])
    _assert_from_mapping_order(engine, keys, np.array([0.5, 0.5]))
    assert engine.views_of(_canonical(engine, keys, np.ones(2))[0]) == \
        [(b, b, b, 0), (a, a, a, 0)]


# -- the engine configs of the golden corpus ----------------------------------


def _corpus_configs() -> dict:
    """Each distinct engine config of the corpus's ``eval`` and
    ``simulate`` commands that exit 0, under its first command's name."""
    configs = {}
    for case in update.load_commands():
        cfg = case.get("config")
        if cfg is None or case["argv"][0] not in ("eval", "simulate"):
            continue
        golden = (update.HERE / f"{case['name']}.txt").read_text()
        if "\nexit status 0\n" in golden:
            configs.setdefault(json.dumps(cfg, sort_keys=True), case["name"])
    return {name: json.loads(doc) for doc, name in configs.items()}


_CONFIGS = _corpus_configs()


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_corpus_laws_in_repr_order(name):
    engine = build_engine(_CONFIGS[name])
    assert _view_ranks(engine) is not None
    _assert_from_mapping_order(engine, *engine.true_view_rows())
    try:
        rows = engine.exact_view_rows()
    except TooLarge:
        return
    assert math.isclose(float(rows[1].sum()), 1.0)
    _assert_from_mapping_order(engine, *rows)
