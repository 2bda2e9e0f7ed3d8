"""A fixed record of what every law of the law tests holds.

``law_oracle.json`` keeps, for each law, the sha256 of the values and of
the probabilities of its five law spectra, and of the reprs of its
transcripts, of its histories and of its message universe in each round.
A change of how a law is represented must leave all of them as they are.

Regenerate the fixture (only when a law is meant to change) with
``PYTHONPATH=src python tests/test_law_oracle.py``.
"""

import hashlib
import json
import pathlib

import pytest

from icsim.probcore import dsbs_source, product_source
from icsim.protocol import (
    LAW_SELECTORS,
    data_exchange_protocol,
    exchange_bits_protocol,
    send_value_protocol,
)
from test_law_atoms import ORACLE_LAWS, SETUP_LAWS

FIXTURE = pathlib.Path(__file__).with_name("law_oracle.json")


def _dsbs6(make):
    return lambda: make(product_source(dsbs_source(0.11), 6))


LAWS = {
    **{f"setup:{name}": make for name, make in SETUP_LAWS.items()},
    **{f"oracle:{name}": make for name, make in ORACLE_LAWS.items()},
    "send-x-dsbs^6": _dsbs6(send_value_protocol),
    "data-exchange-dsbs^6": _dsbs6(data_exchange_protocol),
    "exchange-bits-dsbs^6": _dsbs6(exchange_bits_protocol),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    return _sha(a.dtype.str.encode() + a.tobytes())


def _repr_sha(obj) -> str:
    return _sha(repr(obj).encode())


def record(law) -> dict:
    rounds = range(1, law.n_rounds + 1)
    return {
        "spectra": {s: [_array_sha(law.spectrum(s).values),
                        _array_sha(law.spectrum(s).probs)]
                    for s in LAW_SELECTORS},
        "transcripts": _repr_sha(law.transcripts),
        "histories": [_repr_sha(law.histories(t)) for t in rounds],
        "messages": [_repr_sha(law.round_views(t).messages) for t in rounds],
    }


def test_the_oracle_covers_every_law():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(LAWS)
    assert len(LAWS) >= 39


@pytest.mark.parametrize("name", sorted(LAWS))
def test_law_matches_its_oracle(name):
    assert record(LAWS[name]()) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: record(make())
                                   for name, make in sorted(LAWS.items())},
                                  indent=1, sort_keys=True) + "\n")
