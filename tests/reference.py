"""Reference code the tests hold the library to, written as plainly as
possible and sharing no code with what it checks."""

import numpy as np

from icsim.errors import OutOfRange
from icsim.probcore import MERGE_TOL


def merge_atoms(values, probs, merge_tol=MERGE_TOL):
    """``SpectrumTable.from_atoms`` as first written: a Python sort of
    (value, mass) tuples, then one pass that adds each atom to the last
    merged atom while it lies within ``merge_tol`` of that atom's value,
    summing left to right.  Returns the merged (values, probs) arrays."""
    pairs = sorted(zip(values, probs))
    merged_v, merged_p = [], []
    for v, p in pairs:
        if p < 0:
            raise OutOfRange("negative spectrum mass")
        if merged_v and v - merged_v[-1] <= merge_tol:
            merged_p[-1] += p
        else:
            merged_v.append(v)
            merged_p.append(p)
    return np.array(merged_v, dtype=float), np.array(merged_p, dtype=float)


def assert_spectrum_bytes(spec, values, probs, merge_tol=MERGE_TOL):
    """``spec`` holds exactly the bytes of :func:`merge_atoms` on the atoms."""
    want_v, want_p = merge_atoms(values, probs, merge_tol)
    assert spec.values.tobytes() == want_v.tobytes()
    assert spec.probs.tobytes() == want_p.tobytes()
