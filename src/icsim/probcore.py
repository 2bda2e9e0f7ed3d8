"""Finite probability substrate: joint sources, information densities, spectra.

All logarithms are base 2 and all densities are measured in bits.  Spectra are
finite atom lists sorted by value; tail queries follow the one-sided
conventions

    lower eps-tail:  sup { lam : Pr[D > lam] > eps }
    upper eps-tail:  inf { lam : Pr[D > lam] < eps }

evaluated exactly on the atom grid.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    MismatchedSupport,
    OutOfRange,
    ZeroMassAtom,
    check_bytes,
)

#: absolute tolerance for "sums to one" checks
NORM_TOL = 1e-9
#: atoms whose values agree within this tolerance are merged
MERGE_TOL = 1e-12
#: the coarser tolerance of a convolution's merge
CONVOLVE_MERGE_TOL = 1e-9
#: ``SpectrumTable.from_atoms`` merges at most this many atoms in a Python
#: loop, which is faster there than its vectorized pass
_LOOP_ATOMS = 32
#: past this many entries ``log2_each`` and ``density_ranks`` take
#: ``math.log2`` of each distinct value once, which is faster there than one
#: call per entry
_UNIQUE_LOG_ENTRIES = 384
#: peak bytes an atom of taking a spectrum's densities at its atoms and
#: merging them: about 81 B measured (index and value arrays, the sort
#: order, the merge's groups), and the atom's source mass
SPECTRUM_ATOM_BYTES = 96
#: entries per chunk of :func:`density_ranks`, which bounds its temporaries
_RANK_CHUNK = 1 << 16
#: tolerance used when comparing tail masses against a threshold
TAIL_TOL = 1e-12


def _log2(p: float) -> float:
    if p <= 0.0:
        raise ZeroMassAtom("density requested at a zero-probability point")
    return math.log2(p)


def log2_each(p: np.ndarray) -> np.ndarray:
    """``math.log2`` of every entry of a vector.

    The densities of the source and law spectra and of engine 1's typical
    set come from here, and a round's spectra and slice tables from
    :func:`density_ranks` itself, so both take ``math.log2`` (``np.log2``
    can differ in the last bit).  Past ``_UNIQUE_LOG_ENTRIES`` entries
    it is :func:`density_ranks`' values read back at their ranks and
    negated, ``math.log2`` once per distinct value; the same float has the
    same logarithm, so the bits are those of the per-entry map.  Product
    sources give spectra of many atoms and few distinct probabilities.
    """
    if p.size <= _UNIQUE_LOG_ENTRIES:
        return np.fromiter(map(math.log2, p.tolist()), float, p.size)
    values, rank = density_ranks(p)
    return -values[rank]


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a float vector, ascending: ``np.unique``
    by one sort, as numpy 2's hashed ``np.unique`` of floats costs a
    process several milliseconds on its first call."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def density_ranks(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The densities -log2 of a vector of positive probabilities, as
    ``(values, rank)``: ``values`` strictly increasing and ``values[rank]``
    bit for bit ``-math.log2`` of each entry, so ``rank`` orders the
    entries by density.

    ``math.log2`` is taken once per entry up to ``_UNIQUE_LOG_ENTRIES``
    entries, then once per distinct entry, with the ranks found
    ``_RANK_CHUNK`` entries at a time, so no temporary is larger than a
    chunk; past that size, this is the one place that takes it.  ``rank``
    has the smallest unsigned dtype that holds it.
    """
    if p.size <= _UNIQUE_LOG_ENTRIES:
        dens = [-math.log2(v) for v in p.tolist()]
        values = sorted(set(dens))
        index = {v: r for r, v in enumerate(values)}
        return np.array(values, dtype=float), np.fromiter(
            map(index.__getitem__, dens),
            np.min_scalar_type(max(len(values) - 1, 0)), len(dens))
    chunks = range(0, p.size, _RANK_CHUNK)
    distinct = _distinct(np.concatenate(
        [_distinct(p[a:a + _RANK_CHUNK]) for a in chunks]))
    dens = -np.fromiter(map(math.log2, distinct.tolist()), float,
                        distinct.size)
    # distinct entries can share a logarithm
    values, group = np.unique(dens, return_inverse=True)
    group = group.ravel().astype(np.min_scalar_type(max(values.size - 1, 0)))
    rank = np.empty(p.size, dtype=group.dtype)
    for a in chunks:
        rank[a:a + _RANK_CHUNK] = group[np.searchsorted(
            distinct, p[a:a + _RANK_CHUNK])]
    return values, rank


# ---------------------------------------------------------------------------
# distributions and sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability mass function on an explicit finite universe.

    ``distinct`` vouches that the symbols are distinct, which skips the
    check that hashes every symbol: :func:`icsim.simulate._key_law` passes
    it for views of distinct key rows over alphabets of distinct symbols.
    """

    symbols: tuple
    probs: np.ndarray
    distinct: InitVar[bool] = False

    def __post_init__(self, distinct: bool):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if len(self.symbols) != probs.shape[0]:
            raise MismatchedSupport("symbol list and probability vector disagree")
        if not (probs >= -NORM_TOL).all():  # NaN fails too
            raise OutOfRange("negative or NaN probability mass")
        if abs(float(probs.sum()) - 1.0) > NORM_TOL:
            raise OutOfRange("probabilities do not sum to one")
        if not distinct and len(set(self.symbols)) != len(self.symbols):
            raise MismatchedSupport("duplicate symbols in universe")

    @cached_property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.symbols)}

    def prob(self, symbol) -> float:
        return float(self.probs[self.index[symbol]])

    @classmethod
    def from_mapping(cls, mapping: dict) -> "FiniteDistribution":
        symbols = tuple(sorted(mapping, key=_repr_key()))
        probs = np.array([float(mapping[s]) for s in symbols])
        return cls(symbols, probs)


def _repr_key():
    """A sort key equal to ``repr`` that builds a plain tuple's repr from
    its components' reprs, memoized for the life of the key.

    The symbols of a law share their components (views are tuples of
    alphabet symbols and messages), so each component's repr is made once.
    The memo is keyed by identity, not by value: equal values such as ``1``,
    ``1.0`` and ``True`` have different reprs.  Every component stays alive
    while the symbols being sorted do, so no identity is reused meanwhile.
    """
    memo: dict = {}

    def part(c) -> str:
        r = memo.get(id(c))
        if r is None:
            r = memo[id(c)] = repr(c)
        return r

    def key(s) -> str:
        if type(s) is tuple and len(s) >= 2:
            return "(" + ", ".join(map(part, s)) + ")"
        return repr(s)

    return key


@dataclass(frozen=True)
class JointSource:
    """A joint pmf P_XY on a pair of finite alphabets.

    ``mass[i, j]`` is the probability of ``(x_alphabet[i], y_alphabet[j])``.
    """

    x_alphabet: tuple
    y_alphabet: tuple
    mass: np.ndarray

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if mass.shape != (len(self.x_alphabet), len(self.y_alphabet)):
            raise MismatchedSupport("mass table shape does not match alphabets")
        if not (mass >= 0).all():  # NaN fails too
            raise OutOfRange("negative or NaN probability mass")
        if abs(float(mass.sum()) - 1.0) > NORM_TOL:
            raise OutOfRange("joint mass does not sum to one")
        for alphabet in (self.x_alphabet, self.y_alphabet):
            if len(set(alphabet)) != len(alphabet):
                raise MismatchedSupport("duplicate symbols in an alphabet")

    @cached_property
    def x_index(self) -> dict:
        return {s: i for i, s in enumerate(self.x_alphabet)}

    @cached_property
    def y_index(self) -> dict:
        return {s: i for i, s in enumerate(self.y_alphabet)}

    @cached_property
    def p_x(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @cached_property
    def p_y(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    @cached_property
    def p_x_given_y(self) -> np.ndarray:
        """Column-conditional table, entry (i, j) = P(x_i | y_j)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(self.p_y > 0, self.mass / self.p_y, 0.0)
        return out

    @cached_property
    def p_y_given_x(self) -> np.ndarray:
        """Row-conditional table, entry (i, j) = P(y_j | x_i)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(self.p_x[:, None] > 0, self.mass / self.p_x[:, None], 0.0)
        return out

    def prob(self, x, y) -> float:
        return float(self.mass[self.x_index[x], self.y_index[y]])

    @cached_property
    def _flat_cum(self) -> np.ndarray:
        return np.cumsum(self.mass.ravel())

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw (x, y) pairs; returns index pairs, not symbols."""
        u = rng.random(size) if size is not None else rng.random()
        idx = np.searchsorted(self._flat_cum, u, side="right")
        idx = np.minimum(idx, self.mass.size - 1)
        return np.unravel_index(idx, self.mass.shape)

    @classmethod
    def from_json(cls, doc: str | dict) -> "JointSource":
        """Build a source from a JSON document.

        Expected keys: ``x_alphabet``, ``y_alphabet`` and a row-major ``mass``
        list of lists.  A symbol that is a list, at any depth, becomes a
        tuple.
        """
        if isinstance(doc, str):
            doc = json.loads(doc)
        def _freeze(sym):
            return tuple(map(_freeze, sym)) if isinstance(sym, list) else sym
        return cls(
            x_alphabet=tuple(_freeze(s) for s in doc["x_alphabet"]),
            y_alphabet=tuple(_freeze(s) for s in doc["y_alphabet"]),
            mass=np.array(doc["mass"], dtype=float),
        )

    def to_json(self) -> dict:
        return {
            "x_alphabet": list(self.x_alphabet),
            "y_alphabet": list(self.y_alphabet),
            "mass": self.mass.tolist(),
        }


def dsbs_source(q: float) -> JointSource:
    """Doubly symmetric binary source: X uniform, Y = X flipped w.p. q."""
    if not 0.0 <= q <= 1.0:
        raise OutOfRange("crossover probability must lie in [0, 1]")
    mass = np.array([[(1 - q) / 2, q / 2], [q / 2, (1 - q) / 2]])
    return JointSource((0, 1), (0, 1), mass)


def _source_bytes(nx: int, ny: int) -> int:
    """The peak bytes of building an nx x ny product source: 12 B a cell,
    for its masses, the last kron's input and the source's checks, and
    768 B a symbol, for the tuples of its alphabets and their indexes."""
    return 12 * nx * ny + 768 * (nx + ny)


def product_source(base: JointSource, n: int) -> JointSource:
    """n-fold iid product of a joint source; alphabets become tuples."""
    if n < 1:
        raise OutOfRange("product power must be at least 1")
    nx, ny = (len(a) ** n for a in (base.x_alphabet, base.y_alphabet))
    check_bytes(_source_bytes(nx, ny),
                f"product source of {nx:,} x {ny:,} inputs")
    xs = [(s,) for s in base.x_alphabet]
    ys = [(s,) for s in base.y_alphabet]
    mass = base.mass.copy()
    for _ in range(n - 1):
        xs = [u + (s,) for u in xs for s in base.x_alphabet]
        ys = [v + (s,) for v in ys for s in base.y_alphabet]
        mass = np.kron(mass, base.mass)
    return JointSource(tuple(xs), tuple(ys), mass)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

DENSITY_KINDS = (
    "joint",          # h(x, y)
    "cond_x_given_y",  # h(x | y)
    "cond_y_given_x",  # h(y | x)
    "sum",            # h(x | y) + h(y | x)
    "mutual",         # i(x ^ y) = h(x) - h(x | y)
)


def entropy_density(source: JointSource, kind: str, x, y) -> float:
    """Pointwise entropy density of ``(x, y)`` under the source, in bits."""
    i, j = source.x_index[x], source.y_index[y]
    pxy = float(source.mass[i, j])
    if pxy <= 0.0:
        raise ZeroMassAtom(f"({x!r}, {y!r}) has zero probability")
    if kind == "joint":
        return -_log2(pxy)
    if kind == "cond_x_given_y":
        return -_log2(float(source.p_x_given_y[i, j]))
    if kind == "cond_y_given_x":
        return -_log2(float(source.p_y_given_x[i, j]))
    if kind == "sum":
        return (-_log2(float(source.p_x_given_y[i, j]))
                - _log2(float(source.p_y_given_x[i, j])))
    if kind == "mutual":
        return _log2(float(source.p_x_given_y[i, j])) - _log2(float(source.p_x[i]))
    raise OutOfRange(f"unknown density kind {kind!r}")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    third_central: float


@dataclass(frozen=True)
class SpectrumTable:
    """A finite information spectrum: sorted atom values with probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.shape != probs.shape or values.ndim != 1:
            raise MismatchedSupport("spectrum arrays must be equal-length vectors")
        if values.size == 0:
            raise OutOfRange("a spectrum needs at least one atom")
        if np.any(np.diff(values) <= 0):
            raise OutOfRange("spectrum values must be strictly increasing")
        if not (probs >= 0).all():  # NaN fails too
            raise OutOfRange("negative or NaN spectrum mass")
        if abs(float(probs.sum()) - 1.0) > NORM_TOL:
            raise OutOfRange("spectrum mass does not sum to one")

    @classmethod
    def from_atoms(cls, values: Sequence[float], probs: Sequence[float],
                   merge_tol: float = MERGE_TOL) -> "SpectrumTable":
        """Sort atoms, merge values that coincide within ``merge_tol``.

        Atoms are ordered by value, then by mass (``np.lexsort``, stable,
        the order of ``sorted(zip(values, probs))``).  One pass then merges
        each atom into the current group while it lies within ``merge_tol``
        of the group's first value, summing masses left to right.

        Past ``_LOOP_ATOMS`` atoms the pass is vectorized: a group starts
        at each atom beyond ``merge_tol`` of the one before, and when every
        atom then lies within ``merge_tol`` of its group's first value
        these are the pass's groups (an atom beyond its predecessor is
        beyond every earlier value too); ``bincount`` sums each group's
        masses left to right.  Otherwise (few atoms, chains of near
        values, infinite values, a mass of -0.0) the pass runs atom by
        atom.
        """
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise MismatchedSupport("spectrum arrays must be equal-length vectors")
        if np.any(probs < 0):
            raise OutOfRange("negative spectrum mass")
        order = np.lexsort((probs, values))
        v, p = values[order], probs[order]
        if v.size > _LOOP_ATOMS:
            start = np.ones(v.size, dtype=bool)
            start[1:] = ~(v[1:] - v[:-1] <= merge_tol)
            group = np.cumsum(start) - 1
            anchors = v[start]
            if (v - anchors[group] <= merge_tol).all() \
                    and not np.signbit(p).any():
                return cls(anchors, np.bincount(group, weights=p,
                                                minlength=anchors.size))
        merged_v: list[float] = []
        merged_p: list[float] = []
        # the open group starts at ``anchor`` and holds mass ``acc``; a new
        # group closes it.  The first atom closes a sentinel group at -inf
        # (v - anchor is +inf or NaN, never within tolerance), whose mass is
        # dropped
        anchor, acc = -math.inf, 0.0
        for v, p in zip(v.tolist(), p.tolist()):
            if v - anchor <= merge_tol:
                acc += p
            else:
                merged_p.append(acc)
                merged_v.append(v)
                anchor, acc = v, p
        merged_p.append(acc)
        return cls(np.array(merged_v), np.array(merged_p[1:]))

    @classmethod
    def from_ranks(cls, values: np.ndarray, rank: np.ndarray,
                   probs: np.ndarray) -> "SpectrumTable":
        """``from_atoms(values[rank], probs)``, bit for bit, for strictly
        increasing ``values``: atom n has value ``values[rank[n]]``.

        The integer ranks already order the atoms by value, so the merge is
        decided on ``values`` alone and no float ``lexsort`` is needed.
        When each merged group holds atoms of one mass, any order of its
        atoms gives the same left-to-right sum, and one ``bincount`` in
        atom order is the merge's.  Otherwise the atoms are sorted as the
        integers ``rank * K + mass rank`` (K distinct masses), and the
        masses read back in that order are summed left to right.  Few
        atoms, chains of near values and masses that are negative or -0.0
        go to :meth:`from_atoms`.
        """
        probs = np.asarray(probs, dtype=float)
        if probs.size <= _LOOP_ATOMS:
            return cls.from_atoms(values[rank], probs)
        start = np.ones(values.size, dtype=bool)
        start[1:] = ~(values[1:] - values[:-1] <= MERGE_TOL)
        group = np.cumsum(start) - 1
        anchors = values[start]
        if (np.signbit(probs).any()
                or not (values - anchors[group] <= MERGE_TOL).all()):
            return cls.from_atoms(values[rank], probs)
        g = group[rank]
        first = np.empty(anchors.size)
        first[g] = probs
        if (first[g] == probs).all():
            # one mass in each merged group, summed in any order alike
            return cls(anchors, np.bincount(g, weights=probs,
                                            minlength=anchors.size))
        del g, first
        # the atoms in value order, then mass order, as integer keys
        masses = _distinct(probs)
        key = rank.astype(np.int64) * masses.size
        for a in range(0, key.size, _RANK_CHUNK):
            key[a:a + _RANK_CHUNK] += np.searchsorted(
                masses, probs[a:a + _RANK_CHUNK])
        key.sort()
        r, m = np.divmod(key, masses.size, out=(np.empty_like(key), key))
        np.take(group, r, out=r)
        return cls(anchors, np.bincount(r, weights=masses[m],
                                        minlength=anchors.size))

    @cached_property
    def _tail_after(self) -> np.ndarray:
        """Entry i holds Pr[D > values[i]]."""
        rev = np.cumsum(self.probs[::-1])[::-1]
        return np.concatenate([rev[1:], [0.0]])

    def tail_prob(self, lam: float) -> float:
        """Pr[D > lam]."""
        return float(self.probs[self.values > lam].sum())

    def eps_tail(self, eps: float, side: str) -> float:
        """One-sided eps-tail of the spectrum.

        For an empty upper query (no lambda qualifies) returns ``inf``; the
        lower tail always resolves to an atom, falling back to the smallest
        atom when the tail is empty.
        """
        if not 0.0 <= eps < 1.0:
            raise OutOfRange("eps must lie in [0, 1)")
        tails = self._tail_after
        if side == "lower":
            idx = np.nonzero(tails <= eps + TAIL_TOL)[0]
            return float(self.values[idx[0]])
        if side == "upper":
            idx = np.nonzero(tails < eps - TAIL_TOL)[0]
            if idx.size == 0:
                return math.inf
            return float(self.values[idx[0]])
        raise OutOfRange(f"unknown side {side!r}")

    def sup_tail_at_least(self, level: float) -> float:
        """sup { lam : Pr[D > lam] >= level }, the weak-inequality variant."""
        if level <= 0.0:
            raise OutOfRange("level must be positive")
        tails = self._tail_after
        idx = np.nonzero(tails < level - TAIL_TOL)[0]
        if idx.size == 0:
            return math.inf
        return float(self.values[idx[0]])

    def moments(self) -> MomentSummary:
        mean = float(np.dot(self.values, self.probs))
        d = self.values - mean
        var = float(np.dot(d * d, self.probs))
        third = float(np.dot(d * d * d, self.probs))
        return MomentSummary(mean, var, third)

    def convolve(self, other: "SpectrumTable") -> "SpectrumTable":
        """Spectrum of the sum of two independent densities."""
        v = (self.values[:, None] + other.values[None, :]).ravel()
        p = (self.probs[:, None] * other.probs[None, :]).ravel()
        return SpectrumTable.from_atoms(v, p, CONVOLVE_MERGE_TOL)

    def convolve_n(self, n: int) -> "SpectrumTable":
        """Exact n-fold self-convolution (iid sum of n copies)."""
        if n < 1:
            raise OutOfRange("convolution power must be at least 1")
        out = self
        for _ in range(n - 1):
            out = out.convolve(self)
        return out

    def scale(self, c: float) -> "SpectrumTable":
        if c <= 0:
            raise OutOfRange("scale factor must be positive")
        return SpectrumTable(self.values * c, self.probs.copy())

    def mix(self, other: "SpectrumTable", p: float) -> "SpectrumTable":
        """Mixture: this spectrum with weight p, the other with 1 - p."""
        if not 0.0 <= p <= 1.0:
            raise OutOfRange("mixture weight must lie in [0, 1]")
        return SpectrumTable.from_atoms(
            np.concatenate([self.values, other.values]),
            np.concatenate([self.probs * p, other.probs * (1 - p)]),
        )

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.choice(self.values, size=size, p=self.probs)

    def to_csv(self, path=None) -> str:
        """Write ``value,prob`` rows; returns the CSV text."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["value", "prob"])
        for v, p in zip(self.values, self.probs):
            writer.writerow([repr(float(v)), repr(float(p))])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def spectrum(obj, selector: str) -> SpectrumTable:
    """Information spectrum of a source or a transcript law.

    For a :class:`JointSource` the selector is one of the entropy-density
    kinds.  Any other object is asked for its own ``spectrum`` method, which
    covers transcript laws and the factored constructions of
    :mod:`icsim.protocol`.
    """
    if isinstance(obj, JointSource):
        if selector not in DENSITY_KINDS:
            raise OutOfRange(f"unknown density kind {selector!r}")
        # every atom of positive mass at once, with the float operations of
        # entropy_density; the conditionals are positive wherever mass is.
        # Priced first, with 8 B a cell of each conditional it builds
        live = obj.mass > 0
        n = int(np.count_nonzero(live))
        new = sum(name not in obj.__dict__ for name in {
            "cond_x_given_y": ("p_x_given_y",),
            "cond_y_given_x": ("p_y_given_x",),
            "sum": ("p_x_given_y", "p_y_given_x"),
            "mutual": ("p_x_given_y",)}.get(selector, ()))
        check_bytes(SPECTRUM_ATOM_BYTES * n + 8 * obj.mass.size * new,
                    f"{selector} spectrum of {n:,} atoms")
        i, j = np.nonzero(live)
        del live
        probs = obj.mass[i, j]
        if selector == "joint":
            vals = -log2_each(probs)
        elif selector == "cond_x_given_y":
            vals = -log2_each(obj.p_x_given_y[i, j])
        elif selector == "cond_y_given_x":
            vals = -log2_each(obj.p_y_given_x[i, j])
        elif selector == "sum":
            vals = (-log2_each(obj.p_x_given_y[i, j])
                    - log2_each(obj.p_y_given_x[i, j]))
        else:  # mutual
            vals = log2_each(obj.p_x_given_y[i, j]) - log2_each(obj.p_x[i])
        return SpectrumTable.from_atoms(vals, probs)
    return obj.spectrum(selector)


# ---------------------------------------------------------------------------
# slicing and the Gaussian tail inverse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceConfig:
    """Partition of a density range into equal slices of width ``delta``.

    Slice i (1-based) covers [lambda_min + (i-1) delta, lambda_min + i delta),
    clipped at ``lambda_max``; everything outside [lambda_min, lambda_max)
    is the tail slice 0.
    """

    lambda_min: float
    lambda_max: float
    delta: float
    gamma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lambda_min, self.lambda_max,
                                       self.delta, self.gamma))):
            raise OutOfRange(f"slice config fields must be finite: {self}")
        if not self.lambda_max > self.lambda_min:
            raise OutOfRange("lambda_max must exceed lambda_min")
        if not self.delta > 0:
            raise OutOfRange("slice width must be positive")
        if self.gamma < 0:
            raise OutOfRange("gamma must be nonnegative")
        if self.n_slices < 1:
            raise OutOfRange(f"the range [{self.lambda_min}, "
                             f"{self.lambda_max}) holds no slice of width "
                             f"{self.delta}")

    @property
    def n_slices(self) -> int:
        return int(math.ceil((self.lambda_max - self.lambda_min) / self.delta - 1e-12))

    def slice_of(self, value: float) -> int:
        """Slice index of a density value; 0 is the tail slice."""
        if value < self.lambda_min or value >= self.lambda_max:
            return 0
        i = int((value - self.lambda_min) // self.delta) + 1
        return min(i, self.n_slices)

    def tail_mass(self, spec: SpectrumTable) -> float:
        """Probability that the spectrum falls in the tail slice."""
        mask = (spec.values < self.lambda_min) | (spec.values >= self.lambda_max)
        return float(spec.probs[mask].sum())


def auto_slice_config(spec: SpectrumTable, gamma: float = 4.0,
                      sigmas: float = 3.0) -> SliceConfig:
    """Slice configuration centred on the spectrum mean.

    Covers mean +- ``sigmas`` standard deviations clipped to the atom range,
    with integer slice width about the square root of the span.
    """
    ms = spec.moments()
    sd = math.sqrt(max(ms.variance, 0.0))
    lo = max(float(spec.values[0]), ms.mean - sigmas * sd)
    hi = min(float(spec.values[-1]), ms.mean + sigmas * sd)
    # half-open slices: nudge the ceiling so the top atom is covered
    hi = hi + 1e-9
    span = hi - lo
    delta = max(1, int(math.ceil(math.sqrt(span))))
    return SliceConfig(lambda_min=lo, lambda_max=hi, delta=float(delta),
                       gamma=gamma)


def q_func(x: float) -> float:
    """Standard normal upper tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inv(eps: float, tol: float = 1e-10) -> float:
    """Inverse of the standard normal tail, by bisection on erfc."""
    if not 0.0 < eps < 1.0:
        raise OutOfRange("q_inv needs eps strictly inside (0, 1)")
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q_func(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
