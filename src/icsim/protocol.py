"""Interactive protocols as explicit transcript laws.

A protocol over a :class:`~icsim.probcore.JointSource` is represented by its
transcript law P(transcript | x, y), kept as its positive atoms, together
with a decomposition of each transcript into rounds, where consecutive
rounds are spoken by alternating parties (party "x" speaks the odd rounds).
A transcript is a row of integer codes into its rounds' message universes.
Everything downstream (densities, spectra, simulation, bounds) is computed
from the atoms and codes, with no Python object per transcript.

Large constructions that would not fit as explicit laws (iid products,
protocol mixtures, the two-threshold example on n-bit inputs) are kept in
factored or cell-aggregated form and expose the same ``spectrum`` API.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    MismatchedSupport,
    OutOfRange,
    SupportViolation,
    ZeroMassAtom,
    check_bytes,
)
from .probcore import (
    NORM_TOL,
    SPECTRUM_ATOM_BYTES,
    JointSource,
    SpectrumTable,
    _source_bytes,
    density_ranks,
    log2_each,
    product_source,
)

LAW_SELECTORS = ("ic", "h_xy", "h_x_given_ypi", "hsum_ext", "compression")


# ---------------------------------------------------------------------------
# sums in numpy's order
# ---------------------------------------------------------------------------


def _run_starts(code: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``code`` starts."""
    first = np.ones(code.size, dtype=bool)
    np.not_equal(code[1:], code[:-1], out=first[1:])
    return first


def _pairwise_sums(group: np.ndarray, pos: np.ndarray, w: np.ndarray,
                   groups: int, n: int) -> np.ndarray:
    """numpy's float64 sum along a contiguous axis of length ``n``, of
    ``groups`` rows given by their nonzero terms: term ``w[k]`` sits at
    position ``pos[k]`` of row ``group[k]``, and each row's terms come in
    ascending position.

    numpy sums such an axis pairwise: fewer than 8 terms in order; up to
    128 in eight accumulators, one per position mod 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the terms past
    the last multiple of 8 in order; a longer axis splits at half its
    length, rounded down to a multiple of 8.  Adding a zero changes no
    bit, so the nonzero terms, added in the same places, give the same sum.
    ``group`` is ascending; the accumulators are kept only for the rows
    with terms below the cut, numbered by their runs.
    """
    if n < 8:
        return np.bincount(group, weights=w, minlength=groups)
    if n <= 128:
        cut = n - n % 8
        main = pos < cut
        g = group[main]
        first = _run_starts(g)
        r = np.bincount((np.cumsum(first) - 1) * 8 + pos[main] % 8,
                        weights=w[main],
                        minlength=8 * int(first.sum())).reshape(-1, 8)
        for step in (1, 2, 4):  # the combination above, in place
            r[:, ::2 * step] += r[:, step::2 * step]
        out = np.zeros(groups)
        out[g[first]] = r[:, 0]
        if cut < n:
            np.add.at(out, group[~main], w[~main])
        return out
    half = n // 2 - (n // 2) % 8
    left = pos < half
    right = ~left
    return (_pairwise_sums(group[left], pos[left], w[left], groups, half)
            + _pairwise_sums(group[right], pos[right] - half, w[right],
                             groups, n - half))


def _axis_sums(code: np.ndarray, pos: np.ndarray, w: np.ndarray, size: int,
               n: int, pairwise: bool) -> np.ndarray:
    """``table.sum(axis)`` of a float64 table whose reduced axis has length
    ``n`` and whose other axes flatten to ``size`` rows, from its nonzero
    terms: ``w[k]`` at position ``pos[k]`` of row ``code[k]``, each row's
    terms in ascending position.

    numpy sums the contiguous last axis pairwise, and so any axis whose
    trailing axes hold one element; it sums any other axis in order.
    ``pairwise`` says which; a pairwise sum needs ``code`` ascending.
    Rows that fill at least half of their dense table are laid out in it
    and summed by numpy itself; sparser ones go to :func:`_pairwise_sums`.
    """
    if not pairwise or n < 8:  # under 8 terms numpy also sums in order
        return np.bincount(code, weights=w, minlength=size)
    first = _run_starts(code)
    groups = int(first.sum())
    if groups * n <= 2 * code.size:  # rows dense enough to be laid out
        rows = np.zeros((groups, n))
        rows[np.cumsum(first) - 1, pos] = w
        sums = rows.sum(axis=1)
    else:
        sums = _pairwise_sums(np.cumsum(first) - 1, pos, w, groups, n)
    out = np.zeros(size)
    out[code[first]] = sums
    return out


def _read_only(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def _increasing(a: np.ndarray, strict: bool = True) -> bool:
    """Whether a vector is increasing (strictly, unless not ``strict``)."""
    return bool((np.greater if strict else np.greater_equal)(
        a[1:], a[:-1]).all())


# ---------------------------------------------------------------------------
# transcript laws
# ---------------------------------------------------------------------------


def speaker(t: int) -> int:
    """The party that speaks round t: 0, party x, in the odd rounds and 1,
    party y, in the even ones; the other party listens."""
    return 1 - t % 2


@dataclass(frozen=True)
class RoundView:
    """Conditional law of one round given a transcript history.

    ``atoms`` holds arrays ``(a, i, j, weight)``: the positive atoms of
    P(hist, m, x, y), with ``a`` indexing ``messages``, in row-major
    (message, x, y) order.  ``prior`` is the speaker's input law given the
    history.  ``densities`` holds, for party x then party y, its density
    -log2 P(m | own input, history) at every atom as ``(values, rank)``
    (see :func:`~icsim.probcore.density_ranks`); None on a view made by
    hand, whose engine takes them from the dense conditionals.  Its arrays
    are read-only: :meth:`TranscriptLaw.round_view` hands the same view to
    every caller.
    """

    messages: tuple
    p_m_given_x: np.ndarray   # (nx, M)
    p_m_given_y: np.ndarray   # (ny, M)
    prior: np.ndarray         # (nx,) in odd rounds, (ny,) in even ones
    atoms: tuple
    densities: tuple | None = None


@dataclass(frozen=True)
class RoundViews:
    """Every view of one round, stacked on a leading history axis.

    History h is the h-th of :meth:`TranscriptLaw.histories`, and message
    u is ``messages[u]``, the round's sorted universe.  ``present[h, u]``
    says whether some transcript continues history h with message u; a
    view's columns are its present messages, and the conditionals are 0
    elsewhere.  ``atoms`` holds ``(h, u, i, j, weight)`` in row-major
    (h, u, i, j) order, so each view's atoms are a contiguous run.
    ``next[h, u]`` is the next round's index of history h followed by
    message u, -1 if that has no mass; None in the last round.  ``densities``
    holds, for party x then party y, its density -log2 P(m | own input,
    history) at every atom, as ``(values, rank)`` of
    :func:`~icsim.probcore.density_ranks`: the one set of floats that the
    round's spectra and slice tables read.
    """

    messages: tuple
    present: np.ndarray       # (H, U)
    p_m_given_x: np.ndarray   # (H, nx, U)
    p_m_given_y: np.ndarray   # (H, ny, U)
    prior: np.ndarray         # (H, nx) in odd rounds, (H, ny) in even ones
    atoms: tuple
    next: np.ndarray | None   # (H, U)
    densities: tuple

    def view(self, h: int) -> RoundView:
        """The view of history ``h`` on its present messages: slices of
        these arrays, copied only when some message is absent."""
        cols = np.flatnonzero(self.present[h])
        hh, u, i, j, w = self.atoms
        lo, hi = np.searchsorted(hh, [h, h + 1])
        p_x, p_y, a = self.p_m_given_x[h], self.p_m_given_y[h], u[lo:hi]
        if cols.size < len(self.messages):
            local = np.zeros(len(self.messages), dtype=np.int64)
            local[cols] = np.arange(cols.size)
            p_x, p_y, a = p_x[:, cols], p_y[:, cols], local[a]
        view = RoundView(tuple(self.messages[c] for c in cols.tolist()),
                         p_x, p_y, self.prior[h],
                         (a, i[lo:hi], j[lo:hi], w[lo:hi]),
                         tuple((values, rank[lo:hi])
                               for values, rank in self.densities))
        _read_only(view.p_m_given_x, view.p_m_given_y, *view.atoms,
                   *(rank for _, rank in view.densities))
        return view


def _column(symbols: Sequence) -> tuple:
    """``(messages, code)`` of one round's messages ``symbols``: the
    distinct ones sorted by ``repr``, and each entry's index among them."""
    messages = tuple(sorted(set(symbols), key=repr))
    index = {m: u for u, m in enumerate(messages)}
    return messages, np.fromiter(map(index.__getitem__, symbols), np.int64,
                                 len(symbols))


def coded(transcripts: Sequence) -> tuple:
    """``(messages, codes)``, as :class:`TranscriptLaw` keeps them, of
    transcripts given as tuples of one message per round; MismatchedSupport
    on transcripts of different numbers of rounds or duplicates."""
    if len({len(tau) for tau in transcripts}) > 1:
        raise MismatchedSupport("transcripts have different numbers of "
                                "rounds")
    if len(set(transcripts)) != len(transcripts):
        raise MismatchedSupport("duplicate transcripts")
    messages, codes = zip(*map(_column, zip(*transcripts)))
    return messages, np.stack(codes, axis=1)


@dataclass(frozen=True)
class TranscriptLaw:
    """Conditional law of a protocol's transcript, as its positive atoms.

    A transcript holds one message for each round; party "x" speaks rounds
    1, 3, ... and "y" rounds 2, 4, ...  ``messages[t - 1]`` is round t's
    universe, the messages of round t sorted by ``repr``, and the read-only
    (T, R) int64 array ``codes`` holds transcript k's round-t message as
    its index there, at ``codes[k, t - 1]``.  ``atoms`` holds arrays
    ``(k, i, j, p)``, read-only: every (transcript, x, y) of positive joint
    mass P(tau | x, y) P(x, y), in row-major (k, i, j) order, with
    p = P(tau | x, y).  Build a law with :meth:`from_index` (deterministic
    targets) or :meth:`from_table` (a dense conditional table), from
    tuples through :func:`coded`.  :attr:`transcripts` and
    :meth:`histories` spell the codes out as tuples on first use; no
    spectrum, view or engine reads them.

    Each derived quantity is summed from the atoms in the order the dense
    (T, nx, ny) computation sums it (see :func:`_axis_sums`), so it has
    that computation's bits.
    """

    source: JointSource
    messages: tuple
    codes: np.ndarray
    atoms: tuple

    def __post_init__(self):
        _read_only(self.codes, *self.atoms)

    @classmethod
    def from_table(cls, source: JointSource, messages: tuple,
                   codes: np.ndarray, table: np.ndarray) -> TranscriptLaw:
        """The law of a dense table P(tau | x, y), shape (T, nx, ny), over
        the transcripts ``codes`` of ``messages``, checked and then kept as
        its atoms; entries off the source support are dropped."""
        p = np.asarray(table, dtype=float)
        nx, ny = source.mass.shape
        if p.shape != (len(codes), nx, ny):
            raise MismatchedSupport("conditional table shape is wrong")
        if np.any(p < -NORM_TOL):
            raise OutOfRange("negative transcript probability")
        live = source.mass > 0
        if np.any(np.abs(p.sum(axis=0)[live] - 1.0) > 1e-8):
            raise SupportViolation(
                "transcript law does not normalize on the source support")
        k, i, j = np.nonzero(p * source.mass > 0)
        return cls(source, messages, codes, (k, i, j, p[k, i, j]))

    @classmethod
    def from_index(cls, source: JointSource, messages: tuple,
                   codes: np.ndarray, index: np.ndarray) -> TranscriptLaw:
        """The deterministic law that sends transcript ``index[i, j]`` of
        ``codes`` at (x_i, y_j).  Raises TooLarge, before its atoms are
        built, when they would pass the byte cap (see :func:`_check_law`)."""
        nx, ny = source.mass.shape
        _check_law(len(codes), nx * ny, len(messages))
        idx = np.asarray(index)
        if idx.shape != (nx, ny) or not (
                (idx >= 0).all() and (idx < len(codes)).all()):
            raise MismatchedSupport(
                "transcript index table must map each (x, y) to a transcript")
        i, j = np.nonzero(source.mass > 0)
        k = idx[i, j].astype(np.int64)
        if not _increasing(k, strict=False):
            order = np.argsort(k, kind="stable")
            k, i, j = k[order], i[order], j[order]
        return cls(source, messages, codes, (k, i, j, np.ones(k.size)))

    @cached_property
    def transcripts(self) -> tuple:
        """Every transcript as the tuple of its round messages, in code
        order; spelled out on first use, for tests and reports."""
        return self._spelled(np.arange(len(self.codes)), self.n_rounds)

    def _spelled(self, rows: np.ndarray, rounds: int) -> tuple:
        """The transcripts ``rows``, cut to their first ``rounds`` rounds,
        as tuples of messages."""
        return tuple(zip(*(map(m.__getitem__, c.tolist()) for m, c in zip(
            self.messages, self.codes[rows, :rounds].T)))) or ((),) * len(rows)

    @cached_property
    def p_tau_given_xy(self) -> np.ndarray:
        """The dense table P(tau | x, y), (T, nx, ny), 0 off the source
        support; built on first use, and read by no engine."""
        _check_dense(len(self.codes), *self.source.mass.shape, 8)
        k, i, j, p = self.atoms
        out = np.zeros((len(self.codes),) + self.source.mass.shape)
        out[k, i, j] = p
        return out

    @cached_property
    def _joint(self) -> np.ndarray:
        """P(tau, x, y) of each atom."""
        k, i, j, p = self.atoms
        return p * self.source.mass[i, j]

    @cached_property
    def _marginals(self) -> tuple:
        """P(tau, x) and P(tau, y) at each atom's (k, i) and (k, j) cell:
        the dense joint table summed over y and over x, each cell once, by
        its number among the cells with mass (runs of the atoms, which are
        in (k, i, j) order, and ``np.unique``).  Raises TooLarge before any
        of it when the build's peak, 128 B an atom, would pass the cap."""
        k, i, j, _ = self.atoms
        nx, ny = self.source.mass.shape
        check_bytes(128 * k.size, f"transcript marginals of {k.size:,} atoms")
        w = self._joint
        rx = np.cumsum(_run_starts(k * nx + i)) - 1
        tx = _axis_sums(rx, j, w, int(rx[-1]) + 1, ny, True)[rx]
        cells, ry = np.unique(k * ny + j, return_inverse=True)
        ty = _axis_sums(ry, i, w, cells.size, nx, ny == 1)[ry]
        return tx, ty

    @property
    def n_rounds(self) -> int:
        return len(self.messages)

    def ic(self, tau, x, y) -> float:
        """The ic density at the atom (tau, x, y).  Raises AlphabetMismatch
        when x or y is no input symbol, and ZeroMassAtom when tau is no
        transcript of the law or the atom has no mass."""
        if x not in self.source.x_index or y not in self.source.y_index:
            raise AlphabetMismatch(f"({x!r}, {y!r}) is no pair of inputs")
        try:
            code = [u.index(m) for m, u in zip(tau, self.messages,
                                               strict=True)]
        except ValueError:  # a message no round has, or too few or many
            code = -1
        k, i, j, _ = self.atoms
        n = np.flatnonzero((i == self.source.x_index[x])
                           & (j == self.source.y_index[y]))
        n = n[(self.codes[k[n]] == code).all(axis=1)]
        if not n.size:
            raise ZeroMassAtom("transcript has zero probability here")
        return float(self._densities("ic", n)[0])

    def spectrum(self, selector: str) -> SpectrumTable:
        """Information spectrum of a density involving the transcript.

        Its atoms are the law's atoms, valued by :meth:`_densities`.  It is
        priced first: the law's and its source's arrays, held,
        ``SPECTRUM_ATOM_BYTES`` an atom, and 24 B an atom for the joint
        masses and marginals when it builds them.
        """
        if selector not in LAW_SELECTORS:
            raise OutOfRange(f"unknown selector {selector!r}")
        n = self.atoms[0].size
        held = sum(a.nbytes for a in (self.codes, self.source.mass,
                                      *self.atoms))
        per_atom = SPECTRUM_ATOM_BYTES + 24 * ("_marginals" not in vars(self))
        check_bytes(held + n * per_atom, f"{selector} spectrum of {n:,} atoms")
        return SpectrumTable.from_atoms(self._densities(selector), self._joint)

    def _densities(self, selector: str, n=slice(None)) -> np.ndarray:
        """The density ``selector`` at the atoms ``n``: ``log2_each`` of
        the same quotients, atom by atom, for the spectra and :meth:`ic`."""
        _, i, j, pxy = (a[n] for a in self.atoms)
        if selector == "h_xy":
            return -log2_each(self.source.mass[i, j])
        tx, ty = (m[n] for m in self._marginals)
        if selector in ("ic", "compression"):  # P(tau | x) and P(tau | y)
            cx, cy = tx / self.source.p_x[i], ty / self.source.p_y[j]
            if selector == "ic":
                return log2_each(pxy / cx) + log2_each(pxy / cy)
            return -log2_each(cx) - log2_each(cy)  # h(tau | x) + h(tau | y)
        w = self._joint[n]
        v = -log2_each(w / ty)  # h_x_given_ypi
        if selector == "hsum_ext":
            v = v - log2_each(w / tx)
        return v

    @cached_property
    def ic_mean(self) -> float:
        return self.spectrum("ic").moments().mean

    # -- round structure ----------------------------------------------------

    @cached_property
    def _round_index(self) -> tuple:
        """``(first, hist)`` of each round: history h's first transcript
        ``first[h]``, and transcript k's history ``hist[k]``, -1 without
        mass.  Histories with mass are numbered in the order of their first
        transcript, from a prefix code per transcript: its round-1 message
        in round 2, then the last round's code and message, renumbered by
        ``np.unique`` when they would reach T."""
        T, R = self.codes.shape
        k = self.atoms[0]
        live = k[_run_starts(k)]   # the atoms come in transcript order
        out = [(live[:1], np.zeros(T, dtype=np.int64))]
        prefix = self.codes[:, 0]
        for t in range(1, R):   # round t + 1's histories: t rounds each
            keys, first = np.unique(prefix[live], return_index=True)
            order = np.argsort(first)
            rank = np.full(T, -1, dtype=np.int64)
            rank[keys[order]] = np.arange(order.size)
            out.append((live[first[order]], rank[prefix]))
            if t + 1 < R:
                prefix = prefix * len(self.messages[t]) + self.codes[:, t]
                if prefix.max() >= T:
                    prefix = np.unique(prefix, return_inverse=True)[1].ravel()
        return tuple(out)

    def histories(self, t: int) -> tuple:
        """Distinct transcript prefixes of length t - 1 with positive mass,
        in the order of the first transcript that has each; spelled out on
        first use."""
        if not 1 <= t <= self.n_rounds:
            raise OutOfRange("round index out of range")
        if ("histories", t) not in self._views:
            self._views[("histories", t)] = self._spelled(
                self._round_index[t - 1][0], t - 1)
        return self._views[("histories", t)]

    @cached_property
    def _views(self) -> dict:
        """Computed round views: :class:`RoundViews` by t, and
        :class:`RoundView` by (t, hist); the round density spectra of
        :func:`icsim.simulate.round_density_spectrum` by (t, side); and
        :meth:`histories` by ("histories", t)."""
        return {}

    def round_views(self, t: int) -> RoundViews:
        """Every view of round t, computed once per law and then shared,
        read-only, by every spectrum, slice plan and engine of the law."""
        if not 1 <= t <= self.n_rounds:
            raise OutOfRange("round index out of range")
        views = self._views.get(t)
        if views is None:
            self._check_views()
            views = self._views[t] = self._round_views(t)
        return views

    def _check_views(self):
        """Raise TooLarge before a round's views are built when the views
        of every round would pass the byte cap together, as a run keeps
        them all.  Round t's build peaks at 80 B an atom (the one pass's
        keys, sums, densities and the (h, u, i, j, w) atoms it keeps, with
        both sorts), plus 8 B a cell of its dense conditionals, their
        numerators and their denominators, (H, nx + ny, 2U + 1) cells for
        its H histories and U messages."""
        nx, ny = self.source.mass.shape
        R = self.n_rounds
        check_bytes(sum(8 * first.size * (nx + ny) * (2 * len(messages) + 1)
                        + 80 * self.atoms[0].size
                        for (first, _), messages in zip(self._round_index,
                                                        self.messages)),
                    f"views of {R} round{'s' * (R > 1)}")

    def round_view(self, t: int, hist: tuple) -> RoundView:
        """Conditional law of the round-t message given history ``hist``,
        a slice of :meth:`round_views`; a history without mass has none."""
        view = self._views.get((t, hist))
        if view is None:
            if not 1 <= t <= self.n_rounds or hist not in self.histories(t):
                raise SupportViolation("history never occurs in this law")
            view = self._views[(t, hist)] = self.round_views(t).view(
                self.histories(t).index(hist))
        return view

    def _round_views(self, t: int) -> RoundViews:
        """All views of round t, with both parties' densities, from one
        pass over the law's atoms.

        The law's atoms are keyed by (history, message, x, y); one sort
        groups them, unless the keys already increase (each atom is its own
        group, as in every round of send-x and of data exchange).  Each sum
        is a ``bincount`` (or :func:`_axis_sums`) in the order in which the
        dense computation sums it: P(hist + m | x, y) over transcripts in
        their order, P(hist | x, y) over messages in theirs (a second sort,
        skipped likewise when each (hist, x, y) has one message), and the
        marginals of P(hist + m, x, y) and P(hist, x, y) over y and x as
        numpy sums those axes of dense tables.  Party x's density at an
        atom is -log2 of its entry of P(m | hist, x), party y's of
        P(m | hist, y), both from one :func:`density_ranks` each.  Each
        temporary is freed once it is read.  :meth:`round_views` prices it
        first (see :meth:`_check_views`).
        """
        (first, hist), msg = self._round_index[t - 1], self.codes[:, t - 1]
        H, U = first.size, len(self.messages[t - 1])
        present, ks = np.zeros((H, U), dtype=bool), hist >= 0
        present[hist[ks], msg[ks]] = True
        nx, ny = self.source.mass.shape
        k, i, j, p = self.atoms
        # every atom's history has mass, so it has an index
        hh, uu = hist[k], msg[k]
        key = ((hh * U + uu) * nx + i) * ny + j
        if _increasing(key):
            p_hm, ii, jj = p, i, j   # P(hist + m | x, y)
        else:
            key, inv = np.unique(key, return_inverse=True)
            p_hm = np.bincount(inv.ravel(), weights=p)
            del inv
            hh, key = np.divmod(key, U * nx * ny)
            uu, key = np.divmod(key, nx * ny)
            ii, jj = np.divmod(key, ny)
        del key
        cell = ii * ny + jj
        # P(hist | x, y): the rows of one (h, x, y) come in message order
        hinv = hh * (nx * ny) + cell
        if _increasing(hinv):
            # one message at each (h, x, y), of P(m | hist, x, y) = 1
            p_h, hist_h, hist_i, hist_j, hinv = p_hm, hh, ii, jj, None
        else:
            hist_key, hinv = np.unique(hinv, return_inverse=True)
            hinv = hinv.ravel()
            if nx * ny == 1:  # numpy sums a lone cell's messages pairwise
                size = present.sum(axis=1)
                local = np.cumsum(present, axis=1) - 1
                p_h = np.zeros(hist_key.size)
                for n in np.unique(size[hh]).tolist():
                    sel = size[hh] == n
                    p_h += _axis_sums(hinv[sel], local[hh[sel], uu[sel]],
                                      p_hm[sel], hist_key.size, n, True)
            else:
                p_h = np.bincount(hinv, weights=p_hm)
            hist_h, hist_key = np.divmod(hist_key, nx * ny)
            hist_i, hist_j = np.divmod(hist_key, ny)
            del hist_key
        mass = self.source.mass.ravel()
        joint_hm = p_hm * mass[cell]             # P(hist + m, x, y)
        del cell
        joint_h = (joint_hm if hinv is None      # P(hist, x, y)
                   else p_h * mass[hist_i * ny + hist_j])
        # P(m | hist, x) (H, nx, U), 0 where P(hist, x) is; so for y
        conds, dens = [], []
        for row, col, hist_row, hist_col, n, pairwise in (
                (ii, jj, hist_i, hist_j, nx, True),
                (jj, ii, hist_j, hist_i, ny, ny == 1)):
            num = _axis_sums((hh * U + uu) * n + row, col, joint_hm,
                             H * U * n, nx * ny // n, pairwise)
            den = _axis_sums(hist_h * n + hist_row, hist_col, joint_h, H * n,
                             nx * ny // n, pairwise).reshape(H, n)
            out = np.zeros((H, n, U))
            np.divide(num.reshape(H, U, n).transpose(0, 2, 1),
                      den[:, :, None], out=out, where=den[:, :, None] > 0)
            del num
            conds.append(out)
            dens.append(den)
        del joint_hm
        # the speaker's input law given the history
        den = dens[speaker(t)]
        prior = den / den.sum(axis=1, keepdims=True)
        del dens, den
        # the positive atoms of P(hist, m, x, y), as P(hist, x, y) times
        # P(m | hist, x, y)
        if hinv is None:
            w = joint_h
            keep = w > 0
        else:
            p_m_xy = p_hm / p_h[hinv]
            w = joint_h[hinv] * p_m_xy
            keep = (p_m_xy > 0) & (w > 0)
            del p_m_xy
        del joint_h, p_h, p_hm, hinv
        atoms = (hh, uu, ii, jj, w)
        if not keep.all():
            atoms = tuple(a[keep] for a in atoms)
        del hh, uu, ii, jj, w, keep
        h, u = atoms[:2]
        densities = tuple(
            density_ranks(cond.ravel()[(h * cond.shape[1] + row) * U + u])
            for cond, row in zip(conds, atoms[2:4]))
        nxt = None
        if t < self.n_rounds:
            ahead = self._round_index[t][1]
            nxt, cont = np.full((H, U), -1, dtype=np.int64), ahead >= 0
            nxt[hist[cont], msg[cont]] = ahead[cont]
        views = RoundViews(self.messages[t - 1], present, *conds, prior,
                           atoms, nxt, densities)
        _read_only(views.present, views.p_m_given_x, views.p_m_given_y,
                   views.prior, *views.atoms,
                   *(rank for _, rank in densities))
        return views


# ---------------------------------------------------------------------------
# binary protocol trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    owner: str                # "x" or "y"
    bit_one: dict             # own symbol -> probability of sending bit 1
    children: tuple           # two entries, each a node index or None (leaf)

    def __post_init__(self):
        if self.owner not in ("x", "y"):
            raise OutOfRange("node owner must be 'x' or 'y'")
        if len(self.children) != 2:
            raise MismatchedSupport("a tree node has exactly two children")


@dataclass(frozen=True)
class ProtocolTree:
    """A binary communication tree; node 0 is the root."""

    nodes: tuple

    @classmethod
    def from_json(cls, doc: str | dict) -> "ProtocolTree":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return cls(tuple(TreeNode(
            owner=nd["owner"],
            bit_one={k: float(v) for k, v in nd["bit_one"].items()},
            children=tuple(nd["children"])) for nd in doc["nodes"]))


def transcript_law(tree: ProtocolTree, source: JointSource) -> TranscriptLaw:
    """Expand a protocol tree into an explicit transcript law.

    Transcript rounds are the maximal same-owner runs of bits along the
    root-to-leaf path, and a shorter path ends in empty messages.  Symbols
    are matched against ``bit_one`` keys by their ``str`` form so
    JSON-borne trees can address integer alphabets.
    """
    nx, ny = source.mass.shape

    def bit_vec(node: TreeNode) -> np.ndarray:
        alpha = source.x_alphabet if node.owner == "x" else source.y_alphabet
        out = np.empty(len(alpha))
        for i, sym in enumerate(alpha):
            key = sym if sym in node.bit_one else str(sym)
            if key not in node.bit_one:
                raise AlphabetMismatch(f"no bit law for symbol {sym!r}")
            p1 = float(node.bit_one[key])
            if not 0.0 <= p1 <= 1.0:
                raise OutOfRange("bit probability outside [0, 1]")
            out[i] = p1
        return out

    results: list[tuple[tuple, np.ndarray, np.ndarray]] = []

    def walk(idx: int, bits: str, owners: str, vx: np.ndarray, vy: np.ndarray):
        node = tree.nodes[idx]
        p1 = bit_vec(node)
        for b, child in enumerate(node.children):
            w = p1 if b == 1 else 1.0 - p1
            nvx, nvy = (vx * w, vy) if node.owner == "x" else (vx, vy * w)
            nbits, nowners = bits + str(b), owners + node.owner
            if child is None:
                results.append((_runs(nbits, nowners), nvx, nvy))
            else:
                walk(int(child), nbits, nowners, nvx.copy(), nvy.copy())

    walk(0, "", "", np.ones(nx), np.ones(ny))
    # identical round decompositions from different leaves cannot happen for a
    # tree (distinct paths give distinct bit strings), but order them anyway
    results.sort(key=lambda r: repr(r[0]))
    # a path that ends early sends empty messages in the rounds after it
    R = max(len(r[0]) for r in results)
    transcripts = tuple(r[0] + ("",) * (R - len(r[0])) for r in results)
    _check_dense(len(results), nx, ny)
    vx, vy = (np.stack([r[n] for r in results]) for n in (1, 2))
    return TranscriptLaw.from_table(source, *coded(transcripts),
                                    vx[:, :, None] * vy[:, None, :])


def _runs(bits: str, owners: str) -> tuple:
    """Split a bit string into maximal same-owner runs, party "x" first:
    a path that starts with "y" has an empty first round."""
    out, cur, who = [], "", "x"
    for b, o in zip(bits, owners):
        if o == who:
            cur += b
        else:
            out.append(cur)
            cur, who = b, o
    if cur:
        out.append(cur)
    return tuple(out)


# ---------------------------------------------------------------------------
# direct constructions
# ---------------------------------------------------------------------------


def _check_law(transcripts: int, atoms: int, rounds: int, held: int = 0):
    """Raise TooLarge before a law of at most ``atoms`` atoms, and the
    codes of its ``transcripts`` transcripts of ``rounds`` rounds, are
    built when the build's peak, with the ``held`` bytes it keeps, would
    pass the byte cap: 80 B an atom (its four arrays, their sort and its
    joint mass), and 8 B a round and 24 B a transcript for its codes."""
    check_bytes(held + 80 * atoms + transcripts * (8 * rounds + 24),
                f"transcript law of {transcripts:,} transcripts and "
                f"{atoms:,} atoms")


def _check_dense(transcripts: int, nx: int, ny: int, cell_bytes: int = 48):
    """Raise TooLarge before a dense (transcripts, nx, ny) law table of
    ``cell_bytes`` a cell passes the byte cap: 48 B when the table is made
    and read into a law, which checks it and takes its atoms."""
    check_bytes(cell_bytes * transcripts * nx * ny,
                f"dense law table of {transcripts:,} transcripts over "
                f"{nx:,} x {ny:,} inputs")


def one_round_protocol(source: JointSource, channel: np.ndarray,
                       messages: Sequence) -> TranscriptLaw:
    """Party "x" sends one message drawn from channel[i, m] given x_i."""
    ch = np.asarray(channel, dtype=float)
    nx, ny = source.mass.shape
    if ch.shape != (nx, len(messages)):
        raise MismatchedSupport("channel shape disagrees with alphabet")
    _check_dense(len(messages), nx, ny)
    table = np.repeat(ch.T[:, :, None], ny, axis=2)
    return TranscriptLaw.from_table(
        source, *coded(tuple((m,) for m in messages)), table)


def two_round_protocol(source: JointSource, channel1: np.ndarray,
                       messages1: Sequence, channel2: np.ndarray,
                       messages2: Sequence) -> TranscriptLaw:
    """Party "x" sends m1, then party "y" replies from channel2[j, m1, m2]."""
    ch1 = np.asarray(channel1, dtype=float)
    ch2 = np.asarray(channel2, dtype=float)
    nx, ny = source.mass.shape
    if ch1.shape != (nx, len(messages1)):
        raise MismatchedSupport("first channel shape disagrees with alphabet")
    if ch2.shape != (ny, len(messages1), len(messages2)):
        raise MismatchedSupport("second channel shape disagrees with alphabet")
    _check_dense(len(messages1) * len(messages2), nx, ny)
    transcripts = tuple((m1, m2) for m1 in messages1 for m2 in messages2)
    # (m1, m2, x, y): P(m1 | x) P(m2 | y, m1)
    table = ch1.T[:, None, :, None] * ch2.transpose(1, 2, 0)[:, :, None, :]
    return TranscriptLaw.from_table(source, *coded(transcripts),
                                    table.reshape(-1, nx, ny))


def send_value_protocol(source: JointSource) -> TranscriptLaw:
    """Deterministic one-round protocol announcing X."""
    nx, ny = source.mass.shape
    messages, code = _column(source.x_alphabet)
    return TranscriptLaw.from_index(
        source, (messages,), code[:, None],
        np.repeat(np.arange(nx)[:, None], ny, axis=1))


def noisy_send_protocol(source: JointSource, crossover: float) -> TranscriptLaw:
    """Party "x" sends its bit through a binary symmetric channel."""
    if source.x_alphabet != (0, 1):
        raise AlphabetMismatch("noisy send needs a binary x alphabet (0, 1)")
    q = float(crossover)
    if not 0.0 <= q <= 1.0:
        raise OutOfRange("crossover probability must lie in [0, 1]")
    ch = np.array([[1 - q, q], [q, 1 - q]])
    return one_round_protocol(source, ch, (0, 1))


def data_exchange_protocol(source: JointSource) -> TranscriptLaw:
    """Deterministic two rounds: X announced, then Y announced.

    Simulating this protocol is the omniscient-coordinator data exchange
    problem; its ic density equals the sum conditional entropy density.
    """
    return _exchange(source, [source.x_alphabet], [source.y_alphabet])


def exchange_bits_protocol(source: JointSource) -> TranscriptLaw:
    """Deterministic 2m rounds over inputs of m coordinates: in round
    2k - 1 party "x" sends x_k, in round 2k party "y" sends y_k.

    Inputs are tuples, as :func:`~icsim.probcore.product_source` makes
    them; a plain symbol is one coordinate, so over ``dsbs`` this is data
    exchange.  The transcript reveals both inputs, so over ``dsbs^m`` the
    ic density is the sum conditional entropy density, spread over 2m
    rounds of one bit each.
    """
    xs, ys = ([s if isinstance(s, tuple) else (s,) for s in alphabet]
              for alphabet in (source.x_alphabet, source.y_alphabet))
    if len({len(s) for s in xs + ys}) != 1:
        raise AlphabetMismatch(
            "bit exchange needs x and y inputs of one number of coordinates")
    return _exchange(source, list(zip(*xs)), list(zip(*ys)))


def _exchange(source: JointSource, xs: list, ys: list) -> TranscriptLaw:
    """The deterministic law whose transcript a ny + b, at (x_a, y_b),
    sends coordinates ``xs[c][a]`` and ``ys[c][b]`` in turn for each c:
    its codes are theirs, interleaved."""
    nx, ny, m = len(xs[0]), len(ys[0]), len(xs)
    _check_law(nx * ny, nx * ny, 2 * m)  # before any code is made
    codes = np.empty((nx, ny, m, 2), dtype=np.int64)
    messages = []
    for c in range(m):
        (mx, cx), (my, cy) = _column(xs[c]), _column(ys[c])
        codes[:, :, c, 0] = cx[:, None]
        codes[:, :, c, 1] = cy
        messages += [mx, my]
    return TranscriptLaw.from_index(source, tuple(messages),
                                    codes.reshape(nx * ny, 2 * m),
                                    np.arange(nx * ny).reshape(nx, ny))


def xor_reply_protocol(source: JointSource) -> TranscriptLaw:
    """X announced, then party "y" replies with the parity X xor Y."""
    if source.x_alphabet != (0, 1) or source.y_alphabet != (0, 1):
        raise AlphabetMismatch("parity reply needs binary alphabets (0, 1)")
    return TranscriptLaw.from_index(
        source, *coded(((0, 0), (0, 1), (1, 0), (1, 1))),
        np.array([[0, 1], [3, 2]]))


def constant_protocol(source: JointSource) -> TranscriptLaw:
    """One fixed message regardless of inputs; zero information complexity."""
    return TranscriptLaw.from_index(source, *coded((("0",),)),
                                    np.zeros(source.mass.shape, dtype=int))


# ---------------------------------------------------------------------------
# factored constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductProtocol:
    """n iid copies of a base protocol run on n iid copies of its source."""

    base: TranscriptLaw
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise OutOfRange("product power must be at least 1")

    def spectrum(self, selector: str) -> SpectrumTable:
        return self.base.spectrum(selector).convolve_n(self.n)

    @property
    def ic_mean(self) -> float:
        return self.n * self.base.ic_mean

    def expand(self) -> TranscriptLaw:
        """Explicit transcript law of the product (small n only), on
        :func:`~icsim.probcore.product_source`.  It keeps the base's
        rounds: round t's message is the tuple of the copies' round-t
        messages.  Its atoms are n-tuples of base atoms: k = k1 T + k2 (so
        i and j), p = p1 p2 multiplied left to right, kept at positive
        joint mass in row-major (k, i, j) order."""
        base, n = self.base, self.n
        if n == 1:
            return base
        T, R = base.codes.shape
        nx, ny = base.source.mass.shape
        # T^n transcripts of R rounds; every n-tuple of base atoms is a
        # candidate atom; the product source is held
        _check_law(T ** n, base.atoms[0].size ** n, R,
                   _source_bytes(nx ** n, ny ** n))
        source = product_source(base.source, n)
        k, i, j, p = bk, bi, bj, bp = base.atoms
        c = bc = base.codes
        for _ in range(n - 1):
            k = (k[:, None] * T + bk).ravel()
            i = (i[:, None] * nx + bi).ravel()
            j = (j[:, None] * ny + bj).ravel()
            p = (p[:, None] * bp).ravel()
            c = (c[:, None] * [len(m) for m in base.messages] + bc).reshape(
                -1, R)
        keep = np.flatnonzero(p * source.mass[i, j] > 0)
        keep = keep[np.lexsort((j[keep], i[keep], k[keep]))]
        # round t's message is the n-tuple of the copies', numbered in mixed
        # radix in ``c``, then among the n-tuples sorted by repr
        said = [_column(list(itertools.product(m, repeat=n)))
                for m in base.messages]
        for t, (_, rank) in enumerate(said):
            c[:, t] = rank[c[:, t]]
        return TranscriptLaw(source, tuple(m for m, _ in said), c,
                             (k[keep], i[keep], j[keep], p[keep]))


@dataclass(frozen=True)
class MixedProtocol:
    """A private coin selects one of two n-fold product protocols.

    Party "x" flips a coin with heads probability p, announces it, then both
    parties run the heads or tails branch on every coordinate.  The coin is
    independent of the inputs, so its own ic contribution is exactly zero and

        IC(mix) = n [ p IC(head) + (1 - p) IC(tail) ].
    """

    head: TranscriptLaw
    tail: TranscriptLaw
    p: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise OutOfRange("coin bias must lie in [0, 1]")
        if self.n < 1:
            raise OutOfRange("coordinate count must be at least 1")
        if self.head.source.to_json() != self.tail.source.to_json():
            raise AlphabetMismatch("branches must share one source")

    @property
    def ic_mean(self) -> float:
        return self.n * (self.p * self.head.ic_mean
                         + (1 - self.p) * self.tail.ic_mean)

    def spectrum(self, selector: str) -> SpectrumTable:
        if selector != "ic":
            raise OutOfRange("mixtures expose only the ic spectrum")
        sh = self.head.spectrum("ic").convolve_n(self.n)
        st = self.tail.spectrum("ic").convolve_n(self.n)
        return sh.mix(st, self.p)

    def sample_ic(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        """Monte Carlo draws of the total transcript ic over all coordinates."""
        heads = rng.random(trials) < self.p
        out = np.empty(trials)
        for flag, law in ((True, self.head), (False, self.tail)):
            m = heads == flag
            k = int(m.sum())
            if k == 0:
                continue
            out[m] = law.spectrum("ic").sample(rng, (k, self.n)).sum(axis=1)
        return out


# ---------------------------------------------------------------------------
# the two-threshold example, aggregated over four cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdExample:
    """Uniform n-bit inputs, a deterministic four-round threshold protocol.

    Inputs are uniform independent on {1, ..., 2^n}.  With threshold
    t = delta 2^n, in rounds 1 and 2 each party in turn says which side of
    t its input falls on; when both fall at or below t, rounds 3 and 4
    announce x and then y.  The ic density is constant on four cells:

    - high-high, mass (1 - delta)^2: -2 log2(1 - delta);
    - high-low and low-high, mass delta (1 - delta) each:
      log2(1/delta) - log2(1 - delta);
    - low-low, mass delta^2: 2n.

    Its mean is

        ic_mean = 2 (1 - delta) [delta log2(1/delta) - log2(1 - delta)]
                  + 2n delta^2,

    With delta = 1/n most of it comes from the two mixed cells, while
    for eps < delta^2 the tail lambda_eps is the low-low value 2n.
    """

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 4:
            raise OutOfRange("need n >= 4")
        if not 0.0 < self.delta < 1.0:
            raise OutOfRange("threshold fraction must lie in (0, 1)")

    @cached_property
    def _cells(self) -> tuple:
        """The masses of the cells high-high, high-low, low-high and
        low-low, and each selector's density on them."""
        n, d = self.n, self.delta
        lg1m = math.log2(1 - d)
        lgd = math.log2(d)
        hi = n + lg1m   # log2((1 - delta) 2^n)
        lo = n + lgd    # log2(delta 2^n)
        mixed_ic = -lgd - lg1m
        masses = ((1 - d) ** 2, d * (1 - d), d * (1 - d), d * d)
        if abs(sum(masses) - 1.0) > NORM_TOL:
            raise OutOfRange("cell masses do not sum to one")
        return masses, {
            "ic": (-2 * lg1m, mixed_ic, mixed_ic, 2.0 * n),
            "h_xy": (2 * n,) * 4,
            "h_x_given_ypi": (hi, hi, lo, 0.0),
            "hsum_ext": (2 * hi, hi + lo, hi + lo, 0.0),
        }

    def spectrum(self, selector: str) -> SpectrumTable:
        masses, densities = self._cells
        if selector not in densities:
            raise OutOfRange(f"unknown selector {selector!r}")
        return SpectrumTable.from_atoms(densities[selector], masses)

    @property
    def ic_mean(self) -> float:
        masses, densities = self._cells
        return sum(m * v for m, v in zip(masses, densities["ic"]))

    @property
    def eps_auto(self) -> float:
        return self.n ** -3

    def lambda_eps(self, eps: float | None = None) -> float:
        if eps is None:
            eps = self.eps_auto
        return self.spectrum("ic").eps_tail(eps, "lower")

    # -- explicit expansion --------------------------------------------------

    @property
    def threshold(self) -> int:
        t = self.delta * (1 << self.n)
        if abs(t - round(t)) > 1e-9:
            raise OutOfRange("threshold fraction must hit an integer boundary")
        return int(round(t))

    def expand(self) -> TranscriptLaw:
        """The four-round protocol: "x" says whether x > t (1) or not (0),
        "y" whether y > t; then "x" sends x and "y" sends y if both are at
        most t, else both send "-".  It is refused, as any law, before its
        source or transcripts are made when its build would pass the byte
        cap (see :func:`_check_law`)."""
        size, t = 1 << self.n, self.threshold
        _check_law(3 + t * t, size * size, 4)
        alphabet = tuple(range(1, size + 1))
        source = JointSource(alphabet, alphabet,
                             np.full((size, size), 1.0 / size ** 2))
        # rounds 3 and 4 send "-" (code d) or an input of at most t (codes s)
        said, code = _column(("-",) + alphabet[:t])
        d, s = code[0], code[1:]
        a, b = np.divmod(np.arange(t * t), t)
        codes = np.concatenate([[[1, 1, d, d], [1, 0, d, d], [0, 1, d, d]],
                                np.stack([0 * a, 0 * a, s[a], s[b]], 1)])
        v = np.arange(size)[:, None]  # x - 1 down the rows, y - 1 along v.T
        low = v < t
        index = np.where(low & low.T, 3 + v * t + v.T, 2 * low + low.T)
        return TranscriptLaw.from_index(source, ((0, 1), (0, 1), said, said),
                                        codes, index)


def appendix_threshold_example(n: int) -> ThresholdExample:
    """The canonical instance with threshold fraction 1/n.

    Its mean IC(n) = 2 (1 - 1/n) [log2(n)/n - log2(1 - 1/n)] + 2/n is
    O(log n / n), yet lambda_eps at eps = n^-3 is 2n: the tail, not the
    mean, sets the one-shot simulation cost.
    """
    if n < 4:  # before 1 / n
        raise OutOfRange("need n >= 4")
    return ThresholdExample(n=n, delta=1.0 / n)
