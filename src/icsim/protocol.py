"""Interactive protocols as explicit transcript laws.

A protocol over a :class:`~icsim.probcore.JointSource` is represented by its
transcript law: the conditional table P(transcript | x, y) together with a
decomposition of each transcript into rounds, where consecutive rounds are
spoken by alternating parties (party "x" speaks the odd rounds).  Everything
downstream (densities, spectra, simulation, bounds) is computed from this
table.

Large constructions that would not fit as explicit tables (iid products,
protocol mixtures, the two-threshold example on n-bit inputs) are kept in
factored or region-aggregated form and expose the same ``spectrum`` API.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    MismatchedSupport,
    OutOfRange,
    SupportViolation,
    TooLarge,
    ZeroMassAtom,
)
from .probcore import (
    NORM_TOL,
    JointSource,
    SpectrumTable,
    log2_each,
    spectrum as _spectrum,
)

LAW_SELECTORS = ("ic", "h_xy", "h_x_given_ypi", "hsum_ext", "compression")
#: most bytes of the dense (transcripts, nx, ny) float64 table that the
#: direct constructions build; send-x over dsbs^8 (128 MiB) fits, dsbs^9
#: (1 GiB) and larger fail fast, since the law's derived tables and the
#: engines built on it need several more tables of that size
LAW_BYTES_CAP = 1 << 28
#: bytes of the float64 (messages, nx, ny) block of P(hist + m, x, y)
#: that a round view sums at once; a block holds at least one message
VIEW_BLOCK_BYTES = 1 << 21


# ---------------------------------------------------------------------------
# transcript laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundView:
    """Conditional law of one round given a transcript history.

    Its arrays are read-only: :meth:`TranscriptLaw.round_view` hands the
    same view to every spectrum, slice plan and engine of the law.
    """

    messages: tuple
    p_m_given_x: np.ndarray   # (nx, M)
    p_m_given_y: np.ndarray   # (ny, M)
    p_m_given_xy: np.ndarray  # (M, nx, ny)
    p_hist_xy: np.ndarray     # joint P(hist, x, y), shape (nx, ny)

    @cached_property
    def atoms(self) -> tuple:
        """The positive atoms of P(hist, m, x, y): arrays ``(a, i, j,
        weight)`` in row-major (message, x, y) order, with weight
        ``p_hist_xy[i, j] * p_m_given_xy[a, i, j]`` > 0.

        Both sides' round spectra and the round budgets read these; the
        (M, nx, ny) table is scanned once per view.
        """
        # the weight is positive only where P(m | hist, x, y) is, so only
        # those entries are weighed
        a, i, j = np.nonzero(self.p_m_given_xy > 0)
        w = self.p_hist_xy[i, j] * self.p_m_given_xy[a, i, j]
        pos = w > 0
        out = (a[pos], i[pos], j[pos], w[pos])
        for arr in out:
            arr.flags.writeable = False
        return out


@dataclass(frozen=True)
class TranscriptLaw:
    """Explicit conditional law of a protocol's transcript.

    ``transcripts[t]`` is a tuple of per-round messages; party "x" speaks in
    rounds 1, 3, ... and party "y" in rounds 2, 4, ...
    """

    source: JointSource
    transcripts: tuple
    p_tau_given_xy: np.ndarray  # (T, nx, ny)

    def __post_init__(self):
        p = np.asarray(self.p_tau_given_xy, dtype=float)
        object.__setattr__(self, "p_tau_given_xy", p)
        nx, ny = self.source.mass.shape
        if p.shape != (len(self.transcripts), nx, ny):
            raise MismatchedSupport("conditional table shape is wrong")
        if np.any(p < -NORM_TOL):
            raise OutOfRange("negative transcript probability")
        live = self.source.mass > 0
        sums = p.sum(axis=0)
        if np.any(np.abs(sums[live] - 1.0) > 1e-8):
            raise SupportViolation(
                "transcript law does not normalize on the source support"
            )
        if len(set(self.transcripts)) != len(self.transcripts):
            raise MismatchedSupport("duplicate transcripts")

    @cached_property
    def transcript_index(self) -> dict:
        return {t: i for i, t in enumerate(self.transcripts)}

    @cached_property
    def joint(self) -> np.ndarray:
        """P(tau, x, y), shape (T, nx, ny)."""
        return self.p_tau_given_xy * self.source.mass[None, :, :]

    @cached_property
    def p_tau_given_x(self) -> np.ndarray:
        px = self.source.p_x
        num = self.joint.sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(px[None, :] > 0, num / px[None, :], 0.0)

    @cached_property
    def p_tau_given_y(self) -> np.ndarray:
        py = self.source.p_y
        num = self.joint.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(py[None, :] > 0, num / py[None, :], 0.0)

    @property
    def n_rounds(self) -> int:
        return max(len(t) for t in self.transcripts)

    def ic(self, tau, x, y) -> float:
        t = self.transcript_index[tau]
        i, j = self.source.x_index[x], self.source.y_index[y]
        return self._ic_idx(t, i, j)

    def _ic_idx(self, t: int, i: int, j: int) -> float:
        pxy = float(self.p_tau_given_xy[t, i, j])
        if pxy <= 0.0 or float(self.source.mass[i, j]) <= 0.0:
            raise ZeroMassAtom("transcript has zero probability here")
        return (math.log2(pxy / float(self.p_tau_given_x[t, i]))
                + math.log2(pxy / float(self.p_tau_given_y[t, j])))

    def spectrum(self, selector: str) -> SpectrumTable:
        """Information spectrum of a density involving the transcript.

        Its atoms are the positive entries (t, x, y) of ``joint``; each
        density takes ``math.log2`` of the same quotients, atom by atom.
        """
        if selector not in LAW_SELECTORS:
            raise OutOfRange(f"unknown selector {selector!r}")
        joint = self.joint
        t, i, j = np.nonzero(joint > 0)
        w = joint[t, i, j]
        if selector == "ic":
            pxy = self.p_tau_given_xy[t, i, j]
            v = (log2_each(pxy / self.p_tau_given_x[t, i])
                 + log2_each(pxy / self.p_tau_given_y[t, j]))
        elif selector == "h_xy":
            v = -log2_each(self.source.mass[i, j])
        elif selector == "h_x_given_ypi":
            v = -log2_each(w / joint.sum(axis=1)[t, j])
        elif selector == "hsum_ext":
            v = (-log2_each(w / joint.sum(axis=1)[t, j])
                 - log2_each(w / joint.sum(axis=2)[t, i]))
        else:  # compression: h(tau | x) + h(tau | y)
            v = (-log2_each(self.p_tau_given_x[t, i])
                 - log2_each(self.p_tau_given_y[t, j]))
        return SpectrumTable.from_atoms(v, w)

    @cached_property
    def ic_mean(self) -> float:
        return self.spectrum("ic").moments().mean

    # -- round structure ----------------------------------------------------

    def histories(self, t: int) -> tuple:
        """Distinct transcript prefixes of length t - 1 with positive mass."""
        if not 1 <= t <= self.n_rounds:
            raise OutOfRange("round index out of range")
        seen = []
        for k, tau in enumerate(self.transcripts):
            if len(tau) < t:
                continue
            h = tau[: t - 1]
            # P(tau) from its own slab: the full ``joint`` is not built
            if h not in seen and float(
                    (self.p_tau_given_xy[k] * self.source.mass).sum()) > 0:
                seen.append(h)
        return tuple(seen)

    def round_messages(self, t: int) -> tuple:
        """Every message spoken at round t across all histories, sorted."""
        msgs = {tau[t - 1] for tau in self.transcripts if len(tau) >= t}
        return tuple(sorted(msgs, key=repr))

    @cached_property
    def _views(self) -> dict:
        """Computed round views by (t, hist)."""
        return {}

    def round_view(self, t: int, hist: tuple) -> RoundView:
        """Conditional law of the round-t message given history ``hist``.

        Each view is computed once per law and then shared, read-only.
        """
        view = self._views.get((t, hist))
        if view is None:
            view = self._views[(t, hist)] = self._round_view(t, hist)
        return view

    def _round_view(self, t: int, hist: tuple) -> RoundView:
        nx, ny = self.source.mass.shape
        prefix_idx = [k for k, tau in enumerate(self.transcripts)
                      if len(tau) >= t and tau[: t - 1] == hist]
        if not prefix_idx:
            raise SupportViolation("history never occurs in this law")
        messages = tuple(sorted({self.transcripts[k][t - 1] for k in prefix_idx},
                                key=repr))
        midx = {m: a for a, m in enumerate(messages)}
        M = len(messages)
        # P(hist + m reached | x, y): sum over all continuations
        p_hm_xy = np.zeros((M, nx, ny))
        for k in prefix_idx:
            p_hm_xy[midx[self.transcripts[k][t - 1]]] += self.p_tau_given_xy[k]
        p_h_xy = p_hm_xy.sum(axis=0)
        joint_h = p_h_xy * self.source.mass
        # marginals of P(hist + m, x, y) over y and over x, a block of
        # messages at a time; each message's sums are those of the full table
        num_x = np.empty((M, nx))
        num_y = np.empty((M, ny))
        step = max(1, VIEW_BLOCK_BYTES // (8 * nx * ny))
        for a in range(0, M, step):
            joint_hm = p_hm_xy[a:a + step] * self.source.mass
            num_x[a:a + step] = joint_hm.sum(axis=2)
            num_y[a:a + step] = joint_hm.sum(axis=1)
        den_x = joint_h.sum(axis=1)   # (nx,)
        den_y = joint_h.sum(axis=0)   # (ny,)
        with np.errstate(invalid="ignore", divide="ignore"):
            p_m_x = np.where(den_x[None, :] > 0, num_x / den_x[None, :], 0.0).T
            p_m_y = np.where(den_y[None, :] > 0, num_y / den_y[None, :], 0.0).T
        # P(m | hist, x, y), written over P(hist + m | x, y)
        live = p_h_xy > 0
        p_m_xy = np.divide(p_hm_xy, p_h_xy, out=p_hm_xy, where=live)
        p_m_xy[:, ~live] = 0.0
        for arr in (p_m_x, p_m_y, p_m_xy, joint_h):
            arr.flags.writeable = False
        return RoundView(messages, p_m_x, p_m_y, p_m_xy, joint_h)


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
        nodes = []
        for nd in doc["nodes"]:
            nodes.append(TreeNode(
                owner=nd["owner"],
                bit_one={k: float(v) for k, v in nd["bit_one"].items()},
                children=tuple(nd["children"]),
            ))
        return cls(tuple(nodes))


def transcript_law(tree: ProtocolTree, source: JointSource) -> TranscriptLaw:
    """Expand a protocol tree into an explicit transcript law.

    Transcript rounds are the maximal same-owner runs of bits along the
    root-to-leaf path.  Symbols are matched against ``bit_one`` keys by their
    ``str`` form so JSON-borne trees can address integer alphabets.
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
    transcripts = tuple(r[0] for r in results)
    table = np.stack([r[1][:, None] * r[2][None, :] for r in results])
    return TranscriptLaw(source, transcripts, table)


def _runs(bits: str, owners: str) -> tuple:
    """Split a bit string into maximal same-owner runs."""
    out, cur, who = [], "", owners[0] if owners else "x"
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


def _check_law_size(transcripts: int, nx: int, ny: int):
    """Raise TooLarge before a dense law table over LAW_BYTES_CAP is built."""
    size = 8 * transcripts * nx * ny
    if size > LAW_BYTES_CAP:
        raise TooLarge(
            f"transcript law of {transcripts} transcripts over {nx} x {ny} "
            f"inputs needs {size / 2 ** 20:,.0f} MiB, over the "
            f"{LAW_BYTES_CAP >> 20} MiB cap")


def one_round_protocol(source: JointSource, channel: np.ndarray,
                       messages: Sequence) -> TranscriptLaw:
    """Party "x" sends one message drawn from channel[i, m] given x_i."""
    ch = np.asarray(channel, dtype=float)
    nx, ny = source.mass.shape
    if ch.shape != (nx, len(messages)):
        raise MismatchedSupport("channel shape disagrees with alphabet")
    _check_law_size(len(messages), nx, ny)
    transcripts = tuple((m,) for m in messages)
    table = np.repeat(ch.T[:, :, None], ny, axis=2)
    return TranscriptLaw(source, transcripts, table)


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
    _check_law_size(len(messages1) * len(messages2), nx, ny)
    transcripts, slabs = [], []
    for a, m1 in enumerate(messages1):
        for b, m2 in enumerate(messages2):
            transcripts.append((m1, m2))
            slabs.append(ch1[:, a][:, None] * ch2[:, a, b][None, :])
    return TranscriptLaw(source, tuple(transcripts), np.stack(slabs))


def send_value_protocol(source: JointSource) -> TranscriptLaw:
    """Deterministic one-round protocol announcing X."""
    nx = len(source.x_alphabet)
    return one_round_protocol(source, np.eye(nx), source.x_alphabet)


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
    nx, ny = source.mass.shape
    # the (ny, nx, ny) reply channel alone can exceed memory: check first
    _check_law_size(nx * ny, nx, ny)
    ch2 = np.repeat(np.eye(ny)[:, None, :], nx, axis=1)
    return two_round_protocol(source, np.eye(nx), source.x_alphabet,
                              ch2, source.y_alphabet)


def xor_reply_protocol(source: JointSource) -> TranscriptLaw:
    """X announced, then party "y" replies with the parity X xor Y."""
    if source.x_alphabet != (0, 1) or source.y_alphabet != (0, 1):
        raise AlphabetMismatch("parity reply needs binary alphabets (0, 1)")
    ch2 = np.zeros((2, 2, 2))
    for j in range(2):
        for a in range(2):
            ch2[j, a, j ^ a] = 1.0
    return two_round_protocol(source, np.eye(2), (0, 1), ch2, (0, 1))


def constant_protocol(source: JointSource) -> TranscriptLaw:
    """One fixed message regardless of inputs; zero information complexity."""
    nx, ny = source.mass.shape
    return TranscriptLaw(source, (("0",),), np.ones((1, nx, ny)))


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
        """Explicit transcript law of the product (small n only)."""
        src = self.base.source
        law = self.base
        out_src, out_law = src, law
        for _ in range(self.n - 1):
            out_src, out_law = _pair_product(out_src, out_law, src, law)
        return out_law


def _pair_product(src_a, law_a, src_b, law_b):
    xs = tuple((a if isinstance(a, tuple) else (a,)) + (b,)
               for a in src_a.x_alphabet for b in src_b.x_alphabet)
    ys = tuple((a if isinstance(a, tuple) else (a,)) + (b,)
               for a in src_a.y_alphabet for b in src_b.y_alphabet)
    src = JointSource(xs, ys, np.kron(src_a.mass, src_b.mass))
    transcripts = tuple(ta + tb for ta in law_a.transcripts
                        for tb in law_b.transcripts)
    table = np.stack([
        np.kron(law_a.p_tau_given_xy[i], law_b.p_tau_given_xy[j])
        for i in range(len(law_a.transcripts))
        for j in range(len(law_b.transcripts))
    ])
    return src, TranscriptLaw(src, transcripts, table)


def product_protocol(law: TranscriptLaw, n: int) -> ProductProtocol:
    return ProductProtocol(law, n)


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
            spec = law.spectrum("ic")
            draws = rng.choice(spec.values, size=(k, self.n), p=spec.probs)
            out[m] = draws.sum(axis=1)
        return out


def mixed_protocol(head: TranscriptLaw, tail: TranscriptLaw,
                   p: float, n: int) -> MixedProtocol:
    return MixedProtocol(head, tail, p, n)


# ---------------------------------------------------------------------------
# the two-threshold example, region-aggregated
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """One aggregation cell: all input pairs in it share every density."""

    name: str
    mass: float
    ic: float
    h_xy: float
    h_x_given_ypi: float
    hsum_ext: float


@dataclass(frozen=True)
class RegionSource:
    """A protocol-with-source summarized as finitely many density cells."""

    regions: tuple

    def __post_init__(self):
        total = sum(r.mass for r in self.regions)
        if abs(total - 1.0) > NORM_TOL:
            raise OutOfRange("region masses do not sum to one")

    def spectrum(self, selector: str) -> SpectrumTable:
        if selector not in ("ic", "h_xy", "h_x_given_ypi", "hsum_ext"):
            raise OutOfRange(f"unknown selector {selector!r}")
        vals = [getattr(r, selector) for r in self.regions]
        probs = [r.mass for r in self.regions]
        return SpectrumTable.from_atoms(vals, probs)

    @property
    def ic_mean(self) -> float:
        return sum(r.mass * r.ic for r in self.regions)


@dataclass(frozen=True)
class ThresholdExample:
    """Uniform n-bit inputs, a deterministic four-way threshold protocol.

    Inputs are uniform independent on {1, ..., 2^n}.  With threshold
    t = delta 2^n the protocol announces which side of t each input falls on;
    when both fall at or below t it announces the pair itself.  The ic
    density is constant on four regions:

    - high-high, mass (1 - delta)^2: -2 log2(1 - delta);
    - high-low and low-high, mass delta (1 - delta) each:
      log2(1/delta) - log2(1 - delta);
    - low-low, mass delta^2: 2n.

    Its mean is

        ic_mean = 2 (1 - delta) [delta log2(1/delta) - log2(1 - delta)]
                  + 2n delta^2,

    With delta = 1/n most of it comes from the two mixed regions, while
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
    def regions(self) -> RegionSource:
        n, d = self.n, self.delta
        lg1m = math.log2(1 - d)
        lgd = math.log2(d)
        hi = n + lg1m   # log2((1 - delta) 2^n)
        lo = n + lgd    # log2(delta 2^n)
        mixed_ic = -lgd - lg1m
        return RegionSource((
            Region("high-high", (1 - d) ** 2, -2 * lg1m, 2 * n, hi, 2 * hi),
            Region("high-low", d * (1 - d), mixed_ic, 2 * n, hi, hi + lo),
            Region("low-high", d * (1 - d), mixed_ic, 2 * n, lo, hi + lo),
            Region("low-low", d * d, 2.0 * n, 2 * n, 0.0, 0.0),
        ))

    def spectrum(self, selector: str) -> SpectrumTable:
        return self.regions.spectrum(selector)

    @property
    def ic_mean(self) -> float:
        return self.regions.ic_mean

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

    def transcript_of(self, x: int, y: int):
        """Deterministic transcript map, usable up to n = 8."""
        if self.n > 8:
            raise OutOfRange("explicit maps are provided for n <= 8 only")
        size = 1 << self.n
        if not (1 <= x <= size and 1 <= y <= size):
            raise OutOfRange("input outside the alphabet")
        t = self.threshold
        if x > t and y > t:
            return ("a",)
        if x > t:
            return ("b",)
        if y > t:
            return ("c",)
        return (("pair", x, y),)

    def expand(self) -> TranscriptLaw:
        """Dense transcript law; alphabet 2^n is capped at 16 (n = 4)."""
        size = 1 << self.n
        if size > 16:
            raise OutOfRange("dense expansion is provided for n = 4 only")
        t = self.threshold
        alphabet = tuple(range(1, size + 1))
        source = JointSource(alphabet, alphabet,
                             np.full((size, size), 1.0 / size ** 2))
        transcripts = [("a",), ("b",), ("c",)]
        transcripts += [(("pair", x, y),)
                        for x in range(1, t + 1) for y in range(1, t + 1)]
        tidx = {tau: k for k, tau in enumerate(transcripts)}
        table = np.zeros((len(transcripts), size, size))
        for x in alphabet:
            for y in alphabet:
                table[tidx[self.transcript_of(x, y)], x - 1, y - 1] = 1.0
        return TranscriptLaw(source, tuple(transcripts), table)


def appendix_threshold_example(n: int) -> ThresholdExample:
    """The canonical instance with threshold fraction 1/n.

    Its mean IC(n) = 2 (1 - 1/n) [log2(n)/n - log2(1 - 1/n)] + 2/n is
    O(log n / n), yet lambda_eps at eps = n^-3 is 2n: the tail, not the
    mean, sets the one-shot simulation cost.
    """
    return ThresholdExample(n=n, delta=1.0 / n)
