"""Hash-based compression and interactive simulation engines.

Five engines of increasing strength:

1. ``SlepianWolfCoder``      one-shot compression of X against side information
2. ``InteractiveSWCoder``    multi-round compression with slice feedback
3. ``RoundSimulator``        one-round channel simulation with a shared seed
4. ``ImprovedRoundSimulator`` adds the transmitted slice index J
5. ``ProtocolSimulator``     round-by-round simulation of a full transcript law

Engine 2 is engine 3 on the identity channel, and engines 4 and 5 run
engine 3 rounds.  Each engine's trial rule is implemented once, as a kernel
vectorized over trials: ``_sw_kernel`` for engine 1 and ``_round_kernel``
(pick M*, then ``_slice_search``) for engines 2 to 5.  The scalar ``run``,
the chunked trial loop ``run_trials`` and the exact enumerations all call
it on hashes packed by :func:`icsim.hashing.pack_hashes`.  Engines whose
randomness is small enough expose ``exact_view_law``, which enumerates
every linear part of each hash family and every shared-randomness value,
each linear part standing for its 2^L offsets (see :mod:`icsim.hashing`).

The batch paths cut their trials in two units:

* a *chunk* is the unit of seed streams and of ``BATCH_BYTES``: chunk
  ``part`` of :func:`run_trials` takes all of its draws from the stream
  ``[master_seed, part]``, and one rule, :func:`_trial_chunk`, sizes every
  engine's chunks;
* a *block* is the unit of cache and threads: after a chunk's draws, its
  deterministic decode runs in blocks of rows of ``TRIAL_BLOCK_BYTES``
  (:func:`_in_blocks`), on up to two threads.

The decode is row-independent and draws nothing, so the results depend on
the seed alone, not on the block size or the number of threads.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfRange, TooLarge
from .hashing import (
    ENUMERATION_CAP,
    draw_hash,
    encode_universe,
    encoding_width,
    family_size,
    linear_blocks,
    pack_hashes,
)
from .probcore import (
    FiniteDistribution,
    JointSource,
    SliceConfig,
    SpectrumTable,
    auto_slice_config,
)
from .protocol import TranscriptLaw

ERROR_CAUSES = ("tail", "no_match", "multiple_match", "bad_J",
                "budget_exceeded")
# cause codes of the batch paths: 0 for no error, else 1 + ERROR_CAUSES index
_TAIL, _NO_MATCH, _MULTIPLE, _BAD_J, _BUDGET = range(1, len(ERROR_CAUSES) + 1)

#: most trials per chunk of the batch paths; each has its own seed stream
BATCH_CHUNK = 100_000
#: bytes per chunk that a trial kernel may allocate, as counted by
#: :func:`_kernel_bytes`; it cuts the chunks of every engine's batch path
#: and of engine 5's exact path
BATCH_BYTES = 1 << 26
#: bytes per block of hash matrices that exact mode of engines 1 to 3 packs
#: and decodes at once, counted as BATCH_BYTES is; a block this small stays
#: in cache, which decodes faster than one BATCH_BYTES block and leaves the
#: peak memory where it was; it also bounds the float64 rows of one block of
#: the plug-in bootstrap in :mod:`icsim.evaluate`
EXACT_BLOCK_BYTES = 1 << 21
#: bytes per block of rows that a batch path decodes at once, counted by
#: :func:`_kernel_bytes`; a chunk's decode runs block by block, so its
#: temporaries stay this small per thread.  Blocks of half this size were
#: slower on two threads: more small numpy calls contend for the GIL
TRIAL_BLOCK_BYTES = 1 << 22
#: most threads that the trial decode and the plug-in bootstrap each run
#: on; each thread holds one block's temporaries, so this also bounds their
#: memory on machines with many CPUs.  Both speed-ups were measured on two
_MAX_WORKERS = 2


@dataclass(frozen=True)
class SimOutcome:
    x: object
    y: object
    tau_x: object          # transmitter-side result (None after an error)
    tau_y: object          # receiver-side result (None after an error)
    bits: int
    error: str | None      # None or one of ERROR_CAUSES
    slice_hit: int         # terminating slice (engines 1-4), rounds done (5)

    @property
    def view(self) -> tuple:
        return (self.tau_x, self.tau_y, self.x, self.y)


@dataclass
class TrialAggregate:
    trials: int
    views: Counter
    bits: np.ndarray
    errors: Counter
    mismatches: int        # trials where tau_x != tau_y

    @property
    def error_rate(self) -> float:
        return sum(self.errors.values()) / self.trials

    @property
    def mismatch_rate(self) -> float:
        return self.mismatches / self.trials


def run_trials(engine, trials: int, master_seed: int) -> TrialAggregate:
    """Run independent trials of any engine, batched.

    Chunk ``part`` of ``engine.chunk`` trials (see :func:`_trial_chunk`)
    draws all of its randomness in bulk from the stream
    ``[master_seed, part]``: through ``_sw_chunk`` on engine 1,
    ``_batch_round_chunk`` on engines 2 to 4 and ``run_batch`` on engine 5.
    Each then decodes the chunk in blocks of rows (:func:`_in_blocks`).
    """
    chunk_fn = (_sw_chunk if isinstance(engine, SlepianWolfCoder)
                else _protocol_chunk if isinstance(engine, ProtocolSimulator)
                else _batch_round_chunk)
    chunk = engine.chunk
    views: Counter = Counter()
    errors: Counter = Counter()
    bits, mism = [], 0
    for part, done in enumerate(range(0, trials, chunk)):
        v, e, b, mm = chunk_fn(engine, min(chunk, trials - done),
                               [master_seed, part])
        views.update(v)
        errors.update(e)
        bits.append(b)
        mism += mm
    bits = np.concatenate(bits) if bits else np.empty(0, dtype=np.int64)
    return TrialAggregate(trials, views, bits, errors, mism)


#: the trial loop under the name the benchmark's trial spans also patch
batch_round_trials = run_trials


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(blocks: int) -> int:
    """Threads for ``blocks`` independent blocks of work: at most the
    usable CPUs and ``_MAX_WORKERS``."""
    return min(blocks, _usable_cpus(), _MAX_WORKERS)


def _in_blocks(decode, T: int, row_bytes: int) -> tuple:
    """``decode(0, T)`` of a chunk of T rows, computed block by block.

    ``decode(a, b)`` returns a tuple of arrays with one entry per row
    ``a .. b - 1``, draws nothing and depends on no other row.  Blocks hold
    ``TRIAL_BLOCK_BYTES // row_bytes`` rows and run on
    :func:`_worker_count` threads; the outputs are concatenated in block
    order, so they equal ``decode(0, T)`` bit for bit.  A chunk of one
    block runs inline.  The threads may call numpy and the module's kernel
    helpers only: tracers that wrap the public callables are not
    thread-safe.
    """
    rows = max(1, TRIAL_BLOCK_BYTES // row_bytes)
    if T <= rows:
        return decode(0, T)
    starts = range(0, T, rows)
    workers = _worker_count(len(starts))

    def block(a):
        return decode(a, min(a + rows, T))

    if workers == 1:
        parts = [block(a) for a in starts]
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(block, starts))
    return tuple(np.concatenate(out) for out in zip(*parts))


def _kernel_bytes(M: int, L: int, width: int) -> int:
    """Bytes that one trial (or exact row) of M messages and L hash bits
    allocates in either trial kernel: the row's share of a chunk (seed
    streams, ``BATCH_BYTES``) and of a block (cache, threads).

    The (L, w + 1) uint8 hash block and its packed int64 columns; per
    message, six 8-byte numbers (hash, weight, running sum, receiver slice
    and two temporaries) and five bool masks; and 256 bytes for the trial's
    source pair, uniforms, bits, cause and view key.  Engine 1's kernel
    allocates about a third of this.
    """
    return L * (width + 1) + 8 * (width + 1) + 53 * M + 256


def _trial_chunk(M: int, L: int, width: int) -> int:
    """Trials per chunk of any engine's batch path: at most BATCH_CHUNK,
    and few enough that the chunk's :func:`_kernel_bytes` stay within
    BATCH_BYTES.  A chunk is the unit of seed streams; its decode then runs
    in blocks of TRIAL_BLOCK_BYTES, the unit of cache and threads."""
    return max(1, min(BATCH_CHUNK, BATCH_BYTES // _kernel_bytes(M, L, width)))


def _cause_counts(cause: np.ndarray) -> Counter:
    """Error counts from an array of cause codes."""
    counts = np.bincount(cause, minlength=len(ERROR_CAUSES) + 1)[1:]
    return Counter({name: int(n) for name, n in zip(ERROR_CAUSES, counts)
                    if n})


def _conditional_density(cond: np.ndarray) -> np.ndarray:
    """-log2 of a conditional table, +inf where the mass is zero."""
    with np.errstate(divide="ignore"):
        return np.where(cond > 0, -np.log2(np.maximum(cond, 1e-300)), np.inf)


def _slice_table(cond: np.ndarray, cfg: SliceConfig) -> np.ndarray:
    """The slice of -log2 of every entry of a conditional table; 0 (the
    tail) where the mass is zero.

    This is :meth:`SliceConfig.slice_of` on whole arrays, with the same
    float operations, so the two agree entry for entry, at slice floors too.
    """
    h = _conditional_density(cond)
    inside = (h >= cfg.lambda_min) & (h < cfg.lambda_max)
    with np.errstate(invalid="ignore"):
        i = (h - cfg.lambda_min) // cfg.delta + 1
    return np.where(inside, np.minimum(i, cfg.n_slices), 0).astype(int)


def _int_param(value: float, name: str) -> int:
    iv = int(round(value))
    if abs(value - iv) > 1e-9 or iv <= 0:
        raise OutOfRange(f"{name} must be a positive integer number of bits")
    return iv


# ---------------------------------------------------------------------------
# engine 1: one-shot compression
# ---------------------------------------------------------------------------


class SlepianWolfCoder:
    """Hash X down to l bits; decode inside an aux-typical set.

    The auxiliary conditional Q_{X|Y} defaults to the true one.  The decoding
    set at y is { x : -log2 Q(x|y) <= l - gamma } and the analytic error
    bound is Pr[(X, Y) atypical] + 2^{-gamma}.
    """

    def __init__(self, source: JointSource, l: int, gamma: float,
                 aux: np.ndarray | None = None):
        self.source = source
        self.l = _int_param(l, "l")
        if self.l > 62:
            raise OutOfRange("hash length l exceeds 62 bits")
        if gamma < 0:
            raise OutOfRange("gamma must be nonnegative")
        self.gamma = float(gamma)
        cond = source.p_x_given_y if aux is None else np.asarray(aux, float)
        if cond.shape != source.mass.shape:
            raise OutOfRange("aux conditional has the wrong shape")
        self.h_q = _conditional_density(cond)
        self.typical = self.h_q <= self.l - self.gamma + 1e-12
        self.width = encoding_width(len(source.x_alphabet))
        self.enc = encode_universe(len(source.x_alphabet), self.width)
        self.chunk = _trial_chunk(len(source.x_alphabet), self.l, self.width)

    def analytic_error_bound(self) -> float:
        atyp = float(self.source.mass[~self.typical].sum())
        return atyp + 2.0 ** (-self.gamma)

    def run(self, rng, x=None, y=None) -> SimOutcome:
        if x is None:
            i, j = self.source.sample(rng)
        else:
            i, j = self.source.x_index[x], self.source.y_index[y]
        fam = draw_hash(self.width, self.l, rng)
        decoded, cause = _sw_kernel(self, np.array([i]), np.array([j]),
                                    fam.apply_packed(self.enc)[None, :])
        d, c = int(decoded[0]), int(cause[0])
        xs = self.source.x_alphabet
        return SimOutcome(xs[i], self.source.y_alphabet[j], xs[i],
                          None if d < 0 else xs[d], self.l,
                          None if c == 0 else ERROR_CAUSES[c - 1], 1)

    # -- exact enumeration ---------------------------------------------------

    def exact_atom_count(self) -> int:
        """Size of the seed space ``exact_view_law`` averages over: every
        live (x, y) and hash family.  It decodes 2^-l of them, one per
        linear part; ``ENUMERATION_CAP`` applies to this count."""
        live = int((self.source.mass > 0).sum())
        return live * family_size(self.width, self.l)

    def exact_view_law(self) -> FiniteDistribution:
        """Decode every live (x, y) against every hash family.

        The decode tests h(x') = h(x), where the offset cancels, so only the
        linear parts are walked, in blocks of :func:`linear_blocks`, each
        packed once and decoded against all live pairs in one kernel call;
        each stands for its 2^l families.  A view's probability is its
        pair's mass times the number of families that produce it over the
        family size.
        """
        if self.exact_atom_count() > ENUMERATION_CAP:
            raise TooLarge("seed space too large for exact enumeration")
        n_fam = family_size(self.width, self.l)
        n_lin = n_fam >> self.l
        live_i, live_j = np.nonzero(self.source.mass > 0)
        P, M = live_i.size, len(self.source.x_alphabet)
        step = max(1, EXACT_BLOCK_BYTES // (
            P * _kernel_bytes(M, self.l, self.width)))
        # counts[p, d + 1]: families that decode live pair p to d (-1: none)
        counts = np.zeros((P, M + 1), dtype=np.int64)
        for start in range(0, n_lin, step):
            h = pack_hashes(linear_blocks(
                self.width, self.l, start, min(start + step, n_lin)),
                self.enc)
            n = h.shape[0]
            decoded, _ = _sw_kernel(self, np.repeat(live_i, n),
                                    np.repeat(live_j, n), np.tile(h, (P, 1)))
            counts += np.bincount(
                np.repeat(np.arange(P), n) * (M + 1) + decoded + 1,
                minlength=P * (M + 1)).reshape(P, M + 1)
        counts <<= self.l
        # the views in (pair, decoded) order; the float operations of
        # mass * count / n_fam, one atom at a time
        p, d = np.nonzero(counts)
        i, j = live_i[p], live_j[p]
        probs = self.source.mass[i, j] * counts[p, d].astype(float) / n_fam
        xs, ys = self.source.x_alphabet, self.source.y_alphabet
        dec = (None,) + tuple(xs)
        return FiniteDistribution.from_mapping(
            {(xs[a], dec[b], xs[a], ys[c]): w for a, b, c, w in zip(
                i.tolist(), d.tolist(), j.tolist(), probs.tolist())})

    def true_view_law(self) -> FiniteDistribution:
        xs, ys = self.source.x_alphabet, self.source.y_alphabet
        return FiniteDistribution.from_mapping(
            {(xs[i], xs[i], xs[i], ys[j]): self.source.mass[i, j]
             for i, j in zip(*np.nonzero(self.source.mass > 0))})


def _sw_kernel(coder: SlepianWolfCoder, xi: np.ndarray, yj: np.ndarray,
               h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Engine 1's decode for T trials; draws nothing itself.

    Per trial: the source indices ``xi`` and ``yj`` and the packed hash of
    every x value, ``h`` (T, M).  The receiver decodes the one candidate of
    its typical set at y whose hash matches x's; several matches are a
    multiple match, and none is a tail when (x, y) is atypical, else no
    match.  Returns ``(decoded, cause)``: the decoded x index, -1 on a
    declared failure, and the cause code.
    """
    rows = np.arange(xi.size)
    typical = np.take(coder.typical.T, yj, axis=0)  # (T, M)
    match = typical & (h == h[rows, xi][:, None])
    cnt = match.sum(axis=1)
    decoded = np.where(cnt == 1, match.argmax(axis=1), -1)
    cause = np.where(cnt > 1, _MULTIPLE,
                     np.where(cnt == 1, 0, np.where(typical[rows, xi],
                                                    _NO_MATCH, _TAIL)))
    return decoded, cause


def _sw_chunk(coder: SlepianWolfCoder, T: int, seed):
    """T trials of engine 1: the source pairs, then the hash blocks."""
    rng = np.random.default_rng(seed)
    xi, yj = coder.source.sample(rng, size=T)
    blocks = rng.integers(0, 2, size=(T, coder.l, coder.width + 1),
                          dtype=np.uint8)

    def decode(a, b):
        return _sw_kernel(coder, xi[a:b], yj[a:b],
                          pack_hashes(blocks[a:b], coder.enc))

    decoded, cause = _in_blocks(decode, T, _kernel_bytes(
        len(coder.source.x_alphabet), coder.l, coder.width))
    views = _count_views(xi, decoded, xi, yj, coder.source.x_alphabet,
                         coder.source)
    return (views, _cause_counts(cause), np.full(T, coder.l, dtype=np.int64),
            int((decoded != xi).sum()))


# ---------------------------------------------------------------------------
# engine 2: interactive compression
# ---------------------------------------------------------------------------


class InteractiveSWCoder:
    """Slice-by-slice compression of X with one-bit feedback per slice.

    First l hash bits, then one delta-bit hash block per extra slice; the
    receiver searches slice i after i blocks and answers ACK or NACK.  A
    trial terminating in slice i costs exactly l + (i - 1) delta + i bits.

    This is engine 3 on the identity channel (M = X) with no shared prefix:
    ``inner`` is that :class:`RoundSimulator` and runs every trial.  ``aux``
    is the receiver's conditional Q(x|y), on the source's (x, y) axes.
    """

    def __init__(self, source: JointSource, cfg: SliceConfig,
                 l: int | None = None, aux: np.ndarray | None = None):
        self.source = source
        self.cfg = cfg
        nx = len(source.x_alphabet)
        self.inner = RoundSimulator(
            source, np.eye(nx), source.x_alphabet, cfg, 0,
            None if aux is None else np.asarray(aux, float).T, l=l)
        self.l = self.inner.l
        self.delta = self.inner.delta
        self.n_slices = self.inner.n_slices
        self.total_hash_bits = self.inner.total_hash_bits
        self.chunk = self.inner.chunk

    def tail_mass(self) -> float:
        return self.inner.tail_mass()

    def analytic_error_bound(self) -> float:
        return self.tail_mass() + self.n_slices * 2.0 ** (-self.cfg.gamma)

    def bits_for_slice(self, i: int) -> int:
        return self.inner.pos_at(i) + i

    def run(self, rng, x=None, y=None) -> SimOutcome:
        return self.inner.run(rng, x, y)

    def exact_atom_count(self) -> int:
        return self.inner.exact_atom_count()

    def exact_view_law(self) -> FiniteDistribution:
        return self.inner.exact_view_law()

    def true_view_law(self) -> FiniteDistribution:
        return self.inner.true_view_law()


# ---------------------------------------------------------------------------
# engine 3: one-round simulation with a shared seed
# ---------------------------------------------------------------------------


class RoundSimulator:
    """Simulate one message M ~ P(.|X) so the receiver learns it too.

    The transmitter samples M conditioned on the first k hash bits agreeing
    with the shared uniform string, then finishes the transmission with the
    interactive coder; the first k hash bits are never sent.  The first
    slice needs ``l`` hash bits, ``ceil(lambda_min + delta + gamma)`` of the
    receiver's slicing unless given.
    """

    def __init__(self, source: JointSource, p_m_given_x: np.ndarray,
                 messages: Sequence, cfg_rx: SliceConfig, k: int,
                 aux_m_given_y: np.ndarray | None = None,
                 l: int | None = None):
        self.source = source
        self.messages = tuple(messages)
        self.p_m_given_x = np.asarray(p_m_given_x, dtype=float)
        nx, ny = source.mass.shape
        M = len(self.messages)
        if self.p_m_given_x.shape != (nx, M):
            raise OutOfRange("message channel has the wrong shape")
        self.cfg_rx = cfg_rx
        self.delta = _int_param(cfg_rx.delta, "delta")
        self.n_slices = cfg_rx.n_slices
        if l is None:
            l = math.ceil(cfg_rx.lambda_min + cfg_rx.delta + cfg_rx.gamma
                          - 1e-9)
        self.l = _int_param(l, "l")
        self.total_hash_bits = self.l + (self.n_slices - 1) * self.delta
        if not 0 <= k <= self.total_hash_bits:
            raise OutOfRange("shared prefix k must fit inside the hash budget")
        self.k = int(k)
        self.p_m_given_y = (self._true_m_given_y()
                            if aux_m_given_y is None
                            else np.asarray(aux_m_given_y, dtype=float))
        if self.p_m_given_y.shape != (ny, M):
            raise OutOfRange("aux conditional has the wrong shape")
        self.slice_rx = _slice_table(self.p_m_given_y.T, cfg_rx)  # (M, ny)
        self.width = encoding_width(M)
        self.enc = encode_universe(M, self.width)
        if self.total_hash_bits > 62:
            raise OutOfRange("hash budget exceeds 62 bits")
        self.chunk = _trial_chunk(M, self.total_hash_bits, self.width)

    def _true_m_given_y(self) -> np.ndarray:
        py = self.source.p_y
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(py[None, :] > 0, self._joint_my() / py[None, :],
                            0.0).T

    def _joint_my(self) -> np.ndarray:
        """Joint table P(M, Y) with messages on rows, summed over x in order."""
        return sum(np.outer(p_m, p_xy)
                   for p_m, p_xy in zip(self.p_m_given_x, self.source.mass))

    def pos_at(self, i: int) -> int:
        return self.l + (i - 1) * self.delta

    def tail_mass(self) -> float:
        """Probability that (M, Y) falls in the receiver tail slice."""
        return float(self._joint_my()[self.slice_rx == 0].sum())

    def joint_mx(self) -> np.ndarray:
        """Joint table P(M, X) with messages on rows."""
        return (self.p_m_given_x * self.source.p_x[:, None]).T

    def run(self, rng, x=None, y=None) -> SimOutcome:
        return _round_outcome(self, rng, x, y)

    # -- exact enumeration ---------------------------------------------------

    def exact_atom_count(self) -> int:
        """Size of the seed space ``exact_view_law`` averages over: one
        atom per supported message of each live (x, y), hash family and
        shared string.  It decodes 2^-L of them, one per linear part;
        ``ENUMERATION_CAP`` applies to this count."""
        live = self.source.mass > 0
        msgs = (self.p_m_given_x > 0).sum(axis=1)  # (nx,)
        supported = int((live * msgs[:, None]).sum())
        return supported * family_size(self.width, self.total_hash_bits) \
            * (1 << self.k)

    def exact_view_law(self) -> FiniteDistribution:
        """Decode every live (x, y) against every hash family, shared
        string u and message M* that u can pick: one row per (linear part,
        u, live pair, supported message m), blocks of :func:`linear_blocks`
        decoded by :func:`_slice_search` at once.  The decode at offset b
        and string u is the decode at offset 0 and string u ^ (b mod 2^k),
        so each row stands for 2^L families.  M* = m has probability
        P(m|x) over the weight of the messages whose hash prefix is u, or
        is the first supported message when none is.
        """
        if self.exact_atom_count() > ENUMERATION_CAP:
            raise TooLarge("seed space too large for exact enumeration")
        L, k, M = self.total_hash_bits, self.k, len(self.messages)
        n_lin = family_size(self.width, L) >> L
        # shared strings packed like the hash prefix, first bit slowest
        strings = ((np.arange(1 << k)[:, None] >> (k - 1 - np.arange(k))) & 1
                   ) @ (1 << np.arange(k, dtype=np.int64))
        live_i, live_j = np.nonzero(self.source.mass > 0)
        support = self.p_m_given_x[live_i] > 0
        support[~support.any(axis=1), 0] = True
        pair, m = np.nonzero(support)
        first = np.r_[True, pair[1:] != pair[:-1]]
        i, j = live_i[pair], live_j[pair]
        base = self.source.mass[i, j] * (1.0 / n_lin) * 2.0 ** (-k)
        step = max(1, EXACT_BLOCK_BYTES // (
            strings.size * pair.size * _kernel_bytes(M, L, self.width)))
        sums: dict = {}
        for start in range(0, n_lin, step):
            hs = pack_hashes(linear_blocks(
                self.width, L, start, min(start + step, n_lin)), self.enc)
            f, s, c = (a.ravel() for a in np.indices(
                (hs.shape[0], strings.size, pair.size)))
            h, u, mc, rows = hs[f], strings[s], m[c], np.arange(f.size)
            wt = self.p_m_given_x[i[c]] * ((h & ((1 << k) - 1)) == u[:, None])
            tot = wt.sum(axis=1)
            pick = np.where(tot > 0, wt[rows, mc] > 0, first[c])
            h, u, mc, c = h[pick], u[pick], mc[pick], c[pick]
            w_m, tot = wt[pick, mc], tot[pick]
            p = np.where(tot > 0, base[c] * w_m / np.where(tot > 0, tot, 1),
                         base[c])
            decoded = _slice_search(self, h, mc, self.slice_rx[:, j[c]].T,
                                    np.full(c.size, k), u, 0)[0]
            _add_views(sums, np.column_stack([mc, decoded, i[c], j[c]]), p)
        msgs = (None,) + self.messages
        xs, ys = self.source.x_alphabet, self.source.y_alphabet
        return FiniteDistribution.from_mapping(
            {(msgs[a + 1], msgs[d + 1], xs[x], ys[y]): p
             for (a, d, x, y), p in sums.items()})

    def true_view_law(self) -> FiniteDistribution:
        xs, ys = self.source.x_alphabet, self.source.y_alphabet
        mass, msgs, p = self.source.mass, self.messages, self.p_m_given_x
        # (i, j, m) of every live pair (x, y) and each message x can send
        i, j, m = np.nonzero((mass > 0)[:, :, None] & (p > 0)[:, None, :])
        return FiniteDistribution.from_mapping(
            {(msgs[c], msgs[c], xs[a], ys[b]): w for a, b, c, w in zip(
                i.tolist(), j.tolist(), m.tolist(),
                (mass[i, j] * p[i, m]).tolist())})


# ---------------------------------------------------------------------------
# engine 4: one-round simulation with a transmitted slice index
# ---------------------------------------------------------------------------


class ImprovedRoundSimulator:
    """Round simulation where the transmitter reveals its own density slice.

    The slice index J of -log2 P(M|x) is sampled and sent with
    ceil(log2 N) + 1 bits; indices of small prior mass are rejected outright.
    Knowing J certifies enough min-entropy to share k(J) hash bits for free.

    ``aux_m_given_y`` is the receiver's conditional, passed on to
    :class:`RoundSimulator`.  ``prior_x`` is the transmitter-input prior
    that weighs the slice-index prior ``p_j`` and so decides which indices
    are ``good``; it defaults to the source marginal.
    """

    def __init__(self, source: JointSource, p_m_given_x: np.ndarray,
                 messages: Sequence, cfg_rx: SliceConfig, cfg_tx: SliceConfig,
                 k_override: int | None = None,
                 aux_m_given_y: np.ndarray | None = None,
                 prior_x: np.ndarray | None = None):
        self.cfg_tx = cfg_tx
        self.inner = RoundSimulator(source, p_m_given_x, messages, cfg_rx, 0,
                                    aux_m_given_y)
        slc, self.p_j_given_x, self.p_j, self.good, self.j_cost = _tx_tables(
            self.inner.p_m_given_x, cfg_tx, source.p_x if prior_x is None
            else np.asarray(prior_x, float))
        self.slice_tx = slc.T  # (M, nx)
        self.k_table = _k_table(cfg_tx, cfg_rx.gamma,
                                self.inner.total_hash_bits, k_override)
        self.chunk = self.inner.chunk

    @property
    def source(self):
        return self.inner.source

    @property
    def messages(self):
        return self.inner.messages

    def k_of(self, j: int) -> int:
        return int(self.k_table[j])

    def tail_mass_tx(self) -> float:
        return float(self.p_j[0])

    def run(self, rng, x=None, y=None) -> SimOutcome:
        return _round_outcome(self, rng, x, y)

    def true_view_law(self) -> FiniteDistribution:
        return self.inner.true_view_law()


def _tx_tables(p_m: np.ndarray, cfg_tx: SliceConfig, prior: np.ndarray):
    """``(slice_tx, p_j_given_x, p_j, good, j_cost)`` of message laws
    ``p_m`` (..., n_x, M) under input priors ``prior`` (..., n_x), leading
    axes carried through: each message's slice, P(J | x) summed over
    messages in order, the law of J, the accepted indices (mass at least
    1 / n_tx^2, never the tail index 0) and the bits that send J."""
    n_tx = cfg_tx.n_slices
    slice_tx = _slice_table(p_m, cfg_tx)
    p_j_given_x = np.zeros(p_m.shape[:-1] + (n_tx + 1,))
    np.add.at(p_j_given_x,
              np.indices(slice_tx.shape, sparse=True)[:-1] + (slice_tx,), p_m)
    p_j = (np.swapaxes(p_j_given_x, -1, -2) @ prior[..., None])[..., 0]
    good = p_j >= 1.0 / n_tx ** 2 - 1e-12
    good[..., 0] = False
    j_cost = math.ceil(math.log2(max(n_tx, 2))) + 1
    return slice_tx, p_j_given_x, p_j, good, j_cost


def _k_table(cfg_tx: SliceConfig, gamma: float, total_hash_bits: int,
             k_override: int | None) -> np.ndarray:
    """Shared prefix length k(J), J = 0 .. n_tx: ``k_override``, else
    lambda_min + (J - 1) delta - 2 log2 n_tx - 2 gamma + 2, floored and
    clipped to [0, total_hash_bits]."""
    n_j = cfg_tx.n_slices + 1
    if k_override is not None:
        return np.full(n_j, k_override)
    raw = (cfg_tx.lambda_min + (np.arange(n_j) - 1) * cfg_tx.delta
           - 2 * math.log2(cfg_tx.n_slices) - 2 * gamma + 2)
    return np.clip(np.floor(raw), 0, total_hash_bits).astype(np.int64)


def _pick_slice(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Slice index per trial from cumulative J-prior rows and uniforms.

    As ``np.searchsorted(row, u * row[-1], side="right")`` on each row: the
    first index whose cumulative mass exceeds u times the total, so one of
    positive mass.
    """
    return (cum_rows <= u[:, None] * cum_rows[:, -1:]).sum(axis=1)


def _round_kernel(inner: RoundSimulator, p_rows: np.ndarray,
                  restrict: np.ndarray, slc: np.ndarray, k_t: np.ndarray,
                  blocks: np.ndarray, u: np.ndarray, u_m: np.ndarray,
                  extra_bits: int):
    """One simulated round for T trials; draws nothing itself.

    Per trial: the transmitter's message row ``p_rows`` (T, M), the
    ``restrict`` mask (T, M), the receiver's slice row ``slc`` (T, M), the
    shared-prefix length ``k_t``, the hash block (L, w + 1) of ``blocks``,
    the shared string ``u`` (masked to k bits here) and the uniform ``u_m``
    that picks M*.  ``inner`` supplies the round's encoding and hash
    schedule; ``extra_bits`` (the slice-index cost) is added to each
    trial's bits.  M* is the first message of ``restrict`` whose hash
    prefix is u and whose cumulative weight exceeds u_m times the total;
    :func:`_slice_search` decodes it.  Returns ``(m_star,) +`` its result.
    """
    h = pack_hashes(blocks, inner.enc)  # (T, M)
    mask_t = (np.int64(1) << k_t) - 1
    u = u & mask_t
    prefix_ok = (h & mask_t[:, None]) == u[:, None]
    cum = np.cumsum(p_rows * (prefix_ok & restrict), axis=1)
    m_star = (cum <= u_m[:, None] * cum[:, -1:]).sum(axis=1)
    empty = cum[:, -1] <= 0.0
    if empty.any():
        # canonical choice: the first supported message of the restriction
        fb = restrict & (p_rows > 0)
        first = np.argmax(fb, axis=1)
        m_star = np.where(empty, np.where(fb.any(axis=1), first, 0), m_star)
    return (m_star,) + _slice_search(inner, h, m_star, slc, k_t, u,
                                     extra_bits)


def _slice_search(inner: RoundSimulator, h: np.ndarray, m_star: np.ndarray,
                  slc: np.ndarray, k_t: np.ndarray, u: np.ndarray,
                  extra_bits: int):
    """The receiver's slice-by-slice search for T trials, given M*.

    ``h`` (T, M) holds the packed hash of every message and ``slc`` (T, M)
    the receiver's slice of every message; the receiver holds the shared
    string ``u`` of ``k_t`` bits in place of M*'s first hash bits.  After i
    hash blocks it matches the first ``pos_at(i)`` bits in its slice i: one
    match is an ACK, several after the first slice are declared.  Returns
    ``(decoded, cause, bits, hit)``: the decoded message (-1 on a declared
    failure), the cause code, the bits sent past the shared prefix plus
    ``extra_bits``, and the terminating slice.
    """
    T = h.shape[0]
    received = (h[np.arange(T), m_star] & ~((np.int64(1) << k_t) - 1)) | u
    decoded = np.full(T, -1, dtype=np.int64)
    hit = np.full(T, inner.n_slices, dtype=np.int64)
    multi = np.zeros(T, dtype=bool)
    active = np.ones(T, dtype=bool)
    for s in range(1, inner.n_slices + 1):
        mask_pos = (1 << inner.pos_at(s)) - 1
        match = (slc == s) & (((h ^ received[:, None]) & mask_pos) == 0)
        cnt = match.sum(axis=1)
        ack = active & (cnt == 1)
        decoded[ack] = np.argmax(match[ack], axis=1)
        hit[ack] = s
        if s > 1:
            mm = active & (cnt > 1)
            multi |= mm
            hit[mm] = s
            active &= ~mm
        active &= ~ack
    tail = active & (slc[np.arange(T), m_star] == 0)
    pos_hit = inner.l + (hit - 1) * inner.delta
    bits = np.maximum(0, pos_hit - k_t) + hit + extra_bits

    cause = np.zeros(T, dtype=np.int64)
    cause[active & ~tail] = _NO_MATCH
    cause[tail] = _TAIL
    cause[multi] = _MULTIPLE
    return decoded, cause, bits, hit


def _decode_round(inner: RoundSimulator, p_m: np.ndarray,
                  slice_tx: np.ndarray | None, slice_rx: np.ndarray,
                  tx: tuple, rx: tuple, jj: np.ndarray | None,
                  k_t: np.ndarray, blocks: np.ndarray, u: np.ndarray,
                  u_m: np.ndarray, extra_bits: int):
    """:func:`_round_kernel` on T trials, block by block (:func:`_in_blocks`).

    The kernel's (T, M) inputs are gathered inside each block from tables
    whose last axis is the message: trial n's message row ``p_m[tx_n]``,
    its restriction ``slice_tx[tx_n] == jj[n]`` (every message when
    ``slice_tx`` is None) and its receiver slice row ``slice_rx[rx_n]``,
    where ``tx`` and ``rx`` are tuples of per-trial index arrays, one per
    leading table axis.  The other arguments are per trial, as the kernel
    takes them.
    """
    M = p_m.shape[-1]

    def decode(a, b):
        t = tuple(i[a:b] for i in tx)
        restrict = (np.ones((b - a, M), dtype=bool) if slice_tx is None
                    else slice_tx[t] == jj[a:b, None])
        return _round_kernel(inner, p_m[t], restrict,
                             slice_rx[tuple(i[a:b] for i in rx)], k_t[a:b],
                             blocks[a:b], u[a:b], u_m[a:b], extra_bits)

    return _in_blocks(decode, k_t.size, _kernel_bytes(
        M, inner.total_hash_bits, inner.width))


def _draw_prefix(rng, k_t: np.ndarray) -> np.ndarray:
    """Shared strings: one draw of max(k_t) bits per trial, or zeros."""
    k_max = int(k_t.max()) if k_t.size else 0
    if not k_max:
        return np.zeros(k_t.size, dtype=np.int64)
    return rng.integers(0, 1 << k_max, size=k_t.size, dtype=np.int64)


def _round_trials(engine, rng, T: int, pairs=None):
    """T trials of engines 2 to 4, every draw taken from ``rng``.

    Draw order: the T source pairs (unless ``pairs`` gives their indices),
    the hash blocks, on engine 4 the J uniforms, the shared strings and the
    M* uniforms.  Returns ``(xi, yj, tx, decoded, cause, bits, hit)`` per
    trial: ``tx`` is M* (-1 when engine 4 rejects J, where ``hit`` is 0);
    the rest are as :func:`_slice_search` returns them.
    """
    improved = isinstance(engine, ImprovedRoundSimulator)
    inner = getattr(engine, "inner", engine)
    xi, yj = inner.source.sample(rng, size=T) if pairs is None else pairs
    blocks = rng.integers(0, 2, size=(T, inner.total_hash_bits,
                                      inner.width + 1), dtype=np.uint8)

    j_cost = 0
    k_t = np.full(T, inner.k, dtype=np.int64)
    slice_tx = jj = None
    bad_j = np.zeros(T, dtype=bool)
    if improved:
        j_cost = engine.j_cost
        jj = _pick_slice(np.cumsum(engine.p_j_given_x, axis=1)[xi],
                         rng.random(T))
        bad_j = ~engine.good[jj]
        k_t = engine.k_table[jj]
        slice_tx = engine.slice_tx.T
    u = _draw_prefix(rng, k_t)
    m_star, decoded, cause, bits, hit = _decode_round(
        inner, inner.p_m_given_x, slice_tx, inner.slice_rx.T, (xi,), (yj,),
        jj, k_t, blocks, u, rng.random(T), j_cost)
    decoded[bad_j] = -1
    bits[bad_j] = j_cost
    cause[bad_j] = _BAD_J
    hit[bad_j] = 0
    return xi, yj, np.where(bad_j, -1, m_star), decoded, cause, bits, hit


def _batch_round_chunk(engine, T: int, seed):
    inner = getattr(engine, "inner", engine)
    xi, yj, tx, decoded, cause, bits, _ = _round_trials(
        engine, np.random.default_rng(seed), T)
    views = _count_views(tx, decoded, xi, yj, inner.messages, inner.source)
    return views, _cause_counts(cause), bits, int((tx != decoded).sum())


def _round_outcome(engine, rng, x, y) -> SimOutcome:
    """One trial of engines 2 to 4: :func:`_round_trials` at T = 1, on the
    given (x, y) unless x is None."""
    src, msgs = engine.source, (None,) + tuple(engine.messages)
    xi, yj, tx, decoded, cause, bits, hit = _round_trials(
        engine, rng, 1, None if x is None else _index_pair(src, x, y))
    c = int(cause[0])
    return SimOutcome(src.x_alphabet[xi[0]], src.y_alphabet[yj[0]],
                      msgs[tx[0] + 1], msgs[decoded[0] + 1], int(bits[0]),
                      None if c == 0 else ERROR_CAUSES[c - 1], int(hit[0]))


def _index_pair(source: JointSource, x, y):
    """The source indices of (x, y), as one-trial arrays."""
    return np.array([source.x_index[x]]), np.array([source.y_index[y]])


def _count_views(tx: np.ndarray, decoded: np.ndarray, xi: np.ndarray,
                 yj: np.ndarray, messages: Sequence,
                 source: JointSource) -> Counter:
    """Count the views (tx, decoded, x, y) of a batch; a message index of
    -1 is None."""
    # one mixed-radix key per (tx, decoded, x, y) row; sorting the keys sorts
    # the rows lexicographically, and that order is the views' insertion
    # order, which the plug-in estimate and its report bytes depend on
    M = len(messages)
    radix = (M + 1, M + 1, len(source.x_alphabet), len(source.y_alphabet))
    keys, counts = np.unique(np.ravel_multi_index(
        (tx + 1, decoded + 1, xi, yj), radix), return_counts=True)
    msgs = (None,) + tuple(messages)
    xs, ys = source.x_alphabet, source.y_alphabet
    views = Counter()
    for a, d, i, j, c in zip(*np.unravel_index(keys, radix), counts):
        views[(msgs[a], msgs[d], xs[i], ys[j])] = int(c)
    return views


def _unique_rows(keys: np.ndarray):
    """``(uniq, inverse, counts)`` of the rows of the 2-D integer array
    ``keys``: the values and order of
    ``np.unique(keys, axis=0, return_inverse=True, return_counts=True)``
    (rows in ascending lexicographic order), from one ``np.lexsort``,
    an order of magnitude faster on engine 5's key batches."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[starts], inverse, np.diff(np.append(starts, len(ordered)))


def _add_views(sums: dict, keys: np.ndarray, p: np.ndarray):
    """Add the terms ``p`` of the integer key rows ``keys`` to ``sums``
    (exact mode's view masses) one at a time in row order, so each mass is
    the float a left-to-right sum of its terms gives."""
    uniq, inverse, _ = _unique_rows(keys)
    rows = [tuple(row) for row in uniq.tolist()]
    acc = np.array([sums.get(row, 0.0) for row in rows])
    np.add.at(acc, inverse, p)
    sums.update(zip(rows, acc.tolist()))


# ---------------------------------------------------------------------------
# engine 5: full protocol simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundPlan:
    """Per-round slicing: ``rx`` covers the receiver density, ``tx`` the
    transmitter density."""
    rx: SliceConfig
    tx: SliceConfig


@dataclass(frozen=True)
class _RoundTables:
    """One round's tables, built by :meth:`build` from the law's round
    views and stacked on a leading history axis.

    History h is ``law.histories(t)[h]``; ``n_tx`` and ``n_rx`` are the
    alphabet sizes of the speaking and the listening party.  ``inner`` is
    the round simulator of the first history: its encoding, hash schedule
    and costs are the same for every history of the round.
    """
    inner: RoundSimulator
    j_cost: int
    p_m: np.ndarray         # (H, n_tx, M) transmitter message law
    slice_tx: np.ndarray    # (H, n_tx, M) transmitter slice of each message
    slice_rx: np.ndarray    # (H, n_rx, M) receiver slice of each message
    cum_j: np.ndarray       # (H, n_tx, n_j) cumulative slice-index law
    good: np.ndarray        # (H, n_j) slice indices the transmitter accepts
    k_of: np.ndarray        # (n_j,) shared prefix length per slice index
    next: np.ndarray | None  # (H, M) next history index or -1; None last

    @classmethod
    def build(cls, law: TranscriptLaw, t: int, plan: RoundPlan,
              k_override: int | None, hists: tuple,
              next_hists: tuple | None) -> _RoundTables:
        """Round t's tables under ``plan``, from the law's round views of
        ``hists`` (``law.histories(t)``); ``next_hists`` are round t + 1's,
        None at the last round."""
        # swap the source orientation so the transmitter is always "x"
        x_tx = t % 2 == 1
        src = law.source if x_tx else JointSource(
            law.source.y_alphabet, law.source.x_alphabet, law.source.mass.T)
        universe = law.round_messages(t)
        col = {m: a for a, m in enumerate(universe)}
        p_m, p_rx = (np.zeros((len(hists), n, len(universe)))
                     for n in src.mass.shape)
        prior = np.empty(p_m.shape[:2])
        for h, hist in enumerate(hists):
            # the speaker's and the listener's message laws, and the
            # speaker's history-conditional marginal (histories have mass)
            view = law.round_view(t, hist)
            own = (view.p_m_given_x, view.p_m_given_y)
            cols = [col[m] for m in view.messages]
            p_m[h][:, cols], p_rx[h][:, cols] = own if x_tx else own[::-1]
            hist_tx = view.p_hist_xy.sum(axis=1 if x_tx else 0)
            prior[h] = hist_tx / hist_tx.sum()
        inner = RoundSimulator(src, p_m[0], universe, plan.rx, 0, p_rx[0])
        slice_tx, p_j_given_x, _, good, j_cost = _tx_tables(
            p_m, plan.tx, prior)
        nxt = None
        if next_hists is not None:
            index = {h: a for a, h in enumerate(next_hists)}
            nxt = np.array([[index.get(h + (m,), -1) for m in universe]
                            for h in hists], dtype=np.int64)
        return cls(inner=inner, j_cost=j_cost, p_m=p_m,
                   slice_tx=slice_tx, slice_rx=_slice_table(p_rx, plan.rx),
                   cum_j=np.cumsum(p_j_given_x, axis=2), good=good,
                   k_of=_k_table(plan.tx, plan.rx.gamma,
                                 inner.total_hash_bits, k_override),
                   next=nxt)


@dataclass(frozen=True)
class ProtocolBatch:
    """Per-trial results of :meth:`ProtocolSimulator.run_batch`.

    Row n of ``keys`` holds party x's message index for every round, then
    party y's (all -1 after an error), then the x and y source indices;
    :meth:`ProtocolSimulator.view_of` turns a row into the trial's view.
    ``cause`` holds the cause codes and ``rounds`` the rounds completed.
    """
    keys: np.ndarray    # (T, 2 R + 2)
    bits: np.ndarray    # (T,)
    cause: np.ndarray   # (T,)
    rounds: np.ndarray  # (T,)


class ProtocolSimulator:
    """Round-by-round simulation of an explicit transcript law.

    Odd rounds are spoken by party "x".  Each party tracks its own history;
    after a silent decoding error the parties simply diverge, which the view
    distance then charges in full.  The run aborts once the bit budget
    ``l_max`` is exceeded or a round declares an error.

    ``tables`` holds one :class:`_RoundTables` per round, built once from
    the law's round views; every trial path reads them.
    """

    def __init__(self, law: TranscriptLaw, plans: Sequence[RoundPlan],
                 l_max: float = math.inf, k_override: int | None = None):
        self.law = law
        self.plans = tuple(plans)
        if len(self.plans) != law.n_rounds:
            raise OutOfRange("need one round plan per protocol round")
        self.l_max = l_max
        self.k_override = k_override
        self.src = law.source
        hists = [law.histories(t) for t in range(1, len(self.plans) + 1)]
        self.tables = [
            _RoundTables.build(law, t, plan, k_override, h, next_h)
            for t, (plan, h, next_h) in enumerate(
                zip(self.plans, hists, hists[1:] + [None]), start=1)]
        # the largest round sets the chunk
        self.chunk = min(tab.inner.chunk for tab in self.tables)

    def run(self, rng, x=None, y=None) -> SimOutcome:
        """One trial: :meth:`run_batch` at T = 1, on the given (x, y)
        unless x is None."""
        batch = self.run_batch(rng, 1, pairs=None if x is None
                               else _index_pair(self.src, x, y))
        tau_x, tau_y, x, y = self.view_of(batch.keys[0])
        c = int(batch.cause[0])
        return SimOutcome(x, y, tau_x, tau_y, int(batch.bits[0]),
                          None if c == 0 else ERROR_CAUSES[c - 1],
                          int(batch.rounds[0]))

    def run_batch(self, rng, T: int, blocks=None,
                  pairs=None) -> ProtocolBatch:
        """T independent trials at once, every draw taken from ``rng``.

        Draw order: the T source pairs, then per round, for the trials still
        running, the hash blocks, the J uniforms, the shared strings and the
        M* uniforms.  ``pairs`` gives the x and y indices instead of the
        source draw, and ``blocks`` replaces the hash draws with one
        (T, L, w + 1) array per round, indexed by trial.  Each round draws
        for all its trials, then :func:`_decode_round` gathers the table
        rows of every trial by its (transmitter history, receiver history,
        input) and runs the round kernel block by block.
        """
        xi, yj = self.src.sample(rng, size=T) if pairs is None else pairs
        syms = (xi, yj)
        R = self.law.n_rounds
        hist = np.zeros((2, T), dtype=np.int64)  # history code, party x / y
        msgs = np.full((2, T, R), -1, dtype=np.int64)
        bits = np.zeros(T, dtype=np.int64)
        cause = np.zeros(T, dtype=np.int64)
        rounds = np.zeros(T, dtype=np.int64)
        live = np.arange(T)
        for t, tab in enumerate(self.tables, start=1):
            tx = 1 - t % 2  # party x speaks in odd rounds
            rx = 1 - tx
            h_tx, h_rx = hist[tx, live], hist[rx, live]
            known = (h_tx >= 0) & (h_rx >= 0)
            cause[live[~known]] = _NO_MATCH
            live, h_tx, h_rx = live[known], h_tx[known], h_rx[known]
            n = live.size
            s_tx, s_rx = syms[tx][live], syms[rx][live]
            inner = tab.inner
            blk = (rng.integers(0, 2, dtype=np.uint8, size=(
                n, inner.total_hash_bits, inner.width + 1))
                if blocks is None else blocks[t - 1][live])
            jj = _pick_slice(tab.cum_j[h_tx, s_tx], rng.random(n))
            k_t = tab.k_of[jj]
            u = _draw_prefix(rng, k_t)
            m_star, decoded, c, b, _ = _decode_round(
                inner, tab.p_m, tab.slice_tx, tab.slice_rx, (h_tx, s_tx),
                (h_rx, s_rx), jj, k_t, blk, u, rng.random(n), tab.j_cost)
            bad = ~tab.good[h_tx, jj]
            c[bad] = _BAD_J
            b[bad] = tab.j_cost
            bits[live] += b
            c[(c == 0) & (bits[live] > self.l_max)] = _BUDGET
            cause[live] = c
            ok = c == 0
            live, h_tx, h_rx = live[ok], h_tx[ok], h_rx[ok]
            m_star, decoded = m_star[ok], decoded[ok]
            rounds[live] = t
            # the transmitter appends M*, the receiver what it decoded
            msgs[tx, live, t - 1] = m_star
            msgs[rx, live, t - 1] = decoded
            if tab.next is not None:
                hist[tx, live] = tab.next[h_tx, m_star]
                hist[rx, live] = tab.next[h_rx, decoded]
        msgs[:, cause != 0] = -1
        return ProtocolBatch(np.column_stack([msgs[0], msgs[1], xi, yj]),
                             bits, cause, rounds)

    def view_of(self, key) -> tuple:
        """The view ``(hist_x, hist_y, x, y)`` of one ``run_batch`` key row,
        ``(None, None, x, y)`` after an error."""
        R = self.law.n_rounds
        x = self.src.x_alphabet[key[2 * R]]
        y = self.src.y_alphabet[key[2 * R + 1]]
        if key[0] < 0:
            return (None, None, x, y)
        U = [tab.inner.messages for tab in self.tables]
        return (tuple(U[t][key[t]] for t in range(R)),
                tuple(U[t][key[R + t]] for t in range(R)), x, y)

    def true_view_law(self) -> FiniteDistribution:
        taus, xs, ys = self.law.transcripts, self.src.x_alphabet, \
            self.src.y_alphabet
        return FiniteDistribution.from_mapping(
            {(taus[k], taus[k], xs[i], ys[j]): self.law.joint[k, i, j]
             for k, i, j in zip(*np.nonzero(self.law.joint > 0))})

    # -- exact enumeration (deterministic rounds, k = 0) ---------------------

    def _deterministic(self) -> bool:
        p = self.law.p_tau_given_xy
        return bool(np.all((p < 1e-12) | (p > 1 - 1e-12)))

    def exact_atom_count(self) -> int:
        """Size of the seed space ``exact_view_law`` averages over: every
        live (x, y) and chain of hash families, one per round.  It runs
        2^-L_t of them per round t, one per linear part;
        ``ENUMERATION_CAP`` applies to this count."""
        return int((self.src.mass > 0).sum()) * math.prod(
            family_size(tab.inner.width, tab.inner.total_hash_bits)
            for tab in self.tables)

    def exact_view_law(self) -> FiniteDistribution:
        """Run every live (x, y) against every chain of hash matrices, one
        linear part per round (:func:`linear_blocks`, offset 0), through
        :meth:`run_batch`.

        Rows are (pair, round-1 matrix, ..., round-R matrix) in that order,
        cut into chunks of ``self.chunk``; each row weighs its pair's mass
        over the number of chains.  Every round shares no prefix (k = 0),
        so its decode compares two hashes and the offset cancels: a chain
        of matrices stands for all the chains of families it spans.  The
        target and every round are deterministic, so a row's view does not
        depend on the uniforms ``run_batch`` draws either.
        """
        if not self._deterministic():
            raise OutOfRange("exact chains are supported for deterministic "
                             "target protocols only")
        if self.exact_atom_count() > ENUMERATION_CAP:
            raise TooLarge("seed space too large for exact enumeration")
        lins = []
        for tab in self.tables:
            if ((tab.p_m > 0).sum(axis=2) > 1).any():
                raise OutOfRange("exact mode needs deterministic rounds")
            if (tab.good & (tab.k_of > 0)).any():
                raise OutOfRange("exact mode requires k = 0 rounds")
            w, L = tab.inner.width, tab.inner.total_hash_bits
            lins.append(linear_blocks(w, L, 0, family_size(w, L) >> L))
        # a power of two, so 1 / chains is exact
        chains = math.prod(len(lin) for lin in lins)
        live_i, live_j = np.nonzero(self.src.mass > 0)
        term = self.src.mass[live_i, live_j] * (1.0 / chains)
        total = live_i.size * chains
        rng = np.random.default_rng(0)
        sums: dict = {}
        for start in range(0, total, self.chunk):
            pair, code = np.divmod(
                np.arange(start, min(start + self.chunk, total)), chains)
            blocks = []
            for lin in lins[::-1]:
                code, member = np.divmod(code, len(lin))
                blocks.insert(0, lin[member])
            batch = self.run_batch(rng, pair.size, blocks=blocks,
                                   pairs=(live_i[pair], live_j[pair]))
            _add_views(sums, batch.keys, term[pair])
        return FiniteDistribution.from_mapping(
            {self.view_of(key): p for key, p in sums.items()})


def _protocol_chunk(sim: ProtocolSimulator, T: int, seed):
    batch = sim.run_batch(np.random.default_rng(seed), T)
    uniq, _, counts = _unique_rows(batch.keys)
    views = Counter({sim.view_of(k): int(c) for k, c in zip(uniq, counts)})
    R = sim.law.n_rounds
    mism = int(np.any(batch.keys[:, :R] != batch.keys[:, R:2 * R],
                      axis=1).sum())
    return views, _cause_counts(batch.cause), batch.bits, mism


def auto_round_plans(law: TranscriptLaw, gamma: float = 4.0) -> list[RoundPlan]:
    """Default slice plans from the per-round density spectra.

    The spectra read the law's shared round views, so a simulator built on
    the same law afterwards computes no view again.
    """
    def plan(t, side):
        return auto_slice_config(round_density_spectrum(law, t, side),
                                 gamma=gamma)
    return [RoundPlan(rx=plan(t, "rx"), tx=plan(t, "tx"))
            for t in range(1, law.n_rounds + 1)]


def round_density_spectrum(law: TranscriptLaw, t: int,
                           side: str) -> SpectrumTable:
    """Spectrum of -log2 P(round message | one party, history) at round t.

    ``side`` is "tx" for the speaking party and "rx" for the listener,
    aggregated over histories with their true probabilities.  The round
    views come from :meth:`TranscriptLaw.round_view`, computed once per law
    and shared with the slice plans, engines and budgets built on it.
    """
    own_is_x = (t % 2 == 1) == (side == "tx")
    vals, probs = [], []
    for hist in law.histories(t):
        view = law.round_view(t, hist)
        cond = view.p_m_given_x if own_is_x else view.p_m_given_y
        # the positive atoms (a, i, j) in row-major order; math.log2 per
        # atom, since np.log2 can differ from it in the last bit.  The
        # weight P(hist, x, y) P(m | hist, x, y) is positive only where the
        # second factor is, so only those entries are weighed
        a, i, j = np.nonzero(view.p_m_given_xy > 0)
        w = view.p_hist_xy[i, j] * view.p_m_given_xy[a, i, j]
        pos = w > 0
        a, i, j = a[pos], i[pos], j[pos]
        probs += w[pos].tolist()
        vals += [-math.log2(p)
                 for p in cond[i if own_is_x else j, a].tolist()]
    return SpectrumTable.from_atoms(vals, probs)
