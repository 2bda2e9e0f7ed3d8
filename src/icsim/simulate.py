"""Hash-based compression and interactive simulation engines.

Five engines of increasing strength:

1. ``SlepianWolfCoder``      one-shot compression of X against side information
2. ``InteractiveSWCoder``    multi-round compression with slice feedback
3. ``RoundSimulator``        one-round channel simulation with a shared seed
4. ``ImprovedRoundSimulator`` adds the transmitted slice index J
5. ``ProtocolSimulator``     round-by-round simulation of a full transcript law

Engines 2 and 4 subclass engine 3, on the identity view and with a
slice-index law of several indices (J = 0 alone on engines 2 and 3).
Engines 2 to 4 take one round view, as engine 5 reads each round: they
are one round of it, and each trial rule is one kernel vectorized over trials:
``_sw_kernel`` for engine 1, ``_round_kernel`` (pick M*, then
``_slice_search``, slice by slice over the trials still searching) for a
round of engines 2 to 5, over the candidate lists of its ``_RoundTables``:
the sender's supported messages and the receiver's messages in slice 1 or
more, one block per slice, and of its hash schedule
(``_HashSchedule``), never an engine.  Engines 2 to 5 walk their rounds
in one loop per mode, ``_trial_walk`` for trials and ``_exact_walk`` for
exact mode, and both write a round into their trial states with
``_write_back``.  Engine 1's trials (``_sw_trials``) give the same key
rows, as one round whose message is x, so one layer serves all five
engines: ``_walk_chunk`` counts a chunk of ``run_trials`` by its distinct
key rows, ``_walk_run`` is the scalar ``run``, and each engine's true and
exact view laws are key rows with their masses (``true_view_rows``,
``exact_view_rows``), which :mod:`icsim.evaluate` compares as integer
rows.  Engine 5 alone blanks a failed trial's messages (``_view_keys``);
each engine's ``views_of`` turns an array of key rows into their views, a
column at a time, and ``_canonical`` orders key rows as their views' reprs
sort, with no view built (``_key_law``).  Every exact mode walks one
linear part of each hash family, standing for its 2^L offsets (see
:mod:`icsim.hashing`); engine 1 keeps its own count loop over them.

The batch paths cut their trials in two units:

* a *chunk* is the unit of seed streams and of ``BATCH_BYTES``: chunk
  ``part`` of :func:`run_trials` takes all of its draws from the stream
  ``[master_seed, part]``, and one rule, :func:`_trial_chunk`, sizes every
  engine's chunks;
* a *block* is the unit of cache and threads: after a chunk's draws, its
  deterministic decode runs in blocks of rows of ``TRIAL_BLOCK_BYTES``
  (:func:`_in_blocks`), on up to two threads.

The decode is row-independent and draws nothing, so the results depend on
the seed alone, not on the block size or the number of threads.  The
plug-in bootstrap of :mod:`icsim.evaluate` runs its blocks there too.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import OutOfRange, TooLarge, check_bytes
from .hashing import (
    ENUMERATION_CAP,
    encode_universe,
    encoding_width,
    family_size,
    draw_bits,
    index_hasher,
    linear_blocks,
    pack_columns,
    pack_hashes,
)
from .probcore import (
    NORM_TOL,
    FiniteDistribution,
    JointSource,
    SliceConfig,
    SpectrumTable,
    _repr_key,
    auto_slice_config,
    density_ranks,
    log2_each,
)
from .protocol import RoundView, TranscriptLaw, speaker

ERROR_CAUSES = ("tail", "no_match", "multiple_match", "bad_J",
                "budget_exceeded")
# cause codes of the batch paths: 0 for no error, else 1 + ERROR_CAUSES index
_TAIL, _NO_MATCH, _MULTIPLE, _BAD_J, _BUDGET = range(1, len(ERROR_CAUSES) + 1)

#: most trials per chunk of the batch paths; each has its own seed stream
BATCH_CHUNK = 100_000
#: bytes per chunk that a trial kernel may allocate, as counted by
#: :func:`_kernel_bytes`; it cuts the chunks of every engine's batch path
BATCH_BYTES = 1 << 26
#: bytes per block of hash matrices that exact mode packs and decodes at
#: once, counted as BATCH_BYTES is; a block this small stays in cache, which
#: decodes faster than one BATCH_BYTES block and leaves the peak memory where
#: it was; it also bounds each array of one block of the plug-in bootstrap
#: in :mod:`icsim.evaluate`
EXACT_BLOCK_BYTES = 1 << 21
#: bytes per block of rows that a batch path decodes at once, counted by
#: :func:`_kernel_bytes`; a chunk's decode runs block by block, so its
#: temporaries stay this small per thread.  Blocks of half this size were
#: slower on two threads: more small numpy calls contend for the GIL
TRIAL_BLOCK_BYTES = 1 << 22
#: entries per chunk of the slice tables' scatter, which bounds its
#: temporaries
_SCATTER_CHUNK = 1 << 16
#: key rows per block of views that :func:`_key_law` makes at once
_VIEW_ROWS = 1 << 16
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
    """Counts of a batch of trials.

    ``keys`` holds the distinct key rows of the trials (see
    :func:`_exact_walk`) in the order they were first seen, and ``counts``
    the trials of each.  ``views`` counts the same trials by view, a
    ``Counter`` in that order, built from the rows by the engine's
    ``views_of`` on first use; the plug-in estimate reads the rows only.
    ``mismatches`` counts the trials whose view has tau_x != tau_y.  The
    round walks keep M* and the decode of a failed round, and only engine
    5 blanks a failed trial's messages (:func:`_view_keys`).  So a declared
    failure is a mismatch on engines 1 to 3 (tau_y is None, tau_x is not),
    on engine 4 except ``bad_J`` (M* and the decode are both None), and
    never on engine 5 (a failed view is ``(None, None, x, y)``).
    """
    trials: int
    keys: np.ndarray       # (V, 2 R + 2) distinct key rows
    counts: np.ndarray     # (V,) trials of each row
    bits: np.ndarray
    errors: Counter
    mismatches: int        # trials where tau_x != tau_y
    views_of: Callable = field(repr=False, compare=False)

    @cached_property
    def views(self) -> Counter:
        return Counter(dict(zip(self.views_of(self.keys),
                                self.counts.tolist())))

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
    ``[master_seed, part]`` and decodes in blocks of rows
    (:func:`_in_blocks`); :func:`_walk_chunk` counts it by its distinct
    key rows, and the chunks' rows merge in the order they are first seen.
    """
    chunk = engine.chunk
    keys, counts, bits = [], [], []
    errors: Counter = Counter()
    mism = 0
    # no trials still make one empty chunk, whose keys have the engine's
    # width
    for part, done in enumerate(range(0, max(trials, 1), chunk)):
        k, c, e, b, mm = _walk_chunk(engine, min(chunk, trials - done),
                                     [master_seed, part])
        keys.append(k)
        counts.append(c)
        errors.update(e)
        bits.append(b)
        mism += mm
    return TrialAggregate(trials, *_first_seen(keys, counts),
                          np.concatenate(bits), errors, mism, engine.views_of)


def _first_seen(keys: list, counts: list) -> tuple:
    """The distinct rows of the chunks' distinct rows ``keys``, in the
    order they are first seen, each with its ``counts`` summed: the order
    and counts of ``Counter.update`` over the chunks' views."""
    if len(keys) == 1:
        return keys[0], counts[0]
    rows = np.concatenate(keys)
    uniq, inverse, _ = _unique_rows(rows)
    first = np.full(len(uniq), len(rows))
    np.minimum.at(first, inverse, np.arange(len(rows)))
    total = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(total, inverse, np.concatenate(counts))
    order = np.argsort(first)
    return uniq[order], total[order]


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


def _in_blocks(decode, T: int, rows: int) -> tuple:
    """``decode(0, T)``, computed in blocks of ``rows`` rows.

    ``decode(a, b)`` returns a tuple of arrays with one entry per row
    ``a .. b - 1`` and depends on no other row; a block that draws takes
    its stream from ``a``.  Blocks run on :func:`_worker_count` threads and
    are concatenated in block order, so the outputs do not depend on the
    number of threads.  T <= ``rows`` runs inline.  The threads may call
    numpy and the module's kernel helpers only: tracers that wrap the
    public callables are not thread-safe.
    """
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


def _kernel_bytes(n: int, L: int, width: int) -> int:
    """Bytes that one trial (or exact row) of n message columns and L hash
    bits allocates in either trial kernel: the row's share of a chunk (seed
    streams, ``BATCH_BYTES``) and of a block (cache, threads).

    The (L, w + 1) uint8 hash block and its packed int64 columns; per
    column, six 8-byte numbers (hash, weight or message, running sum,
    receiver slice and two temporaries) and five bool masks; and 256 bytes
    for the trial's source pair, uniforms, bits, cause and view key.
    Chunks and exact blocks count all M messages; the trial decode of
    engines 2 to 5 counts the S + C columns of its candidate lists (see
    :func:`_round_step`), an upper bound: a trial hashes its S support
    columns and the block of each slice it reaches, not all C.  Engine 1's
    kernel allocates about a third of this per message.
    """
    return L * (width + 1) + 8 * (width + 1) + 53 * n + 256


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
    """-log2 of a conditional table, +inf where the mass is zero.

    The positive entries go through :func:`log2_each`, as the spectra that
    set the slice plans do, so an entry at a slice floor falls in the
    slice its spectrum atom falls in.
    """
    out = np.full(cond.shape, np.inf)
    live = cond > 0
    out[live] = -log2_each(cond[live])
    return out


def _slice_table(shape: tuple, cells: np.ndarray, density: tuple,
                 cfg: SliceConfig) -> np.ndarray:
    """The slice of -log2 of every entry of a conditional table of
    ``shape``: entry ``cells[n]`` (a flat index, repeats allowed) has the
    density ``values[rank[n]]`` of ``density = (values, rank)``, and every
    other entry, of zero mass, is in the tail slice 0.

    This is :meth:`SliceConfig.slice_of` on whole arrays, with the same
    float operations, once per distinct density; a round's tables are cut
    from the densities its spectra are made of, so an entry at a slice
    floor falls in the slice its spectrum atom falls in.
    """
    values, rank = density
    inside = (values >= cfg.lambda_min) & (values < cfg.lambda_max)
    i = (values - cfg.lambda_min) // cfg.delta + 1
    per = np.where(inside, np.minimum(i, cfg.n_slices), 0).astype(int)
    out = np.zeros(math.prod(shape), dtype=int)
    for a in range(0, cells.size, _SCATTER_CHUNK):
        out[cells[a:a + _SCATTER_CHUNK]] = per[rank[a:a + _SCATTER_CHUNK]]
    return out.reshape(shape)


def _party_slices(view, conds: tuple, party: int, cfg: SliceConfig,
                  shape: tuple | None = None) -> np.ndarray:
    """Party ``party``'s slices of ``cfg`` (:func:`_slice_table`), 0 for x
    and 1 for y, shaped as its table (or as ``shape``, of as many
    entries): ``conds`` are both parties' P(m | hist, own input) tables
    (..., n, U) of ``view``, a :class:`~icsim.protocol.RoundViews` or a
    one-history :class:`~icsim.protocol.RoundView`, whose densities at its
    atoms give the slices.  A view made by hand has none, and slices each
    positive entry of the party's table by its own density."""
    cond = conds[party]
    if view.densities is None:
        cells = np.flatnonzero(cond > 0)
        density = density_ranks(cond.ravel()[cells])
    else:
        h, u, i, j = (0,) * (5 - len(view.atoms)) + tuple(view.atoms[:-1])
        cells = (h * cond.shape[-2] + (i, j)[party]) * cond.shape[-1] + u
        density = view.densities[party]
    return _slice_table(shape or cond.shape, cells, density, cfg)


def _int_param(value: float, name: str) -> int:
    iv = int(round(value)) if math.isfinite(value) else 0
    if abs(value - iv) > 1e-9 or iv <= 0:
        raise OutOfRange(f"{name} must be a positive integer number of bits")
    return iv


@dataclass(frozen=True)
class _HashSchedule:
    """A round's messages, receiver slicing and hash lengths: ``l`` bits
    for slice 1, ``delta`` per further slice, over ``width``-bit codes."""
    messages: tuple
    cfg_rx: SliceConfig
    l: int
    delta: int
    n_slices: int
    total_hash_bits: int
    width: int
    chunk: int

    @classmethod
    def of(cls, messages: Sequence, cfg_rx: SliceConfig,
           l: int | None = None) -> _HashSchedule:
        """``l`` defaults to ``ceil(lambda_min + delta + gamma)``."""
        delta = _int_param(cfg_rx.delta, "delta")
        if l is None:
            l = math.ceil(cfg_rx.lambda_min + cfg_rx.delta + cfg_rx.gamma
                          - 1e-9)
        l = _int_param(l, "l")
        total = l + (cfg_rx.n_slices - 1) * delta
        if total > 62:
            raise OutOfRange("hash budget exceeds 62 bits")
        width = encoding_width(len(messages))
        return cls(tuple(messages), cfg_rx, l, delta, cfg_rx.n_slices, total,
                   width, _trial_chunk(len(messages), total, width))

    def pos_at(self, i: int) -> int:
        return self.l + (i - 1) * self.delta


class _OneRound:
    """Engines 1 to 4 as the trial layer reads them: one round, whose key
    rows ``(M*, decoded, x, y)`` :meth:`views_of` reads over ``messages``.

    Engines 2 to 4 (engine 3 and its subclasses) are this class: one
    ``table`` and no bit budget.  Engine 1 borrows ``views_of`` alone, its
    messages being the x values, and has no table."""
    l_max = math.inf

    @property
    def tables(self) -> list:
        return [self.table]

    def views_of(self, keys: np.ndarray) -> list:
        """The views ``(M*, decoded, x, y)`` of the key rows ``keys`` of
        the walks, in order, a column at a time; a message index of -1 is
        None."""
        msgs = _objects(self.messages)
        return list(zip(msgs[keys[:, 0]], msgs[keys[:, 1]],
                        _objects(self.source.x_alphabet)[keys[:, 2]],
                        _objects(self.source.y_alphabet)[keys[:, 3]]))

    def _key_columns(self) -> tuple:
        """Each key column as :func:`_repr_ranks` reads it: its symbols
        and whether None (key -1) ranks by its repr.  M* and the decode
        are None on some failures; x and y never are."""
        msgs = (self.messages, True)
        return (msgs, msgs, (self.source.x_alphabet, False),
                (self.source.y_alphabet, False))


def _objects(items: Sequence) -> np.ndarray:
    """An object array of ``items`` with a trailing None, so that index -1
    reads None."""
    out = np.empty(len(items) + 1, dtype=object)
    for n, item in enumerate(items):
        out[n] = item
    return out


# ---------------------------------------------------------------------------
# engine 1: one-shot compression
# ---------------------------------------------------------------------------


class SlepianWolfCoder:
    """Hash X down to l bits; decode inside a typical set.

    The decoding set at y is { x : -log2 P(x|y) <= l - gamma } and the
    analytic error bound is Pr[(X, Y) atypical] + 2^{-gamma}.
    """

    def __init__(self, source: JointSource, l: int, gamma: float):
        self.source = source
        self.messages = source.x_alphabet
        self.l = _int_param(l, "l")
        if self.l > 62:
            raise OutOfRange("hash length l exceeds 62 bits")
        if not (gamma >= 0 and math.isfinite(gamma)):
            raise OutOfRange(f"gamma must be finite and nonnegative, got "
                             f"{gamma!r}")
        self.gamma = float(gamma)
        nx, ny = source.mass.shape
        # 72 B a cell at the peak: the conditional and its quotient, the
        # densities with log2_each's sort of them, and the typical set
        check_bytes(72 * nx * ny,
                    f"engine 1's density tables of {nx:,} x {ny:,} inputs")
        self.h_q = _conditional_density(source.p_x_given_y)
        self.typical = self.h_q <= self.l - self.gamma + 1e-12
        self.width = encoding_width(len(source.x_alphabet))
        self.enc = encode_universe(len(source.x_alphabet), self.width)
        self.chunk = _trial_chunk(len(source.x_alphabet), self.l, self.width)

    views_of = _OneRound.views_of
    _key_columns = _OneRound._key_columns

    def analytic_error_bound(self) -> float:
        atyp = float(self.source.mass[~self.typical].sum())
        return atyp + 2.0 ** (-self.gamma)

    def run(self, rng, x=None, y=None) -> SimOutcome:
        return _walk_run(self, rng, x, y)

    # -- exact enumeration ---------------------------------------------------

    def exact_atom_count(self) -> int:
        """Size of the seed space ``exact_view_law`` averages over: every
        live (x, y) and hash family.  It decodes 2^-l of them, one per
        linear part; ``ENUMERATION_CAP`` applies to this count."""
        live = int((self.source.mass > 0).sum())
        return live * family_size(self.width, self.l)

    def exact_view_law(self) -> FiniteDistribution:
        return _key_law(self, self.exact_view_rows)

    def exact_view_rows(self) -> tuple:
        """Decode every live (x, y) against every hash family.

        The decode tests h(x') = h(x), where the offset cancels, so only the
        linear parts are walked, in blocks of :func:`linear_blocks`, each
        packed once and decoded against all live pairs in one kernel call;
        each stands for its 2^l families.  A view's probability is its
        pair's mass times the number of families that produce it over the
        family size.  Returns the key rows, as the round walks' are read,
        with their masses, in the order of :func:`_canonical`.
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
        # one key row (x, decoded, x, y) per (pair, decoded); the float
        # operations of mass * count / n_fam, one atom at a time
        p, d = np.nonzero(counts)
        i, j = live_i[p], live_j[p]
        probs = self.source.mass[i, j] * counts[p, d].astype(float) / n_fam
        return _canonical(self, np.array([i, d - 1, i, j]).T, probs)

    def true_view_law(self) -> FiniteDistribution:
        return _key_law(self, self.true_view_rows)

    def true_view_rows(self) -> tuple:
        """The key rows ``(x, x, x, y)`` of every live pair with its mass,
        in the order of :func:`_canonical`."""
        i, j = np.nonzero(self.source.mass > 0)
        return _canonical(self, np.array([i, i, i, j]).T,
                          self.source.mass[i, j])


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
    # match.sum(axis=1), about three times faster on rows of few messages
    cnt = np.einsum("ij->i", match, dtype=np.int64)
    decoded = np.where(cnt == 1, match.argmax(axis=1), -1)
    cause = np.where(cnt > 1, _MULTIPLE,
                     np.where(cnt == 1, 0, np.where(typical[rows, xi],
                                                    _NO_MATCH, _TAIL)))
    return decoded, cause


def _sw_trials(coder: SlepianWolfCoder, rng, T: int,
               pairs=None) -> _TrialBatch:
    """T trials of engine 1 from ``rng``, as :func:`_trial_walk` gives
    those of engines 2 to 5: the source pairs (unless ``pairs`` gives their
    indices), then the hash blocks, decoded by :func:`_sw_kernel` in blocks
    of rows.  A trial is one round whose message is x: its key row is
    ``(x, decoded, x, y)``, it costs l bits and ends in slice 1."""
    xi, yj = coder.source.sample(rng, size=T) if pairs is None else pairs
    blocks = draw_bits(rng, (T, coder.l, coder.width + 1))

    def decode(a, b):
        return _sw_kernel(coder, xi[a:b], yj[a:b],
                          pack_hashes(blocks[a:b], coder.enc))

    decoded, cause = _in_blocks(decode, T, max(1, TRIAL_BLOCK_BYTES // (
        _kernel_bytes(len(coder.source.x_alphabet), coder.l, coder.width))))
    return _TrialBatch(np.column_stack([xi, decoded, xi, yj]),
                       np.full(T, coder.l, dtype=np.int64), cause,
                       (cause == 0).astype(np.int64),
                       np.ones(T, dtype=np.int64))


# ---------------------------------------------------------------------------
# engine 3: one-round simulation with a shared seed
# ---------------------------------------------------------------------------


class RoundSimulator(_OneRound):
    """Simulate one message M ~ P(.|X) so the receiver learns it too.

    The round's :class:`~icsim.protocol.RoundView`, such as
    ``law.round_view(1, ())``, gives the messages, the sender's P(M | X),
    the receiver's P(M | Y), which ``cfg_rx`` slices, and the prior.  The
    transmitter samples M conditioned on the first k hash bits agreeing
    with the shared uniform string, then finishes the transmission with the
    interactive coder; the first k hash bits are never sent.  The first
    slice needs ``l`` hash bits, ``ceil(lambda_min + delta + gamma)`` of
    the receiver's slicing unless given.  The one ``table`` is built here;
    with no transmitter slicing ``cfg_tx`` (engines 2 and 3), J = 0 alone.
    """
    cfg_tx = None

    def __init__(self, source: JointSource, view: RoundView,
                 cfg_rx: SliceConfig, k: int | None, l: int | None = None):
        self.source = source
        self.messages = tuple(view.messages)
        self.p_m_given_x = np.asarray(view.p_m_given_x, dtype=float)
        self.p_m_given_y = np.asarray(view.p_m_given_y, dtype=float)
        prior = np.asarray(view.prior, dtype=float)
        (nx, ny), M = source.mass.shape, len(self.messages)
        if (self.p_m_given_x.shape, self.p_m_given_y.shape) != ((nx, M),
                                                                (ny, M)):
            raise OutOfRange("round view conditionals have the wrong shape")
        # rows at x values of zero mass are never read, and may be zero
        live = source.p_x > 0
        rows = self.p_m_given_x if live.all() else self.p_m_given_x[live]
        if not ((rows >= 0).all()  # NaN fails too
                and (np.abs(rows.sum(axis=1) - 1.0) <= NORM_TOL).all()):
            raise OutOfRange("message channel rows must be distributions "
                             "at every x of positive mass")
        if prior.shape != (nx,) or not (
                (prior >= 0).all() and abs(prior.sum() - 1.0) <= NORM_TOL):
            raise OutOfRange("the view's prior must be a law on the x values")
        self.cfg_rx = cfg_rx
        self.schedule = s = _HashSchedule.of(self.messages, cfg_rx, l)
        self.l, self.delta, self.n_slices = s.l, s.delta, s.n_slices
        self.total_hash_bits, self.width, self.chunk = (
            s.total_hash_bits, s.width, s.chunk)
        conds = (self.p_m_given_x, self.p_m_given_y)
        # (M, ny), a view of the (ny, M) table that the round tables read
        self.slice_rx = _party_slices(view, conds, 1, cfg_rx).T
        self.table = _RoundTables.build(
            s, self.p_m_given_x[None], self.slice_rx.T[None],
            None if self.cfg_tx is None else _party_slices(
                view, conds, 0, self.cfg_tx, (1, nx, M)),
            prior[None], self.cfg_tx, k)

    @property
    def k(self) -> int:
        """The shared prefix length of the slice index J = 0."""
        return int(self.table.k_of[0])

    @cached_property
    def joint_my(self) -> np.ndarray:
        """Joint table P(M, Y) with messages on rows: P(m | x) P(x, y)
        summed over x in order, from the nonzero P(m | x) only (a zero
        term changes no bit), a block of them at a time."""
        M, ny = len(self.messages), self.source.mass.shape[1]
        x, m = np.nonzero(self.p_m_given_x)
        out = np.zeros(M * ny)
        cols = np.arange(ny)
        step = max(1, (1 << 16) // ny)
        for a in range(0, x.size, step):
            xb, mb = x[a:a + step], m[a:a + step]
            np.add.at(out, (mb * ny)[:, None] + cols,
                      self.p_m_given_x[xb, mb][:, None] * self.source.mass[xb])
        return out.reshape(M, ny)

    pos_at = _HashSchedule.pos_at

    def tail_mass(self) -> float:
        """Probability that (M, Y) falls in the receiver tail slice."""
        return float(self.joint_my[self.slice_rx == 0].sum())

    def joint_mx(self) -> np.ndarray:
        """Joint table P(M, X) with messages on rows."""
        return (self.p_m_given_x * self.source.p_x[:, None]).T

    def run(self, rng, x=None, y=None) -> SimOutcome:
        return _walk_run(self, rng, x, y)

    def exact_view_law(self) -> FiniteDistribution:
        return _key_law(self, self.exact_view_rows)

    def exact_view_rows(self) -> tuple:
        return _walk_rows(self)

    def true_view_law(self) -> FiniteDistribution:
        return _key_law(self, self.true_view_rows)

    def true_view_rows(self) -> tuple:
        """The key rows ``(m, m, x, y)`` of each live pair (x, y) with each
        message x sends, from the table's support, with their masses, in
        the order of :func:`_canonical`."""
        mass = self.source.mass
        sup, p, _ = (a[0] for a in self.table.support)
        i, j = np.nonzero(mass > 0)
        pair, slot = np.nonzero((p > 0)[i])
        i, j = i[pair], j[pair]
        m = sup[i, slot]
        return _canonical(self, np.array([m, m, i, j]).T,
                          mass[i, j] * p[i, slot])


# ---------------------------------------------------------------------------
# engine 2: interactive compression
# ---------------------------------------------------------------------------


class InteractiveSWCoder(RoundSimulator):
    """Slice-by-slice compression of X with one-bit feedback per slice.

    First l hash bits, then one delta-bit hash block per extra slice; the
    receiver searches slice i after i blocks and answers ACK or NACK.  A
    trial terminating in slice i costs exactly l + (i - 1) delta + i bits.

    This is engine 3 at k = 0 on the identity view: the x values as
    messages, the identity as P(M | X), P(x | y) as P(M | Y) (which the
    source's spectrum reads) and P(x) as prior.
    """

    def __init__(self, source: JointSource, cfg: SliceConfig,
                 l: int | None = None):
        i, j = np.nonzero(source.mass > 0)
        view = RoundView(source.x_alphabet, np.eye(len(source.x_alphabet)),
                         source.p_x_given_y.T, source.p_x,
                         (i, i, j, source.mass[i, j]))
        super().__init__(source, view, cfg, 0, l=l)

    def analytic_error_bound(self) -> float:
        return self.tail_mass() + self.n_slices * 2.0 ** (-self.cfg_rx.gamma)

    def bits_for_slice(self, i: int) -> int:
        return self.pos_at(i) + i

    run = RoundSimulator.run
    exact_view_law = RoundSimulator.exact_view_law
    true_view_law = RoundSimulator.true_view_law


# ---------------------------------------------------------------------------
# engine 4: one-round simulation with a transmitted slice index
# ---------------------------------------------------------------------------


class ImprovedRoundSimulator(RoundSimulator):
    """Round simulation where the transmitter reveals its own density slice.

    The slice index J of -log2 P(M|x) is sampled and sent with
    ceil(log2 N) + 1 bits; indices of small prior mass are rejected outright.
    Knowing J certifies enough min-entropy to share k(J) hash bits for free.

    This is engine 3 whose ``table`` carries the slice-index law of
    ``cfg_tx``, built as engine 5 builds a round; the public tables
    (``slice_tx`` is (M, nx)) are views of it.  The shared prefix is
    ``k_of(J)``, ``k_override`` at every J if given.  The view's prior
    weighs ``p_j`` and so decides which indices are ``good``.
    """

    def __init__(self, source: JointSource, view: RoundView,
                 cfg_rx: SliceConfig, cfg_tx: SliceConfig,
                 k_override: int | None = None):
        self.cfg_tx = cfg_tx
        super().__init__(source, view, cfg_rx, k_override)
        tab = self.table
        self.slice_tx, self.p_j_given_x, self.p_j, self.good = (
            tab.slice_tx[0].T, tab.p_j_given_x[0], tab.p_j[0], tab.good[0])
        self.k_table, self.j_cost = tab.k_of, tab.j_cost

    def k_of(self, j: int) -> int:
        return int(self.k_table[j])

    def tail_mass_tx(self) -> float:
        return float(self.p_j[0])

    run = RoundSimulator.run
    exact_view_law = RoundSimulator.exact_view_law
    true_view_law = RoundSimulator.true_view_law


def _tx_tables(p_m: np.ndarray, slice_tx: np.ndarray | None,
               cfg_tx: SliceConfig | None, prior: np.ndarray | None):
    """``(slice_tx, p_j_given_x, p_j, good, j_cost)`` of message laws
    ``p_m`` (..., n_x, M) whose messages fall in the slices ``slice_tx``
    of ``cfg_tx`` (shaped as ``p_m``), under input priors ``prior``
    (..., n_x), leading axes carried through: the slices, P(J | x) summed
    over messages in order, the law of J, the accepted indices (mass at
    least 1 / n_tx^2, never the tail index 0) and the bits that send J.
    With ``cfg_tx`` None, J = 0 always: every message in slice 0,
    accepted, sent in no bits; ``slice_tx`` and ``prior`` are unread."""
    if cfg_tx is None:
        one = np.ones(p_m.shape[:-1] + (1,))
        return (np.zeros(p_m.shape, dtype=int), one, one[..., 0, :],
                one[..., 0, :] > 0, 0)
    n_tx = cfg_tx.n_slices
    # one bincount over the C-order (..., x, J) index: it adds each bin's
    # terms in message order from 0.0, as np.add.at would
    rows = math.prod(p_m.shape[:-1])
    flat = (np.arange(rows) * (n_tx + 1)).repeat(p_m.shape[-1])
    flat += slice_tx.ravel()
    p_j_given_x = np.bincount(
        flat, weights=p_m.ravel(), minlength=rows * (n_tx + 1)
    ).reshape(p_m.shape[:-1] + (n_tx + 1,))
    p_j = (np.swapaxes(p_j_given_x, -1, -2) @ prior[..., None])[..., 0]
    good = p_j >= 1.0 / n_tx ** 2 - 1e-12
    good[..., 0] = False
    j_cost = math.ceil(math.log2(max(n_tx, 2))) + 1
    return slice_tx, p_j_given_x, p_j, good, j_cost


def _k_table(cfg_tx: SliceConfig | None, gamma: float, total_hash_bits: int,
             k: int | None) -> np.ndarray:
    """Shared prefix length k(J), J = 0 .. n_tx: ``k``, an integer in
    [0, total_hash_bits], else lambda_min + (J - 1) delta - 2 log2 n_tx
    - 2 gamma + 2, floored and clipped to that range.  With ``cfg_tx``
    None, J = 0 alone and ``k`` is required."""
    n_j = 1 if cfg_tx is None else cfg_tx.n_slices + 1
    if k is not None or cfg_tx is None:
        if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                and 0 <= k <= total_hash_bits):
            raise OutOfRange(f"the shared prefix length must be an integer "
                             f"in [0, {total_hash_bits}], the round's hash "
                             f"budget; got {k!r}")
        return np.full(n_j, k, dtype=np.int64)
    raw = (cfg_tx.lambda_min + (np.arange(n_j) - 1) * cfg_tx.delta
           - 2 * math.log2(cfg_tx.n_slices) - 2 * gamma + 2)
    return np.clip(np.floor(raw), 0, total_hash_bits).astype(np.int64)


def _pick_slice(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index per trial from cumulative weight rows and uniforms: the slice
    index J from P(J | x), and M*'s slot from :func:`_mstar_cum`.

    As ``np.searchsorted(row, u * row[-1], side="right")`` on each row: the
    first index whose cumulative mass exceeds u times the total, so one of
    positive mass.
    """
    return (cum_rows <= u[:, None] * cum_rows[:, -1:]).sum(axis=1)


def _round_kernel(tab: _RoundTables, sup: np.ndarray, p_sup: np.ndarray,
                  restrict: np.ndarray, r: np.ndarray, k_t: np.ndarray,
                  blocks: np.ndarray, u: np.ndarray, u_m: np.ndarray):
    """One simulated round for T trials on the tables ``tab``; draws
    nothing itself.

    Per trial, the speaker's row of the round's support list
    (:attr:`_RoundTables.support`): the supported messages ``sup`` (T, S)
    with their weights ``p_sup`` and the ``restrict`` mask of the slice
    index; the listener's row ``r`` of ``tab``'s flat (history, symbol)
    rows; then the shared-prefix length ``k_t``, the hash block (L, w + 1)
    of ``blocks``, the shared string ``u`` (masked to k bits here) and the
    uniform ``u_m`` that picks M*.  Only the S support columns are hashed
    here.  M* is the message of the first slot whose cumulative weight in
    :func:`_mstar_cum` exceeds u_m times the total (:func:`_pick_slice`);
    :func:`_slice_search` decodes it, hashing only the candidates of the
    slices each trial reaches.  Returns ``(m_star,) +`` its result, in
    message indices.
    """
    hashes = index_hasher(pack_columns(blocks))
    rows = np.arange(sup.shape[0])
    h = hashes(rows, sup)
    u = u & ((np.int64(1) << k_t) - 1)
    slot = _pick_slice(_mstar_cum(p_sup, restrict, h, k_t, u), u_m)
    m_star = sup[rows, slot]
    return (m_star,) + _slice_search(tab, r, m_star, h[rows, slot], hashes,
                                     k_t, u)


def _mstar_cum(p_sup: np.ndarray, restrict: np.ndarray, h: np.ndarray,
               k_t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cumulative weights (T, S) of M* over the slots of the transmitter's
    support list, the rule both :func:`_round_kernel` and
    :func:`_exact_walk` read: P(m|x) ``p_sup`` over the slots of
    ``restrict`` whose hash ``h`` starts with the shared string ``u`` of
    ``k_t`` bits (already masked to them), summed in message order.  A
    zero term changes no float, so each slot's sum is the sum over all
    messages up to its own.  A row with no such slot steps from 0 to 1 at
    its fallback: the first supported slot of the restriction, else slot
    0, which on a row with no support is message 0, the padding.  J is
    drawn from the slices of supported messages, so a row with support
    always has one in its restriction.  M* is the message of slot s with
    probability (cum[s] - cum[s - 1]) / cum[-1]."""
    mask_t = (np.int64(1) << k_t) - 1
    prefix_ok = (h & mask_t[:, None]) == u[:, None]
    cum = np.cumsum(p_sup * (prefix_ok & restrict), axis=1)
    empty = np.flatnonzero(cum[:, -1] <= 0.0)
    if empty.size:
        fb = restrict[empty] & (p_sup[empty] > 0)
        first = np.where(fb.any(axis=1), np.argmax(fb, axis=1), 0)
        cum[empty] = np.arange(cum.shape[1]) >= first[:, None]
    return cum


def _slice_search(tab: _RoundTables, r: np.ndarray, m_star: np.ndarray,
                  h_star: np.ndarray, hashes, k_t: np.ndarray,
                  u: np.ndarray):
    """The receiver's slice-by-slice search for T trials, given M*, on the
    tables ``tab``; both walks call it.

    ``r`` is each trial's listener row of ``tab``'s flat (history,
    symbol) rows, ``m_star`` is M* and ``h_star`` its packed hash;
    ``hashes(trials, idx)`` gives the packed hashes of the messages
    ``idx`` under the hash blocks of ``trials`` (see
    :func:`~icsim.hashing.index_hasher`).  The receiver holds the shared
    string ``u`` of ``k_t`` bits in place of M*'s first hash bits.  After
    i hash blocks it matches the first ``pos_at(i)`` bits in its slice i,
    the block of slice i of its candidate list
    (:attr:`_RoundTables.candidates`), hashed for the trials still
    searching only; a padding column, -1, hashes as some message and
    never matches.  One match is an ACK, several after the first slice
    are declared.  A trial that matches in no slice is a tail when M* is
    in the receiver's slice 0, else a no match.  Returns ``(decoded,
    cause, bits, hit)``: the decoded message (-1 on a declared failure),
    the cause code, the bits sent past the shared prefix plus
    ``tab.j_cost``, and the terminating slice.
    """
    inner = tab.inner
    cand, starts = tab.candidates
    cand = cand.reshape(-1, cand.shape[-1])
    T = r.size
    received = (h_star & ~((np.int64(1) << k_t) - 1)) | u
    decoded = np.full(T, -1, dtype=np.int64)
    hit = np.full(T, inner.n_slices, dtype=np.int64)
    cause = np.zeros(T, dtype=np.int64)
    # the trials still searching
    live = np.arange(T)
    for s in range(1, inner.n_slices + 1):
        a, b = starts[s - 1], starts[s]
        if a == b:
            continue
        c = cand[:, a:b].take(r[live], axis=0)
        mask_pos = (1 << inner.pos_at(s)) - 1
        match = (c >= 0) & ((
            (hashes(live, c) ^ received[live, None]) & mask_pos) == 0)
        cnt = np.einsum("ij->i", match, dtype=np.int64)
        done = cnt == 1
        decoded[live[done]] = c[np.flatnonzero(done),
                                match.argmax(axis=1)[done]]
        if s > 1:
            cause[live[cnt > 1]] = _MULTIPLE
            done |= cnt > 1
        hit[live[done]] = s
        live = live[~done]
        if not live.size:
            break
    # an unmatched M* is a tail unless it is in the receiver's slice 1 or
    # more
    rx = tab.slice_rx.reshape(-1, tab.slice_rx.shape[-1])
    cause[live] = np.where(rx[r[live], m_star[live]] >= 1, _NO_MATCH, _TAIL)
    pos_hit = inner.l + (hit - 1) * inner.delta
    bits = np.maximum(0, pos_hit - k_t) + hit + tab.j_cost
    return decoded, cause, bits, hit


def _draw_prefix(rng, k_t: np.ndarray) -> np.ndarray:
    """Shared strings: one draw of max(k_t) bits per trial, or zeros."""
    k_max = int(k_t.max()) if k_t.size else 0
    if not k_max:
        return np.zeros(k_t.size, dtype=np.int64)
    return rng.integers(0, 1 << k_max, size=k_t.size, dtype=np.int64)


def _round_step(tab: _RoundTables, rng, tx: tuple, rx: tuple, blocks=None):
    """One round of T trials on the tables ``tab``; returns ``(m_star,
    decoded, cause, bits, hit)``.

    ``tx`` and ``rx`` index the transmitter's and the receiver's table rows
    by per-trial (history, symbol) arrays.  Draw order: the hash blocks
    (unless given), the J uniforms (none for a law of one index, where
    :func:`_pick_slice` is 0), the shared strings and the M* uniforms.
    J is picked on the running sum of each trial's row of
    ``p_j_given_x``, which a cumulative sum along the table's index axis
    gives bit for bit.
    :func:`_round_kernel` decodes block by block, on the rows
    ``support[tx]`` with restrictions ``slice == J`` and the listener rows
    ``rx``; a block's rows are sized by the candidate width S + C, an
    upper bound on the columns a trial hashes.  A rejected J costs
    ``j_cost`` bits, with M* and the decode -1 and the hit 0.
    """
    inner = tab.inner
    T = tx[-1].size
    # each trial's table rows, flat (history, symbol) indices
    ti = tx[0] * tab.p_m.shape[1] + tx[1]
    ri = rx[0] * tab.slice_rx.shape[1] + rx[1]
    if blocks is None:
        blocks = draw_bits(rng, (T, inner.total_hash_bits, inner.width + 1))
    p_j = tab.p_j_given_x
    jj = (_pick_slice(np.cumsum(_rows(p_j, ti), axis=1), rng.random(T))
          if p_j.shape[-1] > 1 else np.zeros(T, dtype=np.int64))
    k_t = tab.k_of[jj]
    u = _draw_prefix(rng, k_t)
    u_m = rng.random(T)
    sup, p_sup, slc_tx = tab.support
    S, C = sup.shape[-1], tab.candidates[0].shape[-1]

    def decode(a, b):
        t = ti[a:b]
        return _round_kernel(tab, _rows(sup, t), _rows(p_sup, t),
                             _rows(slc_tx, t) == jj[a:b, None], ri[a:b],
                             k_t[a:b], blocks[a:b], u[a:b], u_m[a:b])

    m_star, decoded, cause, bits, hit = _in_blocks(
        decode, T, max(1, TRIAL_BLOCK_BYTES // _kernel_bytes(
            S + C, inner.total_hash_bits, inner.width)))
    bad = ~tab.good[tx[0], jj]
    m_star[bad] = decoded[bad] = -1
    cause[bad] = _BAD_J
    bits[bad] = tab.j_cost
    hit[bad] = 0
    return m_star, decoded, cause, bits, hit


def _rows(table: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Rows ``i`` of a (H, n, k) table, flat (history, symbol) indices:
    ``np.take``, an order of magnitude faster than indexing by the pair
    of arrays on small tables."""
    return table.reshape(-1, table.shape[-1]).take(i, axis=0)


@dataclass(frozen=True)
class _TrialBatch:
    """Per-trial results of :func:`_trial_walk` and :func:`_sw_trials`:
    the key rows (see :func:`_exact_walk`), the bits, the cause, the rounds
    completed and the terminating slice of the last round run."""
    keys: np.ndarray    # (T, 2 R + 2)
    bits: np.ndarray    # (T,)
    cause: np.ndarray   # (T,)
    rounds: np.ndarray  # (T,)
    hit: np.ndarray     # (T,)


def _trial_walk(engine, rng, T: int, blocks=None,
                pairs=None) -> _TrialBatch:
    """T trials of engines 2 to 5 over ``engine.tables``, every draw taken
    from ``rng``; :func:`_exact_walk` is their exact mode.

    Draw order: the T source pairs, then per round, for the trials still
    running, :func:`_round_step`'s draws: the hash blocks, the J uniforms,
    the shared strings and the M* uniforms.  ``pairs`` gives the x and y
    indices instead of the source draw, and ``blocks`` replaces the hash
    draws with one (T, L, w + 1) array per round, indexed by trial.  A
    trial is a state row as in :func:`_exact_walk`, then its rounds done
    and last hit; :func:`_write_back` writes each round into it.  The keys
    are left as :func:`_view_keys` leaves them.
    """
    tables = engine.tables
    xi, yj = engine.source.sample(rng, size=T) if pairs is None else pairs
    R = len(tables)
    K = 2 * R + 2
    # trials on rows, each column contiguous
    state = np.zeros((K + 6, T), dtype=np.int64).T
    state[:, :2 * R] = -1
    state[:, 2 * R], state[:, 2 * R + 1] = xi, yj
    for t, tab in enumerate(tables, start=1):
        tx = speaker(t)
        rx = 1 - tx
        # every trial runs round 1, on a view of the states; a later round
        # copies the running ones out and back
        live = slice(None) if t == 1 else np.flatnonzero(state[:, K + 3] == 0)
        rows = state[live]
        m_star, decoded, cause, bits, rows[:, K + 5] = _round_step(
            tab, rng, (rows[:, K + tx], rows[:, 2 * R + tx]),
            (rows[:, K + rx], rows[:, 2 * R + rx]),
            None if blocks is None else blocks[t - 1][live])
        # one more round done for each trial that completed this one
        rows[:, K + 4] += _write_back(rows, R, t, tab, m_star, decoded,
                                      cause, bits, engine.l_max)
        if t > 1:
            state[live] = rows
    return _TrialBatch(_view_keys(engine, state[:, :K], state[:, K + 3]),
                       state[:, K + 2], state[:, K + 3], state[:, K + 4],
                       state[:, K + 5])


def _write_back(rows: np.ndarray, R: int, t: int, tab: _RoundTables,
                m_star: np.ndarray, decoded: np.ndarray, cause: np.ndarray,
                bits: np.ndarray, l_max: float) -> np.ndarray:
    """Write round t of R into the trial states ``rows``, laid out as in
    :func:`_exact_walk`; both walks call this.

    M* goes into the speaker's keys and the decode into the listener's,
    also when the round failed.  The bits are added, and a trial past
    ``l_max`` fails as budget_exceeded; then the cause is written.  A
    trial that completed the round moves both parties to their next
    histories, and an unknown one ends it as no_match.  Returns the mask
    of the trials that completed the round.
    """
    K = 2 * R + 2
    tx = speaker(t)
    rx = 1 - tx
    rows[:, tx * R + t - 1] = m_star
    rows[:, rx * R + t - 1] = decoded
    rows[:, K + 2] += bits
    cause[(cause == 0) & (rows[:, K + 2] > l_max)] = _BUDGET
    done = cause == 0
    if tab.next is not None:
        for party, m in ((tx, m_star), (rx, decoded)):
            rows[done, K + party] = tab.next[rows[done, K + party], m[done]]
        cause[done & ((rows[:, K + tx] < 0) | (rows[:, K + rx] < 0))] = \
            _NO_MATCH
    rows[:, K + 3] = cause
    return done


def _index_pair(source: JointSource, x, y):
    """The source indices of (x, y), as one-trial arrays."""
    return np.array([source.x_index[x]]), np.array([source.y_index[y]])


def _packed(cols, sizes) -> list:
    """Integer columns ``cols``, column c in [0, ``sizes[c]``), packed in
    mixed radix, in order, into as few int64 codes as hold them, so that
    rows compare as their codes do, lexicographically."""
    codes, room = [], 0
    for col, n in zip(cols, sizes):
        if codes and room * n <= 1 << 63:
            codes[-1] = codes[-1] * n + col
            room *= n
        else:
            codes.append(col)
            room = n
    return codes


def _code_order(codes: list) -> np.ndarray:
    """The order that sorts rows by their codes of :func:`_packed`: one
    ``np.lexsort``, an ``np.argsort`` when one code holds them, as on the
    keys of the one-round engines."""
    return (np.argsort(codes[0]) if len(codes) == 1
            else np.lexsort(codes[::-1]))


def _unique_rows(keys: np.ndarray):
    """``(uniq, inverse, counts)`` of the rows of the 2-D integer array
    ``keys``: the values and order of
    ``np.unique(keys, axis=0, return_inverse=True, return_counts=True)``
    (rows in ascending lexicographic order), sorted by their codes of
    :func:`_packed`."""
    lo = keys.min(axis=0, initial=0)
    codes = _packed(keys.T - lo[:, None],
                    (keys.max(axis=0, initial=0) - lo + 1).tolist())
    order = _code_order(codes)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for c in codes:
        c = c[order]
        first[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(first)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return (keys[order[starts]], inverse,
            np.diff(np.append(starts, len(order))))


def _merge_rows(rows: np.ndarray, p: np.ndarray):
    """The distinct rows of ``rows``, each with its terms of ``p`` summed
    in row order."""
    uniq, inverse, _ = _unique_rows(rows)
    return uniq, np.bincount(inverse, weights=p, minlength=len(uniq))


def _exact_walk(tables: Sequence[_RoundTables], source: JointSource,
                l_max: float = math.inf):
    """Every outcome of :func:`_round_step` chained over ``tables``, with
    its probability: exact mode of engines 2 to 5.

    A forward pass over trial states, one per live (x, y) to start, each
    with its mass.  A state row holds the keys (party x's message index for
    every round, then party y's, then the x and y source indices), both
    parties' history codes, the bits sent and the cause code; the trials
    keep the same rows (:func:`_trial_walk`), and :func:`_write_back` writes
    a round into them in both.  Round t splits every running state by its
    slice index J, with the probability :func:`_pick_slice` draws it from
    the running sum of ``p_j_given_x``; by each linear part of the round's
    hash family, standing for its 2^L offsets (:mod:`icsim.hashing`); by
    each shared string u of k(J) bits; and by each M* of positive weight in
    :func:`_mstar_cum`.  It decodes in blocks of linear parts with
    :func:`_slice_search`, over the tables' candidate lists as the trials
    do, and equal states merge, so rounds add up rather than multiply.
    Before decoding anything it bounds every round's rows
    (:func:`_check_rows`).

    Returns ``(keys, cause, p)``: keys hold each round's M* and decode,
    also in a round that failed, and -1 where unset.
    """
    R = len(tables)
    K = 2 * R + 2
    live_i, live_j = np.nonzero(source.mass > 0)
    _check_rows(tables, live_i.size)
    state = np.zeros((live_i.size, K + 4), dtype=np.int64)
    state[:, :2 * R] = -1
    state[:, 2 * R], state[:, 2 * R + 1] = live_i, live_j
    p = source.mass[live_i, live_j]
    for t, tab in enumerate(tables, start=1):
        tx = speaker(t)
        rx = 1 - tx
        running = state[:, K + 3] == 0
        # the round's states: the ended ones, then those the round makes
        out, q_out = state[~running], p[~running]
        state, p = state[running], p[running]
        # each party's table rows: (history, symbol)
        t_tx, t_rx = ((state[:, K + i], state[:, 2 * R + i])
                      for i in (tx, rx))
        cum = np.cumsum(tab.p_j_given_x[t_tx], axis=1)
        p_j = np.diff(cum, axis=1, prepend=0.0) / cum[:, -1:]
        s, jj = np.nonzero(p_j > 0)
        p_s = p[s] * p_j[s, jj]
        ok = tab.good[t_tx[0][s], jj]
        bad = state[s[~ok]]
        bad[:, K + 3] = _BAD_J
        out, q_out = _merge_rows(np.concatenate([out, bad]),
                                 np.concatenate([q_out, p_s[~ok]]))
        s, jj, p_s = s[ok], jj[ok], p_s[ok]
        if not s.size:
            state, p = out, q_out
            continue
        rows_tx = tuple(i[s] for i in t_tx)
        sup, p_sup, slc_tx = (a[rows_tx] for a in tab.support)
        # each state's listener row, a flat (history, symbol) index
        r_rx = t_rx[0][s] * tab.slice_rx.shape[1] + t_rx[1][s]
        restrict = slc_tx == jj[:, None]
        k = tab.k_of[jj]
        inner = tab.inner
        L, w, M = inner.total_hash_bits, inner.width, tab.p_m.shape[-1]
        n_lin = family_size(w, L) >> L
        per_part = int((np.maximum((p_sup * restrict > 0).sum(axis=1), 1)
                        + (np.int64(1) << k) - 1).sum())
        # one row (r, u) per accepted (state, J) and shared string
        n_u = np.int64(1) << k
        r = np.repeat(np.arange(s.size), n_u)
        u = np.arange(r.size) - np.repeat(np.cumsum(n_u) - n_u, n_u)
        base = p_s * (1.0 / n_lin) * 2.0 ** (-k)
        step = max(1, EXACT_BLOCK_BYTES // (per_part * _kernel_bytes(M, L, w)))
        for start in range(0, n_lin, step):
            stop = min(start + step, n_lin)
            lin = index_hasher(pack_columns(linear_blocks(w, L, start, stop)))
            # one row per (linear part, r, u), part by part
            part = np.repeat(np.arange(stop - start), r.size)
            ru, uu = np.tile(r, stop - start), np.tile(u, stop - start)
            h = lin(part, sup[ru])
            cum = _mstar_cum(p_sup[ru], restrict[ru], h, k[ru], uu)
            w_m = np.diff(cum, axis=1, prepend=0.0)
            n, slot = np.nonzero(w_m > 0)
            ru, part = ru[n], part[n]
            m = sup[ru, slot]
            decoded, cause, bits, _ = _slice_search(
                tab, r_rx[ru], m, h[n, slot],
                lambda rows, idx: lin(part[rows], idx), k[ru], uu[n])
            rows = state[s[ru]]
            _write_back(rows, R, t, tab, m, decoded, cause, bits, l_max)
            out, q_out = _merge_rows(
                np.concatenate([out, rows]),
                np.concatenate([q_out, base[ru] * w_m[n, slot] / cum[n, -1]]))
        state, p = out, q_out
    return state[:, :K], state[:, K + 3], p


def _check_rows(tables: Sequence[_RoundTables], states: int):
    """Raise TooLarge, before :func:`_exact_walk` decodes anything, when
    an upper bound on the rows of one of its rounds passes
    ``ENUMERATION_CAP``.

    Round t decodes, per linear part of its hash family and running
    state, max(s, 1) + 2^k - 1 rows per accepted slice index J, s the
    supported messages of slice J: at most ``opens`` per state, the most
    over the speaker's table rows.  Round 1 runs ``states``, the live
    pairs.  A state leaves at most one running state per (J, M*, decoded
    message), so the states of round t + 1 are at most those of round t
    times the most (J, M*) of a speaker's row times the most messages a
    listener's row can decode, those in its slices 1 or more (at least 1).
    """
    for t, tab in enumerate(tables, start=1):
        cum_j = np.cumsum(tab.p_j_given_x, axis=-1)
        s_j = np.zeros(cum_j.shape, dtype=np.int64)
        h, x, m = np.nonzero(tab.p_m > 0)
        np.add.at(s_j, (h, x, tab.slice_tx[h, x, m]), 1)
        accepted = (np.diff(cum_j, axis=-1, prepend=0.0) > 0) \
            & tab.good[:, None, :]
        picks = np.where(accepted, np.maximum(s_j, 1), 0)
        opens = int((picks + np.where(accepted, (np.int64(1) << tab.k_of)
                                      - 1, 0)).sum(axis=-1).max())
        inner = tab.inner
        L = inner.total_hash_bits
        rows = (family_size(inner.width, L) >> L) * states * opens
        if rows > ENUMERATION_CAP:
            raise TooLarge(f"exact mode could decode up to {rows:,} rows in "
                           f"round {t}, over the cap of {ENUMERATION_CAP:,}")
        states *= int(picks.sum(axis=-1).max()) * max(
            1, int((tab.slice_rx >= 1).sum(axis=-1).max()))


def _view_keys(engine, keys: np.ndarray, cause: np.ndarray) -> np.ndarray:
    """The key rows of either walk as ``engine.views_of`` reads them, in
    place.  Engine 5 views a failed trial as ``(None, None, x, y)``, so
    its failed rows lose their messages; engines 2 to 4 keep M* and the
    decode of a failed round."""
    if isinstance(engine, ProtocolSimulator):
        keys[cause != 0, :keys.shape[1] - 2] = -1
    return keys


def _trials(engine, rng, T: int, pairs=None) -> _TrialBatch:
    """T trials of any engine from ``rng``, on the x and y indices
    ``pairs`` if given: :func:`_sw_trials` on engine 1, :func:`_trial_walk`
    on engines 2 to 5."""
    walk = _sw_trials if isinstance(engine, SlepianWolfCoder) else _trial_walk
    return walk(engine, rng, T, pairs=pairs)


def _walk_run(engine, rng, x, y) -> SimOutcome:
    """One trial of any engine: :func:`_trials` at T = 1, on the given
    (x, y) unless x is None.  Its ``slice_hit`` is the terminating slice
    on engines 1 to 4 and the rounds done on engine 5."""
    batch = _trials(engine, rng, 1, pairs=None if x is None
                    else _index_pair(engine.source, x, y))
    tau_x, tau_y, x, y = engine.views_of(batch.keys[:1])[0]
    c = int(batch.cause[0])
    hit = batch.rounds if isinstance(engine, ProtocolSimulator) else batch.hit
    return SimOutcome(x, y, tau_x, tau_y, int(batch.bits[0]),
                      None if c == 0 else ERROR_CAUSES[c - 1], int(hit[0]))


def _walk_chunk(engine, T: int, seed):
    """One chunk of :func:`run_trials` on any engine: its distinct key
    rows, in row order, with the trials of each, the cause counts, the
    bits, and the trials whose keys differ between the parties in some
    round."""
    batch = _trials(engine, np.random.default_rng(seed), T)
    keys = batch.keys
    uniq, _, counts = _unique_rows(keys)
    R = keys.shape[1] // 2 - 1
    mism = int(np.any(keys[:, :R] != keys[:, R:2 * R], axis=1).sum())
    return uniq, counts, _cause_counts(batch.cause), batch.bits, mism


def _repr_ranks(symbols: Sequence, none_by_repr: bool):
    """The rank of each of ``symbols`` in the order of their reprs, then
    the rank of None, read at key -1: by its repr among them if
    ``none_by_repr``, else last.  None when the order of the column's
    reprs may differ from that of the views' reprs (see
    :func:`_canonical`): when a repr is a prefix of another, equal ones
    included, that goes on with a character not above ``,``; or when two
    symbols are equal.  If one repr extends a with such a character, the
    repr right after a in sorted order does, so neighbours alone are
    compared."""
    reprs = [repr(s) for s in symbols] + ["None"] * none_by_repr
    order = sorted(range(len(reprs)), key=reprs.__getitem__)
    for a, b in zip(order, order[1:]):
        ra, rb = reprs[a], reprs[b]
        if rb.startswith(ra) and rb[len(ra):len(ra) + 1] <= ",":
            return None
    if len(set(symbols)) < len(symbols):
        return None
    ranks = [len(symbols)] * (len(symbols) + 1)
    for rank, k in enumerate(order):
        ranks[k] = rank
    return np.array(ranks, dtype=np.int64)


def _view_ranks(engine) -> list | None:
    """:func:`_repr_ranks` of each of the engine's key columns, each
    alphabet ranked once, or None if one of them has none."""
    memo: dict = {}
    ranks = []
    for symbols, none_by_repr in engine._key_columns():
        key = (id(symbols), none_by_repr)
        if key not in memo:
            memo[key] = _repr_ranks(symbols, none_by_repr)
        if memo[key] is None:
            return None
        ranks.append(memo[key])
    return ranks


def _canonical(engine, keys: np.ndarray, p: np.ndarray) -> tuple:
    """The distinct key rows ``keys`` and their masses ``p`` in the order
    in which ``FiniteDistribution.from_mapping`` sorts their views, by
    :func:`~icsim.probcore._repr_key`, with no view built.

    A view's repr joins the reprs of its key columns' symbols with fixed
    text between them: ``"(" + a + ", " + b + ", " + x + ", " + y + ")"``
    for engines 1 to 4, each party's history spelled out round by round
    on engine 5.  Two rows' reprs agree up to the first column where the
    rows differ, so they compare as that column's reprs do, unless one of
    those is a proper prefix of the other: then the text after the
    shorter one, ``,`` or ``)``, meets a character of the longer one.  No
    column of numbers, strings, tuples or None has such a pair whose
    longer repr goes on with a character at or below ``,`` (and so
    none below ``)`` either; :func:`_repr_ranks` checks this per column),
    so the views' repr order is the lexicographic order of the columns'
    repr ranks: each alphabet is ranked once and the rows are sorted by
    their packed ranks (:func:`_packed`).  An engine whose columns fail
    the check is sorted by its views' reprs, as ``from_mapping`` sorts
    them.
    """
    ranks = _view_ranks(engine)
    if ranks is None:
        key = _repr_key()
        views = engine.views_of(keys)
        order = sorted(range(len(views)), key=lambda k: key(views[k]))
    else:
        codes = _packed((r[c] for r, c in zip(ranks, keys.T)),
                        [r.size for r in ranks])
        if len(codes) == 1 and (codes[0][1:] > codes[0][:-1]).all():
            # rows in index order over alphabets sorted by repr
            return keys, p
        order = _code_order(codes)
    return keys[order], p[order]


def _key_law(engine, rows: Callable) -> FiniteDistribution:
    """The view law of any engine from ``rows()``, its distinct key rows
    in the order of :func:`_canonical` and their masses: the law that
    ``FiniteDistribution.from_mapping`` makes of their views, with no sort
    and no hash of a view.  Distinct rows over alphabets of distinct
    symbols are distinct views; an engine that fails the check of
    :func:`_canonical` goes through ``from_mapping``.

    The views are made ``_VIEW_ROWS`` rows at a time, so their object
    columns stay small, and the rows are dropped before the views are
    copied into the law's tuple: at the peak the law's views and masses
    live with the rows and one list of the views.
    """
    keys, p = rows()
    if _view_ranks(engine) is None:
        return FiniteDistribution.from_mapping(
            dict(zip(engine.views_of(keys), p.tolist())))
    views = []
    for a in range(0, len(keys), _VIEW_ROWS):
        views += engine.views_of(keys[a:a + _VIEW_ROWS])
    del keys
    return FiniteDistribution(tuple(views), p, distinct=True)


def _walk_rows(engine) -> tuple:
    """Exact view law of engines 2 to 5 as key rows and masses:
    :func:`_exact_walk` on the engine's ``tables``, its keys as
    :func:`_view_keys` leaves them, each distinct row's terms summed left
    to right (:func:`_merge_rows`), in the order of :func:`_canonical`."""
    keys, cause, p = _exact_walk(engine.tables, engine.source, engine.l_max)
    return _canonical(engine,
                      *_merge_rows(_view_keys(engine, keys, cause), p))


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
    """One round's tables, stacked on a leading history axis, as
    :func:`_round_step` and :func:`_exact_walk` read them.

    History h of engine 5's round t is ``law.histories(t)[h]``; engines 2
    to 4 have one history.  ``n_tx`` and ``n_rx`` are the speaker's and the
    listener's alphabet sizes.  Every table carries a law of the slice
    index J over its n_j indices, once, as ``p_j_given_x``: its readers
    take the running sum along the index axis of the rows they read.  On
    engines 2 and 3 it has the one index J = 0 (see :meth:`build`).
    ``inner`` is the :class:`_HashSchedule` all histories share.

    The trials and the exact walk decode over candidate lists, built once
    per table on first use: ``support``, each speaker row's S supported
    messages, and ``candidates``, each listener row's messages in slice 1
    or more, in one block per slice, C columns in all.  A round hashes and
    weighs the S support columns of every trial, then searches slice by
    slice and hashes a slice's block only for the trials still searching,
    never all M messages.
    """
    inner: _HashSchedule
    j_cost: int
    p_m: np.ndarray         # (H, n_tx, M) transmitter message law
    slice_rx: np.ndarray    # (H, n_rx, M) receiver slice of each message
    k_of: np.ndarray        # (n_j,) shared prefix length per slice index
    slice_tx: np.ndarray    # (H, n_tx, M) transmitter slices
    p_j_given_x: np.ndarray  # (H, n_tx, n_j) law of J
    p_j: np.ndarray         # (H, n_j) law of J under the prior
    good: np.ndarray        # (H, n_j) slice indices accepted
    next: np.ndarray | None = None   # (H, M) next history or -1; None last

    @classmethod
    def build(cls, inner: _HashSchedule, p_m: np.ndarray,
              slice_rx: np.ndarray, slice_tx: np.ndarray | None,
              prior: np.ndarray | None, cfg_tx: SliceConfig | None,
              k_override: int | None,
              next: np.ndarray | None = None) -> _RoundTables:
        """A round's tables from per-history arrays: the speaker's message
        laws ``p_m`` (H, n_tx, M), their slices ``slice_tx`` of ``cfg_tx``
        and input priors ``prior`` (H, n_tx), and the listener's slices
        ``slice_rx`` (H, n_rx, M), of ``inner.cfg_rx``.  No ``cfg_tx``
        (engines 2 and 3) gives J = 0 alone, with ``k_override`` shared
        bits."""
        slice_tx, p_j_given_x, p_j, good, j_cost = _tx_tables(
            p_m, slice_tx, cfg_tx, prior)
        return cls(inner=inner, j_cost=j_cost, p_m=p_m, slice_rx=slice_rx,
                   k_of=_k_table(cfg_tx, inner.cfg_rx.gamma,
                                 inner.total_hash_bits, k_override),
                   slice_tx=slice_tx, p_j_given_x=p_j_given_x, p_j=p_j,
                   good=good, next=next)

    @cached_property
    def support(self) -> tuple:
        """``(sup, p, slice)``, each (H, n_tx, S): every speaker row's
        messages with P(m | x) > 0 in message order, their probabilities
        and their slices, padded with message 0 of probability 0 to S, the
        widest row (at least 1)."""
        sup, (p, slc), _ = _column_lists(self.p_m > 0, 1, self.p_m,
                                         self.slice_tx)
        np.maximum(sup, 0, out=sup)
        return sup, p, slc

    @cached_property
    def candidates(self) -> tuple:
        """``(cand, starts)``: every listener row's messages in slice 1 or
        more, (H, n_rx, C), slice-major.  Slice s holds the columns
        ``starts[s - 1]`` to ``starts[s] - 1``, C_s of them, C_s the most
        messages a listener row has in slice s; a row's messages of slice
        s are in message order, padded with -1 to C_s (C at least 1), so
        a column's slice is its block's.  The receiver searches these only,
        one slice after the other."""
        cand, _, starts = _column_lists(self.slice_rx, self.inner.n_slices)
        return cand, starts


def _column_lists(group: np.ndarray, n: int, *tables: np.ndarray):
    """The columns of each row of the table ``group`` (..., M), of group
    numbers 0 to n, in blocks by group: block b holds each row's columns
    of group b, in order, padded with -1 to C_b, the most any row has, and
    group 0 is left out.  Returns ``(cols, gathered, starts)``:
    the columns, each of ``tables`` (shaped as ``group``) gathered at them
    with 0 at the padding, and the first column of each block, block b
    spanning ``starts[b - 1]`` to ``starts[b] - 1``.  A bool ``group`` is
    one block; when no row has a column, the last block, or block 1 when n
    is 0, is one padding column.  One ``np.nonzero`` scan and one stable sort."""
    flat = group.reshape(-1, group.shape[-1])
    r, c = np.nonzero(flat)
    # the (row, group) of each column, sorted, each group in column order
    key = r * (n + 1) + flat[r, c]
    order = np.argsort(key, kind="stable")
    r, c, key = r[order], c[order], key[order]
    counts = np.bincount(key, minlength=flat.shape[0] * (n + 1))
    width = counts.reshape(-1, n + 1).max(axis=0, initial=0)[1:]
    if not width.any():
        # one padding column, also with no group at all (n = 0)
        width = np.append(width[:-1], 1)
    starts = np.concatenate([[0], np.cumsum(width)])
    slot = (starts[key % (n + 1) - 1] + np.arange(key.size)
            - (np.cumsum(counts) - counts)[key])
    shape = group.shape[:-1] + (int(starts[-1]),)
    cols = np.full((flat.shape[0], shape[-1]), -1, dtype=np.int64)
    cols[r, slot] = c
    gathered = []
    for tab in tables:
        out = np.zeros(cols.shape, dtype=tab.dtype)
        out[r, slot] = tab.reshape(flat.shape)[r, c]
        gathered.append(out.reshape(shape))
    return cols.reshape(shape), tuple(gathered), starts


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
        if math.isnan(l_max):
            raise OutOfRange("l_max must be a number of bits, not NaN")
        self.l_max = l_max
        self.k_override = k_override
        self.src = self.source = law.source
        check_bytes(sum(_tables_bytes(law.round_views(t), t, plan)
                        for t, plan in enumerate(self.plans, start=1)),
                    f"round tables of {law.n_rounds} round"
                    f"{'s' * (law.n_rounds > 1)}")
        self.tables = []
        for t, plan in enumerate(self.plans, start=1):
            views = law.round_views(t)
            own = (views.p_m_given_x, views.p_m_given_y)
            tx = speaker(t)
            self.tables.append(_RoundTables.build(
                _HashSchedule.of(views.messages, plan.rx), own[tx],
                _party_slices(views, own, 1 - tx, plan.rx),
                _party_slices(views, own, tx, plan.tx), views.prior,
                plan.tx, k_override, views.next))
        # the largest round sets the chunk
        self.chunk = min(tab.inner.chunk for tab in self.tables)

    def run(self, rng, x=None, y=None) -> SimOutcome:
        return _walk_run(self, rng, x, y)

    def views_of(self, keys: np.ndarray) -> list:
        """The views ``(hist_x, hist_y, x, y)`` of the key rows ``keys`` of
        the walks, in order, ``(None, None, x, y)`` after an error (see
        :func:`_view_keys`), a column at a time: each party's history zips
        its per-round messages."""
        R = self.law.n_rounds
        U = [_objects(tab.inner.messages) for tab in self.tables]
        hist_x, hist_y = (zip(*(U[t][keys[:, party * R + t]].tolist()
                                for t in range(R))) for party in (0, 1))
        xs = _objects(self.src.x_alphabet)[keys[:, 2 * R]].tolist()
        ys = _objects(self.src.y_alphabet)[keys[:, 2 * R + 1]].tolist()
        return [(None, None, x, y) if failed else (a, b, x, y)
                for failed, a, b, x, y in zip((keys[:, 0] < 0).tolist(),
                                              hist_x, hist_y, xs, ys)]

    def _key_columns(self) -> tuple:
        """Each key column as :func:`_repr_ranks` reads it (see
        ``_OneRound._key_columns``): each party's round messages, then x
        and y.  A history's repr is ``"(" + m_1 + ", " + ... + m_R +
        ")"``, ``"(" + m_1 + ",)"`` at R = 1.  A failed trial's view
        ``(None, None, x, y)`` sorts after every other, since ``N`` is
        above the ``(`` that opens a history: its message columns are all
        -1, so None ranks last."""
        hist = tuple((tab.inner.messages, False) for tab in self.tables)
        return hist + hist + ((self.src.x_alphabet, False),
                              (self.src.y_alphabet, False))

    def true_view_law(self) -> FiniteDistribution:
        return _key_law(self, self.true_view_rows)

    def true_view_rows(self) -> tuple:
        """The key rows of the law's atoms, both parties holding the
        transcript's round messages, with their masses, in the order of
        :func:`_canonical`."""
        k, i, j, p = self.law.atoms
        m = [self.law.message_codes(t)[k]
             for t in range(1, self.law.n_rounds + 1)]
        return _canonical(self, np.array(m + m + [i, j]).T,
                          p * self.src.mass[i, j])

    def exact_view_law(self) -> FiniteDistribution:
        return _key_law(self, self.exact_view_rows)

    def exact_view_rows(self) -> tuple:
        return _walk_rows(self)


def _tables_bytes(views, t: int, plan: RoundPlan) -> int:
    """An upper bound on the bytes of round t's :class:`_RoundTables`
    with its candidate lists, built from ``views`` on ``plan``: 8 B a
    cell of the listener's (H, n_rx, U) slices and 16 B a cell of the
    speaker's (its slices and the J law's flat index); 8 B an (H, n_tx)
    row per slice index (P(J | x)); 24 B an (H, n_tx) row per support
    slot and 8 B an (H, n_rx) row per candidate slot, S the most messages
    a speaker's row sends and C at most n_slices times the most a
    listener's row can receive; and 64 B an atom for the cells of the
    slicing and the sorts of the two lists."""
    own = (views.p_m_given_x, views.p_m_given_y)
    tx = speaker(t)
    p_tx, p_rx = own[tx], own[1 - tx]
    H, n_tx, U = p_tx.shape
    n_rx = p_rx.shape[1]
    S, S_rx = (max(1, int((p > 0).sum(axis=-1).max(initial=0)))
               for p in (p_tx, p_rx))
    C = min(U, S_rx) * plan.rx.n_slices
    return (8 * H * n_rx * U + 16 * H * n_tx * U
            + H * n_tx * (8 * (plan.tx.n_slices + 1) + 24 * S)
            + 8 * H * n_rx * C + 64 * views.atoms[0].size)


def auto_round_plans(law: TranscriptLaw, gamma: float = 4.0) -> list[RoundPlan]:
    """Default slice plans from the per-round density spectra.

    The spectra read the law's shared round views and are kept in the law,
    so a simulator or budget built on the same law afterwards computes no
    view or spectrum again.
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
    views come from :meth:`TranscriptLaw.round_views`, computed once per
    law and shared with the slice plans, engines and budgets built on it;
    the side's spectrum is made of the views' densities at their positive
    atoms (:meth:`~icsim.probcore.SpectrumTable.from_ranks`), the floats
    its slice tables are cut from.  It is built once per law too, kept
    read-only in the views' memo at (t, side).
    """
    spec = law._views.get((t, side))
    if spec is None:
        views = law.round_views(t)
        values, rank = views.densities[
            speaker(t) if side == "tx" else 1 - speaker(t)]
        spec = law._views[(t, side)] = SpectrumTable.from_ranks(
            values, rank, views.atoms[-1])
        spec.values.flags.writeable = spec.probs.flags.writeable = False
    return spec
