"""Two-universal hashing over GF(2) and min-entropy accounting.

A drawn hash is a random affine map f(x) = Mx + b on w-bit encodings.  For
distinct inputs the collision probability over the draw is exactly 2^{-l},
and the first k output bits of an (l, w) draw are themselves a valid (k, w)
draw, so one long draw can be split into a prefix shared as common randomness
and a suffix that is actually communicated.

The engines draw T hash blocks (T, L, w + 1) at once with
:func:`draw_bits`, which takes whole uint32 words from the generator and
gives, bit for bit, numpy's ``rng.integers(0, 2, ..., dtype=np.uint8)``;
they pack each block's columns into int64 words (:func:`pack_columns`)
and hash universe indices by table lookups (:func:`index_hasher`).

The offset b cancels in every decode the engines make, so exact enumeration
walks only the 2^(l w) linear parts, the members with b = 0
(:func:`linear_blocks`), and weighs each by the 2^l offsets it stands for.
A member's family code is ``matrix_code * 2^l + offset_code``
(:func:`family_blocks`).  Write A for the matrix of f:

* a Slepian-Wolf decode tests f(x') = f(x), where b cancels;
* a round decode matches ``(f(m) ^ received) & mask``, where ``received``
  keeps f(M*)'s bits above the shared prefix and puts the shared string u
  in its low k bits, and the transmitter tests f(m) & (2^k - 1) = u.  So
  the decode at (A, b, u) equals the decode at (A, 0, u ^ (b mod 2^k)), and
  as u runs over the 2^k strings, so does u ^ (b mod 2^k): each (A, u)
  at offset 0 stands for exactly 2^l seeds (A, b, u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MismatchedSupport, OutOfRange

#: cap on exhaustive enumeration: the members ``enumerate_family`` yields;
#: in exact mode of engine 1, the seeds (live pair, family member) its law
#: averages over (``exact_atom_count``), though it decodes 2^-l of them;
#: in the exact walk of engines 2 to 5, the rows one round decodes, counted
#: before the round allocates them
ENUMERATION_CAP = 1 << 24
#: members per block that ``enumerate_family`` builds at once
_ENUMERATION_BLOCK = 1 << 12


def encoding_width(universe_size: int) -> int:
    if universe_size < 1:
        raise OutOfRange("universe must be nonempty")
    return max(1, int(math.ceil(math.log2(universe_size)))) if universe_size > 1 else 1


def encode_universe(universe_size: int, width: int | None = None) -> np.ndarray:
    """Bit matrix (size, w) giving the binary encoding of each index."""
    w = width if width is not None else encoding_width(universe_size)
    if universe_size > (1 << w):
        raise OutOfRange("encoding width too small for universe")
    idx = np.arange(universe_size, dtype=np.int64)
    return ((idx[:, None] >> np.arange(w)[None, :]) & 1).astype(np.uint8)


@dataclass(frozen=True)
class HashFamily:
    """One member of the affine family, f(x) = Mx + b over GF(2)."""

    width: int
    out_bits: int
    matrix: np.ndarray  # (out_bits, width) uint8
    offset: np.ndarray  # (out_bits,) uint8

    def __post_init__(self):
        if self.matrix.shape != (self.out_bits, self.width):
            raise MismatchedSupport("matrix shape disagrees with declared sizes")
        if self.offset.shape != (self.out_bits,):
            raise MismatchedSupport("offset length disagrees with output size")

    def apply_bits(self, bits: np.ndarray) -> np.ndarray:
        """Hash bit rows; ``bits`` has shape (..., width)."""
        return (bits @ self.matrix.T + self.offset) % 2

    def apply_packed(self, bits: np.ndarray) -> np.ndarray:
        """Hash bit rows and pack each output into an int64, output bit p at
        weight 2^p (see :func:`pack_hashes`)."""
        bits = np.asarray(bits)
        block = np.column_stack([self.matrix, self.offset])[None]
        return pack_hashes(block, bits.reshape(-1, self.width)).reshape(
            bits.shape[:-1])


def draw_hash(width: int, out_bits: int, seed) -> HashFamily:
    """Draw a uniform member of the affine family.

    ``seed`` may be an integer, a sequence (master seed plus stream index),
    or an existing numpy Generator.
    """
    if out_bits < 0 or width < 1:
        raise OutOfRange("need width >= 1 and out_bits >= 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _member(draw_bits(rng, (out_bits, width + 1)))


def draw_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform bits of ``shape``: exactly ``rng.integers(0, 2, shape,
    dtype=np.uint8)``, leaving ``rng`` in the same state, drawn as whole
    words.

    numpy draws a bounded uint8 by Lemire's method on one byte of a
    buffered uint32 word, the low byte first and four bytes per word, with
    a fresh word for the first byte of each call.  For the range 2 it
    scales the byte by 2 and keeps the high byte of the product, the
    byte's top bit, and its rejection threshold (255 - 1) mod 2 is 0, so
    it rejects nothing.  The N bits are therefore the top bits of the
    little-endian bytes of ceil(N / 4) raw uint32 words.
    """
    n = math.prod(shape)
    bits = rng.integers(0, 1 << 32, size=-(-n // 4), dtype=np.uint32).astype(
        "<u4", copy=False).view(np.uint8)[:n]
    # in place, so the bits take no more memory than the words
    bits >>= 7
    return bits.reshape(shape)


def pack_columns(blocks: np.ndarray) -> np.ndarray:
    """The columns (T, w + 1) of the T hash blocks ``blocks`` (T, L, w + 1),
    each packed into an int64 whose bit p is row p: the matrix columns,
    then the offset."""
    T, L, w1 = blocks.shape
    if L > 62:
        raise OutOfRange("packed hashes hold at most 62 bits")
    cols = np.zeros((T, w1), dtype=np.int64)
    for p in range(L):
        cols |= blocks[:, p].astype(np.int64) << p
    return cols


def pack_hashes(blocks: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Packed hashes (T, n) of the n bit rows ``bits`` (n, w) under the T
    hash blocks ``blocks`` (T, L, w + 1), laid out as :func:`draw_hash`
    draws one: output bit p at weight 2^p.

    The map is affine, so a row's packed hash is the packed offset XORed
    with the packed matrix column of each of its set bits: w XOR steps on
    (T, n) ints, with no array holding a bit per (row, output bit).
    """
    cols = pack_columns(blocks)
    w1 = cols.shape[1]
    h = np.repeat(cols[:, w1 - 1:], bits.shape[0], axis=1)
    for c in range(w1 - 1):
        h ^= cols[:, c:c + 1] & -bits[:, c].astype(np.int64)
    return h


def index_hasher(cols: np.ndarray):
    """The hash of universe indices under each of the packed columns
    ``cols`` (T, w + 1) (see :func:`pack_columns`), on the encoding of
    :func:`encode_universe`: a function ``hash(rows, idx)`` that gives the
    packed hashes (n, k) of the indices ``idx`` (n, k), row i under the
    columns ``cols[rows[i]]``.

    An index's hash XORs the offset with the columns of its set bits.  Per
    row of ``cols``, two tables hold those XORs over every pattern of the
    low and of the high half of the w bits, built here once, in place by
    doubling, so each hash is two ``take`` lookups, whatever w, and a
    caller that hashes a few rows at a time builds no table again.
    """
    T, w1 = cols.shape
    w = w1 - 1
    lo = (w + 1) // 2
    by_column = np.ascontiguousarray(cols.T)

    def xors(start, stop, base):
        # pattern-major, so each doubling XORs whole contiguous rows
        tab = np.empty((1 << (stop - start), T), dtype=np.int64)
        tab[0] = base
        for n, c in enumerate(range(start, stop)):
            np.bitwise_xor(tab[:1 << n], by_column[c],
                           out=tab[1 << n:2 << n])
        return tab.ravel()

    low, high = xors(0, lo, by_column[w]), xors(lo, w, 0)

    def hash_(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)[:, None]
        h = low.take((idx & ((1 << lo) - 1)) * T + rows)
        if lo < w:
            h ^= high.take((idx >> lo) * T + rows)
        return h

    return hash_


def _member(block: np.ndarray) -> HashFamily:
    """The member whose (out_bits, width + 1) block holds the matrix in its
    first ``width`` columns and the offset in the last."""
    width = block.shape[1] - 1
    return HashFamily(width, block.shape[0], block[:, :width],
                      np.ascontiguousarray(block[:, width]))


def family_size(width: int, out_bits: int) -> int:
    return 1 << (out_bits * (width + 1))


def family_blocks(width: int, out_bits: int, start: int,
                  stop: int) -> np.ndarray:
    """Members ``start`` to ``stop - 1`` of the affine family, in its fixed
    canonical order, as (stop - start, out_bits, width + 1) uint8 blocks.

    Member ``code`` has the offset bits ``code & (2^out_bits - 1)`` and the
    matrix bits ``code >> out_bits`` in row-major order, bit 0 first; each
    block is laid out as :func:`draw_hash` draws one.
    """
    if not 0 <= start <= stop <= family_size(width, out_bits):
        raise OutOfRange("family code range out of range")
    return member_blocks(width, out_bits,
                         np.arange(start, stop, dtype=np.int64))


def linear_blocks(width: int, out_bits: int, start: int,
                  stop: int) -> np.ndarray:
    """The linear parts ``start`` to ``stop - 1`` of the affine family, with
    offset 0, as (stop - start, out_bits, width + 1) uint8 blocks: linear
    part ``c`` is the member with the family code ``c * 2^out_bits``."""
    if not 0 <= start <= stop <= 1 << (out_bits * width):
        raise OutOfRange("linear code range out of range")
    return member_blocks(width, out_bits, np.arange(
        start, stop, dtype=np.int64) << out_bits)


def member_blocks(width: int, out_bits: int, codes: np.ndarray) -> np.ndarray:
    """The members with the family codes ``codes``, in that order, as
    (len(codes), out_bits, width + 1) uint8 blocks (see
    :func:`family_blocks`)."""
    codes = np.asarray(codes, dtype=np.int64)
    if out_bits * (width + 1) > 62 or (codes.size and not (
            0 <= codes.min() and codes.max() < family_size(width, out_bits))):
        raise OutOfRange("family code range out of range")
    n = codes.size
    codes = codes[:, None]
    matrix = (codes >> (out_bits + np.arange(out_bits * width))) & 1
    offset = (codes >> np.arange(out_bits)) & 1
    return np.concatenate(
        [matrix.reshape(n, out_bits, width), offset[:, :, None]],
        axis=2).astype(np.uint8)


def enumerate_family(width: int, out_bits: int):
    """Yield every member of the affine family, in :func:`family_blocks`'
    canonical order."""
    total = family_size(width, out_bits)
    if total > ENUMERATION_CAP:
        raise OutOfRange("family too large to enumerate")
    for start in range(0, total, _ENUMERATION_BLOCK):
        for block in family_blocks(width, out_bits, start,
                                   min(start + _ENUMERATION_BLOCK, total)):
            yield _member(block)


# ---------------------------------------------------------------------------
# min-entropy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinEntropyReport:
    value: float          # conditional min-entropy in bits
    q_z: np.ndarray       # the conditioning distribution actually used
    optimized: bool


def min_entropy(p_xz: np.ndarray, q_z="optimize") -> MinEntropyReport:
    """Conditional min-entropy -log2 max_{x,z} P(x,z) / Q(z).

    ``p_xz`` is a joint table with x on rows and z on columns.  Pass an
    explicit distribution for ``q_z`` or the string ``"optimize"`` for the
    maximizing choice Q(z) proportional to max_x P(x, z).
    """
    p = np.asarray(p_xz, dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    if np.any(p < 0) or p.sum() <= 0:
        raise OutOfRange("joint table must be a nonnegative mass table")
    col_max = p.max(axis=0)
    if isinstance(q_z, str):
        if q_z != "optimize":
            raise OutOfRange(f"unknown conditioning mode {q_z!r}")
        total = float(col_max.sum())
        q = col_max / total
        return MinEntropyReport(-math.log2(total), q, True)
    q = np.asarray(q_z, dtype=float)
    if q.shape != (p.shape[1],):
        raise MismatchedSupport("conditioning distribution has the wrong length")
    ratios = []
    for j in range(p.shape[1]):
        if col_max[j] <= 0:
            continue
        if q[j] <= 0:
            raise OutOfRange("conditioning distribution misses a live column")
        ratios.append(col_max[j] / q[j])
    return MinEntropyReport(-math.log2(max(ratios)), q, False)
