import itertools
import math

import numpy as np
import pytest

from icsim.errors import MismatchedSupport, OutOfRange
from icsim.hashing import (
    HashFamily,
    draw_bits,
    draw_hash,
    encode_universe,
    encoding_width,
    enumerate_family,
    family_blocks,
    linear_blocks,
    family_size,
    member_blocks,
    min_entropy,
    index_hasher,
    pack_columns,
    pack_hashes,
)


def test_encoding_width():
    assert encoding_width(1) == 1
    assert encoding_width(2) == 1
    assert encoding_width(8) == 3
    assert encoding_width(9) == 4
    with pytest.raises(OutOfRange):
        encoding_width(0)


def test_encode_universe_bits():
    enc = encode_universe(8)
    assert enc.shape == (8, 3)
    # value 5 = 101 with bit 0 first
    assert list(enc[5]) == [1, 0, 1]


def test_family_size_and_enumeration():
    assert family_size(3, 2) == 1 << 8
    fams = list(enumerate_family(2, 1))
    assert len(fams) == family_size(2, 1)
    assert not fams[0].matrix.any() and not fams[0].offset.any()


@pytest.mark.parametrize("width, out_bits", [
    (1, 1), (2, 1), (1, 3), (2, 3), (3, 2), (4, 3), (2, 0)])
def test_family_blocks_follow_enumeration_order(width, out_bits):
    size = family_size(width, out_bits)
    blocks = family_blocks(width, out_bits, 0, size)
    assert blocks.shape == (size, out_bits, width + 1)
    assert blocks.dtype == np.uint8
    for c, fam in enumerate(enumerate_family(width, out_bits)):
        assert np.array_equal(blocks[c, :, :width], fam.matrix), c
        assert np.array_equal(blocks[c, :, width], fam.offset), c
    # member c's offset holds the low out_bits bits of c, its matrix the rest
    c = size - 2 if size > 1 else 0
    flat = np.concatenate([blocks[c, :, width],
                           blocks[c, :, :width].ravel()])
    assert int(flat @ (1 << np.arange(flat.size))) == c
    lo, hi = size // 3, size - size // 4
    assert np.array_equal(family_blocks(width, out_bits, lo, hi),
                          blocks[lo:hi])


def test_family_blocks_range_checked():
    with pytest.raises(OutOfRange):
        family_blocks(2, 2, 3, 2)
    with pytest.raises(OutOfRange):
        family_blocks(2, 2, 0, family_size(2, 2) + 1)
    with pytest.raises(OutOfRange):
        family_blocks(31, 2, 0, 1)  # codes past 62 bits


def test_member_blocks_take_codes_in_any_order():
    width, out_bits = 2, 3
    size = family_size(width, out_bits)
    codes = np.random.default_rng(4).integers(0, size, size=50)
    assert np.array_equal(member_blocks(width, out_bits, codes),
                          family_blocks(width, out_bits, 0, size)[codes])
    assert member_blocks(width, out_bits, codes[:0]).shape == (0, 3, 3)
    with pytest.raises(OutOfRange):
        member_blocks(width, out_bits, np.array([size]))
    with pytest.raises(OutOfRange):
        member_blocks(width, out_bits, np.array([-1]))


@pytest.mark.parametrize("width, out_bits", [(1, 1), (2, 3), (3, 2), (2, 0)])
def test_linear_blocks_are_the_offset_zero_members(width, out_bits):
    size = family_size(width, out_bits)
    n_lin = size >> out_bits
    blocks = linear_blocks(width, out_bits, 0, n_lin)
    # linear part c is member c * 2^out_bits: its matrix, offset 0
    assert np.array_equal(blocks, family_blocks(width, out_bits, 0, size)[
        ::1 << out_bits])
    assert not blocks[:, :, width].any()
    lo, hi = n_lin // 3, n_lin - n_lin // 4
    assert np.array_equal(linear_blocks(width, out_bits, lo, hi),
                          blocks[lo:hi])
    with pytest.raises(OutOfRange):
        linear_blocks(width, out_bits, 0, n_lin + 1)
    with pytest.raises(OutOfRange):
        linear_blocks(width, out_bits, 1, 0)


def test_prefix_suffix_split():
    # the first k rows of a hash block hash to the low k bits of the packed
    # hash, the other rows to the bits above them
    block = np.random.default_rng(11).integers(0, 2, size=(6, 5),
                                               dtype=np.uint8)
    enc = encode_universe(16, 4)
    full = pack_hashes(block[None], enc)
    for k in range(7):
        assert np.array_equal(full & ((1 << k) - 1),
                              pack_hashes(block[None, :k], enc))
        assert np.array_equal(full >> k, pack_hashes(block[None, k:], enc))


def test_packed_matches_bits():
    fam = draw_hash(3, 5, 2)
    enc = encode_universe(8, 3)
    packed = fam.apply_packed(enc)
    bits = fam.apply_bits(enc)
    weights = 1 << np.arange(5)
    assert np.array_equal(packed, bits @ weights)


def _packed_by_hand(fam, bits):
    """Each row's hash bits as one Python int, bit p at weight 2^p."""
    return [sum(int(b) << p for p, b in enumerate(row))
            for row in fam.apply_bits(bits)]


@pytest.mark.parametrize("M, L", [(5, 0), (5, 1), (37, 14), (3, 62),
                                  (64, 14)])
def test_pack_hashes_matches_apply_bits(M, L):
    rng = np.random.default_rng(100 * M + L)
    w = encoding_width(M)
    enc = encode_universe(M, w)
    blocks = rng.integers(0, 2, size=(20, L, w + 1), dtype=np.uint8)
    subset = enc[[M - 1, 0, M // 2, M - 1]]  # rows out of order, repeated
    for bits in (enc, subset):
        got = pack_hashes(blocks, bits)
        assert got.dtype == np.int64 and got.shape == (20, len(bits))
        for t, block in enumerate(blocks):
            fam = HashFamily(w, L, block[:, :w], block[:, w])
            assert got[t].tolist() == _packed_by_hand(fam, bits)


@pytest.mark.parametrize("L", [0, 1, 14, 62])
@pytest.mark.parametrize("w", [1, 2, 3, 6, 7])
def test_hash_indices_match_apply_bits(w, L):
    """The hashes engines 2 to 5 decode with, ``index_hasher`` on
    ``pack_columns``, against ``HashFamily.apply_bits`` row by row: odd
    and even w split into low and high halves, padded index 0 and
    repeated indices, and rows hashed under the columns of other rows."""
    rng = np.random.default_rng(100 * w + L)
    T, M = 6, 1 << w
    blocks = rng.integers(0, 2, size=(T, L, w + 1), dtype=np.uint8)
    cols = pack_columns(blocks)
    assert cols.dtype == np.int64 and cols.shape == (T, w + 1)
    # every index, padding 0 and repeats, in a different order per row
    idx = rng.permuted(np.concatenate([
        np.tile(np.arange(M), (T, 1)), np.zeros((T, 3), dtype=np.int64),
        rng.integers(0, M, size=(T, 5))], axis=1), axis=1)
    hashes = index_hasher(cols)
    got = hashes(np.arange(T), idx)
    assert got.dtype == np.int64 and got.shape == idx.shape
    # any rows, in any order and repeated, under their own columns
    rows = rng.integers(0, T, size=2 * T)
    assert np.array_equal(hashes(rows, idx[rows]), got[rows])
    enc = encode_universe(M, w)
    for t, block in enumerate(blocks):
        assert cols[t].tolist() == [sum(int(b) << p for p, b in
                                        enumerate(col)) for col in block.T]
        want = _packed_by_hand(HashFamily(w, L, block[:, :w], block[:, w]),
                               enc)
        assert got[t].tolist() == [want[i] for i in idx[t]]


@pytest.mark.parametrize(
    "shape", [(1, 62, 2), (3, 5, 7), (1, 62, 3), (1, 3, 5), (0, 4, 3),
              (2, 17, 9)],
    ids=lambda shape: f"{shape}-N%4={math.prod(shape) % 4}")
@pytest.mark.parametrize("odd_word", [False, True])
def test_draw_bits_is_integers_of_two(shape, odd_word):
    """``draw_bits`` gives ``rng.integers(0, 2, shape, dtype=np.uint8)`` bit
    for bit and leaves the generator where that draw leaves it, for every
    N mod 4, also after a draw that left half a 64-bit word buffered."""
    want_rng, got_rng = np.random.default_rng(3), np.random.default_rng(3)
    for rng in (want_rng, got_rng):
        if odd_word:
            rng.integers(0, 1 << 32, size=3, dtype=np.uint32)
    want = want_rng.integers(0, 2, size=shape, dtype=np.uint8)
    got = draw_bits(got_rng, shape)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_rng.random(4).tolist() == want_rng.random(4).tolist()


def test_pack_columns_is_a_shift_per_row():
    """Bit p of a packed column is row p, for every hash length L = 1 .. 62
    and block width w + 1 = 2 .. 11: each column read as a binary numeral,
    row L - 1 first."""
    rng = np.random.default_rng(8)
    for L in range(1, 63):
        for w1 in range(2, 12):
            blocks = rng.integers(0, 2, size=(3, L, w1), dtype=np.uint8)
            want = np.array([[int("".join(map(str, col[::-1])), 2)
                              for col in block.T.tolist()]
                             for block in blocks], dtype=np.int64)
            got = pack_columns(blocks)
            assert got.dtype == np.int64 and np.array_equal(got, want), \
                (L, w1)


def test_pack_columns_past_62_bits_raises():
    assert pack_columns(np.ones((2, 62, 4), dtype=np.uint8)).tolist() == \
        [[(1 << 62) - 1] * 4] * 2
    with pytest.raises(OutOfRange):
        pack_columns(np.zeros((1, 63, 4), dtype=np.uint8))


def test_packing_past_62_bits_raises():
    enc = encode_universe(8, 3)
    fam = draw_hash(3, 62, 5)
    assert fam.apply_packed(enc).tolist() == _packed_by_hand(fam, enc)
    for out_bits in (63, 70):
        with pytest.raises(OutOfRange):
            draw_hash(3, out_bits, 5).apply_packed(enc)
    with pytest.raises(OutOfRange):
        pack_hashes(np.zeros((1, 63, 4), dtype=np.uint8), enc)


def test_draw_reproducible():
    a, b = draw_hash(5, 4, 99), draw_hash(5, 4, 99)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.offset, b.offset)


def test_shape_validation():
    with pytest.raises(MismatchedSupport):
        HashFamily(3, 2, np.zeros((2, 2), dtype=np.uint8),
                   np.zeros(2, dtype=np.uint8))


def test_exact_pairwise_collisions_small():
    # every distinct pair collides on exactly a 2^-l fraction of seeds
    for width, l in ((2, 1), (2, 2), (3, 2)):
        enc = encode_universe(1 << width, width)
        size = family_size(width, l)
        for a, b in itertools.combinations(range(1 << width), 2):
            hits = sum(
                np.array_equal(fam.apply_bits(enc[a]), fam.apply_bits(enc[b]))
                for fam in enumerate_family(width, l))
            assert hits * (1 << l) == size


def test_empirical_collision_rate_wide():
    # width 16: matrix-only check, offsets cancel on differences
    width, l, trials = 16, 6, 100_000
    rng = np.random.default_rng(4)
    diff = np.zeros(width, dtype=np.uint8)
    diff[[0, 3, 9, 15]] = 1
    mats = rng.integers(0, 2, size=(trials, l, width), dtype=np.uint8)
    coll = ((mats @ diff) % 2 == 0).all(axis=1)
    p = 2.0 ** (-l)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert coll.mean() <= p + 5 * sigma


class TestMinEntropy:
    def test_uniform(self):
        rep = min_entropy(np.full(8, 1 / 8))
        assert rep.value == pytest.approx(3.0, abs=1e-12)

    def test_optimized_formula(self):
        p = np.array([[0.3, 0.1], [0.2, 0.4]])
        rep = min_entropy(p)
        assert rep.value == pytest.approx(-math.log2(0.3 + 0.4), abs=1e-12)
        assert rep.optimized

    def test_explicit_conditioning(self):
        p = np.array([[0.3, 0.1], [0.2, 0.4]])
        rep = min_entropy(p, q_z=np.array([0.5, 0.5]))
        assert rep.value == pytest.approx(-math.log2(0.4 / 0.5), abs=1e-12)
        # the optimized choice is never worse
        assert min_entropy(p).value >= rep.value - 1e-12

    def test_bad_conditioning(self):
        with pytest.raises(OutOfRange):
            min_entropy(np.array([[0.5], [0.5]]), q_z=np.array([0.0]))
