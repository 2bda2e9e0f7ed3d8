"""Reference code the tests hold the library to, written as plainly as
possible and sharing no code with what it checks."""

import math

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


# ---------------------------------------------------------------------------
# the dense transcript-law computations that the atom form replaced; each
# takes the law's dense table P(tau | x, y), shape (T, nx, ny)
# ---------------------------------------------------------------------------


def dense_joint(law):
    """P(tau, x, y) as the dense (T, nx, ny) table."""
    return law.p_tau_given_xy * law.source.mass[None, :, :]


def dense_marginals(law):
    """The dense (T, nx) P(tau | x) and (T, ny) P(tau | y): the dense joint
    summed over y and over x, divided by the input marginals (0 where they
    vanish)."""
    joint = dense_joint(law)
    px, py = law.source.p_x, law.source.p_y
    with np.errstate(invalid="ignore", divide="ignore"):
        return (np.where(px[None, :] > 0, joint.sum(axis=2) / px[None, :], 0.0),
                np.where(py[None, :] > 0, joint.sum(axis=1) / py[None, :], 0.0))


def dense_product(law, n):
    """``ProductProtocol(law, n).expand()`` as first written: n - 1 pair
    products with the base, each the ``np.kron`` of the dense tables
    P(tau | x, y) and of the source masses, keeping the entries of
    positive joint mass.  Returns ``(x_alphabet, y_alphabet, mass,
    transcripts, atoms)``, the atoms ``(k, i, j, p)`` in row-major
    order.  A transcript keeps the base's rounds: round t's message is the
    tuple of the copies' round-t messages (n > 1)."""
    src = law.source
    xs, ys, mass = src.x_alphabet, src.y_alphabet, src.mass
    copies = tuple((tau,) for tau in law.transcripts)
    table = law.p_tau_given_xy
    for _ in range(n - 1):
        xs = tuple((a if isinstance(a, tuple) else (a,)) + (b,)
                   for a in xs for b in src.x_alphabet)
        ys = tuple((a if isinstance(a, tuple) else (a,)) + (b,)
                   for a in ys for b in src.y_alphabet)
        mass = np.kron(mass, src.mass)
        copies = tuple(c + (tau,) for c in copies for tau in law.transcripts)
        table = np.stack([np.kron(pa, pb) for pa in table
                          for pb in law.p_tau_given_xy])
        table = np.where(table * mass > 0, table, 0.0)
    k, i, j = np.nonzero(table * mass > 0)
    # one copy is the base itself, as its alphabets are
    taus = law.transcripts if n == 1 else tuple(tuple(zip(*c))
                                                for c in copies)
    return xs, ys, mass, taus, (k, i, j, table[k, i, j])


def dense_histories(law, t):
    """Distinct prefixes of length t - 1 of transcripts with positive joint
    mass, in transcript order."""
    joint, seen = dense_joint(law), []
    for k, tau in enumerate(law.transcripts):
        if len(tau) >= t:
            h = tau[: t - 1]
            if h not in seen and float(joint[k].sum()) > 0:
                seen.append(h)
    return tuple(seen)


def dense_round_messages(law, t):
    return tuple(sorted({tau[t - 1] for tau in law.transcripts
                         if len(tau) >= t}, key=repr))


def dense_round_view(law, t, hist, block_bytes=1 << 21):
    """One round view from (M, nx, ny) tables: ``(messages, p_m_given_x,
    p_m_given_y, p_m_given_xy, p_hist_xy)``.  The marginals of
    P(hist + m, x, y) are summed a block of messages at a time, at most
    ``block_bytes`` of float64 per block (one message at least)."""
    nx, ny = law.source.mass.shape
    prefix_idx = [k for k, tau in enumerate(law.transcripts)
                  if len(tau) >= t and tau[: t - 1] == hist]
    messages = tuple(sorted({law.transcripts[k][t - 1] for k in prefix_idx},
                            key=repr))
    midx = {m: a for a, m in enumerate(messages)}
    M = len(messages)
    p_hm_xy = np.zeros((M, nx, ny))
    for k in prefix_idx:
        p_hm_xy[midx[law.transcripts[k][t - 1]]] += law.p_tau_given_xy[k]
    p_h_xy = p_hm_xy.sum(axis=0)
    joint_h = p_h_xy * law.source.mass
    num_x, num_y = np.empty((M, nx)), np.empty((M, ny))
    step = max(1, block_bytes // (8 * nx * ny))
    for a in range(0, M, step):
        joint_hm = p_hm_xy[a:a + step] * law.source.mass
        num_x[a:a + step] = joint_hm.sum(axis=2)
        num_y[a:a + step] = joint_hm.sum(axis=1)
    den_x, den_y = joint_h.sum(axis=1), joint_h.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_m_x = np.where(den_x[None, :] > 0, num_x / den_x[None, :], 0.0).T
        p_m_y = np.where(den_y[None, :] > 0, num_y / den_y[None, :], 0.0).T
        p_m_xy = np.where(p_h_xy[None, :, :] > 0,
                          p_hm_xy / p_h_xy[None, :, :], 0.0)
    return messages, p_m_x, p_m_y, p_m_xy, joint_h


def dense_view_atoms(p_m_xy, joint_h):
    """The positive atoms ``(a, i, j, weight)`` of P(hist, m, x, y), in
    row-major (message, x, y) order."""
    a, i, j = np.nonzero(p_m_xy > 0)
    w = joint_h[i, j] * p_m_xy[a, i, j]
    pos = w > 0
    return a[pos], i[pos], j[pos], w[pos]


def dense_view_prior(joint_h, t):
    """The speaker's input law given the history: x in odd rounds."""
    hist_tx = joint_h.sum(axis=1 if t % 2 else 0)
    return hist_tx / hist_tx.sum()


def dense_round_spectrum(law, t, side):
    """``round_density_spectrum`` from dense views, merged by
    :func:`merge_atoms`."""
    own_is_x = (t % 2 == 1) == (side == "tx")
    vals, probs = [], []
    for hist in dense_histories(law, t):
        _, p_m_x, p_m_y, p_m_xy, joint_h = dense_round_view(law, t, hist)
        a, i, j, w = dense_view_atoms(p_m_xy, joint_h)
        cond = p_m_x[i, a] if own_is_x else p_m_y[j, a]
        vals += [-math.log2(v) for v in cond.tolist()]
        probs += w.tolist()
    return merge_atoms(vals, probs)


def dense_round_inputs(law, t):
    """Engine 5's round-t inputs, one history at a time on the round's
    message universe: ``(p_tx, p_rx, prior, next)``, the speaker's and
    the listener's message laws (H, n, U), the speaker's priors and the
    next-history table (None in the last round)."""
    hs, universe = dense_histories(law, t), dense_round_messages(law, t)
    col = {m: a for a, m in enumerate(universe)}
    nx, ny = law.source.mass.shape
    n_tx, n_rx = (nx, ny) if t % 2 else (ny, nx)
    p_tx, p_rx = np.zeros((len(hs), n_tx, len(universe))), \
        np.zeros((len(hs), n_rx, len(universe)))
    prior = np.empty((len(hs), n_tx))
    for h, hist in enumerate(hs):
        msgs, p_m_x, p_m_y, _, joint_h = dense_round_view(law, t, hist)
        cols = [col[m] for m in msgs]
        own = (p_m_x, p_m_y) if t % 2 else (p_m_y, p_m_x)
        p_tx[h][:, cols], p_rx[h][:, cols] = own
        prior[h] = dense_view_prior(joint_h, t)
    nxt = None
    if t < law.n_rounds:
        index = {h: a for a, h in enumerate(dense_histories(law, t + 1))}
        nxt = np.array([[index.get(h + (m,), -1) for m in universe]
                        for h in hs], dtype=np.int64).reshape(
                            len(hs), len(universe))
    return p_tx, p_rx, prior, nxt


def conditional_density(cond):
    """-log2 of every entry of a conditional table, by ``math.log2`` per
    positive entry, +inf where the mass is zero."""
    out = np.full(cond.shape, np.inf)
    live = cond > 0
    out[live] = [-math.log2(c) for c in cond[live].tolist()]
    return out


def slice_table(cond, cfg):
    """The slice of -log2 of every entry of a dense conditional table, 0
    (the tail) where the mass is zero: the slice tables as the engines cut
    them before the round views carried densities, a second ``log2`` pass
    over the dense conditionals."""
    h = conditional_density(cond)
    inside = (h >= cfg.lambda_min) & (h < cfg.lambda_max)
    with np.errstate(invalid="ignore"):
        i = (h - cfg.lambda_min) // cfg.delta + 1
    return np.where(inside, np.minimum(i, cfg.n_slices), 0).astype(int)


def atom_round_spectrum(law, t, side):
    """``round_density_spectrum`` as the atom form first computed it:
    -log2 of each positive atom's entry of its party's conditional in the
    round views, one ``math.log2`` per atom, merged by
    :func:`merge_atoms`."""
    views = law.round_views(t)
    h, u, i, j, w = views.atoms
    cond = (views.p_m_given_x[h, i, u] if (t % 2 == 1) == (side == "tx")
            else views.p_m_given_y[h, j, u])
    return merge_atoms([-math.log2(c) for c in cond.tolist()], w.tolist())


def k_table(cfg_tx, gamma, total_hash_bits):
    """k(J) for J = 0 .. n_tx: lambda_min + (J - 1) delta - 2 log2 n_tx
    - 2 gamma + 2, floored and clipped to [0, total_hash_bits], one index
    at a time."""
    n = cfg_tx.n_slices
    return np.array([min(max(math.floor(
        cfg_tx.lambda_min + (j - 1) * cfg_tx.delta - 2 * math.log2(n)
        - 2 * gamma + 2), 0), total_hash_bits) for j in range(n + 1)],
        dtype=np.int64)


def add_at_j_given_x(p_m, slice_tx, n_j):
    """P(J | x) (..., n_x, n_j) of message laws ``p_m`` (..., n_x, M)
    whose messages fall in slices ``slice_tx``: ``np.add.at`` over the
    messages in order, from 0.0."""
    out = np.zeros(p_m.shape[:-1] + (n_j,))
    np.add.at(out, np.indices(slice_tx.shape, sparse=True)[:-1]
              + (slice_tx,), p_m)
    return out


def dense_law_spectrum(law, selector):
    """``TranscriptLaw.spectrum`` from the dense table, one (t, x, y) of
    positive joint mass at a time, merged by :func:`merge_atoms`."""
    joint = dense_joint(law)
    p_ty, p_tx = joint.sum(axis=1), joint.sum(axis=2)
    p_x, p_y = dense_marginals(law)
    vals, probs = [], []
    for t, i, j in zip(*np.nonzero(joint > 0)):
        w = float(joint[t, i, j])
        pxy = float(law.p_tau_given_xy[t, i, j])
        if selector == "ic":
            v = (math.log2(pxy / float(p_x[t, i]))
                 + math.log2(pxy / float(p_y[t, j])))
        elif selector == "h_xy":
            v = -math.log2(float(law.source.mass[i, j]))
        elif selector == "h_x_given_ypi":
            v = -math.log2(w / float(p_ty[t, j]))
        elif selector == "hsum_ext":
            v = (-math.log2(w / float(p_ty[t, j]))
                 - math.log2(w / float(p_tx[t, i])))
        else:  # compression
            v = -math.log2(float(p_x[t, i])) - math.log2(float(p_y[t, j]))
        vals.append(v)
        probs.append(w)
    return merge_atoms(vals, probs)


def dense_true_view_law(law):
    """Engine 5's true view law as a dict, in (k, x, y) order."""
    joint = dense_joint(law)
    taus, xs, ys = law.transcripts, law.source.x_alphabet, \
        law.source.y_alphabet
    return {(taus[k], taus[k], xs[i], ys[j]): joint[k, i, j]
            for k, i, j in zip(*np.nonzero(joint > 0))}


# ---------------------------------------------------------------------------
# the dense round kernel that the candidate-list kernel replaced: every
# message of the round is hashed, weighed and searched on every trial
# ---------------------------------------------------------------------------


def dense_hashes(inner, blocks):
    """Packed hashes (T, M) of every message under the T hash blocks
    (T, L, w + 1), from the GF(2) bit products: (A enc(m) + b) mod 2,
    output bit p at weight 2^p."""
    L, w = blocks.shape[1], blocks.shape[2] - 1
    enc = ((np.arange(len(inner.messages))[:, None] >> np.arange(w)) & 1)
    bits = (np.einsum("mc,tpc->tmp", enc, blocks[:, :, :w].astype(np.int64))
            + blocks[:, None, :, w]) % 2
    return bits @ (np.int64(1) << np.arange(L, dtype=np.int64))


def dense_mstar_cum(p_rows, restrict, h, k_t, u):
    """Cumulative weights (T, M) of M*: P(m|x) over the messages of
    ``restrict`` whose first ``k_t`` hash bits are ``u``, in message order;
    a row with none steps from 0 to 1 at the first supported message of
    the restriction, else at message 0."""
    mask_t = (np.int64(1) << k_t) - 1
    prefix_ok = (h & mask_t[:, None]) == u[:, None]
    cum = np.cumsum(p_rows * (prefix_ok & restrict), axis=1)
    empty = np.flatnonzero(cum[:, -1] <= 0.0)
    if empty.size:
        fb = restrict[empty] & (p_rows[empty] > 0)
        first = np.where(fb.any(axis=1), np.argmax(fb, axis=1), 0)
        cum[empty] = np.arange(cum.shape[1]) >= first[:, None]
    return cum


def dense_slice_search(inner, h, m_star, slc, k_t, u, extra_bits):
    """The receiver's search over every message, given M*: ``(decoded,
    cause, bits, hit)``, cause codes 0 (none), 1 (tail), 2 (no match) and
    3 (multiple match)."""
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
    cause[active & ~tail] = 2
    cause[tail] = 1
    cause[multi] = 3
    return decoded, cause, bits, hit


def dense_round_kernel(inner, p_rows, restrict, slc, k_t, blocks, u, u_m,
                       extra_bits):
    """One round for T trials on dense (T, M) rows: the transmitter's
    message row ``p_rows``, the ``restrict`` mask and the receiver's slice
    row ``slc``.  Returns ``(m_star, decoded, cause, bits, hit)``."""
    h = dense_hashes(inner, blocks)
    u = u & ((np.int64(1) << k_t) - 1)
    cum = dense_mstar_cum(p_rows, restrict, h, k_t, u)
    m_star = (cum <= u_m[:, None] * cum[:, -1:]).sum(axis=1)
    return (m_star,) + dense_slice_search(inner, h, m_star, slc, k_t, u,
                                          extra_bits)
