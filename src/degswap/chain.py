"""The swap Markov chain and its sampler.

One step draws an unordered pair of U-vertices and an unordered pair of
V-vertices uniformly among the C(k,2)*C(l,2) outcomes, performs the swap on
them when the induced 2x2 submatrix is a one-factor, and stays put
otherwise.  The kernel is symmetric with the uniform distribution as its
stationary law; ``mixing.TransitionMatrix`` holds it exactly.

Randomness discipline: each step consumes exactly one integer draw from its
chain's stream, so runs are reproducible from the seed alone.  A chain draws
its steps in one vectorized call per pass of at most 4,096 draws, which
reproduces the stream of one scalar draw per step, so a seed gives the same
trajectory as stepping one move at a time.  ``sample`` walks one chain on
``np.random.default_rng(seed)``.  ``degswap sample`` walks chains in groups,
and chain i of a group draws exactly
``np.random.default_rng(seed_i).integers(denom)``'s stream without a
generator per chain: ``_seeded`` runs numpy's
``SeedSequence`` hash on every seed of the group at once, seeds PCG64 from
it, and reads the group's bounded draws off each chain's raw 64-bit outputs
with Lemire's rejection test, vectorized.  The group's draws are unranked
together and walked over one buffer holding every chain's cells.  A small
group is walked by a scalar loop, draw by draw; from ``_LOCKSTEP`` chains on,
the group is walked in lockstep, one vectorized move of every chain per step.
Chains own disjoint cells, so either way a group's trajectories are those of
its chains walked one by one.
"""

from __future__ import annotations

import operator
import sys
from functools import lru_cache

import numpy as np

from .core import BipartiteDegreeSequence, BipartiteGraph, greedy_realize


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


# Draws in one position sub-block, and the unit of the walk's other bounds: a
# pass draws at most 8 * _GROUP, at most _GROUP of them per chain, and a group
# holds at most _GROUP chains and 64 * _GROUP cells (256 KB).  On 3 x 3 chains
# of 200 steps (2-vCPU Xeon, numpy 2.4) a chain cost 74 us in groups of 200
# draws, 56 us at 4,096 and 72 us at 16,384, where the position lists outgrow
# the cache.  A single chain gains too: 200,000 steps of one 100 x 100
# 50-regular chain took 82.3 ms in passes of 65,536 draws and 55.9 ms in
# passes of 4,096.  Passes of 8 * _GROUP let lockstep groups grow: 10,000 3 x
# 3 chains of 200 steps took 326, 300 and 291 ms with passes of 4, 8 and 16 *
# _GROUP draws (groups of 81, 163 and 327).  A full lockstep pass of 163 such
# chains peaks at 864 KB (tracemalloc), 255 KB of it the pass's draws.
# 100 x 100 chains group by 26 at 200 steps, 128 x 128 chains by 16.
_GROUP = 1 << 12

# The least group walked in lockstep.  Per chain of 200 steps (same host), the
# scalar loop against lockstep cost 39 vs 48 us at 16 chains, 37 vs 37 at 24
# and 37 vs 31 at 32 on 3 x 3; 42 vs 48, 44 vs 40 and 43 vs 33 on 16 x 16;
# and 46 vs 38 at 24 on 100 x 100.  At 57 and at 1,000 steps the two loops
# cross at the same group size.
_LOCKSTEP = 24

# A move of the lockstep loop reads a chain's cells (x11, x12, x21, x22) as
# the 4-bit pattern x @ _BITS and writes back _FLIP[pattern]: the pattern's
# own bits, except for the two one-factors 0b1001 and 0b0110, which swap.
_BITS = np.array([8, 4, 2, 1], np.uint8)
_FLIP = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)], np.uint8)
_FLIP[[0b1001, 0b0110]] = _FLIP[[0b0110, 0b1001]]
_FLIP.setflags(write=False)


@lru_cache(maxsize=32)
def _pairs(n: int):
    """The pairs (i, j), i < j, of n items in lexicographic order, as two
    read-only int64 arrays: the pair of rank r is (i[r], j[r])."""
    i, j = (a.astype(np.int64, copy=False) for a in np.triu_indices(n, 1))
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _check_steps(steps: int) -> int:
    """``steps`` as an int, read by ``operator.index``: ``TypeError`` for
    any other type and ``ValueError`` when it is negative."""
    try:
        steps = operator.index(steps)
    except TypeError:
        raise TypeError(f"steps must be an integer, not {type(steps).__name__}") from None
    if steps < 0:
        raise ValueError("steps must be non-negative")
    return steps


def _group_size(steps: int, cells: int) -> int:
    """The number of chains of ``steps`` moves on ``cells`` cells walked as
    one group: at most ``_GROUP`` chains, ``8 * _GROUP`` draws and
    ``64 * _GROUP`` cells, and at least one chain.  A group of chains of at
    most ``_GROUP`` steps is walked in one pass: 3 x 3 chains of 200 steps
    group by 163, which the lockstep loop walks."""
    return max(1, min(_GROUP, 8 * _GROUP // max(steps, 1), 64 * _GROUP // max(cells, 1)))


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
# (numpy/random/bit_generator.pyx and pcg64.h), under numpy's
# stream-compatibility policy for SeedSequence and PCG64
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_LOW = int(sys.byteorder != "little")          # a uint64's low half in its uint32 view


@lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, calls: int) -> tuple:
    """A SeedSequence hash constant over ``calls`` hash calls: call c xors
    with entry c and multiplies by entry c + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


@lru_cache(maxsize=8)
def _lanes(g: int) -> tuple:
    """1, 2^32 - 1, 2^16 - 1 and 2^32 in each of g 64-bit lanes of an int."""
    ones = ((1 << 64 * g) - 1) // ((1 << 64) - 1)
    return ones, _M32 * ones, 0xFFFF * ones, ones << 32


def _pcg_states(seeds) -> tuple:
    """PCG64's (state, inc) pairs, as two lists of ints, of
    ``np.random.default_rng(seed)`` for every seed of ``seeds``.

    numpy's ``SeedSequence`` hash runs on every seed at once: a pool word,
    and each of the seeds' 32-bit words (low first; a seed of at most four
    words hashes as if padded with zero words), is one int holding seed i's
    value in 64-bit lane i.  Each step of the hash is a xor, a product by a
    32-bit constant or a shift, so it stays in its lane once masked back to
    32 bits, and a difference is taken lane by lane with 2^32 added first.
    That is about 260 int operations a group, where the same hash on a
    (words, g) uint32 array is about 60 numpy calls: on a 2-vCPU Xeon
    (numpy 2.4) this function took 34 against 64 us on 10 seeds, sample b's
    group, 136 against 116 us on 100 and 212 against 156 us on 163.
    PCG64's seeding step then runs per chain.  A negative seed raises
    numpy's ``ValueError``."""
    g = len(seeds)
    if g and min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    width = max(4, -(-int(max(seeds, default=0)).bit_length() // 32))
    # row i seed i's words, low first; then column j as one int, seed i in lane i
    rows = np.frombuffer(b"".join(int(s).to_bytes(4 * width, "little") for s in seeds), "<u4")
    words = [int.from_bytes(col.astype("<u8").tobytes(), "little")
             for col in rows.reshape(g, width).T]
    ones, m32, m16, c32 = _lanes(g)

    def hashmix(v, h, c):
        v = (v ^ h[c] * ones) * h[c + 1] & m32
        return v ^ v >> 16 & m16

    def mix(x, y):
        r = (x * _MIX_L & m32) + c32 - (y * _MIX_R & m32) & m32
        return r ^ r >> 16 & m16

    a = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * (width - 4))
    pool = [hashmix(words[i], a, i) for i in range(4)]
    c = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src], a, c))
                c += 1
    # words past the pool's four, in the lanes of the seeds that have them
    for src in range(4, width):
        has = sum(_M32 << 64 * i for i, s in enumerate(seeds) if int(s) >> 32 * src)
        for dst in range(4):
            pool[dst] = pool[dst] & ~has | mix(pool[dst], hashmix(words[src], a, c)) & has
            c += 1
    # generate_state(4, uint64): 8 words off the pool, paired low word first
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    out = [hashmix(pool[i % 4], b, i) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (
        np.frombuffer((out[j] | out[j + 1] << 32).to_bytes(8 * g, "little"), "<u8").tolist()
        for j in (0, 2, 4, 6))
    states, incs = [], []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((ih << 64 | il) << 1 | 1) & _M128
        states.append(((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _M128)
        incs.append(inc)
    return states, incs


@lru_cache(maxsize=64)
def _jump(t: int) -> tuple:
    """(M^t, 1 + M + ... + M^(t-1)) mod 2^128 for PCG64's multiplier M:
    t steps take the state s to s * M^t + inc * (1 + ... + M^(t-1))."""
    power = pow(_PCG_MULT, t, (_PCG_MULT - 1) << 128)
    return power & _M128, (power - 1) // (_PCG_MULT - 1) & _M128


def _seeded(seeds, denom: int, bits=None):
    """The draws of a group of seeded chains: ``draw(n)`` gives the next
    (g, n) int64 draws below ``denom`` of every seed, pass after pass exactly
    ``np.random.default_rng(seed).integers(denom, size=n)``, with no
    ``Generator`` per chain.  ``bits``, a ``PCG64`` made once per caller,
    gives each chain's raw outputs (``random_raw``) from its state, which
    is held as an int and advanced by ``_jump``.

    numpy's bounded draw is Lemire's: up to 2^32, each draw reads 32-bit
    words, the low half of an output first, and takes ``(w * denom) >> 32``,
    rejecting w while ``(w * denom) mod 2^32 < (2^32 - denom) mod denom``;
    above 2^32 the same test runs on whole outputs at 64 bits, and a
    denominator of at most 1 reads nothing.  A pass reads words for every
    chain at once, with a few spare ones for rejections (and reads again
    with more when a chain runs short), and each chain's state then moves
    past the outputs it used.  A chain whose pass ended on a low half
    carries the high half into its next pass.  A negative seed raises
    numpy's ``ValueError`` here, before anything is drawn.
    """
    states, incs = _pcg_states(seeds)
    g = len(states)
    if denom <= 1:
        return lambda n: np.zeros((g, n), np.int64)
    bits = np.random.PCG64(0) if bits is None else bits
    wide = denom > 1 << 32                      # numpy's 64-bit branch
    per = 1 if wide else 2                      # words per raw output
    span = 1 << (64 if wide else 32)
    threshold = (span - denom) % denom
    reject = threshold / (span - threshold)     # rejections per accepted word
    setter = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    carry = [None] * g                          # a chain's carried high half, if any

    def read(width):
        """At least ``width`` words of every chain, as (raw outputs, lead,
        draws, accepted): ``draws`` holds each word's ``(w * denom) >> 32``
        (>> 64 when wide), with the carried halves in a lead column when a
        chain has one; ``accepted`` is None when every word is."""
        lead = int(any(c is not None for c in carry))
        m = -(-(width - lead) // per)
        raws = np.empty((g, m), np.uint64)
        inner = setter["state"]
        for i, (s, inc) in enumerate(zip(states, incs)):
            inner["state"], inner["inc"] = s, inc
            bits.state = setter
            raws[i] = bits.random_raw(m)
        if wide:
            vals, low = _mul64(raws, denom)
            return raws, 0, vals, low >= threshold if threshold else None
        vals = np.empty((g, lead + 2 * m), np.uint64)
        if lead:
            vals[:, 0] = [c or 0 for c in carry]
        np.bitwise_and(raws, np.uint64(_M32), out=vals[:, lead::2])
        np.right_shift(raws, np.uint64(32), out=vals[:, lead + 1::2])
        vals *= np.uint64(denom)
        # the low 32 bits of each product, read in place
        ok = vals.view(np.uint32)[:, _LOW::2] >= threshold if threshold else None
        if lead and None in carry:
            # only a rejection leaves chains out of step, so ok is an array
            ok[:, 0] &= [c is not None for c in carry]
        vals >>= np.uint64(32)
        return raws, lead, vals, ok

    def draw(n):
        spare = int(n * reject + 3 * (n * reject) ** 0.5 + 0.5)
        while True:
            raws, lead, vals, ok = read(n + spare)
            if ok is None or ok[:, :n].all():
                draws, used = vals[:, :n], [n - lead] * g
                break
            count = ok.cumsum(1, dtype=np.int32)
            if count[:, -1].min() >= n:
                draws = vals[ok & (count <= n)].reshape(g, n)
                # each chain's words up to its n-th accepted one, past the lead
                used = ((count < n).sum(1) + 1 - lead).tolist()
                break
            spare += n                          # a chain ran short
        # each chain moves past the outputs it used; an odd count of words
        # leaves the last output's high half
        for i, u in enumerate(used):
            t = -(-u // per)
            a, c = _jump(t)
            states[i] = (states[i] * a + incs[i] * c) & _M128
            carry[i] = int(raws[i, t - 1]) >> 32 if u % per else None
        return draws.view(np.int64)

    return draw


def _mul64(w, d: int) -> tuple:
    """The high and low 64 bits of the uint64 array ``w`` times ``d`` < 2^64,
    on 32-bit halves."""
    m32, sh = np.uint64(_M32), np.uint64(32)
    dl, dh = np.uint64(d & _M32), np.uint64(d >> 32)
    wl, wh = w & m32, w >> sh
    ll, lh, hl = wl * dl, wl * dh, wh * dl
    mid = (ll >> sh) + (lh & m32) + (hl & m32)
    lo = mid << sh | ll & m32
    hi = wh * dh + (lh >> sh) + (hl >> sh) + (mid >> sh)
    return hi, lo


def _walk(start: BipartiteGraph, g: int, steps: int, draw) -> bytearray:
    """Run g chains ``steps`` moves from ``start``, each on its own row of
    draws from ``draw``, and return their cells as one buffer, chain i's
    ``start.key()`` layout at offset i*k*l: the package's one swap-attempt
    routine, which ``sample`` runs as a group of one.

    Step t of a chain draws r_t uniformly below C(k,2)*C(l,2), takes the
    U-pair of rank r_t // C(l,2) and the V-pair of rank r_t % C(l,2), and
    exchanges the 2x2 submatrix on them when it is a one-factor (x11 == x22
    != x12 == x21).  A pass walks ``min(_GROUP, 8 * _GROUP // g)`` steps of
    each of the g chains (at least one), whose draws come from one call
    ``draw(n)``: a (g, n) array, row i chain i's next n draws.  ``sample``
    passes its generator's ``integers``, ``_walk_seeds`` the ``_seeded``
    kernel; nothing is drawn when ``steps`` or C(k,2)*C(l,2) is 0.  A pass's
    draws are read off the pair tables ``_pairs`` into cell positions, each
    chain's offset by its layer, in sub-blocks of ``max(1, _GROUP // g)``
    steps of every chain, so at most ``_GROUP`` draws as ``_group_size``
    holds g to ``_GROUP``.

    Only the inner loop depends on g.  Below ``_LOCKSTEP`` chains a scalar
    loop walks the sub-block draw by draw on the byte buffer.  From
    ``_LOCKSTEP`` on, each step moves every chain at once: gather its four
    cells as a (g, 4) array, read them as a 4-bit pattern and scatter back
    ``_FLIP`` of it.  A chain's four cells are distinct and chains hold
    disjoint rows, so the scatter has no collisions, and each chain's
    trajectory is the scalar loop's.
    """
    k, l = start.k, start.l
    cl = pair_count(l)
    denom = pair_count(k) * cl
    per = min(_GROUP, max(1, 8 * _GROUP // g))
    sub = max(1, _GROUP // g)
    (ua, ub), (va, vb) = _pairs(k), _pairs(l)
    layer = np.arange(0, g * k, k)[:, None]
    cells = bytearray(start.key() * g)
    flat = np.frombuffer(cells, np.uint8)      # the same buffer, for the lockstep loop
    for done in range(0, steps if denom else 0, per):
        n = min(per, steps - done)
        draws = draw(n)                         # row i holds chain i's draws
        for lo in range(0, n, sub):
            iu, il = np.divmod(draws[:, lo:lo + sub], cl)
            u1, u2, v1, v2 = ua[iu], ub[iu], va[il], vb[il]
            if g > 1:
                # chain i's rows are rows i*k .. i*k + k-1 of the buffer
                u1 += layer
                u2 += layer
            u1 *= l
            u2 *= l
            at = (u1 + v1, u1 + v2, u2 + v1, u2 + v2)
            if g < _LOCKSTEP:
                for p11, p12, p21, p22 in zip(*(p.ravel().tolist() for p in at)):
                    x11, x12 = cells[p11], cells[p12]
                    if x11 == cells[p22] and x12 == cells[p21] and x11 != x12:
                        cells[p11] = cells[p22] = x12
                        cells[p12] = cells[p21] = x11
            else:
                # step-major and C-ordered, so step t's (g, 4) positions are contiguous
                pos = np.empty((iu.shape[1], g, 4), np.int64)
                for j, p in enumerate(at):
                    pos[:, :, j] = p.T
                for cell in pos:
                    flat[cell] = _FLIP[flat[cell] @ _BITS]
    return cells


def _walk_seeds(start: BipartiteGraph, seeds: range, steps: int):
    """Yield, group by group, the cells of one chain per seed of ``seeds``
    walked ``steps`` moves from ``start``, each on
    ``np.random.default_rng(seed)``'s stream, as a read-only (g, k, l)
    ``uint8`` stack.  Groups hold ``_group_size(steps, k * l)`` chains, the
    last one what is left: 1,000 3 x 3 chains of 200 steps walk as six groups
    of 163, in lockstep, and one of 22 in the scalar loop.  Each group draws
    through one ``_seeded`` kernel, which hashes its seeds when the group is
    reached, so a negative seed raises before the group is walked; one
    ``PCG64`` serves every group."""
    k, l = start.k, start.l
    denom = pair_count(k) * pair_count(l)
    size = _group_size(steps, k * l)
    bits = np.random.PCG64(0)
    for lo in range(0, len(seeds), size):
        group = seeds[lo:lo + size]
        cells = _walk(start, len(group), steps, _seeded(group, denom, bits))
        stack = np.frombuffer(cells, np.uint8).reshape(len(group), k, l)
        stack.setflags(write=False)
        yield stack


def sample(ds: BipartiteDegreeSequence, steps: int, seed: int) -> BipartiteGraph:
    """Run the chain for ``steps`` moves from the greedy realization, on
    ``np.random.default_rng(seed)``'s draws: ``_walk`` with a group of one.

    Deterministic in ``seed``.  No burn-in heuristics: the caller chooses
    the step count.  A step count or a seed that is not an integer raises
    ``TypeError``, and a negative one ``ValueError`` (numpy's, for the
    seed), before ``ds`` is realized.
    """
    steps = _check_steps(steps)
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}") from None
    rng = np.random.default_rng(seed)
    G = greedy_realize(ds)
    denom = pair_count(G.k) * pair_count(G.l)
    cells = _walk(G, 1, steps, lambda n: rng.integers(denom, size=(1, n)))
    if cells == G.key():
        return G
    return BipartiteGraph._trusted(np.frombuffer(cells, np.uint8).reshape(G.k, G.l))
