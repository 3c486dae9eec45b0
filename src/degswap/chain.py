"""The swap Markov chain: exact transition kernel and the step sampler.

One step draws an unordered pair of U-vertices and an unordered pair of
V-vertices uniformly among the C(k,2)*C(l,2) outcomes, performs the swap on
them when the induced 2x2 submatrix is a one-factor, and stays put
otherwise.  The kernel is symmetric with the uniform distribution as its
stationary law.

Randomness discipline: each step consumes exactly one integer draw from its
chain's generator, so runs are reproducible from the seed alone.  A chain
draws its steps in one vectorized call per pass of at most 4,096 draws, which
reproduces the stream of one scalar draw per step, so a seed gives the same
trajectory as stepping one move at a time.  Chains are walked in groups: each
chain of a group draws from its own generator as above, and the group's draws
are unranked together and walked over one buffer holding every chain's cells.
A small group is walked by a scalar loop, draw by draw; from ``_LOCKSTEP``
chains on, the group is walked in lockstep, one vectorized move of every
chain per step.  Chains own disjoint cells, so either way a group's
trajectories are those of its chains walked one by one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (BipartiteDegreeSequence, BipartiteGraph, _check_margins, allowed_swaps,
                   greedy_realize, symmetric_difference)


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


def transition_prob(G: BipartiteGraph, H: BipartiteGraph) -> Fraction:
    """Exact one-step probability of moving from G to H.

    For H one swap away this is 1/(C(k,2)*C(l,2)); for H = G it is the
    complementary holding probability; otherwise zero.  ``core._check_margins``
    checks the pair.
    """
    _check_margins(G, H)
    denom = pair_count(G.k) * pair_count(G.l)
    if G == H:
        if denom == 0:
            return Fraction(1)
        return 1 - Fraction(len(allowed_swaps(G)), denom)
    if denom == 0:
        return Fraction(0)
    part = symmetric_difference(G, H)
    if len(part.x_edges) != 2 or len(part.y_edges) != 2:
        return Fraction(0)
    rows = {u for u, _ in part.x_edges} | {u for u, _ in part.y_edges}
    cols = {v for _, v in part.x_edges} | {v for _, v in part.y_edges}
    if len(rows) != 2 or len(cols) != 2:
        return Fraction(0)
    return Fraction(1, denom)


@dataclass
class ChainState:
    """A realization plus the generator that drives its walk.

    The generator is owned by the state; advancing a state advances the
    stream in place, so a state should have a single consumer.
    """

    graph: BipartiteGraph
    rng: np.random.Generator

    @classmethod
    def start(cls, ds: BipartiteDegreeSequence, seed: int) -> "ChainState":
        return cls(greedy_realize(ds), np.random.default_rng(seed))


def _group_size(steps: int, cells: int) -> int:
    """The number of chains of ``steps`` moves on ``cells`` cells walked as
    one group: at most ``_GROUP`` chains, ``8 * _GROUP`` draws and
    ``64 * _GROUP`` cells, and at least one chain.  A group of chains of at
    most ``_GROUP`` steps is walked in one pass: 3 x 3 chains of 200 steps
    group by 163, which the lockstep loop walks."""
    return max(1, min(_GROUP, 8 * _GROUP // max(steps, 1), 64 * _GROUP // max(cells, 1)))


def _walk(start: BipartiteGraph, rngs: list, steps: int) -> bytearray:
    """Run one chain ``steps`` moves from ``start`` under each generator of
    ``rngs``, and return their cells as one buffer, chain i's ``start.key()``
    layout at offset i*k*l: the package's one swap-attempt routine, which
    ``advance`` runs as a group of one.

    Step t of a chain draws r_t uniformly below C(k,2)*C(l,2), takes the
    U-pair of rank r_t // C(l,2) and the V-pair of rank r_t % C(l,2), and
    exchanges the 2x2 submatrix on them when it is a one-factor (x11 == x22
    != x12 == x21).  A pass walks ``min(_GROUP, 8 * _GROUP // g)`` steps of
    each of the g chains (at least one).  Each chain draws from its own
    generator, in one ``integers(denom, size=...)`` call per pass, the same
    stream as one scalar draw per step; nothing is drawn when ``steps`` or
    C(k,2)*C(l,2) is 0.  A pass's draws are read off the pair tables
    ``_pairs`` into cell positions, each chain's offset by its layer, in
    sub-blocks of ``max(1, _GROUP // g)`` steps of every chain, so at most
    ``_GROUP`` draws as ``_group_size`` holds g to ``_GROUP``.

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
    g = len(rngs)
    per = min(_GROUP, max(1, 8 * _GROUP // g))
    sub = max(1, _GROUP // g)
    (ua, ub), (va, vb) = _pairs(k), _pairs(l)
    layer = np.arange(0, g * k, k)[:, None]
    cells = bytearray(start.key() * g)
    flat = np.frombuffer(cells, np.uint8)      # the same buffer, for the lockstep loop
    for done in range(0, steps if denom else 0, per):
        n = min(per, steps - done)
        # row i holds chain i's draws
        if g == 1:
            draws = rngs[0].integers(denom, size=(1, n))
        else:
            draws = np.empty((g, n), np.int64)
            for row, rng in zip(draws, rngs):
                row[:] = rng.integers(denom, size=n)
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
    walked ``steps`` moves from ``start``, each driven by
    ``np.random.default_rng(seed)``, as a read-only (g, k, l) ``uint8``
    stack.  Groups hold ``_group_size(steps, k * l)`` chains, the last one
    what is left: 1,000 3 x 3 chains of 200 steps walk as six groups of 163,
    in lockstep, and one of 22 in the scalar loop.  A group's generators are
    made when it is walked, so no more than one group's are held at a time."""
    k, l = start.k, start.l
    size = _group_size(steps, k * l)
    for lo in range(0, len(seeds), size):
        rngs = [np.random.default_rng(s) for s in seeds[lo:lo + size]]
        stack = np.frombuffer(_walk(start, rngs, steps), np.uint8).reshape(len(rngs), k, l)
        stack.setflags(write=False)
        yield stack


def advance(state: ChainState, steps: int) -> ChainState:
    """Run the chain ``steps`` moves from ``state``: ``_walk`` with a group
    of one, which ``step`` and ``sample`` run.  The draws come from
    ``state.rng``, which the returned state shares, and leave it where one
    scalar draw per step would."""
    steps = _check_steps(steps)
    G = state.graph
    cells = _walk(G, [state.rng], steps)
    if cells != G.key():
        G = BipartiteGraph._trusted(np.frombuffer(cells, np.uint8).reshape(G.k, G.l))
    return ChainState(G, state.rng)


def step(state: ChainState) -> ChainState:
    """Advance the chain by one step."""
    return advance(state, 1)


def sample(ds: BipartiteDegreeSequence, steps: int, seed: int) -> BipartiteGraph:
    """Run the chain for ``steps`` moves from the greedy realization.

    Deterministic in ``seed``.  No burn-in heuristics: the caller chooses
    the step count.  A count that is not an integer, or is negative, is
    rejected before ``ds`` is realized.
    """
    _check_steps(steps)
    return advance(ChainState.start(ds, seed), steps).graph
