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
are unranked in one pass and walked in one loop over a buffer holding every
chain's cells, so a group's trajectories are those of its chains walked one
by one.
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


# Draws walked in one pass, by a single chain or by a group.  On 3 x 3 chains
# of 200 steps (2-vCPU Xeon, numpy 2.4) a chain costs 74 us in groups of 200
# draws, 56 us at 4,096 and 72 us at 16,384, where the position lists outgrow
# the cache; the pass peaks near 100 bytes per draw (tracemalloc), so a pass
# holds about 0.4 MB.  A single chain gains too: 200,000 steps of one 100 x
# 100 50-regular chain took 82.3 ms in passes of 65,536 draws and 55.9 ms in
# passes of 4,096.  A group's cell buffer is held to 64 bytes per draw of this
# bound (256 KB): 100 x 100 chains group by 20 at 200 steps.
_GROUP = 1 << 12


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
    one group: at most ``_GROUP`` draws and ``64 * _GROUP`` cells, and at
    least one chain."""
    return max(1, min(_GROUP // max(steps, 1), 64 * _GROUP // max(cells, 1)))


def _walk(start: BipartiteGraph, rngs: list, steps: int) -> bytearray:
    """Run one chain ``steps`` moves from ``start`` under each generator of
    ``rngs``, and return their cells as one buffer, chain i's ``start.key()``
    layout at offset i*k*l: the package's one swap-attempt routine, which
    ``advance`` runs as a group of one.

    Step t of a chain draws r_t uniformly below C(k,2)*C(l,2), takes the
    U-pair of rank r_t // C(l,2) and the V-pair of rank r_t % C(l,2), and
    exchanges the 2x2 submatrix on them when it is a one-factor (x11 == x22
    != x12 == x21).  A pass walks at most ``_GROUP`` draws, ``_GROUP // g``
    steps of each of the g chains (at least one).  Each chain draws from its
    own generator, in one ``integers(denom, size=...)`` call per pass, the
    same stream as one scalar draw per step; nothing is drawn when ``steps``
    or C(k,2)*C(l,2) is 0.  Per pass the group's draws are read off the pair
    tables ``_pairs``, each chain's cell positions offset by its layer, and
    walked in one loop over a flat byte buffer holding every chain's cells.
    """
    k, l = start.k, start.l
    cl = pair_count(l)
    denom = pair_count(k) * cl
    g = len(rngs)
    per = max(1, _GROUP // g)
    (ua, ub), (va, vb) = _pairs(k), _pairs(l)
    cells = bytearray(start.key() * g)
    for done in range(0, steps if denom else 0, per):
        n = min(per, steps - done)
        draws = (rngs[0].integers(denom, size=n) if g == 1
                 else np.concatenate([rng.integers(denom, size=n) for rng in rngs]))
        iu, il = np.divmod(draws, cl)
        u1, u2, v1, v2 = ua[iu], ub[iu], va[il], vb[il]
        if g > 1:
            # chain i's rows are rows i*k .. i*k + k-1 of the buffer
            layer = np.repeat(np.arange(0, g * k, k), n)
            u1 += layer
            u2 += layer
        u1 *= l
        u2 *= l
        for p11, p12, p21, p22 in zip((u1 + v1).tolist(), (u1 + v2).tolist(),
                                      (u2 + v1).tolist(), (u2 + v2).tolist()):
            x11, x12 = cells[p11], cells[p12]
            if x11 == cells[p22] and x12 == cells[p21] and x11 != x12:
                cells[p11] = cells[p22] = x12
                cells[p12] = cells[p21] = x11
    return cells


def _walk_seeds(start: BipartiteGraph, seeds: range, steps: int):
    """Yield, group by group, the cells of one chain per seed of ``seeds``
    walked ``steps`` moves from ``start``, each driven by
    ``np.random.default_rng(seed)``, as a read-only (g, k, l) ``uint8``
    stack.  A group's generators are made when it is walked, so no more than
    one group's are held at a time."""
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
