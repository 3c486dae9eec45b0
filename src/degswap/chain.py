"""The swap Markov chain: exact transition kernel and the step sampler.

One step draws an unordered pair of U-vertices and an unordered pair of
V-vertices uniformly among the C(k,2)*C(l,2) outcomes, performs the swap on
them when the induced 2x2 submatrix is a one-factor, and stays put
otherwise.  The kernel is symmetric with the uniform distribution as its
stationary law.

Randomness discipline: each step consumes exactly one integer draw from the
state's generator, so runs are reproducible from the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (BipartiteDegreeSequence, BipartiteGraph, count_allowed_swaps,
                   greedy_realize, symmetric_difference)
from .errors import DegreeMismatch


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _unrank_pair(r: int, n: int):
    """The r-th pair (i, j) with i < j, in lexicographic order."""
    i = 0
    remaining = r
    while remaining >= n - 1 - i:
        remaining -= n - 1 - i
        i += 1
    return i, i + 1 + remaining


def transition_prob(G: BipartiteGraph, H: BipartiteGraph) -> Fraction:
    """Exact one-step probability of moving from G to H.

    For H one swap away this is 1/(C(k,2)*C(l,2)); for H = G it is the
    complementary holding probability; otherwise zero.
    """
    if (G.k, G.l) != (H.k, H.l) or not G.same_margins(H):
        raise DegreeMismatch("graphs do not realize the same degree sequence")
    denom = pair_count(G.k) * pair_count(G.l)
    if G == H:
        if denom == 0:
            return Fraction(1)
        return 1 - Fraction(count_allowed_swaps(G), denom)
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


def step(state: ChainState) -> ChainState:
    """Advance the chain by one step."""
    G = state.graph
    denom = pair_count(G.k) * pair_count(G.l)
    if denom == 0:
        return ChainState(G, state.rng)
    r = int(state.rng.integers(denom))
    iu, il = divmod(r, pair_count(G.l))
    u1, u2 = _unrank_pair(iu, G.k)
    v1, v2 = _unrank_pair(il, G.l)
    a = G.adj
    if a[u1, v1] and a[u2, v2] and not a[u1, v2] and not a[u2, v1]:
        nxt = G.with_edges([(u1, v1), (u2, v2)], [(u1, v2), (u2, v1)])
    elif a[u1, v2] and a[u2, v1] and not a[u1, v1] and not a[u2, v2]:
        nxt = G.with_edges([(u1, v2), (u2, v1)], [(u1, v1), (u2, v2)])
    else:
        nxt = G
    return ChainState(nxt, state.rng)


def sample(ds: BipartiteDegreeSequence, steps: int, seed: int) -> BipartiteGraph:
    """Run the chain for ``steps`` moves from the greedy realization.

    Deterministic in ``seed``.  No burn-in heuristics: the caller chooses
    the step count.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    G = greedy_realize(ds)
    denom = pair_count(G.k) * pair_count(G.l)
    if denom == 0 or steps == 0:
        return G
    rng = np.random.default_rng(seed)
    arr = G.adj.copy()
    cl = pair_count(G.l)
    for _ in range(steps):
        r = int(rng.integers(denom))
        iu, il = divmod(r, cl)
        u1, u2 = _unrank_pair(iu, G.k)
        v1, v2 = _unrank_pair(il, G.l)
        a11, a12 = arr[u1, v1], arr[u1, v2]
        a21, a22 = arr[u2, v1], arr[u2, v2]
        if a11 and a22 and not a12 and not a21:
            arr[u1, v1] = arr[u2, v2] = 0
            arr[u1, v2] = arr[u2, v1] = 1
        elif a12 and a21 and not a11 and not a22:
            arr[u1, v2] = arr[u2, v1] = 0
            arr[u1, v1] = arr[u2, v2] = 1
    return BipartiteGraph._trusted(arr)
