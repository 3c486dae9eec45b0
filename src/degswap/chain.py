"""The swap Markov chain: exact transition kernel and the step sampler.

One step draws an unordered pair of U-vertices and an unordered pair of
V-vertices uniformly among the C(k,2)*C(l,2) outcomes, performs the swap on
them when the induced 2x2 submatrix is a one-factor, and stays put
otherwise.  The kernel is symmetric with the uniform distribution as its
stationary law.

Randomness discipline: each step consumes exactly one integer draw from the
state's generator, so runs are reproducible from the seed alone.  A walk
draws its steps in one vectorized call (one per block of 65,536 steps) that
reproduces the stream of one scalar draw per step, so a seed gives the same
trajectory as stepping one move at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (BipartiteDegreeSequence, BipartiteGraph, allowed_swaps, greedy_realize,
                   symmetric_difference)
from .errors import DegreeMismatch


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


# Steps drawn and unranked per generator call; bounds a walk's memory.
_BLOCK = 1 << 16


@lru_cache(maxsize=32)
def _row_starts(n: int):
    """For each row i of the lexicographic order on the pairs of n items: the
    rank i*(2n-i-1)/2 of its first pair (i, i+1), and that rank minus i+1, so
    that the pair of rank r in row i is (i, r - shift[i])."""
    i = np.arange(n - 1, dtype=np.int64)
    starts = i * (2 * n - i - 1) // 2
    shift = starts - i - 1
    starts.setflags(write=False)
    shift.setflags(write=False)
    return starts, shift


def _unrank_pairs(r: np.ndarray, n: int):
    """The r-th pairs (i, j) with i < j, in lexicographic order, for an int64
    array of ranks."""
    starts, shift = _row_starts(n)
    i = np.searchsorted(starts, r, side="right") - 1
    return i, r - shift[i]


def _check_steps(steps: int):
    if steps < 0:
        raise ValueError("steps must be non-negative")


def transition_prob(G: BipartiteGraph, H: BipartiteGraph) -> Fraction:
    """Exact one-step probability of moving from G to H.

    For H one swap away this is 1/(C(k,2)*C(l,2)); for H = G it is the
    complementary holding probability; otherwise zero.
    """
    if not G.same_margins(H):
        raise DegreeMismatch("graphs do not realize the same degree sequence")
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


def advance(state: ChainState, steps: int) -> ChainState:
    """Run the chain ``steps`` moves from ``state``: the package's one
    swap-attempt routine, which ``step`` and ``sample`` run.

    Step t draws r_t uniformly below C(k,2)*C(l,2), takes the U-pair of rank
    r_t // C(l,2) and the V-pair of rank r_t % C(l,2), and exchanges the 2x2
    submatrix on them when it is a one-factor (x11 == x22 != x12 == x21).
    The draws come from one ``integers(denom, size=...)`` call per block,
    the same stream as one scalar draw per step.  The cells are walked in a
    flat byte buffer; the returned state shares ``state.rng``.
    """
    _check_steps(steps)
    G = state.graph
    k, l = G.k, G.l
    cl = pair_count(l)
    denom = pair_count(k) * cl
    if denom == 0 or steps == 0:
        return ChainState(G, state.rng)
    cells = bytearray(G.key())
    moved = False
    for done in range(0, steps, _BLOCK):
        iu, il = np.divmod(state.rng.integers(denom, size=min(_BLOCK, steps - done)), cl)
        u1, u2 = _unrank_pairs(iu, k)
        v1, v2 = _unrank_pairs(il, l)
        u1 *= l
        u2 *= l
        for p11, p12, p21, p22 in zip((u1 + v1).tolist(), (u1 + v2).tolist(),
                                      (u2 + v1).tolist(), (u2 + v2).tolist()):
            x11, x12 = cells[p11], cells[p12]
            if x11 == cells[p22] and x12 == cells[p21] and x11 != x12:
                cells[p11] = cells[p22] = x12
                cells[p12] = cells[p21] = x11
                moved = True
    if moved:
        G = BipartiteGraph._trusted(np.frombuffer(cells, np.uint8).reshape(k, l))
    return ChainState(G, state.rng)


def step(state: ChainState) -> ChainState:
    """Advance the chain by one step."""
    return advance(state, 1)


def sample(ds: BipartiteDegreeSequence, steps: int, seed: int) -> BipartiteGraph:
    """Run the chain for ``steps`` moves from the greedy realization.

    Deterministic in ``seed``.  No burn-in heuristics: the caller chooses
    the step count.  A negative count is rejected before ``ds`` is realized.
    """
    _check_steps(steps)
    return advance(ChainState.start(ds, seed), steps).graph
