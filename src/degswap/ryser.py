"""Constructive swap sequences between realizations, and a BFS distance oracle.

Any two realizations of the same degree sequence pair are connected by a
sequence of at most 2e swaps, where e is the number of edges.  The
construction rewires the highest-degree V-vertex in both graphs to the same
canonical neighborhood, removes it, and recurses; the second graph's swaps
are then undone in reverse order.
"""

from __future__ import annotations

from collections import deque

from .core import BipartiteGraph, _push_up, allowed_swaps, apply_swap
from .errors import DegreeMismatch, Unreachable


def _check_pair(G1: BipartiteGraph, G2: BipartiteGraph):
    if not G1.same_margins(G2):
        raise DegreeMismatch("graphs do not realize the same degree sequence")


def ryser_sequence(G1: BipartiteGraph, G2: BipartiteGraph) -> list:
    """Swaps transforming G1 into G2, at most 2e of them.

    Every prefix of the returned sequence is applicable in order, and each
    intermediate graph realizes the same degree sequence.  The two matrices
    are rewired as lists of row lists, by the routine behind ``push_up``.
    """
    _check_pair(G1, G2)
    return _eliminate(G1.adj.tolist(), G2.adj.tolist())


def _eliminate(A: list, B: list) -> list:
    """The swaps of ``ryser_sequence`` between two matrices of equal margins
    held as lists of row lists, which are rewired in place to one matrix,
    column by column.  The margins are not checked."""
    forward, backward = [], []
    col_deg = [sum(col) for col in zip(*A)]
    # Process columns by non-increasing degree, lowest index first on ties.
    cols = sorted(range(len(col_deg)), key=lambda j: (-col_deg[j], j))
    active = list(range(len(col_deg)))
    for v in cols:
        if any(a[v] != b[v] for a, b in zip(A, B)):
            forward.extend(_push_up(A, v, active))
            backward.extend(_push_up(B, v, active))
        active.remove(v)
    assert A == B, "column elimination did not converge"
    return forward + [s.inverse() for s in reversed(backward)]


def replay(G: BipartiteGraph, swaps) -> list:
    """Apply swaps in order, returning every intermediate graph (incl. G)."""
    states = [G]
    for s in swaps:
        states.append(apply_swap(states[-1], s))
    return states


def swap_distance(G1: BipartiteGraph, G2: BipartiteGraph, cap: int | None = None):
    """Exact distance between two realizations in the swap move graph.

    Breadth-first search; exponential in the worst case and meant as a
    desk-scale oracle.  Returns the integer distance, or ``Unreachable(cap)``
    when the distance exceeds ``cap``.
    """
    _check_pair(G1, G2)
    target = G2.key()
    if G1.key() == target:
        return 0
    dist = {G1.key(): 0}
    queue = deque([G1])
    while queue:
        g = queue.popleft()
        d = dist[g.key()]
        if cap is not None and d >= cap:
            return Unreachable(cap)
        for s in allowed_swaps(g):
            h = apply_swap(g, s)
            key = h.key()
            if key == target:
                return d + 1
            if key not in dist:
                dist[key] = d + 1
                queue.append(h)
    return Unreachable(cap if cap is not None else -1)
