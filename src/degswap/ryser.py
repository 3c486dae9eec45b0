"""Constructive swap sequences between realizations, and a BFS distance oracle.

Any two realizations of the same degree sequence pair are connected by a
sequence of at most 2e swaps, where e is the number of edges.  The
construction rewires the highest-degree V-vertex in both graphs to the same
canonical neighborhood, removes it, and recurses; the second graph's swaps
are then undone in reverse order.  Both matrices are held as row and column
bitmasks (bit v of row u and bit u of column v are cell (u, v)), read from
their keys by ``core._masks``, and rewired column by column by
``core._push_up``, the kernel that every OK/KO bridge of six cells or more
runs too (``_eliminate``).

The distance oracle ``swap_distance`` runs its breadth-first search on keys
held as ints (``core._int``): a node's swaps are listed off its row
bitmasks by ``core._allowed`` and taken by ``core._step``, the one-factor
check of ``apply_swap``, so no graph is built per node.
"""

from __future__ import annotations

from collections import deque

from .core import (BipartiteGraph, Swap, _allowed, _bits, _check_margins, _int, _masks, _push_up,
                   _step, _targets, apply_swap)
from .errors import Unreachable


def ryser_sequence(G1: BipartiteGraph, G2: BipartiteGraph) -> list:
    """Swaps transforming G1 into G2, at most 2e of them.

    Every prefix of the returned sequence is applicable in order, and each
    intermediate graph realizes the same degree sequence.  Both matrices are
    read from their keys as bitmasks and eliminated by ``_eliminate``
    (``_sequence``).
    """
    return [Swap(*s) for s in _sequence(G1, G2)]


def _sequence(G1: BipartiteGraph, G2: BipartiteGraph) -> list:
    """The swaps of ``ryser_sequence``, each as the fields ``(u1, u2, v1, v2,
    orientation)`` of its ``Swap``, after ``core._check_margins``; ``degswap
    transform`` prints them as they are."""
    _check_margins(G1, G2)
    return _eliminate(G1.key(), G2.key(), G1.k, G1.l)


def _eliminate(key_a: bytes, key_b: bytes, k: int, l: int) -> list:
    """The swaps of ``ryser_sequence``, each as the fields ``(u1, u2, v1,
    v2, orientation)`` of its ``Swap``, between two k x l matrices of equal
    margins given by their byte keys (``BipartiteGraph.key``), each read
    into row and column bitmasks by ``core._masks`` and rewired to one
    matrix.  The margins are not checked.

    Each column is pushed up in both matrices by ``core._push_up`` while they
    differ on it, then retired from the active mask.  The row degrees inside
    the active columns are kept, not recounted: a swap inside the active
    columns changes none of them, so retiring a column subtracts its rows,
    which by then are the same in both matrices."""
    rows_a, cols_a = _masks(key_a, k, l)
    rows_b, cols_b = _masks(key_b, k, l)
    deg = [row.bit_count() for row in rows_a]
    active = (1 << l) - 1
    forward, backward = [], []
    # Process columns by non-increasing degree, lowest index first on ties.
    for v in sorted(range(l), key=lambda j: (-cols_a[j].bit_count(), j)):
        if cols_a[v] != cols_b[v]:
            targets = _targets(deg, cols_a[v].bit_count())
            forward += _push_up(rows_a, cols_a, v, active, targets)
            backward += _push_up(rows_b, cols_b, v, active, targets)
        active ^= 1 << v
        for u in _bits(cols_a[v]):
            deg[u] -= 1
    assert rows_a == rows_b, "column elimination did not converge"
    # the second matrix's swaps, undone in reverse
    return forward + [(u1, u2, v1, v2, 3 - ori) for u1, u2, v1, v2, ori in reversed(backward)]


def replay(G: BipartiteGraph, swaps) -> list:
    """Apply swaps in order, returning every intermediate graph (incl. G)."""
    states = [G]
    for s in swaps:
        states.append(apply_swap(states[-1], s))
    return states


def swap_distance(G1: BipartiteGraph, G2: BipartiteGraph, cap: int | None = None):
    """Exact distance between two realizations in the swap move graph.

    Breadth-first search on keys held as ints; exponential in the worst
    case and meant as a desk-scale oracle.  Each neighbour is compared with
    the target as it is reached.  Returns the integer distance, or
    ``Unreachable(cap)`` when the distance exceeds ``cap``.
    """
    _check_margins(G1, G2)
    k, l = G1.k, G1.l
    start, target = _int(G1.key()), _int(G2.key())
    if start == target:
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        d = dist[key]
        if cap is not None and d >= cap:
            return Unreachable(cap)
        for s in _allowed(key.to_bytes(k * l, "little"), k, l):
            nxt = _step(key, l, s)
            if nxt == target:
                return d + 1
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return Unreachable(cap if cap is not None else -1)
