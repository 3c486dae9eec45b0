"""Pairings of the symmetric difference and its circuit/cycle decompositions.

For two realizations X and Y of one degree sequence, every vertex meets as
many X-edges as Y-edges of the symmetric difference.  A pairing fixes, at
every such vertex, a bijection between its incident X-edges and Y-edges.
Gluing edges to their pairing images yields a 2-regular auxiliary graph on
the difference edges; its vertex-disjoint cycles are alternating circuits,
which are then refined into simple alternating cycles by splitting at the
first repeated vertex.

The number of pairings is the product of d! over all vertices, where 2d is
the vertex's degree in the symmetric difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import BipartiteGraph, symmetric_difference
from .errors import NonAlternating


def _incidences(part):
    """Per-vertex sorted lists of incident X-edges and Y-edges."""
    by_vertex = {}
    for e in sorted(part.x_edges):
        u, v = e
        by_vertex.setdefault(("u", u), ([], []))[0].append(e)
        by_vertex.setdefault(("v", v), ([], []))[0].append(e)
    for e in sorted(part.y_edges):
        u, v = e
        by_vertex.setdefault(("u", u), ([], []))[1].append(e)
        by_vertex.setdefault(("v", v), ([], []))[1].append(e)
    return by_vertex


@dataclass(frozen=True)
class Pairing:
    """Per-vertex bijections between incident X-edges and Y-edges.

    ``maps[w]`` holds the bijection and its inverse merged into one dict,
    so ``maps[w][e]`` is the partner of edge ``e`` at vertex ``w``.
    """

    maps: dict
    x_edges: frozenset
    y_edges: frozenset

    def domain(self) -> frozenset:
        return self.x_edges | self.y_edges

    def partner_at(self, w, e):
        return self.maps[w][e]


def enumerate_pairings_count(X: BipartiteGraph, Y: BipartiteGraph) -> int:
    """The exact number of pairings: the product of (d_w)! over all vertices,
    where the symmetric difference has degree 2*d_w at w."""
    return _pairing_count(_incidences(symmetric_difference(X, Y)))


def _pairing_count(incid) -> int:
    total = 1
    for xs, ys in incid.values():
        assert len(xs) == len(ys)
        total *= math.factorial(len(xs))
    return total


def _build(part, incid, perm_choice) -> Pairing:
    maps = {}
    for w, (xs, ys) in incid.items():
        image = perm_choice(w, xs, ys)
        table = {}
        for e, f in zip(xs, image):
            table[e] = f
            table[f] = e
        maps[w] = table
    return Pairing(maps, part.x_edges, part.y_edges)


def random_pairing(X: BipartiteGraph, Y: BipartiteGraph, seed: int) -> Pairing:
    """A uniform pairing: an independent uniform bijection at every vertex."""
    rng = np.random.default_rng(seed)
    part = symmetric_difference(X, Y)

    def choose(w, xs, ys):
        return [ys[i] for i in rng.permutation(len(ys))]

    return _build(part, _incidences(part), choose)


def all_pairings(X: BipartiteGraph, Y: BipartiteGraph):
    """Iterate all pairings in lexicographic order of per-vertex permutations.

    Vertices are visited U-side first, then V-side, by index; at each vertex
    the images run through permutations of the sorted Y-edge list.
    """
    part = symmetric_difference(X, Y)
    yield from _all_pairings(part, _incidences(part))


def _all_pairings(part, incid):
    """``all_pairings`` for a symmetric difference and its ``_incidences``."""
    keys = sorted(incid.keys())
    perm_lists = [list(permutations(incid[w][1])) for w in keys]

    def rec(i, chosen):
        if i == len(keys):
            assignment = dict(zip(keys, chosen))
            yield _build(part, incid, lambda w, xs, ys: assignment[w])
            return
        for image in perm_lists[i]:
            yield from rec(i + 1, chosen + [image])

    yield from rec(0, [])


@dataclass(frozen=True)
class AlternatingCycle:
    """A simple closed walk alternating X-edges and Y-edges.

    ``edge_seq`` lists the edges in walk order with a fixed orientation:
    rotation puts the lexicographically smallest X-edge first.
    """

    edge_seq: tuple
    x_edges: frozenset
    y_edges: frozenset

    def __len__(self) -> int:
        return len(self.edge_seq)

    def vertex_seq(self) -> tuple:
        """Vertices in walk order; entry t is shared by edges t and t+1."""
        out = []
        n = len(self.edge_seq)
        for t in range(n):
            e, f = self.edge_seq[t], self.edge_seq[(t + 1) % n]
            out.append(_shared_vertex(e, f))
        return tuple(out)


@dataclass(frozen=True)
class CircuitDecomposition:
    """Circuits of the auxiliary graph and their refinement into cycles."""

    circuits: tuple
    cycles: tuple


def _shared_vertex(e, f):
    if e[0] == f[0]:
        return ("u", e[0])
    if e[1] == f[1]:
        return ("v", e[1])
    raise NonAlternating(f"edges {e} and {f} share no endpoint")


def circuits_of(pairing: Pairing) -> list:
    """Trace the 2-regular auxiliary graph into alternating circuits.

    Each circuit is a list of edges in traversal order; traversal starts at
    the smallest unvisited edge, leaving through its U endpoint.
    """
    remaining = set(pairing.domain())
    x_edges = pairing.x_edges
    circuits = []
    while remaining:
        e0 = min(remaining)
        w0 = ("u", e0[0])
        circuit = []
        e, w = e0, w0
        for _ in range(len(pairing.maps) * len(remaining) + 2):
            circuit.append(e)
            remaining.discard(e)
            f = pairing.partner_at(w, e)
            if (e in x_edges) == (f in x_edges):
                raise NonAlternating(f"pairing sends {e} to same-class {f}")
            w = ("v", f[1]) if w[0] == "u" else ("u", f[0])
            e = f
            if e == e0 and w == w0:
                break
        else:
            raise AssertionError("circuit traversal did not close")
        circuits.append(circuit)
    return circuits


def _as_cycle(edges, x_edges) -> AlternatingCycle:
    cyc_x = frozenset(e for e in edges if e in x_edges)
    cyc_y = frozenset(e for e in edges if e not in x_edges)
    start = edges.index(min(cyc_x))
    rotated = tuple(edges[(start + t) % len(edges)] for t in range(len(edges)))
    return AlternatingCycle(rotated, cyc_x, cyc_y)


def cycles_of(circuit, x_edges) -> list:
    """Split an alternating circuit into simple alternating cycles.

    The circuit is walked edge by edge; whenever the walk returns to a
    vertex that is still open, the edges since its previous visit come off
    as one cycle.  The extracted edge sets partition the circuit.
    """
    n = len(circuit)
    # Vertex reached after edge t; edge t connects reached[t-1] to reached[t].
    reached = [_shared_vertex(circuit[t], circuit[(t + 1) % n]) for t in range(n)]
    start_vertex = reached[n - 1]
    cycles = []
    stack = []
    open_at = {start_vertex: 0}
    for t in range(n):
        stack.append(circuit[t])
        w = reached[t]
        if w in open_at:
            cut = open_at[w]
            piece = stack[cut:]
            del stack[cut:]
            open_at = {x: d for x, d in open_at.items() if d <= cut}
            cycles.append(_as_cycle(piece, x_edges))
        else:
            open_at[w] = len(stack)
    if stack:
        raise NonAlternating("circuit walk did not close at its start vertex")
    for c in cycles:
        _check_alternating(c)
    return cycles


def _check_alternating(cycle: AlternatingCycle):
    n = len(cycle.edge_seq)
    if n % 2 != 0 or n < 4:
        raise NonAlternating(f"cycle length {n} is not an even number >= 4")
    verts = cycle.vertex_seq()
    if len(set(verts)) != n:
        raise NonAlternating("cycle repeats a vertex")
    for t in range(n):
        e, f = cycle.edge_seq[t], cycle.edge_seq[(t + 1) % n]
        if (e in cycle.x_edges) == (f in cycle.x_edges):
            raise NonAlternating("consecutive edges in one class")


def decompose(X: BipartiteGraph, Y: BipartiteGraph, pairing: Pairing) -> CircuitDecomposition:
    """Full pipeline: circuits of the pairing, refined into ordered cycles."""
    circuits = circuits_of(pairing)
    cycles = []
    for circ in circuits:
        cycles.extend(cycles_of(circ, pairing.x_edges))
    return CircuitDecomposition(tuple(tuple(c) for c in circuits), tuple(cycles))
