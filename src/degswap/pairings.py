"""Pairings of the symmetric difference and their circuit/cycle decompositions.

For two realizations X and Y of one degree sequence, every vertex meets as
many X-edges as Y-edges of the symmetric difference.  A pairing fixes, at
every such vertex, a bijection between its incident X-edges and Y-edges.
Gluing edges to their pairing images yields a 2-regular auxiliary graph on
the difference edges; its vertex-disjoint cycles are alternating circuits,
which are then refined into simple alternating cycles by splitting at the
first repeated vertex.

The number of pairings is the product of d! over all vertices, where 2d is
the vertex's degree in the symmetric difference.

X xor Y is read one way, ``core._difference``: the realizations' keys
(``BipartiteGraph.key``, one byte per cell) read as little-endian
integers and XORed, its edges numbered in edge order; ``core._number``
adds the codes the kernel traces on.  ``_numbered`` numbers two graphs
after the shape and margin checks (``core._check_margins``), with the one
incidence, ``_incidence``, which gives each vertex its edge ids.  Inside
the package a pairing is two partner arrays of edge ids: drawn
(``_random_partners``), unranked (``_nth_partners``) or run by the
odometer ``_partners``.  A ``Pairing`` exists only at the public
boundary: ``_pairings`` alone builds one, from partner arrays over one
numbering, for ``random_pairing``, ``nth_pairing`` and ``all_pairings``,
and ``_pairing_partners`` alone reads one back, checking its maps.
There is one decomposition implementation, the integer kernel: it traces
each pairing's circuits on its partner arrays (``_trace``) and cuts each
circuit into simple cycles by its shape alone: the first-occurrence
pattern of the vertices it reaches and the X/Y class of each of its edges.
A shape memo the caller scopes maps each shape to its cuts, made by
``_cut`` on a miss, and each cycle's edge ids and its cell mask are read
off the circuit through them.  A cell mask is a set of cells in the keys'
own form, read as an int: cell c = u * l + v at bit 8c, so the mask of
X xor Y is the XOR of the two keys' ints.  ``_decomposition`` reads one
pairing's partner arrays and alone builds ``AlternatingCycle`` objects;
``decompose`` and ``degswap decompose`` run it.  ``_decompositions``,
which ``congestion`` and ``path_distribution`` run behind its pairing
guard, traces every state of the same odometer, in ``all_pairings``
order, and yields each pairing's cycles as a tuple of masks.  A pairing
of (X, Y) is also one of (Y, X), with the same circuits and the same
cuts; only each cycle's X/Y labels differ, and a mask has none.  The
canonical walk reads a cycle as its mask against the current state, so
``congestion`` walks both directions of a pair on the cycle lists of
(X, Y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, permutations, product
from operator import itemgetter, not_

import numpy as np

from .core import BipartiteGraph, _check_margins, _number, _partition
from .errors import (DegreeMismatch, DegSwapError, NonAlternating, PairingMismatch,
                     PreconditionViolation, TooManyPairings)

# the most pairings congestion and path_distribution decompose for one pair
_MAX_PAIRINGS = 5000


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


def _numbered(X: BipartiteGraph, Y: BipartiteGraph) -> tuple:
    """``(numbering, incid, total)``: the ``_number``ing of X xor Y and its
    ``_incidence``, after the shape and margin checks of
    ``symmetric_difference`` (``core._check_margins``)."""
    _check_margins(X, Y)
    numbering = _number(X.key(), Y.key(), X.l)
    return numbering, *_incidence(numbering)


def _pairings(X: BipartiteGraph, Y: BipartiteGraph, partners):
    """The ``Pairing`` of each partner array pair ``(pu, pv)`` that
    ``partners(incid, m)`` gives over the m edges of X xor Y, numbered
    once (``_numbered``): the one place a ``Pairing`` is built.  Its edge
    sets are read off the numbering (``core._partition``)."""
    numbering, incid, _ = _numbered(X, Y)
    edges = numbering[0]
    part = _partition(numbering)
    for pu, pv in partners(incid, len(edges)):
        maps = {}
        for (side, w), (xs, ys) in incid.items():
            partner = pv if side else pu
            maps["v" if side else "u", w] = {edges[i]: edges[partner[i]] for i in xs + ys}
        yield Pairing(maps, part.x_edges, part.y_edges)


def enumerate_pairings_count(X: BipartiteGraph, Y: BipartiteGraph) -> int:
    """The exact number of pairings: the product of (d_w)! over all vertices,
    where the symmetric difference has degree 2*d_w at w."""
    return _numbered(X, Y)[2]


def random_pairing(X: BipartiteGraph, Y: BipartiteGraph, seed: int) -> Pairing:
    """A uniform pairing: an independent uniform bijection at every vertex,
    a permutation of its Y-edges drawn per vertex in ``_incidence`` order."""
    return next(_pairings(X, Y, lambda incid, m: [_random_partners(incid, m, seed)]))


def _random_partners(incid: dict, m: int, seed: int) -> tuple:
    """``random_pairing``'s partner arrays ``(pu, pv)`` over the m edges of
    ``incid``, drawn from ``numpy.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    pu, pv = [0] * m, [0] * m
    for (side, _), (xs, ys) in incid.items():
        partner = pv if side else pu
        for x, i in zip(xs, rng.permutation(len(ys)).tolist()):
            partner[x], partner[ys[i]] = ys[i], x
    return pu, pv


def all_pairings(X: BipartiteGraph, Y: BipartiteGraph):
    """Iterate all pairings in lexicographic order of per-vertex permutations.

    Vertices are visited U-side first, then V-side, by index; at each vertex
    the images run through permutations of the sorted Y-edge list: the
    kernel's own odometer, ``_partners``, unguarded.
    """
    return _pairings(X, Y, _partners)


def nth_pairing(X: BipartiteGraph, Y: BipartiteGraph, index: int) -> Pairing:
    """The pairing ``all_pairings(X, Y)`` yields at ``index``, built without
    walking the ones before it.

    ``all_pairings`` runs a product over the sorted vertices, the last one
    fastest, of the permutations of each vertex's Y-edges.  So ``index`` is
    read as mixed-radix digits, radix d! at a vertex with d Y-edges, and
    each digit is decoded as a Lehmer code into the permutation at that
    rank.  An index outside [0, count) raises ``DegSwapError``.
    """
    return next(_pairings(X, Y, lambda incid, m: [_nth_partners(incid, m, index)]))


def _nth_partners(incid: dict, m: int, index: int) -> tuple:
    """``nth_pairing``'s partner arrays ``(pu, pv)`` over the m edges of
    ``incid``, unranked from ``index``."""
    pu, pv = [0] * m, [0] * m
    rest = index
    for (side, _), (xs, ys) in sorted(incid.items(), reverse=True):
        ys, partner = list(ys), pv if side else pu
        rest, digit = divmod(rest, math.factorial(len(ys)))
        for x in xs:
            q, digit = divmod(digit, math.factorial(len(ys) - 1))
            partner[x] = y = ys.pop(q)
            partner[y] = x
    if index < 0 or rest:
        raise DegSwapError(f"pairing index {index} out of range")
    return pu, pv


@dataclass(frozen=True)
class AlternatingCycle:
    """A simple closed walk alternating X-edges and Y-edges.

    ``edge_seq`` lists the edges in walk order with a fixed orientation:
    rotation puts the lexicographically smallest X-edge first, so the even
    positions hold the X-edges and the odd ones the Y-edges.  The sequence
    is the cycle's one copy: ``x_edges`` and ``y_edges`` are read-only views
    of those positions.
    """

    edge_seq: tuple

    @property
    def x_edges(self) -> frozenset:
        return frozenset(self.edge_seq[0::2])

    @property
    def y_edges(self) -> frozenset:
        return frozenset(self.edge_seq[1::2])

    def __len__(self) -> int:
        return len(self.edge_seq)

    def vertex_seq(self) -> tuple:
        """Vertices in walk order; entry t is shared by edges t and t+1."""
        return _vertex_walk(self.edge_seq)


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


def _vertex_walk(edges) -> tuple:
    """The vertices of a closed walk given by its edges in order: entry t
    is the vertex shared by edges t and t+1 (the last with the first)."""
    return tuple(_shared_vertex(e, f) for e, f in zip(edges, edges[1:] + edges[:1]))


def decompose(X: BipartiteGraph, Y: BipartiteGraph, pairing: Pairing) -> CircuitDecomposition:
    """The pairing's circuits, each a tuple of edges in traversal order, and
    their refinement into ordered cycles: its partner arrays
    (``_pairing_partners``, which raises ``PairingMismatch`` or
    ``NonAlternating`` for a pairing that is not one of X xor Y), read by
    ``_decomposition`` with a fresh memo."""
    return _decomposition(*_pairing_partners(X, Y, pairing), {})


def _decomposition(numbering, pu, pv, memo: dict) -> CircuitDecomposition:
    """The decomposition of the partner arrays ``pu`` and ``pv`` over
    ``numbering``, traced with the caller's shape memo (``_trace``).  Each
    ``AlternatingCycle`` is built here, from the kernel's walk-order edge
    ids, rotated to the smallest X-edge id, which is its lexicographically
    smallest X-edge, so that even positions hold its X-edges."""
    circuits, ids, _ = _trace(pu, pv, numbering, memo)
    edges, _, in_x = numbering[:3]
    cycles = []
    for cycle in ids:
        start = cycle.index(min(cycle[0::2] if in_x[cycle[0]] else cycle[1::2]))
        walk = tuple(map(edges.__getitem__, cycle[start:] + cycle[:start]))
        cycles.append(AlternatingCycle(walk))
    return CircuitDecomposition(tuple(tuple(map(edges.__getitem__, c)) for c in circuits),
                                tuple(cycles))


def _pairing_partners(X: BipartiteGraph, Y: BipartiteGraph, pairing: Pairing) -> tuple:
    """``(numbering, pu, pv)``: the ``_number``ing of X xor Y and the
    pairing's partner arrays over it, as ``_trace`` reads them.

    The pairing must split as X xor Y does (``PairingMismatch``), and every
    map must be an involution that pairs each edge, at each of its ends,
    with an edge of the other class there: ``NonAlternating`` for a partner
    of the same class, ``PairingMismatch`` for any other defect.
    """
    _check_margins(X, Y)
    numbering = _number(X.key(), Y.key(), X.l)
    part = _partition(numbering)
    if pairing.x_edges != part.x_edges or pairing.y_edges != part.y_edges:
        raise PairingMismatch("pairing does not belong to this realization pair")
    edges, _, in_x = numbering[:3]
    ids = {e: i for i, e in enumerate(edges)}
    pu, pv = [0] * len(edges), [0] * len(edges)
    for i, e in enumerate(edges):
        for side, partner in ((0, pu), (1, pv)):
            w = ("v", e[1]) if side else ("u", e[0])
            table = pairing.maps.get(w, {})
            f = table.get(e)
            j = ids.get(f)
            if j is None or f[side] != e[side] or table.get(f) != e:
                raise PairingMismatch(f"the pairing's map at {w} does not pair off "
                                      f"the edges of X xor Y there")
            if in_x[j] == in_x[i]:
                raise NonAlternating(f"pairing sends {e} to same-class {f}")
            partner[i] = j
    return numbering, pu, pv


def _decompositions(x_key: bytes, y_key: bytes, l: int, memo: dict):
    """The decomposition kernel: every pairing's cycles, in integers.

    X and Y are given by their keys, realizations with l V-vertices and
    equal margins.  Returns the number of pairings of X xor Y and an
    iterator over one cycle list per pairing, in ``all_pairings`` order:
    the tuple of its cycles' cell masks, in the order of
    ``decompose(X, Y, s).cycles`` for the matching pairing s, but no
    ``Pairing`` or ``AlternatingCycle`` is built.  More than
    ``_MAX_PAIRINGS`` pairings (read at call time) raise ``TooManyPairings``
    before any pairing is decomposed.

    ``_trace`` decomposes each pairing of the odometer ``_partners`` with
    the caller's shape memo ``memo``, which the caller owns and scopes.
    """
    numbering = _number(x_key, y_key, l)
    incid, total = _incidence(numbering)
    if total > _MAX_PAIRINGS:
        raise TooManyPairings(f"{total} pairings exceed the guard {_MAX_PAIRINGS}")
    return total, (_trace(pu, pv, numbering, memo)[2]
                   for pu, pv in _partners(incid, len(numbering[0])))


def _incidence(numbering) -> tuple:
    """``(incid, total)`` for the numbered edges of X xor Y: each vertex,
    (0, u) or (1, v), mapped to its increasing X-edge and Y-edge ids, in
    order of first appearance among the X-edges; and the pairing count.
    Unequal counts at a vertex raise ``DegreeMismatch``."""
    edges, _, in_x = numbering[:3]
    incid = {}
    ids = range(len(edges))
    # the X-edge ids, then the Y-edge ids, each pass in increasing order
    for side, pass_ids in ((0, compress(ids, in_x)), (1, compress(ids, map(not_, in_x)))):
        for i in pass_ids:
            u, v = edges[i]
            at = incid.get((0, u))
            if at is None:
                at = incid[0, u] = ([], [])
            at[side].append(i)
            at = incid.get((1, v))
            if at is None:
                at = incid[1, v] = ([], [])
            at[side].append(i)
    total = 1
    for xs, ys in incid.values():
        if len(xs) != len(ys):
            raise DegreeMismatch("X and Y do not share their degree vectors")
        total *= math.factorial(len(xs))
    return incid, total


def _partners(incid: dict, m: int):
    """The pairing odometer: ``(pu, pv)`` for each pairing of the m edges
    of ``incid``, in ``all_pairings`` order, the partners of each edge id
    at its U end and at its V end, rewritten in place between pairings."""
    pu, pv = [0] * m, [0] * m
    # vertices with one Y-edge have one permutation: fill them once, and run
    # the odometer over the rest, in the same order
    wheel = []
    for side, w in sorted(incid):
        xs, ys = incid[side, w]
        partner = pv if side else pu
        if len(ys) == 1:
            partner[xs[0]], partner[ys[0]] = ys[0], xs[0]
        else:
            wheel.append((partner, xs, permutations(ys)))
    current = [None] * len(wheel)
    for images in product(*(perms for _, _, perms in wheel)):
        for w, image in enumerate(images):
            if image is not current[w]:
                current[w] = image
                partner, xs, _ = wheel[w]
                for x, y in zip(xs, image):
                    partner[x] = y
                    partner[y] = x
        yield pu, pv


def _trace(pu, pv, numbering, memo: dict) -> tuple:
    """One pairing's circuits, as lists of edge ids, and its cycles, as
    ``(circuits, cycles, masks)``: each cycle's edge ids in walk order in
    the list ``cycles`` and its cell mask in the tuple ``masks``.

    ``pu[i]`` and ``pv[i]`` are the partners of edge i at its U end and at
    its V end.  Circuits are traced from the smallest unseen id, leaving
    through its U end.  Where a circuit is cut, and every check of the
    cut, reads only its shape: the first-occurrence pattern of the
    vertices it reaches and the class of each of its edges.  So ``memo``,
    which the caller scopes, maps a shape to its cuts, which ``_cut``
    makes on a miss, and each cycle's edges and mask are read off the
    circuit through them.

    Checked once per pairing: the circuits visit every edge id exactly
    once, and the cycles are pairwise edge-disjoint and cover X xor Y.
    """
    in_x, us, vs, bits, full = numbering[2:]
    seen = bytearray(len(pu))
    circuits = []
    cycles = []
    masks = []
    covered = 0
    e0 = seen.find(0)
    while e0 >= 0:
        circuit = []
        pattern = []
        first = {}      # vertex code -> its index in order of first visit
        e = e0
        while True:
            f = pu[e]
            if seen[e] or seen[f]:
                raise PreconditionViolation("a circuit visits an edge twice")
            seen[e] = seen[f] = 1
            circuit += (e, f)
            # e and f meet at e's U end, f and the next edge at f's V end
            pattern += (first.setdefault(us[e], len(first)),
                        first.setdefault(vs[f], len(first)))
            e = pv[f]
            if e == e0:
                break
        circuits.append(circuit)
        shape = (tuple(pattern), bytes(map(in_x.__getitem__, circuit)))
        cuts = memo.get(shape)
        if cuts is None:
            cuts = memo[shape] = tuple(itemgetter(*piece) for piece in _cut(*shape))
        for cut in cuts:
            cycle = cut(circuit)
            mask = sum(map(bits.__getitem__, cycle))
            if covered & mask:
                raise PreconditionViolation("two cycles of the decomposition overlap")
            covered |= mask
            cycles.append(cycle)
            masks.append(mask)
        e0 = seen.find(0, e0 + 1)
    if covered != full:
        raise PreconditionViolation("the cycles do not cover the symmetric difference")
    return circuits, cycles, tuple(masks)


def _cut(pattern, classes) -> list:
    """The simple alternating cycles of a traced circuit of the given
    shape, each as the tuple of its positions on the circuit, in the order
    they come off: position t reaches vertex ``pattern[t]``, numbered in
    order of first visit, where its edge meets the next, and holds an
    X-edge where ``classes[t]`` is 1.

    The circuit is walked position by position; whenever the walk returns
    to a vertex that is still open, the positions since its previous visit
    come off as one cycle.  Each cycle is checked to have even length >=
    4, no repeated vertex, and alternating classes (``NonAlternating``
    otherwise).
    """
    open_at = {pattern[-1]: 0}
    stack = []
    pieces = []
    for t, w in enumerate(pattern):
        stack.append(t)
        cut = open_at.get(w)
        if cut is None:
            open_at[w] = len(stack)
            continue
        piece = tuple(stack[cut:])
        del stack[cut:]
        # close the vertices the piece opened; w itself stays open
        for p in piece[:-1]:
            del open_at[pattern[p]]
        pieces.append(piece)
    if stack:
        raise NonAlternating("circuit walk did not close at its start vertex")
    for piece in pieces:
        n = len(piece)
        if n % 2 or n < 4:
            raise NonAlternating(f"cycle length {n} is not an even number >= 4")
        if len({pattern[t] for t in piece}) != n:
            raise NonAlternating("cycle repeats a vertex")
        if any(classes[s] == classes[t] for s, t in zip(piece, piece[1:] + piece[:1])):
            raise NonAlternating("consecutive edges in one class")
    return pieces
