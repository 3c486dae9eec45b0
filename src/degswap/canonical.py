"""Canonical swap paths along alternating cycles.

The construction works on a cycle-local view.  An alternating cycle of
length 2m is written with local indices so that edge (u_t, v_t) belongs to
the start realization G and edge (u_t, v_{t+1}) (indices mod m) to the end
realization G'.  The m x m matrix over the cycle's vertex pairs then has
the G-edges on the main diagonal, the G'-edges on the diagonal above it
plus the wrap corner (the small diagonal), and chords everywhere else.
Chords carry the same value in G and G'; that shared value is the chord's
type.

The F view of an intermediate realization Z stores Z's value at diagonal
positions and M_G + M_G' + M_Z at chords, so chord cells read 0 or 2 when
the chord is off in Z and 1 or 3 when it is on, with type = value >= 2.

A path from G to G' is driven by a friendly path: a sequence of chords,
each having a same-type cousin, stepping one grid cell at a time from the
ring next to the main diagonal to the ring next to the small diagonal.
Each chord on it anchors an intermediate target realization (an OK or KO
pattern); consecutive targets differ in one short alternating cycle and
are bridged by swap sequences.  When no friendly path exists the blocking
structure forces a long same-type run on some anti-diagonal, which lets
the cycle be cut into two smaller cycles handled recursively, with the two
sub-sequences interleaved so that at most two temporarily wrong cells are
live at any moment.

A realization on a path is named by its key alone (``BipartiteGraph.key``,
one byte per cell), and a set of cells, a cycle's included, by its cell
mask: the key's own form read as an int (``core._int``), cell c = u * l +
v at bit 8c, as the decomposition kernel of ``pairings`` gives it.  So the key
with a cycle flipped is the key XOR the cycle's mask.  The canonical walk,
``_path_counts``, flips a decomposition's cycles in order, each by a
segment from a table the caller scopes, keyed by state and cell mask.  A
segment is lifted once, by ``_key_segment`` on the cycle's local m x m
pattern, with pattern and bridge memos that live as long as the table:
``canonical_path`` and ``path_distribution`` walk keys (``_key_lift``),
and ``mixing.congestion`` walks state ids with a lift of its own.

The m x m grid has one form, one table per length (``_grid``): a cell is
its grid index a * m + b, a set of cells one int.  Every search on it is
one breadth-first routine whose layers are ints (``_flood``): the grid
metric, the friendly-path search, the king components of the unfriendly
chords and the rook-path cut test.  Only ``find_friendly_path`` and the
public helpers build (a, b) cells, and only ``ok_ko_step`` and
``matches_spec`` read an ``OKKOSpec``; the solver stays on indices.

The cycle solver holds each realization as one int, its key read the same
way.  One walker, ``_cycle_walk``, reads every alternating cycle: a cell
mask against a key gives the frame order from the least cell that is on,
and ``CycleMismatch`` unless the cells are one cycle alternating against
the key; against the key with the cycle flipped it reads the same cells
the other way.  A pattern (a cycle to flip on the walk) and a bridge (the
cycle between two OK/KO targets) are one kind of problem, local to the
cycle's rows x columns, and take one route, ``_local_swaps``: the local
key and local mask, read in the same form, key a memo the caller scopes,
and only a miss walks the local cycle and solves it, by ``_solve_frame``
for a pattern and by ``ryser._eliminate`` for a bridge.  A 4-cycle, a 2 x 2
one-factor, is flipped by one swap: its local problem is read off its four
cells, and a miss stores that swap without a walk or a solve.  The caller
lifts the local swaps through the rows and columns.  A frame's cells are
masks built once per frame solve (``_Masks``, m * m + 4m + 3 ints, dropped
with the solve); an OK/KO target is a (care, want) mask pair, so matching a
spec is one AND and one compare, a target is inherited by one AND-NOT and
one OR, the difference cycle between two targets is the XOR of their
ints, and every swap, lifted or placed on the frame, is one step of
``core._step``: the one one-factor check of the graph layer, ``core._flip``
(one 4-cell mask test, then one XOR), which raises ``SwapNotAllowed``
where it fails.  The solver carries each swap as its fields ``(u1, u2, v1,
v2, orientation)``, as ``core._push_up`` and ``ryser._eliminate`` emit
them; ``Swap`` objects are built only at the graph entry points
``cycle_swaps`` and ``ok_ko_step``.  Both entry points that take an
``OKKOSpec``, ``ok_ko_step`` and ``matches_spec``, refuse a frame that does
not lie in the graph (``_check_frame``).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import (BipartiteGraph, Swap, _bits, _check_margins, _gale_ryser, _int, _key_cells,
                   _step, symmetric_difference)
from .errors import (CycleMismatch, DegreeMismatch, DiagonalPosition, Exceeds,
                     MarginMismatch, NoCousinWitness, PreconditionViolation,
                     ShapeMismatch, SpecViolation)
from .pairings import AlternatingCycle, _decompositions, _pairing_partners, _trace
from .ryser import _eliminate, replay

# ---------------------------------------------------------------------------
# positions on the cycle-local grid
# ---------------------------------------------------------------------------


class _Grid(NamedTuple):
    """The m x m cycle-local grid of one length m, as lookup tables.  Cell
    (a, b) is named by its grid index a * m + b, so index order is the
    cells' lexicographic order, and a set of cells is the int with bit p
    set for each index p in it."""

    rings: tuple      # rings[p]: the ring of cell p
    chords: int       # the set of chord cells
    cousins: tuple    # cousins[p]: the set cousins(p); None on the diagonals
    orth: tuple       # orth[p]: the set of the four cells one unit step from p
    king: tuple       # king[p]: the set of the eight cells one king step from p
    open: int         # the set of cells off the main diagonal
    down: tuple       # down[i]: down_line(i, m)
    up: tuple         # up[i]: up_line(i, m)
    near: tuple       # down_up_rings(m), as two sets


@functools.lru_cache(maxsize=64)
def _grid(m: int) -> _Grid:
    """The grid tables of length m, a pure function of m, built once per
    length and process; every table is immutable, as the cache shares it."""
    rings = tuple((b - a) % m for a in range(m) for b in range(m))
    chords = [p for p in range(m * m) if rings[p] >= 2]
    cousins = [None] * (m * m)
    for p in chords:
        # the reflected 2x2 window: u-index in {b-1, b}, v-index in {a, a+1},
        # four distinct cells (a chord needs m >= 3), diagonal cells dropped
        a, b = divmod(p, m)
        u, v = (b - 1) % m, (a + 1) % m
        cousins[p] = sum(1 << q for q in {u * m + a, u * m + v, b * m + a, b * m + v}
                         if rings[q] >= 2)

    def steps(moves):
        return tuple(sum(1 << q for q in {((a + da) % m) * m + (b + db) % m for da, db in moves})
                     for a in range(m) for b in range(m))

    orth = ((-1, 0), (1, 0), (0, -1), (0, 1))
    king = [(da, db) for da in (-1, 0, 1) for db in (-1, 0, 1) if da or db]
    # cell ((i+s), (i-s)) sits on ring m - 2s and cell ((i-s), (i+s)) on ring
    # 2s; chords need rings 2..m-1
    down = tuple(tuple(((i + s) % m) * m + (i - s) % m for s in range(1, m // 2))
                 for i in range(m))
    up = tuple(tuple(((i - s) % m) * m + (i + s) % m for s in range(1, (m + 1) // 2))
               for i in range(m))
    near = (sum(1 << (t * m + (t - 1) % m) for t in range(m)),
            sum(1 << (t * m + (t + 2) % m) for t in range(m)))
    return _Grid(rings, sum(1 << p for p in chords), tuple(cousins), steps(orth), steps(king),
                 sum(1 << p for p in range(m * m) if rings[p]), down, up, near)


def _flood(steps: tuple, seed: int, allowed: int):
    """The breadth-first layers from the set of cells ``seed`` through the
    set ``allowed``, each layer a set of cells (``_Grid``): ``seed`` first,
    then the cells of ``allowed`` one step of the table ``steps`` (``orth``
    or ``king``) from the layer before and in no earlier layer.  The layers
    are disjoint, so their sum is the set of cells reached."""
    seen = layer = seed
    while layer:
        yield layer
        reach = 0
        for p in _bits(layer):
            reach |= steps[p]
        layer = reach & allowed & ~seen
        seen |= layer


def _index(pos, m: int) -> int:
    """The grid index of the cell ``pos``, its coordinates read mod m."""
    a, b = pos
    return (a % m) * m + b % m


def _cells(ids, m: int) -> tuple:
    """The (a, b) cells of the grid indices ``ids`` of length m."""
    return tuple(divmod(p, m) for p in ids)


def _lowest(cells: int) -> int:
    """The least grid index in the nonempty set of cells ``cells``."""
    return (cells & -cells).bit_length() - 1


def ring(pos, ell: int) -> int:
    """Cyclic offset of a cell: 0 on the main diagonal, 1 on the small
    diagonal, 2..ell-1 on chords."""
    return _grid(ell).rings[_index(pos, ell)]


def is_chord(pos, ell: int) -> bool:
    return ring(pos, ell) >= 2


def cousins(pos, ell: int) -> tuple:
    """The up-to-four chord cells in the reflected 2x2 window of ``pos``.

    For a chord (a, b) these are the cells with u-index in {b-1, b} and
    v-index in {a, a+1}, mod ell, diagonal cells excluded.  A chord and a
    cousin span a 2x2 submatrix whose other two corners both lie on the
    diagonals, which is what makes a same-type cousin a switch witness.
    """
    out = _grid(ell).cousins[_index(pos, ell)]
    if out is None:
        raise DiagonalPosition(f"{pos} lies on a diagonal")
    return _cells(_bits(out), ell)


def position_distance(p, q, ell: int) -> int:
    """Grid metric: unit horizontal or vertical steps, rows and columns wrap
    around, and main-diagonal cells cannot be entered."""
    return _distance(ell, _index(p, ell), _index(q, ell))


def _distance(m: int, p: int, q: int) -> int:
    """``position_distance`` between the grid indices p and q of length m:
    the first layer of ``_flood`` over the cells off the main diagonal that
    holds q; ``ValueError`` when none does."""
    grid = _grid(m)
    for dist, layer in enumerate(_flood(grid.orth, 1 << p, grid.open)):
        if layer >> q & 1:
            return dist
    raise ValueError(f"{divmod(q, m)} unreachable from {divmod(p, m)}")


def down_line(i: int, ell: int) -> tuple:
    """Chord cells ((i+s) mod ell, (i-s) mod ell), s = 1.., walking from the
    main diagonal toward the small diagonal."""
    return _cells(_grid(ell).down[i % ell], ell)


def up_line(i: int, ell: int) -> tuple:
    """Chord cells ((i-s) mod ell, (i+s) mod ell), s = 1.., walking from the
    small diagonal toward the main diagonal."""
    return _cells(_grid(ell).up[i % ell], ell)


# ---------------------------------------------------------------------------
# cycle-local views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleFrame:
    """Embedding of a cycle into the host graph: local index t corresponds
    to global U-vertex u_ids[t] and V-vertex v_ids[t]."""

    u_ids: tuple
    v_ids: tuple

    @property
    def m(self) -> int:
        return len(self.u_ids)

    def cell_edge(self, pos) -> tuple:
        a, b = pos
        return (self.u_ids[a], self.v_ids[b])

    def main_edge(self, t: int) -> tuple:
        return (self.u_ids[t], self.v_ids[t])

    def small_edge(self, t: int) -> tuple:
        return (self.u_ids[t], self.v_ids[(t + 1) % self.m])

    def sub(self, arc) -> "CycleFrame":
        return CycleFrame(tuple(self.u_ids[t] for t in arc),
                          tuple(self.v_ids[t] for t in arc))

    @classmethod
    def from_cycle(cls, cycle: AlternatingCycle, G: BipartiteGraph) -> "CycleFrame":
        """Orient the cycle so its edges inside G become the main diagonal,
        from the smallest (``_cycle_walk``).  Raises ``CycleMismatch`` unless
        the cycle's cells form one cycle alternating against G; a union of
        several cycles is refused."""
        l = G.l
        cells = sum(1 << 8 * (u * l + v) for u, v in cycle.x_edges | cycle.y_edges)
        return cls(*_cycle_walk(_int(G.key()), l, cells))


def _cycle_walk(key: int, l: int, cells: int) -> tuple:
    """``(us, vs)``, the frame order of the alternating cycle on the cells
    ``cells`` (a mask, cell c at bit 8c) against the realization with key
    ``key`` (l columns, held as an int, ``_int``): the cells on in the key
    are ``(us[t], vs[t])`` and those off ``(us[t], vs[t + 1])``, indices mod
    the length, from the least cell that is on.  Raises ``CycleMismatch``
    unless every row and column the cells meet holds one cell on and one
    off and a single cycle runs through them all."""
    on_v, on_u, off_v, off_u = {}, {}, {}, {}
    for part, to_v, to_u in ((cells & key, on_v, on_u), (cells & ~key, off_v, off_u)):
        for c in _key_cells(part):
            u, v = divmod(c, l)
            if u in to_v or v in to_u:
                raise CycleMismatch("a row or column meets two cycle cells on one side")
            to_v[u] = v
            to_u[v] = u
    if not on_v or on_v.keys() != off_v.keys() or on_u.keys() != off_u.keys():
        raise CycleMismatch("the cells on and off do not meet the same rows and columns")
    # from a row, its off cell's column, then that column's on cell's row: a
    # permutation of the rows, one cycle when one orbit holds them all
    u = first = min(on_v)
    us, vs = [], []
    while True:
        us.append(u)
        vs.append(on_v[u])
        u = on_u[off_v[u]]
        if u == first:
            break
    if len(us) != len(on_v):
        raise CycleMismatch("the cells form several cycles")
    return tuple(us), tuple(vs)


@dataclass(frozen=True)
class FMatrix:
    """The m x m cycle-local illustration matrix with entries 0..3.

    Diagonal cells hold the current realization's value at the cycle edge;
    chord cells hold start + end + current, so their parity says whether
    the chord is an edge right now and their magnitude carries the type.
    """

    ell: int
    cells: tuple

    def __post_init__(self):
        m = self.ell
        if len(self.cells) != m or any(len(r) != m for r in self.cells):
            raise ValueError("cells must form an ell x ell grid")
        rings = _grid(m).rings
        for a, row in enumerate(self.cells):
            for b, v in enumerate(row):
                if rings[a * m + b] <= 1:
                    if v not in (0, 1):
                        raise ValueError(f"diagonal cell ({a},{b}) must be 0/1, got {v}")
                elif v not in (0, 1, 2, 3):
                    raise ValueError(f"chord cell ({a},{b}) out of range: {v}")

    def type_of(self, pos) -> int:
        """Chord type: the chord's value in the start (= end) realization."""
        if not is_chord(pos, self.ell):
            raise DiagonalPosition(f"{pos} lies on a diagonal")
        return 1 if self.cells[pos[0]][pos[1]] >= 2 else 0

    def is_friendly(self, pos) -> bool:
        t = self.type_of(pos)
        return any(self.type_of(q) == t for q in cousins(pos, self.ell))

    @classmethod
    def from_types(cls, ell: int, types) -> "FMatrix":
        """The start-state view: main diagonal 1, small diagonal 0, chords
        at three times their type."""
        cells = [[0] * ell for _ in range(ell)]
        for t in range(ell):
            cells[t][t] = 1
        for (a, b), ty in types.items():
            if not is_chord((a, b), ell):
                raise DiagonalPosition(f"type given for diagonal cell ({a},{b})")
            cells[a][b] = 3 * int(ty)
        return cls(ell, tuple(tuple(r) for r in cells))


def _local_f(key: int, masks: "_Masks", types: int) -> FMatrix:
    """The F view of the realization with key ``key`` on the frame of
    ``masks``, each chord typed by its cell in ``types``, the start
    realization's key; keys are read as ints (``_int``)."""
    m = len(masks.main) // 2
    rings = _grid(m).rings
    cells = [(1 if key & bit else 0) + (2 if r >= 2 and types & bit else 0)
             for bit, r in zip(masks.at, rings)]
    return FMatrix(m, tuple(tuple(cells[a * m:a * m + m]) for a in range(m)))


def f_matrix(G: BipartiteGraph, Gp: BipartiteGraph, Z: BipartiteGraph,
             cycle: AlternatingCycle) -> FMatrix:
    """Cycle-local view of Z against the pair (G, Gp) whose symmetric
    difference is exactly ``cycle``."""
    part = symmetric_difference(G, Gp)
    if part.x_edges | part.y_edges != set(cycle.edge_seq):
        raise CycleMismatch("G and Gp do not differ in exactly this cycle")
    if not Z.same_margins(G):
        raise DegreeMismatch("Z does not realize the same degree sequence")
    masks = _frame_masks(CycleFrame.from_cycle(cycle, G), G.l)
    return _local_f(_int(Z.key()), masks, _int(G.key()))


def hat_matrix(X: BipartiteGraph, Y: BipartiteGraph, Z: BipartiteGraph) -> np.ndarray:
    """Entrywise M_X + M_Y - M_Z as a read-only ``int8`` array: entries in
    {-1, 0, 1, 2}, with the margins of the common degree sequence."""
    if not ((X.k, X.l) == (Y.k, Y.l) == (Z.k, Z.l)):
        raise ShapeMismatch("hat matrix needs three equally shaped graphs")
    if not (X.same_margins(Y) and X.same_margins(Z)):
        raise DegreeMismatch("hat matrix needs three realizations of one sequence")
    hat = X.adj.astype(np.int8) + Y.adj.astype(np.int8) - Z.adj.astype(np.int8)
    hat.setflags(write=False)
    return hat


# ---------------------------------------------------------------------------
# friendly paths and blocking sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FriendlyPath:
    """A chain of friendly chords from the ring next to the main diagonal to
    the ring next to the small diagonal, stepping one cell at a time.

    ``adjusted`` is the anchor sequence: the position itself for type-0
    chords, the lowest same-type cousin for type-1 chords.  ``length_one``
    flags the degenerate single-chord path possible when ell = 3.
    """

    positions: tuple
    adjusted: tuple
    length_one: bool


@dataclass(frozen=True)
class SteinhausSet:
    """A king-connected set of unfriendly chords meeting every rook path
    between the two diagonals."""

    positions: frozenset
    ell: int


def _types(F: FMatrix) -> int:
    """F's chord types as the solver reads them: the set of cells (``_Grid``)
    that read 2 or 3, the type-1 chords."""
    return sum(1 << p for p, v in enumerate(v for row in F.cells for v in row) if v >= 2)


def _anchors(path, m: int, types: int) -> tuple:
    """The anchor of each grid index on ``path``: the index itself for a
    type-0 chord, its lowest type-1 cousin for a type-1 chord, where
    ``types`` is the set of type-1 chords."""
    grid = _grid(m)
    out = []
    for p in path:
        near = grid.cousins[p]
        if near is None:
            raise DiagonalPosition(f"{divmod(p, m)} lies on a diagonal")
        if not types >> p & 1:
            out.append(p)
        elif near & types:
            out.append(_lowest(near & types))
        else:
            raise NoCousinWitness(f"{divmod(p, m)} has no same-type cousin")
    return tuple(out)


def adjusted_positions(path: FriendlyPath, F: FMatrix) -> tuple:
    """Anchor sequence: type-0 positions stay, type-1 positions are replaced
    by their lowest same-type cousin."""
    m = F.ell
    return _cells(_anchors([_index(p, m) for p in path.positions], m, _types(F)), m)


def down_up_rings(ell: int):
    """The chord rings adjacent to the main diagonal and the small diagonal."""
    return tuple(_cells(_bits(cells), ell) for cells in _grid(ell).near)


def _cuts(grid: _Grid, block: int) -> bool:
    """Whether the set of cells ``block`` meets every orthogonal chord path
    from the ring next to the main diagonal to the ring next to the small
    diagonal: whether the chords off it, flooded from that first ring, never
    reach the second."""
    free = grid.chords & ~block
    return not any(layer & grid.near[1] for layer in _flood(grid.orth, grid.near[0] & free, free))


def find_friendly_path(F: FMatrix):
    """Either a friendly path or a blocking set, never both.

    Breadth-first search over friendly chords, seeded at the friendly cells
    of the ring next to the main diagonal, expanding in lexicographic order
    inside each layer.  On failure, the king-connected components of the
    unfriendly cells are scanned for one that cuts every rook path; its
    existence is the combinatorial guarantee behind the construction and a
    missing one raises loudly.
    """
    m = F.ell
    if m < 3:
        raise ValueError("the chord grid needs ell >= 3")
    res = _friendly_search(m, _types(F))
    if isinstance(res, tuple):
        path, anchors = res
        return FriendlyPath(_cells(path, m), _cells(anchors, m), len(path) == 1)
    return SteinhausSet(frozenset(_cells(_bits(res), m)), m)


def _friendly_search(m: int, types: int):
    """``find_friendly_path`` on an m x m grid (m >= 3) whose type-1 chords
    are the set ``types`` (``_Grid``), in grid indices: the path and its
    anchors (``_anchors``), a pair of tuples, or the blocking set, an int.

    The friendly chords are flooded (``_flood``) from those of the ring next
    to the main diagonal.  The first layer to meet the ring next to the
    small diagonal ends the path at its lowest cell there, and a cell's
    parent, the first cell of the layer before it that reaches it, is the
    lowest cell of that layer among its unit steps.  Failing that, the
    king-connected components of the unfriendly chords are flooded in the
    order of their least cells, and the first that cuts every rook path
    (``_cuts``) is the blocking set."""
    grid = _grid(m)
    friendly = 0
    for p in _bits(grid.chords):
        if grid.cousins[p] & (types if types >> p & 1 else ~types):
            friendly |= 1 << p
    layers = []
    for layer in _flood(grid.orth, grid.near[0] & friendly, friendly):
        hit = layer & grid.near[1]
        if hit:
            path = [_lowest(hit)]
            for before in reversed(layers):
                path.append(_lowest(before & grid.orth[path[-1]]))
            path.reverse()
            return tuple(path), _anchors(path, m, types)
        layers.append(layer)
    unfriendly = rest = grid.chords & ~friendly
    while rest:
        block = sum(_flood(grid.king, rest & -rest, unfriendly))
        if _cuts(grid, block):
            return block
        rest &= ~block
    raise SpecViolation("no friendly path and no single blocking component")


def verify_friendly_path(path: FriendlyPath, F: FMatrix):
    """Check every clause of the friendly-path definition; raise on failure."""
    m = F.ell
    P = path.positions
    if not P:
        raise SpecViolation("empty path")
    if len(set(P)) != len(P):
        raise SpecViolation("path repeats a chord")
    for p in P:
        if not is_chord(p, m) or not F.is_friendly(p):
            raise SpecViolation(f"{p} is not a friendly chord")
    for p, q in zip(P, P[1:]):
        da = min((p[0] - q[0]) % m, (q[0] - p[0]) % m)
        db = min((p[1] - q[1]) % m, (q[1] - p[1]) % m)
        if da + db != 1:
            raise SpecViolation(f"{p} -> {q} is not a unit step")
    if ring(P[0], m) != m - 1:
        raise SpecViolation("path does not start next to the main diagonal")
    if ring(P[-1], m) != 2:
        raise SpecViolation("path does not end next to the small diagonal")
    adj = adjusted_positions(path, F)
    if adj != path.adjusted:
        raise SpecViolation("stored anchor sequence disagrees with recomputation")
    for i in range(len(P) - 1):
        if F.type_of(P[i]) == F.type_of(P[i + 1]):
            if position_distance(adj[i], adj[i + 1], m) > 3:
                raise SpecViolation("same-type anchors further than 3 apart")


def verify_steinhaus(ss: SteinhausSet, F: FMatrix):
    """Check every property the blocking set must carry; raise on failure."""
    m = F.ell
    T = ss.positions
    if not T:
        raise SpecViolation("empty blocking set")
    for p in T:
        if F.is_friendly(p):
            raise SpecViolation(f"{p} in the blocking set is friendly")
    grid, types = _grid(m), _types(F)
    block = near = 0        # the set and its cousin set
    for q in T:
        p = _index(q, m)
        block |= 1 << p
        near |= grid.cousins[p]
    if sum(_flood(grid.king, block & -block, block)) != block:
        raise SpecViolation("blocking set is not king-connected")
    if not _cuts(grid, block):
        raise SpecViolation("blocking set misses a rook path")
    ctypes = {types >> p & 1 for p in _bits(near)}
    if len(ctypes) != 1:
        raise SpecViolation("cousin set carries both types")
    ttypes = {types >> p & 1 for p in _bits(block)}
    if len(ttypes) != 1 or ttypes == ctypes:
        raise SpecViolation("blocking set is not uniformly opposite-typed")
    for i in range(m):
        if not any(near >> p & 1 for p in grid.down[i]):
            raise SpecViolation(f"cousin set misses down-line {i}")
        if not any(near >> p & 1 for p in grid.up[i]):
            raise SpecViolation(f"cousin set misses up-line {i}")


def verify_same_state(F: FMatrix):
    """When no friendly path exists, every index must admit a cut pattern."""
    pats = _valid_patterns(F.ell, _types(F))
    have = {i for (i, *_rest) in pats}
    missing = set(range(F.ell)) - have
    if missing:
        raise SpecViolation(f"indices without a cut pattern: {sorted(missing)}")


# ---------------------------------------------------------------------------
# OK / KO target patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OKKOSpec:
    """An anchored intermediate target.

    An OK target at chord (a, b) shifts the cycle segment from index a up
    to index b onto the small diagonal and removes the (type-1) anchor
    chord from the realization.  A KO target at (a, b) shifts the segment
    from b up to a, removing both bounding main-diagonal edges, and adds
    the (type-0) anchor chord instead.
    """

    kind: str
    anchor: tuple
    frame: CycleFrame

    def __post_init__(self):
        if self.kind not in ("OK", "KO"):
            raise ValueError("kind must be 'OK' or 'KO'")
        if not is_chord(self.anchor, self.frame.m):
            raise DiagonalPosition(f"anchor {self.anchor} lies on a diagonal")

    def pattern(self):
        """Target values for every main cell, small cell, and the anchor."""
        m = self.frame.m
        a, b = self.anchor
        mains = [1] * m
        smalls = [0] * m
        if self.kind == "OK":
            for t in _cyc_range((a + 1) % m, b, m):
                mains[t] = 0
            for t in _cyc_range(a, b, m):
                smalls[t] = 1
            anchor_val = 0
        else:
            for t in _cyc_range(b, (a + 1) % m, m):
                mains[t] = 0
            for t in _cyc_range(b, a, m):
                smalls[t] = 1
            anchor_val = 1
        return mains, smalls, anchor_val


def _cyc_range(s, e, m):
    out = []
    t = s
    while t != e:
        out.append(t)
        t = (t + 1) % m
        if len(out) > m:
            raise AssertionError("cyclic range did not close")
    return out


class _Masks(NamedTuple):
    """One frame's cells in keys held as ints (``_int``), built once per
    frame: ``at[p]`` is the bit of the frame's cell at grid index p
    (``_Grid``), ``main`` and ``small`` the bits of the main and small cells
    t = 0..m-1 listed twice over, so that a cyclic run is one slice, and the
    masks of all main, small and chord cells.  m * m + 4m + 3 ints, dropped
    with the frame."""

    at: tuple
    main: tuple
    small: tuple
    mains: int
    smalls: int
    chords: int


def _frame_masks(frame: CycleFrame, l: int) -> _Masks:
    """The ``_Masks`` of ``frame`` in keys of realizations with l columns."""
    m = frame.m
    shifts = [8 * v for v in frame.v_ids]
    at = tuple([1 << (8 * u * l + s) for u in frame.u_ids for s in shifts])
    main = at[::m + 1]
    small = tuple(at[t * m + (t + 1) % m] for t in range(m))
    mains, smalls = sum(main), sum(small)
    return _Masks(at, main + main, small + small, mains, smalls, sum(at) & ~(mains | smalls))


class _Target(NamedTuple):
    """An OK/KO pattern on its frame's masks: its kind ("OK" or "KO"), its
    anchor's grid index (``cell``), the cells it pins (``care``, the frame's
    main and small cells and the anchor) and the values it pins them to
    (``want``); the anchor's bit, and that bit again if the anchor's type is
    1, else 0 (``restore``).  Two targets on one frame's masks are the same
    pattern exactly when they are equal."""

    kind: str
    cell: int
    care: int
    want: int
    anchor: int
    restore: int


def _target(masks: _Masks, kind: str, cell: int) -> _Target:
    """``OKKOSpec(kind, anchor, frame).pattern()`` as a ``_Target`` on
    ``masks``, the masks of the frame, for the anchor at grid index
    ``cell``: the main cells of one cyclic run are off and the small cells
    of another on, each run one slice of the doubled bit lists."""
    m = len(masks.main) // 2
    a, b = divmod(cell, m)
    anchor = masks.at[cell]
    if kind == "OK":
        # mains (a+1)..(b-1) off, smalls a..(b-1) on, anchor off
        s = (a + 1) % m
        off = sum(masks.main[s:s + (b - s) % m])
        on = sum(masks.small[a:a + (b - a) % m])
        restore = anchor
    else:
        # mains b..a off, smalls b..(a-1) on, anchor on
        off = sum(masks.main[b:b + (a + 1 - b) % m])
        on = sum(masks.small[b:b + (a - b) % m]) + anchor
        restore = 0
    return _Target(kind, cell, masks.mains | masks.smalls | anchor, masks.mains - off + on, anchor,
                   restore)


def _check_frame(frame: CycleFrame, G: BipartiteGraph):
    """``ShapeMismatch`` unless the frame's ids are m distinct U-vertices
    and m distinct V-vertices of G: a V-id past l would read a cell of the
    next row, and a repeated id would make the frame's mask sums carry."""
    us, vs = set(range(G.k)).intersection(frame.u_ids), set(range(G.l)).intersection(frame.v_ids)
    if not len(us) == len(vs) == len(frame.v_ids) == frame.m:
        raise ShapeMismatch(f"{frame} is not {frame.m} rows and columns of a {G.k}x{G.l} graph")


def matches_spec(Z: BipartiteGraph, spec: OKKOSpec) -> bool:
    """Whether Z carries exactly the pattern cells demanded by the spec,
    whose frame must lie in Z (``_check_frame``)."""
    _check_frame(spec.frame, Z)
    m = spec.frame.m
    target = _target(_frame_masks(spec.frame, Z.l), spec.kind, _index(spec.anchor, m))
    return _int(Z.key()) & target.care == target.want


def _local_bytes(key: bytes, l: int, rows, cols) -> bytes:
    """``G.adj[np.ix_(rows, cols)].tobytes()`` for the graph G with l
    columns whose key is ``key``, without building the array."""
    return bytes([key[u * l + v] for u in rows for v in cols])


# the local problem of a 4-cycle, a 2 x 2 one-factor, as ``_local_swaps``
# keys it, and its one swap, by the orientation of that swap: 1 when the
# cells on are (0, 0) and (1, 1), 2 when they are (0, 1) and (1, 0)
_SQUARES = {1: (((2, 2), b"\x01\x00\x00\x01", 0x01010101), ((0, 1, 0, 1, 1),)),
            2: (((2, 2), b"\x00\x01\x01\x00", 0x01010101), ((0, 1, 0, 1, 2),))}


def _local_swaps(key: int, l: int, mask: int, memo: dict, solve) -> tuple:
    """``(rows, cols, swaps)``: the swaps that flip the alternating cycle
    on the cells ``mask`` in the realization with key ``key`` (l columns,
    both held as ints, ``_int``), made by ``solve`` on the cycle's local
    problem and given in its indices: index t stands for ``rows[t]`` or
    ``cols[t]``, the U- and V-vertices the cells meet, each in increasing
    order.  The caller lifts them.

    The local problem is the submatrix on rows x cols: its shape, its bytes
    read from the key (``_local_bytes``) and the cycle's cells there, the
    local mask, in the same form as ``mask``, whose cells are read by a
    byte scan (``core._key_cells``).  ``memo``, which the caller scopes,
    maps it to the swaps.  Only a miss walks the cycle on the local key
    (``_cycle_walk``, which raises ``CycleMismatch`` unless the cells are
    one cycle alternating against it) and calls ``solve(start, cells,
    frame)`` on the local key, the local mask and the frame the walk
    orients.  The walk and ``solve`` read nothing but the local problem,
    and the rows and columns keep their order, so a hit returns exactly
    the swaps a miss would, and passes the check a miss would make.

    Four cells that hold a 2 x 2 one-factor of the key are a 4-cycle, and
    take a direct route: their local problem is one of the two 2 x 2 ones
    (``_SQUARES``), read off the four cells, and a miss stores its
    one swap, ``(0, 1, 0, 1, orientation)``, with no walk and no ``solve``.
    That is the swap each solver gives a 4-cycle: ``_solve_frame``'s
    m == 2 branch for a pattern and ``_eliminate_cycle`` for a bridge.  Any
    other set of four cells takes the general route, which refuses it."""
    ids = _key_cells(mask)
    if len(ids) == 4:
        c0, c1, c2, c3 = ids
        width = c1 - c0
        # a 2 x 2 block: c0, c1 share a row, as do c2, c3, and c2 lies a
        # whole number of rows below c0
        if c3 - c2 == width and (c2 - c0) % l == 0 and c0 % l + width < l:
            on = key & mask
            main = 1 << 8 * c0 | 1 << 8 * c3
            ori = 1 if on == main else 2 if on == mask ^ main else 0
            if ori:
                problem, swaps = _SQUARES[ori]
                return [c0 // l, c2 // l], [c0 % l, c1 % l], memo.setdefault(problem, swaps)
    rows, cols = sorted({c // l for c in ids}), sorted({c % l for c in ids})
    # the bytes of key and mask up to the end of the last row the cycle meets
    n = (rows[-1] + 1) * l if rows else 0
    local = _local_bytes((key & ((1 << 8 * n) - 1)).to_bytes(n, "little"), l, rows, cols)
    cells = _int(_local_bytes(mask.to_bytes(n, "little"), l, rows, cols))
    problem = (len(rows), len(cols)), local, cells
    swaps = memo.get(problem)
    if swaps is None:
        start = _int(local)
        frame = CycleFrame(*_cycle_walk(start, len(cols), cells))
        swaps = memo[problem] = tuple(solve(start, cells, frame))
    return rows, cols, swaps


def _bridge(l: int, key_a: int, key_b: int, bridges: dict) -> list:
    """Swaps carrying the realization with key ``key_a`` to the one with key
    ``key_b`` (l columns each, keys held as ints), which differ in one
    alternating cycle (``CycleMismatch`` otherwise), through
    ``_local_swaps`` with the caller's memo ``bridges``, which lives for
    one top-level call, lifted to global vertices.  A miss runs
    ``_eliminate_cycle`` on the local problem, unless the keys differ in a
    4-cycle: ``_local_swaps`` gives its one swap directly."""
    rows, cols, local = _local_swaps(key_a, l, key_a ^ key_b, bridges, _eliminate_cycle)
    return [(rows[u1], rows[u2], cols[v1], cols[v2], ori) for u1, u2, v1, v2, ori in local]


def _eliminate_cycle(start: int, cells: int, frame: CycleFrame) -> list:
    """``ryser_sequence``'s column elimination (``ryser._eliminate``) from
    the m x m key ``start`` to ``start ^ cells`` (held as ints), m the
    length of the frame of the cycle ``cells``, each read as a byte key.
    One alternating cycle leaves the margins equal, so they are not
    checked.  ``_local_swaps`` calls it on cycles of six cells or more: a
    4-cycle takes its direct route, with the one swap this gives it."""
    m = frame.m
    key_a, key_b = (key.to_bytes(m * m, "little") for key in (start, start ^ cells))
    return _eliminate(key_a, key_b, m, m)


def ok_ko_step(L_prev: BipartiteGraph, spec_prev: OKKOSpec, spec_next: OKKOSpec) -> list:
    """Swaps moving the realization matching ``spec_prev`` to the one
    matching ``spec_next`` (previous anchor restored to its type).

    The two targets differ in a single alternating cycle whose length is
    linear in the grid distance of the anchor parameters; before bridging,
    that is asserted.  The swap count is bounded by twice the edge count of
    the spanned subgraph: 24 for the adjacent same-kind case and 40 for
    the kind-changing case.  Each call solves its bridge with a fresh
    bridge memo (see ``_bridge``).  The frame must lie in ``L_prev``
    (``_check_frame``).
    """
    frame = spec_prev.frame
    if frame != spec_next.frame:
        raise SpecViolation("patterns live on different cycle frames")
    _check_frame(frame, L_prev)
    masks = _frame_masks(frame, L_prev.l)
    prev, nxt = (_target(masks, spec.kind, _index(spec.anchor, frame.m))
                 for spec in (spec_prev, spec_next))
    return [Swap(*s) for s in _ok_ko_move(_int(L_prev.key()), L_prev.l, frame.m, prev, nxt, {})[0]]


def _ok_ko_move(key: int, l: int, m: int, prev: _Target, nxt: _Target, bridges: dict) -> tuple:
    """``(swaps, next_key)``: the swaps of ``ok_ko_step``, as fields, from the
    realization with key ``key`` (l columns, held as an int) matching
    ``prev`` to the target ``nxt``, both on the masks of one frame of length
    m, with ``prev``'s anchor restored to its type and every other cell
    inherited, and the key they reach; the bridge goes through the
    ``bridges`` memo."""
    if prev == nxt:
        return [], key
    if key & prev.care != prev.want:
        raise SpecViolation("graph does not match the claimed source pattern")
    next_key = (key & ~(nxt.care | prev.anchor)) | nxt.want | (prev.restore & ~nxt.care)
    # a KO pattern's bookkeeping parameters are its anchor's transposed indices
    ends = [t.cell if t.kind == "OK" else t.cell % m * m + t.cell // m for t in (prev, nxt)]
    dist = _distance(m, *ends)
    cap = (2 if prev.kind == nxt.kind else 4) + 2 * dist
    size = (key ^ next_key).bit_count()
    if size > cap:
        raise SpecViolation(f"difference cycle of {size} exceeds {cap} for anchor distance {dist}")
    return _bridge(l, key, next_key, bridges), next_key


# ---------------------------------------------------------------------------
# the path construction
# ---------------------------------------------------------------------------
#
# The solver below holds each realization as its key read as one int
# (``_int``: cell c at bit 8c, row stride l) and the chord types as the
# start realization's key: a chord keeps its start value in every target
# the construction aims at.  Each frame's cells are masks (``_Masks``),
# built once per frame solve.


def _assert_right_form(key: int, masks: _Masks, frame: CycleFrame, types: int):
    m = frame.m
    if key & masks.mains != masks.mains or key & masks.smalls:
        for t in range(m):
            if not key & masks.main[t]:
                raise PreconditionViolation(f"main edge {t} missing at block entry")
            if key & masks.small[t]:
                raise PreconditionViolation(f"small edge {t} present at block entry")
    off = (key ^ types) & masks.chords
    if off:
        a, b = next(divmod(p, m) for p in _bits(_grid(m).chords) if off & masks.at[p])
        raise PreconditionViolation(
            f"chord {(frame.u_ids[a], frame.v_ids[b])} off its type at block entry")


def _apply(key: int, l: int, swaps) -> int:
    """The key after ``swaps``, each given by its fields, applied in order
    to ``key`` (l columns, held as an int), each by ``core._step``."""
    for s in swaps:
        key = _step(key, l, s)
    return key


def _friendly_swaps(key: int, l: int, masks: _Masks, type1: int, path: tuple, anchors: tuple,
                    bridges: dict):
    """``_solve_frame`` along the friendly ``path`` and its ``anchors``
    (``_friendly_search``): an OK target per type-1 chord, KO per type-0."""
    m = len(masks.main) // 2
    targets = [_target(masks, "OK" if type1 >> p & 1 else "KO", anchor)
               for p, anchor in zip(path, anchors)]
    first = targets[0]
    cur = (key & ~first.care) | first.want
    swaps = _bridge(l, key, cur, bridges)
    for prev, nxt in zip(targets, targets[1:]):
        step, cur = _ok_ko_move(cur, l, m, prev, nxt, bridges)
        swaps.extend(step)
    # closing target: every main edge gone, every small edge in, anchor restored
    last = targets[-1]
    final = (cur & ~(masks.mains | masks.smalls | last.anchor)) | masks.smalls | last.restore
    swaps.extend(_bridge(l, cur, final, bridges))
    return swaps, final


def _valid_patterns(m: int, types: int) -> list:
    """Cut patterns (i, t, j, jp) of an m x m grid whose type-1 chords are
    the set ``types`` (``_Grid``): the first j down-line cells at index i
    share type t, the first jp-1 up-line cells share 1-t, and up-line cell
    jp has type t again, with jp = j + 1 whenever jp >= 2."""
    out = []
    if m < 4:       # no down-line, so no cut
        return out
    grid = _grid(m)
    for i in range(m):
        down = [types >> p & 1 for p in grid.down[i]]
        up = [types >> p & 1 for p in grid.up[i]]
        t = down[0]
        run = 1
        while run < len(down) and down[run] == t:
            run += 1
        p = next((s for s, ty in enumerate(up, 1) if ty == t), None)
        if p is None:
            continue
        if p == 1:
            out.append((i, t, 0, 1))
        elif p <= run + 1:
            out.append((i, t, p - 1, p))
    return out


def _seam_in_arc(i, j, m) -> bool:
    arc = {(i - j + t0) % m for t0 in range(2 * j + 1)}
    return (m - 1) in arc and 0 in arc


def _choose_pattern(patterns, m):
    feasible = [pat for pat in patterns
                if not (pat[3] == 1 and pat[1] == 0 and m < 5)]
    if not feasible:
        raise SpecViolation("no feasible cut pattern on this block")
    return min(feasible, key=lambda pat: (
        0 if (pat[3] >= 2 and _seam_in_arc(pat[0], pat[2], m)) else 1,
        0 if pat[3] >= 2 else 1,
        pat[0], pat[3]))


def _first_touch(swaps, edge) -> int:
    u, v = edge
    for idx, (u1, u2, v1, v2, _) in enumerate(swaps):
        if u in (u1, u2) and v in (v1, v2):
            return idx
    raise SpecViolation("a block sequence never touches its closing cell")


def _solve_frame(key: int, l: int, frame: CycleFrame, types: int, bridges: dict,
                 expect_friendly: bool = False):
    """Swaps flipping the framed cycle from its main side to its small side
    in the realization with key ``key`` (l columns), chords typed by
    ``types``, both keys held as ints (``_int``).

    Returns (swaps, final key), each swap as its fields ``(u1, u2, v1, v2,
    orientation)``.  Every emitted swap touches only cells of
    this frame, so sequences of disjoint frames commute.  Bridges between
    OK/KO targets go through the ``bridges`` memo (see ``_bridge``).  The
    frame's masks are built once here and live for this solve.
    """
    m = frame.m
    masks = _frame_masks(frame, l)
    _assert_right_form(key, masks, frame, types)
    if m == 1:
        raise SpecViolation("a one-edge block cannot arise")
    if m == 2:
        s, end = _swap_on_cells(key, l, frame, 0, 1, 0, 1)
        return [s], end
    # the set of type-1 chords, in grid indices
    type1 = 0
    for p in _bits(_grid(m).chords):
        if types & masks.at[p]:
            type1 |= 1 << p
    res = _friendly_search(m, type1)
    if isinstance(res, tuple):
        return _friendly_swaps(key, l, masks, type1, *res, bridges)
    if expect_friendly:
        raise SpecViolation("a block guaranteed friendly came out blocked")
    i, t, j, jp = _choose_pattern(_valid_patterns(m, type1), m)
    if jp == 1:
        return _first_possibility(key, l, frame, types, type1, i, t, bridges)
    return _second_possibility(key, l, frame, types, i, t, j, jp, bridges)


def _swap_on_cells(key: int, l: int, frame: CycleFrame, urow_a, urow_b, vcol_a, vcol_b) -> tuple:
    """``(swap, key after it)``: the fields of ``Swap.on`` the frame's
    U-vertices at local indices urow_a, urow_b and V-vertices at vcol_a,
    vcol_b, its orientation read as ``Swap.on`` reads it, from the key (l
    columns, held as an int) at (u1, v1), then applied by ``core._step``."""
    u1, u2 = sorted((frame.u_ids[urow_a], frame.u_ids[urow_b]))
    v1, v2 = sorted((frame.v_ids[vcol_a], frame.v_ids[vcol_b]))
    s = (u1, u2, v1, v2, 1 if key >> 8 * (u1 * l + v1) & 1 else 2)
    return s, _step(key, l, s)


def _first_possibility(key, l, frame, types, type1, i, t, bridges):
    m = frame.m
    im1, ip1 = (i - 1) % m, (i + 1) % m
    if t == 1:
        # one swap settles index i and opens the chord (i-1, i+1) as the
        # closing cell of the remaining (m-1)-block
        s1, cur = _swap_on_cells(key, l, frame, im1, i, i, ip1)
        child = frame.sub([(i + 1 + t0) % m for t0 in range(m - 1)])
        sub, cur = _solve_frame(cur, l, child, types, bridges)
        return [s1] + sub, cur
    if m < 5:
        raise SpecViolation("type-0 adjacent pattern needs at least five indices")
    im2, ip2 = (i - 2) % m, (i + 2) % m
    sA, cur = _swap_on_cells(key, l, frame, im1, ip1, im1, ip1)
    sB, cur = _swap_on_cells(cur, l, frame, im1, i, i, ip1)
    swaps = [sA, sB]
    child = frame.sub([(i + 2 + t0) % m for t0 in range(m - 3)])
    if type1 >> (im2 * m + ip2) & 1:
        sC, cur = _swap_on_cells(cur, l, frame, im2, ip1, im1, ip2)
        swaps.append(sC)
        sub, cur = _solve_frame(cur, l, child, types, bridges)
        return swaps + sub, cur
    sub, cur = _solve_frame(cur, l, child, types, bridges)
    swaps.extend(sub)
    sC, cur = _swap_on_cells(cur, l, frame, im2, ip1, im1, ip2)
    swaps.append(sC)
    return swaps, cur


def _second_possibility(key, l, frame, types, i, t, j, jp, bridges):
    m = frame.m
    lo_u, hi_u = (i - jp) % m, (i + j) % m
    lo_v, hi_v = (i - j) % m, (i + jp) % m
    d_cell = ((i + j) % m, (i - j) % m)
    u_cell = ((i - jp) % m, (i + jp) % m)
    arc1 = [(i - j + t0) % m for t0 in range(j + jp)]
    arc2 = [(i + jp + t0) % m for t0 in range(m - j - jp)]
    sub1, sub2 = frame.sub(arc1), frame.sub(arc2)
    swaps = []
    cur = key
    if t == 1:
        pre, cur = _swap_on_cells(cur, l, frame, lo_u, hi_u, lo_v, hi_v)
        swaps.append(pre)
    s1, _end1 = _solve_frame(cur, l, sub1, types, bridges, expect_friendly=True)
    s2, _end2 = _solve_frame(cur, l, sub2, types, bridges)
    c1 = _first_touch(s1, frame.cell_edge(d_cell))
    c2 = _first_touch(s2, frame.cell_edge(u_cell))
    interleaved = s1[:c1] + s2[:c2] + s1[c1:] + s2[c2:]
    cur = _apply(cur, l, interleaved)
    swaps.extend(interleaved)
    if t == 0:
        post, cur = _swap_on_cells(cur, l, frame, lo_u, hi_u, lo_v, hi_v)
        swaps.append(post)
    return swaps, cur


def _solve_cycle(G: BipartiteGraph, Gp: BipartiteGraph, cycle: AlternatingCycle,
                 bridges: dict) -> tuple:
    """The swaps carrying G to Gp along ``cycle``, each as its fields,
    without re-checking that the two differ exactly in it, bridging through
    the call-scoped memo ``bridges`` (see ``_bridge``); raises
    ``SpecViolation`` if the construction misses Gp.  The solve runs on G's
    key read as an int, which also types the chords.  The full-graph
    reference behind ``cycle_swaps``."""
    frame = CycleFrame.from_cycle(cycle, G)
    start = _int(G.key())
    swaps, end = _solve_frame(start, G.l, frame, start, bridges)
    if end != _int(Gp.key()):
        raise SpecViolation("cycle construction missed its target")
    return tuple(swaps)


def cycle_swaps(G: BipartiteGraph, Gp: BipartiteGraph, X: BipartiteGraph,
                Y: BipartiteGraph, cycle: AlternatingCycle) -> tuple:
    """The swap sequence behind ``path_along_cycle``, after checking that G
    and Gp differ exactly in ``cycle`` and that X xor G, the cycle and
    Gp xor Y are pairwise disjoint."""
    part = symmetric_difference(G, Gp)
    if part.x_edges | part.y_edges != set(cycle.edge_seq):
        raise CycleMismatch("G and Gp do not differ in exactly this cycle")
    cyc_cells = set(cycle.edge_seq)
    dxg = symmetric_difference(X, G)
    dgy = symmetric_difference(Gp, Y)
    side_x = dxg.x_edges | dxg.y_edges
    side_y = dgy.x_edges | dgy.y_edges
    if side_x & cyc_cells or side_y & cyc_cells or side_x & side_y:
        raise PreconditionViolation("the three symmetric differences overlap")
    return tuple(Swap(*s) for s in _solve_cycle(G, Gp, cycle, {}))


def path_along_cycle(G: BipartiteGraph, Gp: BipartiteGraph, X: BipartiteGraph,
                     Y: BipartiteGraph, cycle: AlternatingCycle) -> list:
    """Realizations G = Z_0, ..., Z_m = Gp, consecutive ones one swap apart,
    built along the given alternating cycle."""
    return replay(G, cycle_swaps(G, Gp, X, Y, cycle))


def _pattern_swaps(key: int, l: int, mask: int, memo: dict, bridges: dict) -> tuple:
    """``_local_swaps`` of the canonical construction: the swaps that flip
    the cycle with cell mask ``mask`` in the realization with key ``key``
    (l columns, both held as ints), as ``(rows, cols, swaps)``, solved once
    per local problem in ``memo``.

    The construction reads only the cells of the cycle's rows x columns,
    and its tie-breaks depend only on the order of vertex indices.  It
    takes the cycle's start side from the key, the cycle cells that are on
    there, and reads no order or X/Y label of the cycle: a set of cells
    with two in each of its rows and columns, forming one cycle, fixes the
    cycle.  So its swaps are a function of the local problem.  A miss runs
    ``_solve_frame`` on the local key, which also types the chords, with
    the call-scoped bridge memo ``bridges``, except on a 4-cycle, whose one
    swap ``_local_swaps`` gives directly; ``_key_segment`` makes the one
    end check.
    """
    return _local_swaps(key, l, mask, memo, lambda start, cells, frame: _solve_frame(
        start, frame.m, frame, start, bridges)[0])


def _key_segment(patterns: dict, bridges: dict, l: int, key: bytes, mask: int) -> tuple:
    """The canonical segment that flips the cycle with cell mask ``mask``
    in the graph with l columns whose key is ``key``, as ``(keys, swaps)``:
    the key after each swap and the swap's fields ``(u1, u2, v1, v2,
    orientation)``.

    The swaps come from ``_pattern_swaps``, solved once per local problem
    in ``patterns``, with each bridge solved once per local problem in
    ``bridges``, and are lifted through the cycle's rows and columns.  The
    key is read once as an int (``core._int``); each lifted swap flips its
    four cells there by ``core._step``, the check of ``apply_swap``.  Raises
    ``SpecViolation`` unless the segment lands on the key XOR the mask,
    the key with exactly the cycle's cells flipped: the one end check of a
    pattern's swaps, solved, memoized or, for a 4-cycle, given by
    ``_local_swaps``' direct route.  A mask has no X/Y labels: the cells on
    in the key are the cycle's start side.
    """
    start = cur = _int(key)
    rows, cols, local = _pattern_swaps(start, l, mask, patterns, bridges)
    n = len(key)
    keys, swaps = [], []
    for u1, u2, v1, v2, ori in local:
        s = rows[u1], rows[u2], cols[v1], cols[v2], ori
        cur = _step(cur, l, s)
        keys.append(cur.to_bytes(n, "little"))
        swaps.append(s)
    if cur != start ^ mask:
        raise SpecViolation("a canonical segment missed its flipped state")
    return tuple(keys), tuple(swaps)


def _key_lift(l: int):
    """The lift of a segment table on the keys of realizations with l
    columns: ``(key, mask)`` -> ``_key_segment``'s ``(keys, swaps)``, with
    pattern and bridge memos that live as long as the lift (a hit is exact,
    see ``_local_swaps``)."""
    patterns, bridges = {}, {}
    return lambda key, mask: _key_segment(patterns, bridges, l, key, mask)


def _path_counts(start, end, cycle_lists: dict, segments: dict, lift) -> dict:
    """The canonical walk: for each distinct path from the state ``start``
    to ``end``, the tuple of the states it visits, mapped to ``[count,
    segs]``, the number of pairings that select it and the segments of one
    walk along it.

    ``cycle_lists`` maps each distinct cycle list, a tuple of cell masks,
    to the number of pairings that give it.  Each is walked once, flipping
    its cycles in order, and adds that number to its path.  The caller's
    table ``segments`` maps ``(state, mask)``, everything a segment depends
    on, to the segment, a tuple whose first item holds the states after
    each of its swaps; ``lift(state, mask)`` makes a missing one.  A mask
    has no order or X/Y labels, so the walks of X -> Y and Y -> X share one
    table.  Raises ``SpecViolation`` unless every path lands on ``end``.

    A decomposition's cycles, walked in order, meet every precondition
    ``cycle_swaps`` checks: each state on the way agrees with the start on
    the cycles still ahead and with the end on those behind, so the next
    cycle is exactly where it differs from its target, and the three
    symmetric differences never overlap.
    """
    counts = {}
    for cycles, c in cycle_lists.items():
        path = (start,)
        segs = []
        for mask in cycles:
            key = path[-1], mask
            seg = segments.get(key)
            if seg is None:
                seg = segments[key] = lift(*key)
            segs.append(seg)
            path += seg[0]
        if path[-1] != end:
            raise SpecViolation("path did not land on Y")
        entry = counts.get(path)
        if entry is None:
            counts[path] = [c, segs]
        else:
            entry[0] += c
    return counts


def canonical_path(X: BipartiteGraph, Y: BipartiteGraph, pairing, certify: bool = False):
    """The canonical path from X to Y selected by the pairing.

    The pairing's cycles are processed in decomposition order; the path
    passes through the partial targets X xor (first cycles) between them.
    With ``certify`` each visited realization also gets the switch distance
    of its three-term matrix against (X, Y), capped at 6 switches
    (``switch_distance``'s default), from ``_certificates``, which decides
    the whole stack of matrices in one ``_switch_distances`` call.  The
    pairing is checked as ``decompose`` checks it, the kernel traces its
    cycles as cell masks (``pairings._trace``), the path is
    ``_path_stack``'s, and each state is a view of its layer.
    """
    numbering, pu, pv = _pairing_partners(X, Y, pairing)
    stack, _ = _path_stack(X, Y, _trace(pu, pv, numbering, {})[2])
    states = [BipartiteGraph._trusted(layer) for layer in stack]
    if certify:
        return states, _certificates(X.adj, Y.adj, stack)
    return states


def _path_stack(X: BipartiteGraph, Y: BipartiteGraph, masks) -> tuple:
    """The canonical walk (``_path_counts``) from X to Y flipping the
    cycles ``masks``, cell masks from the decomposition kernel, on a
    segment table fresh for the call (``_key_lift``), as ``(stack,
    swaps)``: the keys it visits stacked into a read-only (n, k, l)
    ``uint8`` array, and the n - 1 field tuples its segments applied."""
    ((path, (_, segs)),) = _path_counts(X.key(), Y.key(), {tuple(masks): 1}, {},
                                        _key_lift(X.l)).items()
    stack = np.frombuffer(b"".join(path), np.uint8).reshape(len(path), X.k, X.l)
    return stack, [s for _, swaps in segs for s in swaps]


def _certificates(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> list:
    """``switch_distance(x + y - z)`` for each layer of the (n, k, l) 0-1
    ``uint8`` stack z, where x and y are 0-1 ``uint8`` matrices of z's shape
    or stacks of them paired with its layers, realizations of one sequence.
    Each layer's margins are checked against its x's in one reduction
    (``DegreeMismatch``), so every hat has the margins of its y; the hats
    are formed in one broadcast and decided together by
    ``_switch_distances``."""
    if not ((z.sum(axis=2) == x.sum(axis=-1)).all() and (z.sum(axis=1) == x.sum(axis=-2)).all()):
        raise DegreeMismatch("a state on the path leaves X's margins")
    return _switch_distances((x + y).view(np.int8) - z.view(np.int8))


def path_distribution(X: BipartiteGraph, Y: BipartiteGraph) -> dict:
    """Exact distribution over canonical paths, each path a tuple of the
    visited realizations' keys: its weight is the number of pairings
    selecting it over the total number of pairings.  The cycle lists of
    ``pairings._decompositions`` (more than ``pairings._MAX_PAIRINGS``
    pairings raise ``TooManyPairings``, as in ``congestion``) are collapsed
    into ``{tuple of masks: number of pairings}``, and ``_path_counts``
    walks each distinct list once on the key walk of ``canonical_path``,
    with one segment table (``_key_lift``) and one shape memo for the
    call."""
    _check_margins(X, Y)
    total, cycle_lists = _decompositions(X.key(), Y.key(), X.l, {})
    counts = _path_counts(X.key(), Y.key(), Counter(cycle_lists), {}, _key_lift(X.l))
    dist = {path: Fraction(c, total) for path, (c, _) in counts.items()}
    assert sum(dist.values()) == 1
    return dist


# ---------------------------------------------------------------------------
# switch distance
# ---------------------------------------------------------------------------


def switch_distance(M, cap: int = 6):
    """Minimum number of 2x2 plus/minus switches carrying the integer matrix
    M to a 0-1 matrix, or ``Exceeds(cap)``: ``_switch_distances`` on the
    stack of one layer.  A 0-1 matrix is at distance 0; every other input
    needs margins that some 0-1 matrix realizes (``MarginMismatch``
    otherwise, an empty matrix and a non-matrix included).  Entries must be
    integers, ``ValueError`` otherwise."""
    arr = np.array(M)
    with np.errstate(invalid="ignore"):
        # strings are refused before the cast, which would read "1" as 1, and
        # an entry the cast changes (1.5, nan, 1e30) after it
        mat = arr.astype(np.int64) if arr.dtype.kind in "biufO" else None
    if mat is None or not (mat == arr).all():
        raise ValueError("switch distance entries must be integers")
    if mat.ndim != 2:
        raise MarginMismatch("switch distance needs a matrix")
    return _switch_distances(mat[None], cap)[0]


def _switch_distances(hats: np.ndarray, cap: int = 6) -> list:
    """The switch distance of each layer of an (n, k, l) integer stack whose
    layers share one set of margins, each capped at ``cap`` switches: an
    int, or ``Exceeds(cap)``.  Layers at distance 0 or 1 are decided in
    numpy; the others go to ``_search``.

    A layer with every entry in [0, 1] is at distance 0, and it realizes its
    own margins, so one reduction answers these before any margin check.
    Every other layer must have margins some 0-1 matrix realizes; all layers
    share them, so one ``core._gale_ryser`` check raises ``MarginMismatch``
    exactly when a check per layer would (an empty shape has no 0-1 layer,
    and fails it).  One more reduction gives each remaining layer's
    deficiency, the summed distance of its entries from [0, 1].  A switch
    lowers it by at most four, so a layer above ``4 * cap`` is past the cap.

    A layer at deficiency <= 4 is at distance 1 exactly when some switch on
    rows r, r2 and columns c, c2 (r2 != r, c2 != c) that moves its first
    out-of-range entry (r, c) one step toward range leaves a 0-1 matrix.
    Every one-switch witness is one of these: it changes four cells by one
    each and leaves a 0-1 matrix, so it moves every out-of-range entry, the
    first included, one step toward range.  The broadcast below decides this
    over every (r2, c2) of every such layer: the switch leaves a 0-1 matrix
    iff its four distinct cells land in [0, 1] and their old excesses add up
    to the whole deficiency, so that no entry outside them is out of range.
    A layer the broadcast fails is at distance >= 2, and goes to ``_search``
    with its deficiency.
    """
    n, k, l = hats.shape
    flat = hats.reshape(n, k * l)
    out_of_range = (flat & -2) != 0
    rest = np.flatnonzero(out_of_range.any(axis=1) | (k * l == 0))
    out = [0 if cap >= 0 else Exceeds(cap)] * n
    if not len(rest):
        return out
    first = hats[rest[0]]
    if not _gale_ryser(first.sum(axis=1).tolist(), first.sum(axis=0).tolist()):
        raise MarginMismatch("margins admit no 0-1 matrix")
    wide = flat[rest].astype(np.int64)
    # an integer m lies (|2m - 1| - 1) / 2 from [0, 1]
    excess = (np.abs(2 * wide - 1) - 1) // 2
    deficiency = excess.sum(axis=1)
    within = deficiency <= 4 * cap
    near = within & (deficiency <= 4)
    m = int(near.sum())
    at = np.arange(m)
    mats, excess = wide[near].reshape(m, k, l), excess[near].reshape(m, k, l)
    r, c = np.divmod(out_of_range[rest[near]].argmax(axis=1), l)   # the first out-of-range entry
    v00 = mats[at, r, c]
    sign = np.where(v00 < 0, 1, -1)
    s = sign[:, None]

    def fits(v):
        return (v & -2) == 0

    # the switch on rows r, r2 and columns c, c2 moves (r, c) and (r2, c2)
    # by sign, (r, c2) and (r2, c) against it: ok[., r2, c2] when it leaves
    # a 0-1 matrix.  No (r2, c2) in row r or column c passes, since one of
    # its cells would have to land in [0, 1] both after +sign and -sign.
    ok = (fits(mats + s[:, :, None])
          & fits(mats[at, r] - s)[:, None, :]
          & fits(mats[at, :, c] - s)[:, :, None]
          & fits(v00 + sign)[:, None, None]
          & (excess + excess[at, r][:, None, :] + excess[at, :, c][:, :, None]
             + excess[at, r, c][:, None, None] == deficiency[near][:, None, None]))
    one = np.zeros(len(rest), bool)
    one[near] = ok.any(axis=(1, 2))
    for j, i in enumerate(rest.tolist()):
        out[i] = (1 if one[j] else Exceeds(cap) if not within[j]
                  else _search(wide[j].reshape(k, l), int(deficiency[j]), cap))
    return out


def _search(mat: np.ndarray, deficiency: int, cap: int):
    """The switch distance of the (k, l) int64 matrix ``mat``, known to be
    at least 2, at ``deficiency`` <= 4 * cap: the first budget from 2 to
    ``cap`` at which ``_descend`` reaches a 0-1 matrix, or ``Exceeds(cap)``.
    Entries stay in a band, the input's value range taken to cover at least
    [-1, 2] and widened by one on each side, so the answer is exact whenever
    a witness stays in it.  Every node decided is memoized for the call,
    keyed by the matrix and the budget."""
    lo = min(-1, int(mat.min())) - 1
    hi = max(2, int(mat.max())) + 1
    # entries are held shifted by offset, so the band is 0..span; excess[s]
    # is the distance of the entry held as s from [0, 1]
    offset = -lo
    span = hi - lo
    excess = [max(offset - s, s - offset - 1, 0) for s in range(span + 1)]
    flat = (mat + offset).ravel().tolist()
    memo = {}
    for budget in range(2, cap + 1):
        if deficiency <= 4 * budget and _descend(flat, mat.shape[1], offset, span, excess,
                                                 memo, budget, deficiency):
            return budget
    return Exceeds(cap)


def _descend(flat: list, l: int, offset: int, span: int, excess: list, memo: dict,
             budget: int, deficiency: int) -> bool:
    """Whether the matrix held in ``flat`` (rows of l entries, each shifted
    by ``offset`` into the band 0..span) reaches a 0-1 matrix within
    ``budget`` switches, for 0 < ``deficiency`` <= 4 * ``budget``.

    Switches commute, so some optimal sequence starts with a switch that
    moves the first out-of-range entry toward range; the search branches
    only over those.  A switch changes four cells, so a child's deficiency
    is the parent's plus the change on those four cells, known in O(1)
    before the child is entered: a child at deficiency 0 is a 0-1 matrix
    and ends the search, and a child above four times its budget is
    skipped.  These are the first two tests a child would make, in the same
    order and before it reads or writes the memo, so the search decides and
    memoizes exactly the nodes of a search that entered every child and
    rescanned its matrix.  ``flat`` is restored before returning.
    """
    key = (tuple(flat), budget)
    hit = memo.get(key)
    if hit is not None:
        return hit
    first = 0
    while not excess[flat[first]]:
        first += 1
    r, c = divmod(first, l)
    k = len(flat) // l
    v00 = flat[first]
    sign = 1 if v00 < offset else -1
    # the first entry moves one step toward range
    base = deficiency - 1
    limit = 4 * (budget - 1)
    found = False
    for r2 in range(k):
        if r2 == r:
            continue
        rb, r2b = r * l, r2 * l
        for c2 in range(l):
            if c2 == c:
                continue
            i01, i10, i11 = rb + c2, r2b + c, r2b + c2
            o11, o01, o10 = flat[i11], flat[i01], flat[i10]
            v11 = o11 + sign
            v01 = o01 - sign
            v10 = o10 - sign
            if not (0 <= v11 <= span and 0 <= v01 <= span and 0 <= v10 <= span):
                continue
            child = (base + excess[v11] - excess[o11] + excess[v01] - excess[o01]
                     + excess[v10] - excess[o10])
            if child == 0:
                found = True
                break
            if child > limit:
                continue
            flat[first], flat[i11], flat[i01], flat[i10] = v00 + sign, v11, v01, v10
            found = _descend(flat, l, offset, span, excess, memo, budget - 1, child)
            flat[first], flat[i11], flat[i01], flat[i10] = v00, o11, o01, o10
            if found:
                break
        if found:
            break
    memo[key] = found
    return found
