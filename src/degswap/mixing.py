"""Desk-scale ground truth: exact realization counts, enumerated state spaces,
exact kernels, spectra, distance-to-uniform decay, and the congestion of the
canonical path system.

``enumerate_states`` walks the realizations breadth-first on packed
integer keys, one bit per cell, and expands each level's whole frontier in
numpy passes over the row pairs and ordered column pairs, so the move
graph comes out of the same walk; every space is checked against the exact
count of ``count_realizations``.  A ``StateSpace`` is arrays: the states
as one stacked ``uint8`` matrix and the move graph in CSR form.  A state
becomes a ``BipartiteGraph`` only when ``StateSpace.graph`` is asked.

Every allowed swap has probability 1/(C(k,2)*C(l,2)) and the chain stays
put otherwise, so ``TransitionMatrix`` holds the kernel as that one
denominator and the CSR move graph, and no dense table of it is ever built.
Everything that feeds an inequality check is computed in Python integers or
exact rationals; floating point only enters the eigensolver.  Congestion
sums over one pair loop, ``_routes``, which decomposes each signed
difference X - Y of its unordered pairs once through the integer kernel of
``pairings``, collapses that decomposition's cycle lists, tuples of cell
masks (a key's own form read as an int, cell c at bit 8c), to the distinct
ones with their pairing counts, and counts the paths of both directions of
every pair with that difference on them, walking each distinct list once
(``canonical._path_counts``, which reads a cycle as its cell mask against
the current state) on state ids, each segment lifted from keys to ids and
edge codes once.  A segment is solved by ``canonical._key_segment``, whose
patterns and bridges take one local route, memoized for the call.
Congestion always certifies: each distinct matrix X + Y - Z is queued and
the queue decided in blocks of at most ``_CHUNK`` by
``canonical._certificates``, as a path's certificates are.

The chain commutes with exchanging two vertices of equal degree.  On spaces
large enough to pay for it, ``build_kernel`` stores such exchanges of
disjoint vertex pairs on the kernel as state-id permutations, each checked
in integers to map the move graph onto itself.  ``spectral_gap`` then
splits ``P`` exactly into one block per character of the group (Z_2)^m they
generate, in the basis of signed orbit sums (Boyd, Diaconis, Parrilo & Xiao,
"Fastest mixing Markov chain on graphs with symmetries", 2009).  Each block
is summed from the move graph's edges and solved densely, and each keeps
the eigensolver's residual certificate.

The same symmetry, taken whole, shrinks the exact decay scans.  Every
relabelling of equal-degree vertices (and the transpose when ``a == b``)
commutes with the chain, so ``P^t`` from a start x is ``P^t`` from any
state of x's orbit, relabelled.  ``_representatives`` finds one start per
orbit by union-find over the adjacent transpositions inside each degree
class, each checked in integers to map the move graph onto itself, and
``tv_mixing_time`` and ``total_variation_time`` advance only those columns
of ``A^t``, still in exact integers, in one scan (``_decay``) that yields
every t.  Both distances never increase with t, so both mixing times stop
at the first t within eps (``_first_hit``).  The chain is ergodic
exactly when ``A^(2N-2)`` has no zero entry, so a scan still beyond eps at
t = 2N - 2 raises ``NonMixing`` only if it finds one there; no spectrum
bounds the scan.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .canonical import _certificates, _key_segment, _path_counts
from .chain import _pairs, pair_count
from .core import BipartiteDegreeSequence, BipartiteGraph, _int, greedy_realize
from .errors import DegenerateChain, NonMixing, SpecViolation, TooLarge
from .pairings import _decompositions


@dataclass(frozen=True)
class StateSpace:
    """All realizations of a degree sequence, canonically ordered by the
    row-major bit string of the biadjacency matrix.

    ``adj[i]`` is state i's read-only 0-1 matrix, whose bytes are its key in
    ``index``.  The move graph is CSR: ``indices[indptr[i]:indptr[i + 1]]``
    lists, in increasing order, the states one allowed swap away from i.
    """

    ds: BipartiteDegreeSequence
    adj: np.ndarray
    index: dict
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.adj)

    def graph(self, i: int) -> BipartiteGraph:
        """State i as a graph, sharing the read-only ``adj[i]``."""
        return BipartiteGraph._trusted(self.adj[i])


def count_realizations(ds: BipartiteDegreeSequence) -> int:
    """Number of 0-1 matrices with row sums ``ds.a`` and column sums ``ds.b``.

    A dynamic program over the rows, after Miller & Harrison (2013), "Exact
    sampling and counting for fixed-margin matrices": columns that still
    need equally many ones are interchangeable, so the state after each row
    is the histogram of remaining column demands, and a row picks how many
    columns to take from each demand class, in ``C(count, taken)`` ways.
    Only states the remaining rows can still complete (Gale-Ryser) are kept,
    so each row holds at most one state per realization.
    """
    if not ds.sums_match():
        return 0
    k, l = ds.k, ds.l
    hist = [0] * (k + 1)           # hist[d]: columns still needing d ones
    for d in ds.b:
        hist[d] += 1
    level = {tuple(hist): 1}       # histogram after the rows so far -> matrices
    for i, r in enumerate(ds.a):
        # room[q]: the most ones that q columns can take from the rows after row i
        room = [sum(min(x, q) for x in ds.a[i + 1:]) for q in range(l + 1)]
        after_row = {}
        for h, count in level.items():
            for after, ways in _row_choices(h, r, room):
                after_row[after] = after_row.get(after, 0) + count * ways
        level = after_row
    return sum(level.values())     # after the last row only all-zero demands fit


def _row_choices(hist: tuple, r: int, room: list) -> list:
    """Every way one row with r ones can take its columns by demand class,
    as ``(histogram after the row, number of column sets)``, keeping only
    histograms whose q largest demands sum to at most ``room[q]`` for every
    q (the Gale-Ryser condition for the rows after this one)."""
    out = []
    classes = [d for d in range(len(hist) - 1, 0, -1) if hist[d]]
    below = [0] * len(hist)        # below[d]: columns with demand in 1..d-1
    for d in range(2, len(hist)):
        below[d] = below[d - 1] + hist[d - 1]
    _take(hist, classes, below, room, list(hist), out, 0, r, 1, 0, 0)
    return out


def _take(hist: tuple, classes: list, below: list, room: list, after: list, out: list,
          c: int, r: int, ways: int, q: int, s: int) -> None:
    """The recursion of ``_row_choices``: the classes above ``classes[c]``
    are settled, as ``after`` holds them, with q columns of s demand among
    them; r ones are still to place, in ``ways`` column sets so far.  Each
    completed histogram is appended to ``out``, and ``after`` is restored
    before returning.  The q largest demands sum linearly in q across one
    class and room is concave, so checking at each class boundary checks
    every q."""
    if c == len(classes):
        if r == 0:
            out.append((tuple(after), ways))
        return
    d = classes[c]
    for t in range(max(0, r - below[d]), min(hist[d], r) + 1):
        after[d] -= t
        after[d - 1] += t
        q_d, s_d = q + after[d], s + d * after[d]
        fits = s_d <= room[q_d]
        if fits and not hist[d - 1]:
            # no class of its own below: the t columns settle at d - 1
            q_d, s_d = q_d + t, s_d + (d - 1) * t
            fits = s_d <= room[q_d]
        if fits:
            _take(hist, classes, below, room, after, out, c + 1, r - t,
                  ways * math.comb(hist[d], t), q_d, s_d)
        after[d] += t
        after[d - 1] -= t


# A frontier is taken about this many (row pair, column) cells, and then
# this many moves, at a time, so a chunk's arrays stay small at every size;
# congestion certifies at most this many matrices at a time, likewise.
_CHUNK = 1 << 14

# _BIT[i]: bit i of a key word, counted from its most significant bit
_BIT = np.left_shift(np.uint64(1), np.arange(63, -1, -1, dtype=np.uint64))


def _unpack(keys: np.ndarray, k: int, l: int) -> np.ndarray:
    """The ``(m, k, l)`` 0-1 ``uint8`` matrices of m packed state keys."""
    raw = keys.astype(">u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=k * l).reshape(-1, k, l)


def _sortable(keys: np.ndarray) -> np.ndarray:
    """The keys as one flat array that sorts and compares as the keys do:
    the word itself when one word holds the cells, else each key's
    big-endian bytes as one ``void`` item, which compare as bytes."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return keys.astype(">u8").view(f"V{8 * keys.shape[1]}").ravel()


def _spans(sizes: np.ndarray, budget: int):
    """Consecutive ``(lo, hi)`` spans of ``sizes`` whose sum is at most
    ``budget``, or which hold one entry."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - sizes[lo] + budget, "right")))
        yield lo, hi
        lo = hi


def _swap_targets(keys: np.ndarray, xs: np.ndarray, ys: np.ndarray, pa: np.ndarray,
                  pb: np.ndarray) -> np.ndarray:
    """The keys that every allowed swap of the given states leads to,
    grouped by state in order.  ``xs[s, p]`` and ``ys[s, p]`` mark the
    columns x in ``ra & ~rb`` and y in ``rb & ~ra`` of state s's rows
    a = ``pa[p]`` < b = ``pb[p]``; each pair (x, y) is one swap, which flips
    the cells (a, x), (a, y), (b, x) and (b, y) of the key.  The x's are
    joined to their pair's y's by index arithmetic, so no array is larger
    than the moves or ``xs``."""
    n_pairs, l = xs.shape[1:]
    ny = ys.sum(axis=2).ravel()                     # y's per (state, pair)
    x_at, y_at = np.flatnonzero(xs), np.flatnonzero(ys)
    group = x_at // l                               # state * n_pairs + pair
    reps = ny[group]                                # swaps of each x
    y_from = (np.cumsum(ny) - ny)[group] - (np.cumsum(reps) - reps)
    y = y_at[np.repeat(y_from, reps) + np.arange(reps.sum())] % l
    x, group = np.repeat(x_at % l, reps), np.repeat(group, reps)
    pair = group % n_pairs
    ra, rb = pa[pair] * l, pb[pair] * l
    out = keys[group // n_pairs]
    words = out.reshape(-1)
    at = np.arange(0, len(words), out.shape[1])     # each target's first word
    for c in (ra + x, ra + y, rb + x, rb + y):
        words[at + (c >> 6)] ^= _BIT[c & 63]
    return out


def enumerate_states(ds: BipartiteDegreeSequence, max_states: int = 10000) -> StateSpace:
    """Breadth-first enumeration of the realization space over allowed swaps.

    A state is a packed key of ``ceil(k*l/64)`` ``uint64`` words, cell
    (u, v) at bit ``c = u*l + v`` counted from the most significant bit of
    word ``c // 64``, so keys order as the graphs' byte keys do.  Each level
    expands its whole frontier in numpy passes over every row pair and
    ordered column pair (``_swap_targets``).  The number of swaps of each
    state is counted from the rows before any target is built, and the
    frontier is expanded in chunks of about ``_CHUNK`` swaps; a chunk's
    targets that no earlier state has, found by one ``np.unique`` and one
    search of the sorted keys seen so far, form the next level.  Every
    allowed swap of every state is made once and its target recorded, so
    the move graph comes out of the same pass.

    ``TooLarge`` is raised as soon as more than ``max_states`` states are
    found, or one state has at least ``max_states`` swaps, since its targets
    are distinct states.  The number of states is checked against
    ``count_realizations`` at every size, and every state's margins against
    the start's.  The move graph is written, row by row in key order, into
    the CSR arrays of the ``StateSpace``; no graph is built but the start.
    """
    start = greedy_realize(ds)
    k, l = ds.k, ds.l
    words = -(-k * l // 64)
    raw = np.zeros(8 * words, np.uint8)
    raw[:-(-k * l // 8)] = np.packbits(start.adj)
    frontier = raw.view(">u8").astype(np.uint64)[None]
    pa, pb = _pairs(k)                              # the row pairs a < b
    id_type = np.int32 if max_states < 2**31 else np.int64
    seen, seen_ids = _sortable(frontier), np.zeros(1, id_type)   # sorted keys, their ids
    levels, degrees, targets = [], [], []   # keys, swap counts and targets, in id order
    n = 1
    per_slice = max(1, _CHUNK // max(1, len(pa) * l))
    while len(frontier):
        levels.append(frontier)
        found = []
        for lo in range(0, len(frontier), per_slice):
            keys = frontier[lo:lo + per_slice]
            cells = _unpack(keys, k, l)
            rows_a, rows_b = cells[:, pa], cells[:, pb]
            xs, ys = rows_a > rows_b, rows_b > rows_a
            moves = (xs.sum(axis=2) * ys.sum(axis=2)).sum(axis=1)
            if moves.max() >= max_states:
                raise TooLarge(f"more than {max_states} realizations")
            degrees.append(moves)
            for a, b in _spans(moves, _CHUNK):
                out = _swap_targets(keys[a:b], xs[a:b], ys[a:b], pa, pb)
                uniq, where, inverse = np.unique(_sortable(out), return_index=True,
                                                 return_inverse=True)
                pos = np.searchsorted(seen, uniq)
                old = pos < len(seen)
                old[old] = seen[pos[old]] == uniq[old]
                new = np.flatnonzero(~old)
                if n + len(new) > max_states:
                    raise TooLarge(f"more than {max_states} realizations")
                ids = np.empty(len(uniq), id_type)
                ids[old] = seen_ids[pos[old]]
                ids[new] = np.arange(n, n + len(new))
                seen = np.insert(seen, pos[new], uniq[new])
                seen_ids = np.insert(seen_ids, pos[new], ids[new])
                found.append(out[where[new]])
                targets.append(ids[inverse])
                n += len(new)
        frontier = np.concatenate(found)
    expected = count_realizations(ds)
    if expected != n:
        raise AssertionError(f"swap enumeration found {n} states, exact count {expected}")
    order = seen_ids                # the ids in key order
    rank = np.empty(n, id_type)
    rank[order] = np.arange(n)
    degree = np.concatenate(degrees)
    begin = np.cumsum(degree) - degree
    targets = np.concatenate(targets)
    ranked = degree[order]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(ranked, out=indptr[1:])
    indices = np.empty(indptr[-1], id_type)
    for a, b in _spans(ranked, _CHUNK):
        # the targets of the states ranked a..b-1, as ranks sorted per state
        lens = ranked[a:b]
        at = np.repeat(begin[order[a:b]] - (np.cumsum(lens) - lens), lens)
        row = np.repeat(np.arange(b - a, dtype=np.int64) * n, lens)
        indices[indptr[a]:indptr[b]] = np.sort(row + rank[targets[at + np.arange(len(at))]]) - row
    del targets
    mats = _unpack(np.concatenate(levels)[order], k, l)
    for arr in (mats, indptr, indices):
        arr.setflags(write=False)
    if not ((mats.sum(axis=2) == start.row_deg).all()
            and (mats.sum(axis=1) == start.col_deg).all()):
        raise AssertionError("an enumerated state has other margins than the start")
    data, size = mats.tobytes(), k * l
    index = dict(zip((data[c:c + size] for c in range(0, n * size, size)), range(n)))
    return StateSpace(ds, mats, index, indptr, indices)


class TransitionMatrix:
    """Exact kernel of the swap chain on an enumerated space, held in integers.

    ``P = A / denom``: from state i the chain moves to each state of row i
    of the CSR move graph, ``indices[indptr[i]:indptr[i + 1]]``, with
    probability ``jump = 1/denom`` and stays put with probability
    ``diag[i] / denom``, where ``diag[i]`` is ``denom`` less the row's
    length.  So ``A = denom*I - L`` with ``L`` the Laplacian of the move
    graph; for the swap chain ``denom = C(k,2)*C(l,2)``, one outcome per
    pair of rows and pair of columns.  The tests derive the same entries
    pair by pair from the graphs (``tests/oracles.py::transition_prob``).

    The constructor checks the CSR form and the kernel laws in integers.
    ``indptr`` starts at 0, never decreases and ends at ``len(indices)``,
    and every id lies in [0, n).  The edge codes ``i * n + j`` strictly
    increase, so each row is increasing and no move repeats; no move stays
    put; the move graph is symmetric, as the codes of the reversed edges
    sort to the same array; and no state has more than ``denom`` moves, so
    every row is non-negative and sums to one.

    ``symmetries`` holds commuting involutions of the state ids, each
    checked by ``_check_involutions`` to map the move graph onto itself and
    kept as a read-only integer array ``p`` with ``A[p[i], p[j]] == A[i, j]``:
    the relabellings of equal-degree vertices that ``build_kernel`` takes.
    ``spectral_gap`` splits ``P`` into blocks by the group they generate.

    ``space`` is the state space whose vertex relabellings
    ``_representatives`` turns into orbits of states the first time a decay
    scan asks for them; without one every state is its own representative.
    """

    __slots__ = ("denom", "diag", "indptr", "indices", "symmetries", "_space", "_reps")

    def __init__(self, denom: int, indptr, indices, symmetries=(),
                 space: StateSpace | None = None):
        if denom < 1:
            raise ValueError(f"the kernel denominator must be positive: got {denom}")
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any() or indptr[-1] != len(indices):
            raise AssertionError("indptr must start at 0, never decrease and end at len(indices)")
        if ((indices < 0) | (indices >= n)).any():
            raise AssertionError(f"a move-graph id lies outside [0, {n})")
        rows, cols = _move_edges(indptr, indices)
        codes = rows * n + cols
        step = np.diff(codes)
        if (rows == cols).any() or (step == 0).any():
            raise AssertionError("off-diagonal entry differs from the jump probability")
        if (step < 0).any():
            raise AssertionError("a move-graph row is not increasing")
        if (np.sort(cols * n + rows) != codes).any():
            raise AssertionError("kernel is not symmetric")
        diag = tuple(denom - d for d in np.diff(indptr).tolist())
        for i, d in enumerate(diag):
            if d < 0:
                raise AssertionError(f"row {i} does not sum to one")
        perms = tuple(np.array(p, dtype=np.intp) for p in symmetries)
        if perms:
            # block entries are sums of at most n row entries times +-1,
            # so float64 holds them exactly while n * denom < 2**53
            if n * denom >= 2**53:
                raise AssertionError("kernel denominator too large for exact symmetry blocks")
            _check_involutions(perms, n, rows, cols, codes)
            for k, p in enumerate(perms):
                if any((p[q] != q[p]).any() for q in perms[:k]):
                    raise AssertionError(f"symmetry {k} does not commute with the others")
                p.setflags(write=False)
        self.denom, self.diag, self.indptr, self.indices = denom, diag, indptr, indices
        self.symmetries = perms
        self._space = space
        self._reps = None

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def jump(self) -> Fraction:
        return Fraction(1, self.denom)

    def as_float(self) -> np.ndarray:
        """The kernel in float64; each entry is its integer numerator divided
        by ``denom``, the correctly rounded value of the exact entry."""
        mat = np.zeros((self.n, self.n))
        mat[_move_edges(self.indptr, self.indices)] = 1 / self.denom
        np.fill_diagonal(mat, [d / self.denom for d in self.diag])
        return mat


def _move_edges(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """The CSR move graph's directed edges as ``(rows, cols)`` index
    arrays, in CSR order."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return rows, indices.astype(np.intp, copy=False)


def _check_involutions(perms, n: int, rows, cols, codes) -> None:
    """Check in integers that each state-id array of ``perms`` is an
    involution of the n states that maps the move graph (edges ``rows``,
    ``cols``, increasing ``codes``) onto itself: the mapped edges' codes sort
    to ``codes``.  Raises ``AssertionError`` naming the first that fails."""
    ids = np.arange(n)
    for k, p in enumerate(perms):
        if p.shape != (n,) or not ((p >= 0) & (p < n)).all() or (p[p] != ids).any():
            raise AssertionError(f"symmetry {k} is not an involution of the states")
        if (np.sort(p[rows] * n + p[cols]) != codes).any():
            raise AssertionError(f"symmetry {k} does not map the move graph onto itself")


# Symmetries are taken while the mean block, n / 2**m over the 2**m
# characters, stays at least this large: below it the per-block set-up
# costs more than the smaller eigensolves save (see CHANGES.md).
_MIN_BLOCK = 64


def _degree_blocks(ds: BipartiteDegreeSequence) -> list:
    """The classes of equal-degree vertices as ``(side, vertices)``, side 0
    for U (rows) and 1 for V (columns), U first.  Vertices of degree 0 or
    full degree are left out: every realization fixes their row or column,
    so exchanging two of them moves no state."""
    out = []
    for side, (degs, full) in enumerate(((ds.a, ds.l), (ds.b, ds.k))):
        by_degree = {}
        for v, d in enumerate(degs):
            if 0 < d < full:
                by_degree.setdefault(d, []).append(v)
        out += [(side, vs) for vs in by_degree.values()]
    return out


def _vertex_swaps(ds: BipartiteDegreeSequence, step: int = 2) -> list:
    """Pairs of equal-degree vertices as ``(side, vs[i], vs[i + 1])`` for
    every ``step``-th i of each class of ``_degree_blocks``: disjoint pairs
    with the default step 2, every adjacent pair with step 1."""
    return [(side, vs[i], vs[i + 1]) for side, vs in _degree_blocks(ds)
            for i in range(0, len(vs) - 1, step)]


def _relabellings(space: StateSpace, moves: list) -> list:
    """For each ``(side, a, b)`` of ``moves``, the state-id permutation that
    exchanges vertices a and b of that side: the state whose key has the two
    rows (or columns) exchanged.  A move ``"T"`` (square spaces with
    ``a == b`` only) is the permutation taking each state to its
    transpose."""
    if not moves:
        return []
    n, k, l = space.n, space.ds.k, space.ds.l
    size = k * l
    keys = space.adj.reshape(n, size)
    orders = []
    for move in moves:
        cells = np.arange(size).reshape(k, l)
        if move == "T":
            cells = cells.T
        elif move[0] == 0:
            cells[[move[1], move[2]]] = cells[[move[2], move[1]]]
        else:
            cells[:, [move[1], move[2]]] = cells[:, [move[2], move[1]]]
        orders.append(cells.ravel())
    perms = []
    for cells in orders:
        moved = keys[:, cells].tobytes()
        perms.append(np.fromiter((space.index[moved[i:i + size]]
                                  for i in range(0, n * size, size)), np.intp, count=n))
    return perms


def build_kernel(space: StateSpace) -> TransitionMatrix:
    """The exact kernel over the enumerated move graph, with denominator
    C(k,2)*C(l,2); ``TransitionMatrix`` verifies in integers that the move
    graph is symmetric, that no move repeats, and that no state has more
    moves than the outcomes of a step.

    The kernel carries the first m relabellings of ``_vertex_swaps`` as
    symmetries, m as large as keeps ``n / 2**m >= _MIN_BLOCK``; each is
    verified in integers to map the move graph onto itself.  It keeps the
    space for ``_representatives``, which does no work until a scan runs."""
    ds = space.ds
    swaps = _vertex_swaps(ds)
    m = 0
    while m < len(swaps) and space.n >> (m + 1) >= _MIN_BLOCK:
        m += 1
    return TransitionMatrix(pair_count(ds.k) * pair_count(ds.l) or 1, space.indptr,
                            space.indices, _relabellings(space, swaps[:m]), space)


def _orbit_generators(space: StateSpace) -> list:
    """State-id permutations generating the chain's relabelling group: every
    adjacent transposition inside each class of ``_degree_blocks`` (they
    generate the class's symmetric group, which is never enumerated), then
    the transpose when ``a == b``."""
    ds = space.ds
    return _relabellings(space, _vertex_swaps(ds, step=1) + ["T"] * (ds.a == ds.b))


def _representatives(P: TransitionMatrix) -> tuple:
    """The least state id of each orbit of the group ``_orbit_generators``
    generates, in increasing order; computed on first use and kept on the
    (immutable) kernel.

    The group commutes with the chain: ``A(p x, p y) == A(x, y)`` for each
    generator p, checked in integers by ``_check_involutions``.  The orbits
    are the components of the graph joining x to p x; ``rep`` takes the
    minimum over each generator and jumps ``rep[rep]`` until nothing moves,
    when it is constant on each orbit and equal to its least id.  A kernel
    without a state space has every state as its own representative.
    """
    if P._reps is None:
        ids = rep = np.arange(P.n)
        if P._space is not None:
            perms = _orbit_generators(P._space)
            rows, cols = _move_edges(P.indptr, P.indices)
            _check_involutions(perms, P.n, rows, cols, rows * P.n + cols)
            while True:
                before = rep
                for p in perms:
                    rep = np.minimum(rep, rep[p])
                rep = rep[rep]
                if (rep == before).all():
                    break
        P._reps = tuple(np.flatnonzero(rep == ids).tolist())
    return P._reps


def _parity(x: np.ndarray, m: int) -> np.ndarray:
    """Parity of the low m bits of each entry of x."""
    out = np.zeros_like(x)
    for k in range(m):
        out ^= (x >> k) & 1
    return out


def _blocks(P: TransitionMatrix, max_block: int) -> list:
    """The diagonal blocks of ``P`` in a basis adapted to its symmetries;
    together their spectra are the spectrum of ``P``.

    The m symmetries generate a group (Z_2)^m whose characters are
    ``chi_s(h) = (-1)^popcount(s & h)``.  A state x of the orbit of r is
    ``h_x r``.  Character s keeps an orbit when it is +1 on the orbit's
    stabilizer, and its block has one basis vector per kept orbit O, the
    signed orbit sum ``chi_s(h_x) / sqrt(|O|)`` over x in O.  The block
    entry at (O, O') is ``sqrt(|O| / |O'|) * sum_y A(r, y) chi_s(h_y) / denom``
    over y in O' with r the orbit's representative, so each block is summed
    from the representatives' rows of the move graph, and the n x n matrix
    is never formed.  Without symmetries (m = 0) every state is its own
    orbit, and the one block holds the entries of ``P.as_float()``.

    Raises ``TooLarge`` when the largest block exceeds ``max_block``.
    """
    n, perms = P.n, P.symmetries
    m = len(perms)
    # rep[x]: the least state id in x's orbit; elem[x]: h with x = h rep[x]
    rep, elem = np.arange(n), np.zeros(n, np.intp)
    for k, p in enumerate(perms):
        rp = rep[p]
        moved = rp < rep
        elem = np.where(moved, elem[p] ^ (1 << k), elem)
        rep = np.where(moved, rp, rep)
    reps, orbit = np.unique(rep, return_inverse=True)
    size = np.bincount(orbit)
    # Schreier generators of the stabilizers: elem[x] ^ elem[p x] ^ bit k fixes x
    # (at m = 0 there are none, and concatenate needs one empty array)
    fixer = np.concatenate([elem ^ elem[p] ^ (1 << k) for k, p in enumerate(perms)] or [elem[:0]])
    fixed_orbit = np.tile(orbit, m)[fixer != 0]
    fixer = fixer[fixer != 0]
    keep = np.ones((1 << m, len(reps)), bool)
    for s in range(1 << m):
        keep[s, fixed_orbit[_parity(fixer & s, m) == 1]] = False
    sizes = keep.sum(axis=1)
    if sizes.sum() != n:
        raise AssertionError(f"symmetry blocks hold {sizes.sum()} of {n} states")
    if sizes.max() > max_block:
        raise TooLarge(f"a block of {sizes.max()} states exceeds the dense eigensolve "
                       f"guard {max_block}")
    # the representatives' rows of A: the diagonal, then every move, taken
    # from the move graph's edges in CSR order
    rows, cols = _move_edges(P.indptr, P.indices)
    mine = (rep == np.arange(n))[rows]
    row_orbit, cols = orbit[rows[mine]], cols[mine]
    reps_diag = np.array([P.diag[r] for r in reps.tolist()], dtype=float)
    row_orbit = np.concatenate([np.arange(len(reps)), row_orbit])
    col_orbit = np.concatenate([np.arange(len(reps)), orbit[cols]])
    col_elem = np.concatenate([np.zeros(len(reps), np.intp), elem[cols]])
    value = np.concatenate([reps_diag, np.ones(len(cols))])
    blocks = []
    for s, b in enumerate(sizes.tolist()):
        if not b:
            continue
        kept = keep[s]
        pos = np.cumsum(kept) - 1
        use = kept[row_orbit] & kept[col_orbit]
        sign = 1 - 2 * _parity(col_elem[use] & s, m)
        rep_sums = np.bincount(pos[row_orbit[use]] * b + pos[col_orbit[use]],
                               weights=value[use] * sign, minlength=b * b).reshape(b, b)
        # |O| times a representative's row sum is the sum over the whole
        # orbit: an integer matrix, symmetric because A commutes with the group
        full = size[kept][:, None] * rep_sums
        if (full != full.T).any():
            raise AssertionError("a symmetry block is not symmetric")
        scale = 1 / np.sqrt(size[kept])
        blocks.append(full * np.outer(scale, scale) / P.denom)
    return blocks


def spectral_gap(P: TransitionMatrix, max_states: int = 2000):
    """Second-largest eigenvalue and the relaxation time 1/(1 - l2).

    ``P`` is split into the blocks of ``_blocks``, one per character of the
    group its symmetries generate (one block of all n states when it has none),
    and each block is solved by ``eigh`` and must pass the residual check
    ``|B v - l v| <= 1e-10``.  The block spectra together are the spectrum
    of ``P``.  ``max_states`` bounds the largest block.  The largest
    eigenvalue is 1; a second eigenvalue within 1e-9 of 1 means the chain
    is reducible and raises ``DegenerateChain``.
    """
    if P.n < 2:
        raise DegenerateChain("need at least two states")
    spectrum = []
    for mat in _blocks(P, max_states):
        vals, vecs = np.linalg.eigh(mat)
        resid = np.abs(mat @ vecs - vecs * vals).max()
        if resid > 1e-10:
            raise AssertionError(f"eigensolver residual {resid:.2e} too large")
        spectrum.append(vals)
    lam2 = np.sort(np.concatenate(spectrum))[-2]
    if lam2 >= 1 - 1e-9:
        raise DegenerateChain("eigenvalue 1 is repeated; the chain is reducible")
    return lam2, 1.0 / (1.0 - lam2)


def _entrywise(n: int, scale: int, col: list) -> int:
    """``max_y |N*A^t(y,x) - D^t|`` for the column ``col`` of ``A^t`` at x."""
    return max(n * max(col) - scale, scale - n * min(col))


def _total(n: int, scale: int, col: list) -> int:
    """``sum_y |N*A^t(y,x) - D^t|`` for the column ``col`` of ``A^t`` at x."""
    return sum(abs(n * x - scale) for x in col)


def _decay(P: TransitionMatrix, measure):
    """For t = 0, 1, 2, ... yield ``(dev, D^t, columns)``: the columns of
    ``A^t`` at the states of ``_representatives``, where ``P = A / D`` on N
    states, and ``dev`` the largest ``measure(N, D^t, column)`` among them,
    so that the distance it measures is ``dev / (2 * N * D^t)``.

    ``A^t`` is advanced by sparse integer products over the move graph:
    column j of ``A`` holds ``diag[j]`` on the diagonal and 1 at the
    neighbours of j, because ``A`` is symmetric.  Each relabelling p of the
    group commutes with ``A``, so the column of ``A^t`` at ``p r`` is the
    column at r permuted by p, and the representatives' columns hold every
    value of ``A^t`` that a maximum over starts can reach.
    """
    n, denom = P.n, P.denom
    # each row once as a list of Python ints, so the columns stay exact
    ids, ends = P.indices.tolist(), P.indptr.tolist()
    cols = tuple(zip(P.diag, (ids[a:b] for a, b in zip(ends, ends[1:]))))
    power = [[int(i == r) for i in range(n)] for r in _representatives(P)]
    scale = 1
    while True:
        yield max(measure(n, scale, col) for col in power), scale, power
        power = [[d * x + sum(map(col.__getitem__, nbrs))
                  for x, (d, nbrs) in zip(col, cols)] for col in power]
        scale *= denom


def _first_hit(P: TransitionMatrix, eps, measure, name: str) -> int:
    """The first t whose distance ``dev / (2 * N * D^t)`` from ``_decay``
    is at most eps, decided in integers.

    Both distances never increase with t (see the two mixing times), so the
    first t within eps is the mixing time and nothing is scanned past it.
    Each step checks that law and raises ``AssertionError`` naming the
    distance if it fails.

    If the chain is ergodic, ``A^t > 0`` for every t >= 2N - 2: through a
    holding state any two states are joined by walks of every such length,
    and Shao (1987) bounds the exponent of any symmetric primitive matrix by
    2N - 2.  If it is not, every ``A^t`` holds a zero.  So a scan still
    beyond eps at t = 2N - 2 raises ``NonMixing`` when a representative's
    column of ``A^(2N-2)`` holds a zero, even where the distance would
    later settle within eps; otherwise ``P^t`` tends to uniform and the scan
    ends.  eps is rounded to a fraction of denominator at most 10**9, which
    must be positive, and must be finite (``ValueError``).
    """
    if not math.isfinite(eps) or (q := Fraction(eps).limit_denominator(10**9)) <= 0:
        raise ValueError("eps must be finite and round to a positive fraction of "
                         f"denominator at most 10**9: got {eps}")
    n, last = P.n, None
    for t, (dev, scale, power) in enumerate(_decay(P, measure)):
        # dev / D^t <= last / D^(t-1), in integers
        if last is not None and dev > last * P.denom:
            raise AssertionError(f"{name} increased at t={t}")
        if dev * q.denominator <= 2 * q.numerator * n * scale:
            return t
        if t == 2 * n - 2 and any(0 in col for col in power):
            raise NonMixing(f"{name} is above {float(q)} at t={t} and P^{t} still "
                            "has a zero entry: the chain is not ergodic")
        last = dev


def tv_mixing_time(P: TransitionMatrix, eps: float) -> int:
    """Smallest t with ``(1/2) max_{x,y} |P^t(y, x) - 1/N| <= eps``.

    That distance is half the largest entrywise deviation of ``P^t`` from
    uniform, not the total-variation distance, which sums a whole row's
    deviations before halving (``total_variation_time`` gives the mixing
    time in that).  It never increases with t: each entry
    of ``P^(t+1) = P P^t`` averages a column of ``P^t``.  So the scan stops
    at the first t within eps, checking that law in integers at each step,
    and advances only the columns of ``P^t`` at one start per symmetry
    orbit (``_decay``).  A chain still beyond eps at t = 2N - 2 whose
    ``P^(2N-2)`` holds a zero is not ergodic and raises ``NonMixing``
    (``_first_hit``); eps must be finite and positive (``ValueError``).
    """
    return _first_hit(P, eps, _entrywise, "the largest entrywise deviation")


def total_variation_time(P: TransitionMatrix, eps: float) -> int:
    """Smallest t with ``max_x (1/2) sum_y |P^t(x, y) - 1/N| <= eps``: the
    mixing time in worst-start total variation (Levin, Peres & Wilmer,
    "Markov Chains and Mixing Times", section 4.1).

    Worst-start total variation never increases with t (Levin, Peres &
    Wilmer, exercise 4.2): each row of ``P^(t+1) = P^t P`` is a row of
    ``P^t`` moved by the doubly stochastic ``P``, which cannot take it
    further from uniform.  So the scan stops at the first t within eps,
    checking that law in integers at each step.  The ``NonMixing`` witness
    at t = 2N - 2 and the rule for eps are ``tv_mixing_time``'s.
    """
    return _first_hit(P, eps, _total, "worst-start total variation")


@dataclass
class CongestionReport:
    """``congestion``'s result; a ``max_switch_distance`` of 7 means "more
    than 6" switches."""
    kappa: Fraction
    max_edge: tuple
    edge_loading_max: Fraction
    n_paths: int
    max_switch_distance: int


def _routes(space: StateSpace):
    """Every unordered pair xi < yi of the space's states with its canonical
    paths: yields ``(xi, yi, total, paths)``, where ``total`` counts the
    pairings of X xor Y and ``paths`` maps each distinct path of both
    directions, the tuple of state ids it visits from xi or from yi, to
    ``[count, segs]``: the number of pairings that select it and its
    segments, each ``(ids, codes)``, the state ids after each of its swaps
    and the codes ``a * n + b`` (a < b) of the move-graph edges it steps
    along.  Each pair comes once, grouped by its signed difference X - Y.

    The decomposition kernel (``pairings._decompositions``; over
    ``pairings._MAX_PAIRINGS`` pairings raise ``TooManyPairings``) reads
    only X xor Y and the class of each of its edges, so its output is a
    function of X - Y.  The pairs are bucketed by the integer ``x - y`` of
    their keys read as little-endian integers, in order of first
    appearance.  Its base-256 digits are the cells of X - Y, each in
    {-1, 0, 1}; two different digit strings differ by a nonzero string of
    digits in [-2, 2], whose leading term outweighs everything below it
    (2 * (256^c - 1) / 255 < 256^c), so the integer names the difference
    one-to-one.  Each bucket is decomposed once, from its first pair, with
    the call's circuit-shape memo, and its cycle lists, each a tuple of
    cell masks, are collapsed into ``{cycle list: number of pairings
    giving it}``: on 48U 1,674 distinct lists of 2,076, on 48V 1,440 and
    on 90 states 10,068 of 18,240.  A pairing of (X, Y) is also a pairing
    of (Y, X), with the same circuits and the same cuts, and the walk
    reads a cycle only as its cell mask against the current state.  So
    ``canonical._path_counts``, as in ``path_distribution``, walks every
    distinct list once for each pair of the bucket from its own X to its
    Y and once from its Y to its X, and weights its path by the list's
    pairing count.

    The walk runs on state ids with one segment table for the call: a miss
    lifts the segment through ``canonical._key_segment``, with the call's
    pattern and bridge memos, maps it to state ids and checks every step
    against the move graph (``SpecViolation`` otherwise, a key off the
    space included).  A bucket's cycle lists are dropped when it ends.  The
    bucket index holds every pair: on the 1,170 states of
    ``(3,2,2,2,1) | (2,2,2,2,2)``, 683,865 pairs in 229,705 buckets, it
    takes about 108 MB and 0.9 s."""
    n, l = space.n, space.ds.l
    # each directed move (a, b) -> the code of its edge, made once
    moves = {(a, b): a * n + b if a < b else b * n + a
             for a, b in zip(*(x.tolist() for x in _move_edges(space.indptr, space.indices)))}
    keys = [z.tobytes() for z in space.adj]
    cells = list(map(_int, keys))
    buckets = {}          # x - y -> its pairs (xi, yi), in order
    for xi in range(n):
        x = cells[xi]
        for yi in range(xi + 1, n):
            buckets.setdefault(x - cells[yi], []).append((xi, yi))
    patterns, bridges = {}, {}

    def lift(i, mask):
        ids = tuple(map(space.index.get, _key_segment(patterns, bridges, l, keys[i], mask)[0]))
        # None: a key off the space, or a step off the move graph
        codes = tuple(map(moves.get, zip((i,) + ids, ids)))
        if None in codes:
            raise SpecViolation("a canonical path step is not a move-graph edge")
        return ids, codes

    segments = {}         # (state id, cell mask) -> its segment
    circuits = {}         # the decomposition kernel's shape memo
    for pairs in buckets.values():
        xi, yi = pairs[0]
        total, cycle_lists = _decompositions(keys[xi], keys[yi], l, circuits)
        lists = Counter(cycle_lists)
        for xi, yi in pairs:
            paths = _path_counts(xi, yi, lists, segments, lift)
            paths.update(_path_counts(yi, xi, lists, segments, lift))
            yield xi, yi, total, paths


def _certified_max(adj: np.ndarray, queue: list) -> int:
    """The largest certificate among the matrices X + Y - Z of the queued
    state ids (xi, yi, z) of the state array ``adj``, decided in one
    ``canonical._certificates`` call; a matrix past the cap
    (``Exceeds(cap)``) scores cap + 1."""
    xi, yi, z = np.array(queue).T
    sds = _certificates(adj[xi], adj[yi], adj[z])
    return max(sd if isinstance(sd, int) else sd.cap + 1 for sd in sds)


def congestion(space: StateSpace, *, max_states: int = 120) -> CongestionReport:
    """The congestion constant of the full canonical path system.

    For every ordered pair (X, Y) and every pairing, the selected path is
    weighted by the fraction of pairings choosing it; each Markov-graph
    edge accumulates weight times the path's unit-cost sum 1/(T * pi).
    The maximum over edges upper-bounds the relaxation time.  Every move of
    the swap chain has T = 1/(C(k,2)*C(l,2)), the kernel of ``build_kernel``,
    so the space alone fixes the constant.

    The paths come from one loop, ``_routes``, which yields each unordered
    pair once with its paths of both directions as state ids and their
    segments.  It decomposes once per signed difference X - Y, since the
    decomposition reads nothing else: 645 times for the 1,128 pairs of
    either 48-state space, 1,185 times for the 4,005 pairs of the 90-state
    space, cutting 47, 31 and 166 circuit shapes.  Loads are integer
    numerators over one common multiple of the pairing counts, which both
    directions share; sums of integers and the least common multiple do
    not depend on the order of the pairs, so the report is that of a loop
    over ordered pairs, in any order.  A path's edges are the union of its
    segments' edge codes, so a path that crosses an edge twice counts it
    once.  ``load`` and ``weight`` are keyed by the integer code
    ``a * n + b`` of the move-graph edge between states a < b.  For
    a, b < n the codes order exactly as the pairs (a, b) do, so the
    heaviest edge, ties broken by the largest code, is the one a tie-break
    on (a, b) picks, and ``max_edge`` is ``divmod(code, n)``.

    Every state Z on a path of the pair (X, Y) is certified: it is scored by
    the switch distance of ``X + Y - Z``, capped at 6 switches, from
    ``canonical._certificates``, the routine of ``canonical_path``.  A
    matrix past the cap (``Exceeds(6)``) scores 7, so a
    ``max_switch_distance`` of 7 means "more than 6".  Each distinct matrix
    is certified once per call, keyed by the integer ``x + y - z`` of the
    keys read as little-endian integers.  Its base-256 digits are the
    matrix's cells, each in [-1, 2]; two different digit strings differ by
    a nonzero string of digits in [-3, 3], whose leading term outweighs
    everything below it (3 * (256^c - 1) / 255 < 256^c), so the integer
    names the matrix one-to-one.  The key is symmetric in X and Y, so each
    state a pair's paths visit in both directions whose key is new is
    queued once, as ``(xi, yi, z)``.  A pair brings few new matrices (342
    over the 4,005 pairs of the 90-state space), so the queue is certified
    in blocks (``_certified_max``): whenever it holds ``_CHUNK`` matrices,
    and once after the last pair, with one margin check (``DegreeMismatch``)
    and one ``canonical._switch_distances`` call per block.  The maximum
    does not depend on when a matrix is certified.
    """
    n = space.n
    if n > max_states:
        raise TooLarge(f"{n} states exceed the congestion guard {max_states}")
    if n < 2:
        raise DegenerateChain("need at least two states")
    scale = 1            # a common multiple of the pairing counts seen so far
    load = {}            # edge code -> sum of c * |edges| * scale / T
    weight = {}          # edge code -> sum of c * scale / T
    n_paths = max_sd = 0
    certified = set()    # the integer keys of the matrices queued so far
    queue = []           # (xi, yi, z) of each queued matrix not yet certified
    cells = [_int(z.tobytes()) for z in space.adj]
    codes_of = itemgetter(1)    # a segment's edge codes
    for xi, yi, total, paths in _routes(space):
        if scale % total:
            grow = total // math.gcd(scale, total)
            scale *= grow
            load = {e: v * grow for e, v in load.items()}
            weight = {e: v * grow for e, v in weight.items()}
        per_pairing = scale // total
        n_paths += len(paths)
        for c, segs in paths.values():
            edges = set().union(*map(codes_of, segs))
            w = c * per_pairing
            lw = w * len(edges)
            for e in edges:
                load[e] = load.get(e, 0) + lw
                weight[e] = weight.get(e, 0) + w
        xy = cells[xi] + cells[yi]
        for z in set().union(*paths):
            key = xy - cells[z]
            if key not in certified:
                certified.add(key)
                queue.append((xi, yi, z))
                if len(queue) == _CHUNK:
                    max_sd = max(max_sd, _certified_max(space.adj, queue))
                    queue.clear()
    if queue:
        max_sd = max(max_sd, _certified_max(space.adj, queue))
    # the load of edge e is load[e] / (n * scale * jump): one positive factor
    # for every edge, so the integer numerators order the edges as the loads do
    top = max(load, key=lambda e: (load[e], e))
    k, l = space.ds.k, space.ds.l
    return CongestionReport(
        kappa=Fraction(load[top] * pair_count(k) * pair_count(l), n * scale),
        max_edge=divmod(top, n),
        edge_loading_max=Fraction(max(weight.values()), scale),
        n_paths=n_paths,
        max_switch_distance=max_sd)
