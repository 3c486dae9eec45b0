"""Independent brute-force oracles and instance builders for the tests.

Everything here deliberately avoids the package's own algorithms: margin
counts come from raw bitmask enumeration, friendly-path existence from a
path enumeration that recomputes friendliness through the inverse cousin
relation, and instances are assembled cell by cell.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import lru_cache

import numpy as np

from degswap import AlternatingCycle, BipartiteGraph, Swap, Unreachable
from degswap.core import (_allowed, _check_margins, _masks, _push_up, _targets, allowed_swaps,
                          apply_swap, symmetric_difference)
from degswap.errors import DiagonalPosition, NonAlternating, SwapNotAllowed
from degswap.pairings import CircuitDecomposition, _shared_vertex


@lru_cache(maxsize=16)
def _all_margins(k: int, l: int):
    """Row sums and column sums of every k x l 0-1 matrix, one bitmask each."""
    n = k * l
    codes = np.arange(1 << n, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(n)) & 1).astype(np.int8)
    mats = bits.reshape(-1, k, l)
    return mats.sum(axis=2, dtype=np.int8), mats.sum(axis=1, dtype=np.int8)


def brute_margin_count(a, b) -> int:
    """Number of 0-1 matrices with row sums ``a`` and column sums ``b``,
    by enumerating all 2^(k*l) bitmasks (k*l <= 24)."""
    k, l = len(a), len(b)
    if k * l > 24:
        raise ValueError("bitmask oracle limited to k*l <= 24")
    rows, cols = _all_margins(k, l)
    ok_rows = (rows == np.array(a)).all(axis=1)
    ok_cols = (cols == np.array(b)).all(axis=1)
    return int((ok_rows & ok_cols).sum())


def brute_margin_matrices(a, b):
    """The matrices behind ``brute_margin_count`` as BipartiteGraph objects."""
    k, l = len(a), len(b)
    n = k * l
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    mats = bits.reshape(-1, k, l)
    keep = ((mats.sum(axis=2) == np.array(a)).all(axis=1)
            & (mats.sum(axis=1) == np.array(b)).all(axis=1))
    return [BipartiteGraph(m.astype(np.uint8)) for m in mats[keep]]


def all_degree_pairs(max_k: int, max_l: int):
    """Every pair of non-increasing bounded degree lists with equal sums."""
    from itertools import combinations_with_replacement

    pairs = []
    for k in range(1, max_k + 1):
        for l in range(1, max_l + 1):
            seqs_a = [tuple(sorted(c, reverse=True))
                      for c in combinations_with_replacement(range(l + 1), k)]
            seqs_b = [tuple(sorted(c, reverse=True))
                      for c in combinations_with_replacement(range(k + 1), l)]
            by_sum = {}
            for sb in set(seqs_b):
                by_sum.setdefault(sum(sb), []).append(sb)
            for sa in set(seqs_a):
                for sb in by_sum.get(sum(sa), []):
                    pairs.append((sa, sb))
    return sorted(pairs)


# -- the cycle-local grid, cell by cell ----------------------------------------


def naive_ring(pos, ell):
    """The ring of a cell: its cyclic offset (b - a) mod ell."""
    a, b = pos
    return (b - a) % ell


def naive_cousins(pos, ell):
    """The chords in the reflected 2x2 window of chord ``pos``: u-index in
    {b-1, b} and v-index in {a, a+1}, mod ell; ``DiagonalPosition`` for a
    cell on either diagonal."""
    if naive_ring(pos, ell) < 2:
        raise DiagonalPosition(f"{pos} lies on a diagonal")
    a, b = pos
    cands = {((b - 1) % ell, a), ((b - 1) % ell, (a + 1) % ell),
             (b % ell, a), (b % ell, (a + 1) % ell)}
    return tuple(sorted(p for p in cands if naive_ring(p, ell) >= 2))


def naive_down_line(i, ell):
    """Cells ((i+s), (i-s)) mod ell for s = 1, 2, ... while on a chord ring
    (ring ell - 2s >= 2)."""
    return tuple(((i + s) % ell, (i - s) % ell) for s in range(1, (ell - 2) // 2 + 1))


def naive_up_line(i, ell):
    """Cells ((i-s), (i+s)) mod ell for s = 1, 2, ... while on a chord ring
    (ring 2s <= ell - 1)."""
    return tuple(((i - s) % ell, (i + s) % ell) for s in range(1, (ell - 1) // 2 + 1))


def naive_down_up_rings(ell):
    """The chord rings next to the main diagonal (ring ell - 1) and next to
    the small diagonal (ring 2), one cell per row."""
    return (tuple((t, (t - 1) % ell) for t in range(ell)),
            tuple((t, (t + 2) % ell) for t in range(ell)))


# -- column elimination on numpy matrices ---------------------------------------


def push_up(G, v, active_cols=None):
    """Rewire so the neighborhood of V-vertex ``v`` is the d(v) largest-degree
    U-vertices, using at most d(v) swaps: ``core._push_up``, the kernel of
    ``ryser_sequence``, on one graph's row and column bitmasks.

    Ties in the U ordering break by lowest index.  ``active_cols`` restricts
    the columns the pigeonhole witness may come from, and degrees are counted
    inside them only.  Every active column must lie in ``range(G.l)``,
    duplicates counting once, and ``v`` must be among them; ``ValueError``
    otherwise.  Returns (new graph, list of swaps applied, in order)."""
    v = operator.index(v)
    active = (1 << G.l) - 1
    if active_cols is not None:
        active = 0
        for c in map(operator.index, active_cols):
            if not 0 <= c < G.l:
                raise ValueError(f"active column {c} is outside range({G.l})")
            active |= 1 << c
    if not (0 <= v < G.l and active >> v & 1):
        raise ValueError(f"column {v} is not active")
    rows, cols = _masks(G.key(), G.k, G.l)
    targets = _targets([(row & active).bit_count() for row in rows], cols[v].bit_count())
    swaps = _push_up(rows, cols, v, active, targets)
    # row u's bitmask little-endian, bit v cell (u, v)
    w = (G.l + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(w, "little") for row in rows), np.uint8)
    adj = np.unpackbits(packed.reshape(G.k, w), axis=1, count=G.l, bitorder="little")
    return BipartiteGraph(adj), [Swap(*s) for s in swaps]


def naive_push_up(G, v, active_cols=None):
    """``push_up`` on a numpy copy of the matrix, one cell at a time:
    the d(v) rows of largest degree inside the active columns (ties by
    lowest index) take column v, each missing one by the swap with the
    lowest non-target row u' on v and the lowest active column v' that u
    has and u' lacks.  Returns (graph, swaps)."""
    if active_cols is None:
        active_cols = list(range(G.l))
    active = sorted(active_cols)
    if v not in active:
        raise ValueError(f"column {v} is not active")
    arr = G.adj.copy()
    deg = arr[:, active].sum(axis=1).tolist()
    d = int(arr[:, v].sum())
    targets = sorted(range(G.k), key=lambda u: (-deg[u], u))[:d]
    swaps = []
    for _ in range(d + 1):
        missing = [u for u in targets if not arr[u, v]]
        if not missing:
            break
        u = missing[0]
        u_prime = min(u2 for u2 in range(G.k) if arr[u2, v] and u2 not in targets)
        v_prime = min(v2 for v2 in active
                      if v2 != v and arr[u, v2] and not arr[u_prime, v2])
        u1, u2 = sorted((u, u_prime))
        v1, v2 = sorted((v, v_prime))
        swaps.append(Swap(u1, u2, v1, v2, 1 if arr[u1, v1] else 2))
        arr[u, v], arr[u_prime, v] = 1, 0
        arr[u, v_prime], arr[u_prime, v_prime] = 0, 1
    else:
        raise AssertionError("push_up failed to converge within d(v) swaps")
    return BipartiteGraph(arr), swaps


def naive_ryser_sequence(G1, G2):
    """``ryser.ryser_sequence`` as a chain of ``naive_push_up`` calls on
    graphs: columns by non-increasing degree (ties by lowest index), each
    pushed up in both graphs while they differ on it, then deleted; the
    second graph's swaps are undone in reverse."""
    forward, backward = [], []
    A, B = G1, G2
    active = list(range(G1.l))
    for v in sorted(range(G1.l), key=lambda j: (-G1.col_deg[j], j)):
        if A.adj[:, v].tolist() != B.adj[:, v].tolist():
            A, swaps = naive_push_up(A, v, active)
            forward += swaps
            B, swaps = naive_push_up(B, v, active)
            backward += swaps
        active.remove(v)
    assert A == B
    return forward + [s.inverse() for s in reversed(backward)]


# -- independent friendly-path oracle ---------------------------------------


def _oracle_cousins(pos, ell):
    """Same window as the package's cousin rule, but derived through the
    inverse relation: q is a cousin of p iff p lies in q's window."""
    out = []
    a, b = pos
    for qa in range(ell):
        for qb in range(ell):
            if (qb - qa) % ell < 2:
                continue
            # p is in the window of q when p's u-index is one of
            # {qb-1, qb} and p's v-index is one of {qa, qa+1}
            if (a - (qb - 1)) % ell in (0, 1) and (b - qa) % ell in (0, 1):
                out.append((qa, qb))
    return out


def friendly_path_exists(types: dict, ell: int) -> bool:
    """Exhaustive simple-path enumeration over friendly cells from the ring
    next to the main diagonal to the ring next to the small diagonal."""
    def friendly(p):
        return any(types[q] == types[p] for q in _oracle_cousins(p, ell))

    chords = [(a, b) for a in range(ell) for b in range(ell)
              if (b - a) % ell >= 2]
    fr = {p for p in chords if friendly(p)}
    starts = [p for p in fr if (p[1] - p[0]) % ell == ell - 1]
    goals = {p for p in fr if (p[1] - p[0]) % ell == 2}

    def dfs(p, visited):
        if p in goals:
            return True
        a, b = p
        for q in (((a + 1) % ell, b), ((a - 1) % ell, b),
                  (a, (b + 1) % ell), (a, (b - 1) % ell)):
            if q in fr and q not in visited:
                if dfs(q, visited | {q}):
                    return True
        return False

    return any(dfs(p, frozenset([p])) for p in starts)


# -- instance builders -------------------------------------------------------


def cycle_graph_pair(ell: int, types: dict):
    """Two realizations on ell + ell vertices differing in one alternating
    2*ell-cycle: the first holds the (t, t) edges, the second the
    (t, t+1 mod ell) edges, chords fixed to ``types`` in both."""
    adj_g = np.zeros((ell, ell), np.uint8)
    adj_h = np.zeros((ell, ell), np.uint8)
    for t in range(ell):
        adj_g[t, t] = 1
        adj_h[t, (t + 1) % ell] = 1
    for (a, b), ty in types.items():
        adj_g[a, b] = adj_h[a, b] = ty
    G, H = BipartiteGraph(adj_g), BipartiteGraph(adj_h)
    x_edges = frozenset((t, t) for t in range(ell))
    y_edges = frozenset((t, (t + 1) % ell) for t in range(ell))
    seq = []
    for t in range(ell):
        seq += [(t, t), (t, (t + 1) % ell)]
    return G, H, AlternatingCycle(tuple(seq), x_edges, y_edges)


def random_types(ell: int, rng, p: float) -> dict:
    return {(a, b): int(rng.random() < p)
            for a in range(ell) for b in range(ell) if (b - a) % ell >= 2}


def ring_blocker_types(ell: int, r0: int) -> dict:
    """All chords type 1 except ring ``r0``: that ring is unfriendly, wraps
    around, and cuts every path between the diagonals."""
    return {(a, b): 0 if (b - a) % ell == r0 else 1
            for a in range(ell) for b in range(ell) if (b - a) % ell >= 2}


def perturbed_environment(G, cycle_cells, pool, rng, tries: int = 30):
    """A realization differing from G only inside ``pool`` (a set of cells
    disjoint from the cycle), reached by a short random swap walk."""
    cur = G
    for _ in range(tries):
        moves = [s for s in allowed_swaps(cur)
                 if all((u, v) in pool
                        for u in (s.u1, s.u2) for v in (s.v1, s.v2))]
        if not moves:
            break
        cur = apply_swap(cur, moves[int(rng.integers(len(moves)))])
    return cur


def split_environment_pools(ell: int, cycle_cells, rng):
    """Randomly split the off-cycle cells into two disjoint pools, one for
    each side's environment perturbation."""
    rest = sorted({(a, b) for a in range(ell) for b in range(ell)} - set(cycle_cells))
    mask = rng.random(len(rest)) < 0.5
    pool_x = {c for c, m in zip(rest, mask) if m}
    pool_y = set(rest) - pool_x
    return pool_x, pool_y


# -- swaps on numpy cells ------------------------------------------------------
#
# The graph layer's swap check, listing and distance as they read numpy cells
# and built a graph per BFS node, before all of them stepped through one
# one-factor check on the key read as an int (``core._flip``).


def numpy_swap_is_allowed(G, s) -> bool:
    """``swap_is_allowed`` on G's numpy cells: indices inside the shape,
    the orientation's diagonal on and the other diagonal off."""
    if s.u2 >= G.k or s.v2 >= G.l:
        return False
    a = G.adj
    if s.orientation == 1:
        return bool(a[s.u1, s.v1] and a[s.u2, s.v2]
                    and not a[s.u1, s.v2] and not a[s.u2, s.v1])
    return bool(a[s.u1, s.v2] and a[s.u2, s.v1]
                and not a[s.u1, s.v1] and not a[s.u2, s.v2])


def numpy_apply_swap(G, s):
    """``apply_swap`` by ``numpy_swap_is_allowed`` and a copy of the matrix
    with the four cells exchanged (``with_edges``)."""
    if not numpy_swap_is_allowed(G, s):
        raise SwapNotAllowed(f"{s} is not allowed in this graph")
    first = [(s.u1, s.v1), (s.u2, s.v2)]
    second = [(s.u1, s.v2), (s.u2, s.v1)]
    return G.with_edges(*((first, second) if s.orientation == 1 else (second, first)))


def numpy_swap_on(ua, ub, va, vb, graph):
    """``Swap.on`` by trying both orientations with
    ``numpy_swap_is_allowed``."""
    u1, u2 = sorted((ua, ub))
    v1, v2 = sorted((va, vb))
    for ori in (1, 2):
        s = Swap(u1, u2, v1, v2, ori)
        if numpy_swap_is_allowed(graph, s):
            return s
    raise SwapNotAllowed(f"({u1},{u2};{v1},{v2}) is not a one-factor of this graph")


def numpy_allowed_swaps(G) -> list:
    """``allowed_swaps`` by a scan of numpy rows: for rows u1 < u2, each
    column only u1 holds paired with each column only u2 holds, sorted."""
    out = []
    a = G.adj
    for u1 in range(G.k):
        for u2 in range(u1 + 1, G.k):
            cols = np.nonzero(a[u1] ^ a[u2])[0]
            ones = [int(v) for v in cols if a[u1, v]]
            zeros = [int(v) for v in cols if not a[u1, v]]
            for v_one in ones:
                for v_zero in zeros:
                    v1, v2 = sorted((v_one, v_zero))
                    out.append(Swap(u1, u2, v1, v2, 1 if a[u1, v1] else 2))
    out.sort(key=lambda s: (s.u1, s.u2, s.v1, s.v2))
    return out


def graph_bfs_swap_distance(G1, G2, cap=None):
    """``swap_distance`` by a breadth-first search that builds a graph per
    node, through ``numpy_allowed_swaps`` and ``numpy_apply_swap``; each
    neighbour is compared with the target as it is reached."""
    _check_margins(G1, G2)
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
        for s in numpy_allowed_swaps(g):
            h = numpy_apply_swap(g, s)
            key = h.key()
            if key == target:
                return d + 1
            if key not in dist:
                dist[key] = d + 1
                queue.append(h)
    return Unreachable(cap if cap is not None else -1)


# -- the object-level decomposition -------------------------------------------
#
# Circuits traced and cut into cycles on the pairing's dicts, one edge tuple at
# a time: the reference that the integer kernel and ``decompose`` are checked
# against.


def numpy_symmetric_difference(X, Y):
    """``(x_edges, y_edges)`` of X xor Y for graphs of one shape, read off
    the 0-1 matrices with ``np.nonzero``: the cells on in X and off in Y,
    and the cells off in X and on in Y.  No margin is checked."""
    x_only = np.nonzero((X.adj == 1) & (Y.adj == 0))
    y_only = np.nonzero((X.adj == 0) & (Y.adj == 1))
    return (frozenset((int(u), int(v)) for u, v in zip(*x_only)),
            frozenset((int(u), int(v)) for u, v in zip(*y_only)))


def circuits_of(pairing) -> list:
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


def _as_cycle(edges, x_edges):
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


def _check_alternating(cycle):
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


def naive_decompose(X, Y, pairing):
    """``decompose`` on the pairing's dicts: circuits of the pairing, refined
    into ordered cycles."""
    circuits = circuits_of(pairing)
    cycles = []
    for circ in circuits:
        cycles.extend(cycles_of(circ, pairing.x_edges))
    return CircuitDecomposition(tuple(tuple(c) for c in circuits), tuple(cycles))


# -- the CSR move graph as neighbour tuples ------------------------------------


def csr(neighbours) -> tuple:
    """``(indptr, indices)``: one tuple of neighbour ids per state as the
    CSR arrays of ``StateSpace`` and ``TransitionMatrix``."""
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in neighbours])
    indices = np.array([j for nbrs in neighbours for j in nbrs], dtype=np.intp)
    return indptr, indices


def neighbour_rows(space) -> tuple:
    """The CSR move graph of a space or kernel as one tuple of neighbour ids
    per state."""
    ends, ids = space.indptr.tolist(), space.indices.tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip(ends, ends[1:]))


def graphs(space) -> list:
    """Every state of the space as a graph, in id order."""
    return [space.graph(i) for i in range(space.n)]


# -- dense rational distance-decay oracle -------------------------------------


def kernel_rows(K):
    """The kernel ``K`` expanded into dense ``Fraction`` rows: ``1/denom`` at
    every move-graph neighbour, and the holding probability
    ``diag[i]/denom`` on the diagonal."""
    from fractions import Fraction

    rows = []
    for i, (d, nbrs) in enumerate(zip(K.diag, neighbour_rows(K))):
        row = [Fraction(0)] * K.n
        for j in nbrs:
            row[j] = K.jump
        row[i] = Fraction(d, K.denom)
        rows.append(row)
    return rows


def transition_prob(G, H):
    """Exact one-step probability of the swap chain moving from G to H.

    For H one swap away this is 1/(C(k,2)*C(l,2)); for H = G it is the
    complementary holding probability; otherwise zero.  ``core._check_margins``
    checks the pair.  The allowed swaps are counted off ``core._allowed``'s
    field tuples, with no ``Swap`` built.
    """
    from fractions import Fraction

    from degswap.chain import pair_count

    _check_margins(G, H)
    denom = pair_count(G.k) * pair_count(G.l)
    if G == H:
        if denom == 0:
            return Fraction(1)
        return 1 - Fraction(len(_allowed(G.key(), G.k, G.l)), denom)
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


def dense_kernel_rows(space):
    """The kernel of the swap chain as dense ``Fraction`` rows, one
    ``transition_prob`` per ordered pair of states."""
    all_states = graphs(space)
    return [[transition_prob(X, Y) for Y in all_states] for X in all_states]


def dense_distance_profile(rows, t):
    """(1/2) max_{x,y} |P^t(y, x) - 1/N| by dense ``Fraction`` matrix powers."""
    from fractions import Fraction

    n = len(rows)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(t):
        power = [[sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    unif = Fraction(1, n)
    return max(abs(x - unif) for row in power for x in row) / 2


def dense_total_variation(rows, t):
    """max_x (1/2) sum_y |P^t(x, y) - 1/N| by dense ``Fraction`` matrix powers."""
    from fractions import Fraction

    n = len(rows)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(t):
        power = [[sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    unif = Fraction(1, n)
    return max(sum(abs(x - unif) for x in row) for row in power) / 2


def full_deviations(P):
    """For t = 0, 1, 2, ... yield ``(max_{x,y} |N*A^t(y,x) - D^t|, D^t)``,
    where ``P = A / D`` on N states, advancing all N columns of ``A^t`` by
    sparse integer products over the move graph, with no symmetry used."""
    n, denom, diag = P.n, P.denom, P.diag
    cols = tuple(zip(diag, neighbour_rows(P)))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    scale = 1
    while True:
        yield max(max(n * max(row) - scale, scale - n * min(row)) for row in power), scale
        power = [[d * x + sum(map(row.__getitem__, nbrs))
                  for x, (d, nbrs) in zip(row, cols)] for row in power]
        scale *= denom


# -- congestion by one canonical path per pairing -----------------------------


def reference_path(X, Y, pairing) -> list:
    """The canonical path from X to Y for the pairing, built the direct way:
    the cycles of ``naive_decompose``, each flipped on the full graphs by
    the checked ``path_along_cycle``."""
    from degswap.canonical import path_along_cycle

    states = [X]
    for cyc in naive_decompose(X, Y, pairing).cycles:
        adj = states[-1].adj.copy()
        adj[tuple(zip(*cyc.x_edges))] = 0
        adj[tuple(zip(*cyc.y_edges))] = 1
        states += path_along_cycle(states[-1], BipartiteGraph(adj), X, Y, cyc)[1:]
    assert states[-1] == Y
    return states


def naive_congestion(space, kernel, max_pairings: int = 5000, switch_cap: int = 6):
    """The congestion report built the direct way: every pairing's
    ``reference_path`` mapped to state ids, every load accumulated as a
    ``Fraction``, and every visited state certified by ``switch_distance``."""
    from fractions import Fraction

    from degswap.canonical import hat_matrix, switch_distance
    from degswap.errors import TooManyPairings
    from degswap.mixing import CongestionReport
    from degswap.pairings import all_pairings, enumerate_pairings_count

    n = space.n
    unit = 1 / (kernel.jump * Fraction(1, n))        # 1 / (T(z|w) pi(w))
    pi2 = Fraction(1, n * n)
    load, weight = {}, {}
    n_paths = max_sd = 0
    all_states = graphs(space)
    for xi, X in enumerate(all_states):
        for yi, Y in enumerate(all_states):
            if xi == yi:
                continue
            t_total = enumerate_pairings_count(X, Y)
            if t_total > max_pairings:
                raise TooManyPairings(f"{t_total} pairings exceed the guard {max_pairings}")
            counts, sd_memo = {}, {}
            for s in all_pairings(X, Y):
                states = reference_path(X, Y, s)
                ids = tuple(space.index[g.key()] for g in states)
                counts[ids] = counts.get(ids, 0) + 1
                for g in states:
                    if g.key() not in sd_memo:
                        sd_memo[g.key()] = switch_distance(hat_matrix(X, Y, g), cap=switch_cap)
                    sd = sd_memo[g.key()]
                    max_sd = max(max_sd, sd if isinstance(sd, int) else sd.cap + 1)
            for ids, c in counts.items():
                n_paths += 1
                prob = Fraction(c, t_total)
                edges = {tuple(sorted((ids[t], ids[t + 1]))) for t in range(len(ids) - 1)}
                cost = len(edges) * unit
                for e in edges:
                    load[e] = load.get(e, Fraction(0)) + pi2 * prob * cost
                    weight[e] = weight.get(e, Fraction(0)) + prob
    max_edge = max(load, key=lambda e: (load[e], e))
    return CongestionReport(kappa=load[max_edge], max_edge=max_edge,
                            edge_loading_max=max(weight.values()), n_paths=n_paths,
                            max_switch_distance=max_sd)


def ordered_congestion(space):
    """The congestion report of a loop over ordered pairs: every (X, Y)
    decomposed on its own by ``pairings._decompositions`` and the paths of
    its distinct cycle lists counted by ``canonical._path_counts`` on key
    segments, with one segment table for the loop and the integer loads of
    ``congestion``.  The oracle of its one
    decomposition per unordered pair."""
    import math
    from collections import Counter
    from fractions import Fraction

    from degswap.canonical import _key_lift, _path_counts, hat_matrix, switch_distance
    from degswap.chain import pair_count
    from degswap.errors import SpecViolation
    from degswap.mixing import CongestionReport
    from degswap.pairings import _decompositions

    n = space.n
    segments, lift = {}, _key_lift(space.ds.l)
    certs = {}
    scale = 1
    load, weight = {}, {}
    n_paths = max_sd = 0
    k, l = space.ds.k, space.ds.l
    moves = {(i, j) for i, nbrs in enumerate(neighbour_rows(space)) for j in nbrs if i < j}
    all_states = graphs(space)
    keys = [g.key() for g in all_states]
    cells = [int.from_bytes(key, "little") for key in keys]
    for xi, X in enumerate(all_states):
        circuits = {}
        for yi, Y in enumerate(all_states):
            if xi == yi:
                continue
            t_total, cycle_lists = _decompositions(keys[xi], keys[yi], l, circuits)
            counts = _path_counts(keys[xi], keys[yi], Counter(cycle_lists), segments, lift)
            if scale % t_total:
                grow = t_total // math.gcd(scale, t_total)
                scale *= grow
                load = {e: v * grow for e, v in load.items()}
                weight = {e: v * grow for e, v in weight.items()}
            per_pairing = scale // t_total
            visited = set()
            for path, (c, _) in counts.items():
                n_paths += 1
                ids = [space.index.get(key, -1) for key in path]
                edges = {(a, b) if a < b else (b, a) for a, b in zip(ids, ids[1:])}
                if not edges <= moves:
                    raise SpecViolation("a canonical path step is not a move-graph edge")
                visited.update(ids)
                w = c * per_pairing
                for e in edges:
                    load[e] = load.get(e, 0) + w * len(edges)
                    weight[e] = weight.get(e, 0) + w
            x, y = cells[xi], cells[yi]
            both, either, odd = x & y, x | y, x ^ y
            for z in visited:
                c = cells[z]
                key = (both & ~c, c & ~either, (odd ^ c) & (either | ~c))
                sd = certs.get(key)
                if sd is None:
                    hat = hat_matrix(X, Y, space.graph(z))
                    sd = certs[key] = switch_distance(hat)
                max_sd = max(max_sd, sd if isinstance(sd, int) else sd.cap + 1)
    max_edge = max(load, key=lambda e: (load[e], e))
    return CongestionReport(
        kappa=Fraction(load[max_edge] * pair_count(k) * pair_count(l), n * scale),
        max_edge=max_edge,
        edge_loading_max=Fraction(max(weight.values()), scale),
        n_paths=n_paths,
        max_switch_distance=max_sd)


# 16 x 16 4-regular pairs the tests pin.  X is chain.sample(ds, 1000, seed);
# Y is drawn likewise, or is X with one alternating cycle flipped, its U- and
# V-vertices listed in frame order (main edges (us[t], vs[t]) in X).  No
# drawn pair among some 8,000 canonical paths met a blocked cycle, so the
# two blocked branches come from such cycles: the first flips a 10-cycle
# through canonical._first_possibility, the second a 12-cycle through
# canonical._second_possibility (with the pairing random_pairing(X, Y, 5)).
PINNED_16 = {
    # name: (X seed, Y seed or (us, vs))
    "drawn 100/101": (100, 101),
    "drawn 102/103": (102, 103),
    "blocked, first possibility": (300, ((9, 10, 5, 8, 12), (14, 13, 6, 15, 12))),
    "blocked, second possibility": (306, ((10, 5, 15, 3, 9, 11), (2, 4, 13, 9, 15, 11))),
}


def pinned_pair(name):
    """The graphs X and Y of the pair ``PINNED_16[name]``."""
    from degswap import BipartiteDegreeSequence, chain

    x_seed, y = PINNED_16[name]
    ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
    X = chain.sample(ds, 1000, x_seed)
    if isinstance(y, int):
        return X, chain.sample(ds, 1000, y)
    us, vs = y
    return X, X.with_edges(list(zip(us, vs)), list(zip(us, vs[1:] + vs[:1])))


def recover_swap(a, b):
    """The swap carrying graph a to graph b, read off the cells where their
    matrices differ: their two rows and two columns, with the orientation
    ``Swap.on`` reads from a."""
    rows, cols = (sorted(set(ids.tolist())) for ids in np.nonzero(a.adj != b.adj))
    return Swap.on(rows[0], rows[1], cols[0], cols[1], graph=a)


def naive_segment(G, mask):
    """The canonical segment that flips the cycle with cell mask ``mask`` in
    G, as ``(keys, swaps)``, the graph way: its edges are the nonzero bytes
    of the mask, held as G's key is, byte u * l + v for edge (u, v) of G's
    l columns, walked from the smallest edge on in G along its row, then
    along a column, and so on; its X-side is read from G, the cycle cells
    that are on there.  The swaps are ``_solve_cycle``'s, the solve on the
    full realization with a fresh bridge memo, as field tuples; the keys
    are those of ``path_along_cycle``, which applies them one checked
    ``apply_swap`` at a time."""
    from degswap.canonical import _solve_cycle, path_along_cycle
    from degswap.pairings import AlternatingCycle

    cells = {divmod(c, G.l) for c, byte in enumerate(mask.to_bytes(G.k * G.l, "little")) if byte}
    on = frozenset(e for e in cells if G.adj[e])
    off = frozenset(cells) - on
    seq = [min(on)]
    while len(seq) < len(cells):
        u, v = seq[-1]
        along_row = len(seq) % 2
        (e,) = [e for e in (off if along_row else on)
                if (e[0] == u if along_row else e[1] == v) and e not in seq]
        seq.append(e)
    target = G.with_edges(sorted(on), sorted(off))
    cycle = AlternatingCycle(tuple(seq), on, off)
    return (tuple(g.key() for g in path_along_cycle(G, target, G, target, cycle)[1:]),
            _solve_cycle(G, target, cycle, {}))


def spec_realization(G, spec):
    """G with the cells an OK/KO spec pins (every main and small cell of its
    frame, and its anchor) set to the spec's pattern, cell by cell: the
    realization ``canonical.matches_spec`` accepts that agrees with G
    everywhere else, the target ``canonical._target`` pins."""
    mains, smalls, anchor_val = spec.pattern()
    frame = spec.frame
    adj = G.adj.copy()
    for t in range(frame.m):
        adj[frame.main_edge(t)] = mains[t]
        adj[frame.small_edge(t)] = smalls[t]
    adj[frame.cell_edge(spec.anchor)] = anchor_val
    return BipartiteGraph(adj)


def count_ryser(mp):
    """Wrap the column elimination the cycle solver's bridges run,
    ``ryser._eliminate`` (the one behind ``ryser_sequence``), through the
    monkeypatch ``mp``; returns a one-item list that counts its calls."""
    from degswap import canonical

    calls = [0]
    real = canonical._eliminate

    def counting(*args):
        calls[0] += 1
        return real(*args)

    mp.setattr(canonical, "_eliminate", counting)
    return calls


def never_memoize_bridges(mp):
    """Hand every ``canonical._bridge`` a fresh bridge memo through the
    monkeypatch ``mp``, so every bridge is solved as a miss."""
    from degswap import canonical

    real = canonical._bridge
    mp.setattr(canonical, "_bridge", lambda *args: real(*args[:-1], {}))


def cell_text(g) -> str:
    """The graph text format written cell by cell: a "k l" header line, then
    one line of 0/1 characters per U-vertex."""
    lines = [f"{g.k} {g.l}"]
    for u in range(g.k):
        lines.append("".join("1" if g.adj[u, v] else "0" for v in range(g.l)))
    return "\n".join(lines) + "\n"


def scalar_walk(g, rng, steps: int):
    """The swap chain one scalar draw per step, on a copy of the matrix: draw
    r below C(k,2)*C(l,2), take the U-pair and V-pair of ranks divmod(r,
    C(l,2)) from ``itertools.combinations`` order, and exchange the 2x2
    submatrix when it holds exactly one of its two diagonals."""
    from itertools import combinations

    u_pairs = list(combinations(range(g.k), 2))
    v_pairs = list(combinations(range(g.l), 2))
    a = g.adj.copy()
    if not u_pairs or not v_pairs:
        return BipartiteGraph(a)
    for _ in range(steps):
        iu, iv = divmod(int(rng.integers(len(u_pairs) * len(v_pairs))), len(v_pairs))
        (u1, u2), (v1, v2) = u_pairs[iu], v_pairs[iv]
        sub = a[np.ix_((u1, u2), (v1, v2))]
        if sub.sum() == 2 and sub[0, 0] == sub[1, 1]:
            a[np.ix_((u1, u2), (v1, v2))] = 1 - sub
    return BipartiteGraph(a)


def generator_draws(rngs, denom: int):
    """A ``draw`` callable for ``chain._walk`` over a list of generators:
    ``draw(n)`` is the (len(rngs), n) array whose row i is
    ``rngs[i].integers(denom, size=n)``, each generator's own stream."""
    def draw(n):
        out = np.empty((len(rngs), n), np.int64)
        for row, rng in zip(out, rngs):
            row[:] = rng.integers(denom, size=n)
        return out
    return draw


# -- graph-object walks -------------------------------------------------------


def naive_greedy_realize(ds):
    """``greedy_realize`` with the U-vertices sorted in Python for every
    V-vertex: each V-vertex in order takes the d U-vertices of largest
    remaining capacity, ties broken by lowest index."""
    from degswap.errors import NotGraphical

    if sum(ds.a) != sum(ds.b):
        raise NotGraphical(
            f"degree sums differ: sum(a)={sum(ds.a)} vs sum(b)={sum(ds.b)}")
    k, l = len(ds.a), len(ds.b)
    adj = np.zeros((k, l), dtype=np.uint8)
    cap = list(ds.a)
    for j in range(l):
        d = ds.b[j]
        if d == 0:
            continue
        order = sorted(range(k), key=lambda u: (-cap[u], u))
        chosen = order[:d]
        if cap[chosen[-1]] == 0:
            raise NotGraphical(f"cannot satisfy V-vertex {j} with degree {d}")
        for u in chosen:
            adj[u, j] = 1
            cap[u] -= 1
    if any(cap):
        raise NotGraphical("leftover capacity after placing all V-vertices")
    return BipartiteGraph(adj)


def naive_enumerate(ds):
    """The state space walked on graph objects: every allowed swap of every
    state applied with ``apply_swap``, states ordered by byte key."""
    from degswap.core import greedy_realize
    from degswap.mixing import StateSpace

    start = greedy_realize(ds)
    found = {start.key(): 0}
    states = [start]
    moves = {}
    stack = [0]
    while stack:
        i = stack.pop()
        nbrs = moves[i] = []
        for s in allowed_swaps(states[i]):
            h = apply_swap(states[i], s)
            j = found.get(h.key())
            if j is None:
                j = found[h.key()] = len(states)
                states.append(h)
                stack.append(j)
            nbrs.append(j)
    order = sorted(range(len(found)), key=lambda i: states[i].key())
    rank = {i: r for r, i in enumerate(order)}
    adj = np.array([states[i].adj for i in order])
    adj.setflags(write=False)
    neighbours = tuple(tuple(sorted(rank[j] for j in moves[i])) for i in order)
    return StateSpace(ds, adj, {states[i].key(): r for r, i in enumerate(order)},
                      *csr(neighbours))


# -- the certificate search that rescans every node ----------------------------


def sequence_margins_ok(M) -> bool:
    """Whether some 0-1 matrix has the row and column sums of the 2-D
    integer matrix M, decided through a ``BipartiteDegreeSequence`` of the
    sorted sums and ``is_graphical``; a sequence the constructor rejects
    (an empty class, a negative sum, a sum above the other class's size)
    has no realization."""
    from degswap.core import BipartiteDegreeSequence, is_graphical

    mat = np.asarray(M, dtype=np.int64)
    rows = sorted((int(x) for x in mat.sum(axis=1)), reverse=True)
    cols = sorted((int(x) for x in mat.sum(axis=0)), reverse=True)
    try:
        return is_graphical(BipartiteDegreeSequence(tuple(rows), tuple(cols)))
    except ValueError:
        return False


def naive_switch_distance(M, cap: int = 6, entry_slack: int = 1):
    """Minimum number of 2x2 plus/minus switches carrying the integer matrix
    M to a 0-1 matrix, or ``Exceeds(cap)``.

    Switches commute, so some optimal sequence starts with a switch that
    moves the first out-of-range entry toward range; the search branches
    only over those, giving exact results whenever a witness exists with
    intermediate entries inside the allowed band (the input's value range
    widened by ``entry_slack``).  A switch repairs at most four units of
    deficiency, which prunes hopeless branches early.
    """
    from degswap.errors import Exceeds, MarginMismatch

    mat = np.array(M, dtype=np.int64)
    if mat.ndim != 2:
        raise MarginMismatch("switch distance needs a matrix")
    if not sequence_margins_ok(mat):
        raise MarginMismatch("margins admit no 0-1 matrix")
    lo = min(-1, int(mat.min())) - entry_slack
    hi = max(2, int(mat.max())) + entry_slack
    k, l = mat.shape
    base = [int(x) for x in mat.ravel()]
    offset = -lo
    memo = {}

    def dfs(flat, budget):
        first = -1
        deficiency = 0
        for i, v in enumerate(flat):
            if v < 0:
                deficiency -= v
                if first < 0:
                    first = i
            elif v > 1:
                deficiency += v - 1
                if first < 0:
                    first = i
        if first < 0:
            return True
        if deficiency > 4 * budget:
            return False
        key = (bytes(v + offset for v in flat), budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        r, c = divmod(first, l)
        sign = 1 if flat[first] < 0 else -1
        found = False
        for r2 in range(k):
            if r2 == r:
                continue
            rb, r2b = r * l, r2 * l
            for c2 in range(l):
                if c2 == c:
                    continue
                i01, i10, i11 = rb + c2, r2b + c, r2b + c2
                v00 = flat[first] + sign
                v11 = flat[i11] + sign
                v01 = flat[i01] - sign
                v10 = flat[i10] - sign
                if not (lo <= v11 <= hi and lo <= v01 <= hi and lo <= v10 <= hi):
                    continue
                flat[first], flat[i11], flat[i01], flat[i10] = v00, v11, v01, v10
                if dfs(flat, budget - 1):
                    found = True
                flat[first] = v00 - sign
                flat[i11] = v11 - sign
                flat[i01] = v01 + sign
                flat[i10] = v10 + sign
                if found:
                    break
            if found:
                break
        memo[key] = found
        return found

    for d in range(cap + 1):
        if dfs(list(base), d):
            return d
    return Exceeds(cap)
