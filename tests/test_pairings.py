import hashlib
from collections import Counter

import numpy as np
import pytest

from degswap import (BipartiteDegreeSequence, BipartiteGraph, Pairing, all_pairings,
                     canonical_path, chain, decompose, enumerate_pairings_count, pairings,
                     random_pairing, symmetric_difference)
from degswap.core import allowed_swaps, apply_swap, is_graphical
from degswap.errors import (DegreeMismatch, DegSwapError, NonAlternating, PairingMismatch,
                            TooManyPairings)
from degswap.mixing import enumerate_states
from degswap.pairings import _decompositions, nth_pairing

from oracles import all_degree_pairs, generator_draws, graphs, naive_decompose, pinned_pair

# symmetric difference: two 4-cycles sharing U-vertex 0
FIG8_X = BipartiteGraph([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
FIG8_Y = BipartiteGraph([[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]])

M1 = BipartiteGraph([[1, 0], [0, 1]])
M2 = BipartiteGraph([[0, 1], [1, 0]])


def test_count_identity():
    assert enumerate_pairings_count(M1, M1) == 1


def test_count_single_cycle():
    assert enumerate_pairings_count(M1, M2) == 1


def test_count_figure_eight():
    assert enumerate_pairings_count(FIG8_X, FIG8_Y) == 2


def test_all_pairings_matches_count():
    assert len(list(all_pairings(FIG8_X, FIG8_Y))) == 2
    assert len(list(all_pairings(M1, M2))) == 1


def test_pairing_domain_is_symmetric_difference():
    part = symmetric_difference(FIG8_X, FIG8_Y)
    for s in all_pairings(FIG8_X, FIG8_Y):
        assert s.domain() == part.x_edges | part.y_edges


def test_random_pairing_deterministic():
    s1 = random_pairing(FIG8_X, FIG8_Y, seed=3)
    s2 = random_pairing(FIG8_X, FIG8_Y, seed=3)
    assert s1.maps == s2.maps


# per pair: the pairing seed, and the sha256 of the drawn pairing's triples
RANDOM_PAIRING_GOLDEN = {
    "20259/20272": (14, "75d4b86c1af7857d8fa04ba9fcb99ce82ec21d6e0af5116e26084f13023f743f"),
    "306": (5, "d5eb9772e0c4da7575666f91d5c816c3b7840c941a6e69802b40693c8010321e"),
}


@pytest.mark.parametrize("pair", sorted(RANDOM_PAIRING_GOLDEN))
def test_random_pairing_draws_pinned(pair):
    # the 16 x 16 pairs whose certified paths CI pins: X and Y drawn by
    # chain.sample (seeds 20259 and 20272), and the pinned pair through
    # canonical._second_possibility.  Different pairings can select one
    # path, so a path digest can miss a changed draw order; the pairing
    # itself is pinned here, as the sha256 of its sorted (vertex, edge,
    # partner) triples, recorded before the pairing builders read the
    # decomposition kernel's incidence
    seed, digest = RANDOM_PAIRING_GOLDEN[pair]
    if pair == "306":
        X, Y = pinned_pair("blocked, second possibility")
    else:
        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        X, Y = chain.sample(ds, 1000, 20259), chain.sample(ds, 1000, 20272)
    s = random_pairing(X, Y, seed)
    triples = sorted((w, e, f) for w, table in s.maps.items() for e, f in table.items())
    assert len(triples) == 2 * len(s.domain())
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest


def test_single_cycle_circuit():
    s = next(all_pairings(M1, M2))
    circuits = decompose(M1, M2, s).circuits
    assert len(circuits) == 1 and len(circuits[0]) == 4


def test_figure_eight_both_pairings():
    shapes = set()
    for s in all_pairings(FIG8_X, FIG8_Y):
        shapes.add(tuple(sorted(len(c) for c in decompose(FIG8_X, FIG8_Y, s).circuits)))
    assert shapes == {(4, 4), (8,)}


def test_cycles_partition_circuit():
    # the cycles come circuit by circuit, each circuit's cycles partitioning it
    for s in all_pairings(FIG8_X, FIG8_Y):
        dec = decompose(FIG8_X, FIG8_Y, s)
        cycles = iter(dec.cycles)
        for circ in dec.circuits:
            edges = []
            while len(edges) < len(circ):
                edges += next(cycles).edge_seq
            assert sorted(edges) == sorted(circ)
        assert next(cycles, None) is None


def test_figure_eight_long_circuit_splits():
    for s in all_pairings(FIG8_X, FIG8_Y):
        dec = decompose(FIG8_X, FIG8_Y, s)
        if len(dec.circuits) == 1:
            assert sorted(len(c) for c in dec.cycles) == [4, 4]


def test_decompose_covers_difference_randomized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = BipartiteGraph((rng.random((4, 4)) < 0.5).astype(np.uint8))
        h = g
        for _ in range(6):
            moves = allowed_swaps(h)
            if not moves:
                break
            h = apply_swap(h, moves[int(rng.integers(len(moves)))])
        s = random_pairing(g, h, seed=int(rng.integers(10**6)))
        dec = decompose(g, h, s)
        part = symmetric_difference(g, h)
        covered = [e for c in dec.cycles for e in c.edge_seq]
        assert sorted(covered) == sorted(part.x_edges | part.y_edges)
        assert len(list(all_pairings(g, h))) == enumerate_pairings_count(g, h)


def test_cycle_walk_alternates():
    # the classes come from X xor Y, not from the cycle, whose x_edges and
    # y_edges are its even and odd positions
    x_edges = symmetric_difference(FIG8_X, FIG8_Y).x_edges
    for s in all_pairings(FIG8_X, FIG8_Y):
        for c in decompose(FIG8_X, FIG8_Y, s).cycles:
            assert c.edge_seq[0] == min(e for e in c.edge_seq if e in x_edges)
            n = len(c.edge_seq)
            for t in range(n):
                e, f = c.edge_seq[t], c.edge_seq[(t + 1) % n]
                assert (e in x_edges) != (f in x_edges)
            assert len(set(c.vertex_seq())) == n
            assert c.x_edges == x_edges & set(c.edge_seq)
            assert c.y_edges == set(c.edge_seq) - x_edges



def with_map_at_u0(table) -> Pairing:
    """A pairing of (FIG8_X, FIG8_Y) whose map at U-vertex 0 is ``table``."""
    s = next(all_pairings(FIG8_X, FIG8_Y))
    return Pairing({**s.maps, ("u", 0): table}, s.x_edges, s.y_edges)


def test_same_class_partner_rejected():
    # X-edge (0,0) sent to X-edge (0,2) at u0: the figure-eight's circuit
    # would still cut into two alternating 4-cycles
    s = with_map_at_u0({(0, 0): (0, 2), (0, 2): (0, 0), (0, 1): (0, 3), (0, 3): (0, 1)})
    with pytest.raises(NonAlternating, match=r"sends \(0, 0\) to same-class \(0, 2\)"):
        decompose(FIG8_X, FIG8_Y, s)
    with pytest.raises(NonAlternating):
        canonical_path(FIG8_X, FIG8_Y, s)


def test_map_that_is_no_involution_rejected():
    # (0,2) -> (0,1) -> (0,0): every partner is of the other class
    s = with_map_at_u0({(0, 0): (0, 1), (0, 2): (0, 1), (0, 1): (0, 0), (0, 3): (0, 2)})
    with pytest.raises(DegSwapError, match="does not pair off"):
        decompose(FIG8_X, FIG8_Y, s)


def test_pairing_of_another_pair_rejected():
    s = next(all_pairings(FIG8_X, FIG8_Y))
    with pytest.raises(PairingMismatch):
        decompose(FIG8_Y, FIG8_X, s)


@pytest.mark.parametrize("x, y", [
    # the U-regular 4 x 4 pair of the CLI's last-pairing-index test
    ([[0, 0, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0]],
     [[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1]]),
    # U-vertex 0 meets three X-edges of X xor Y and U-vertex 1 two
    ([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1]],
     [[0, 0, 0, 1, 1, 1], [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
])
def test_nth_pairing_unranks_all_pairings(x, y):
    X, Y = BipartiteGraph(x), BipartiteGraph(y)
    pairings = list(all_pairings(X, Y))
    assert len(pairings) == enumerate_pairings_count(X, Y) > 6
    assert [nth_pairing(X, Y, i) for i in range(len(pairings))] == pairings
    for index in (-1, len(pairings)):
        with pytest.raises(DegSwapError, match=f"pairing index {index} out of range"):
            nth_pairing(X, Y, index)


# -- the integer decomposition kernel ----------------------------------------


def kernel_cycles(x_key, y_key, l, memo) -> tuple:
    """The kernel's pairing count and, per pairing in ``all_pairings``
    order, each cycle as its ``(walk-order cell sequence, cell mask)``.
    ``_decompositions`` runs with ``memo`` and traces each pairing once;
    each ``_trace`` result is kept as it passes, and its masks must be the
    list ``_decompositions`` yields.  A sequence is the cycle's edge ids
    in the kernel's walk order, rotated to its smallest X-edge id as
    ``decompose`` rotates them, read as cells."""
    traced = []
    real = pairings._trace

    def keep(*args):
        traced.append(real(*args))
        return traced[-1]

    pairings._trace = keep
    try:
        total, lists = _decompositions(x_key, y_key, l, memo)
        lists = list(lists)
    finally:
        pairings._trace = real
    assert [masks for _, _, masks in traced] == lists
    _, cells, in_x = pairings._number(x_key, y_key, l)[:3]
    out = []
    for _, cycles, masks in traced:
        seqs = []
        for cycle in cycles:
            start = cycle.index(min(cycle[0::2] if in_x[cycle[0]] else cycle[1::2]))
            seqs.append(tuple(map(cells.__getitem__, cycle[start:] + cycle[:start])))
        out.append(list(zip(seqs, masks)))
    return total, out


def cell_cycles(cycles, l) -> list:
    """Each ``AlternatingCycle`` as its ``(walk-order cell sequence, cell
    mask)``, cell u * l + v for edge (u, v), at bit 8 * (u * l + v) of its
    mask."""
    out = []
    for c in cycles:
        seq = tuple(u * l + v for u, v in c.edge_seq)
        out.append((seq, sum(1 << 8 * cell for cell in seq)))
    return out


def kernel_matches_decompose(X, Y, memo, public: bool = False, oracle=None) -> int:
    """Assert that the kernel yields ``naive_decompose``'s cycles for every
    pairing in ``all_pairings`` order, each cycle's walk-order cell sequence
    and cell mask, and with ``public`` that ``decompose`` gives its
    circuits and cycles too; return the number of pairings.

    ``all_pairings`` and ``naive_decompose`` read only X xor Y, so the
    dict ``oracle`` keeps their results by the shape and the cells of
    X - Y and Y - X, and pairs with the same difference share them."""
    total, lists = kernel_cycles(X.key(), Y.key(), X.l, memo)
    oracle = {} if oracle is None else oracle
    x, y = int.from_bytes(X.key(), "little"), int.from_bytes(Y.key(), "little")
    key = (X.k, X.l, x & ~y, y & ~x)
    if key not in oracle:
        pairings = list(all_pairings(X, Y))
        oracle[key] = pairings, [naive_decompose(X, Y, s) for s in pairings]
    pairings, want = oracle[key]
    assert lists == [cell_cycles(dec.cycles, X.l) for dec in want]
    assert total == len(want)
    if public:
        assert [decompose(X, Y, s) for s in pairings] == want
    return total


# both 48-state spaces, besides every space with k, l <= 3
PUBLIC_CHECKED = {((2, 2, 2, 2), (3, 2, 2, 1)), ((3, 2, 2, 1), (2, 2, 2, 2))}


def test_kernel_matches_decompose_on_small_spaces():
    # every ordered pair of every space of a graphical pair with k, l <= 4
    # (the 48-state U- and V-regular spaces and the 90-state space among
    # them), with one shape memo per space as congestion keeps one per
    # call; the public ``decompose`` on the spaces with k, l <= 3 and the
    # 48-state ones
    spaces = pairings = 0
    sizes = set()
    public_spaces = public_pairings = 0
    oracle = {}
    for a, b in all_degree_pairs(4, 4):
        ds = BipartiteDegreeSequence(a, b)
        if not is_graphical(ds):
            continue
        space = enumerate_states(ds)
        if space.n < 2:
            continue
        public = max(len(a), len(b)) <= 3 or (a, b) in PUBLIC_CHECKED
        all_states = graphs(space)
        memo = {}
        for X in all_states:
            for Y in all_states:
                if X is not Y:
                    total = kernel_matches_decompose(X, Y, memo, public, oracle)
                    pairings += total
                    public_pairings += total if public else 0
        spaces += 1
        public_spaces += public
        sizes.add((a, b, space.n))
    assert {((2, 2, 2, 2), (3, 2, 2, 1), 48), ((3, 2, 2, 1), (2, 2, 2, 2), 48),
            ((2, 2, 2, 2), (2, 2, 2, 2), 90)} <= sizes
    assert (spaces, pairings) == (268, 105026)
    assert (public_spaces, public_pairings) == (23, 11102)
    assert len(oracle) == 2790


def test_kernel_matches_decompose_on_higher_degree_differences():
    # a vertex meeting three X-edges of X xor Y (six pairings there), which
    # no space with k, l <= 4 has
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 20:
        g = BipartiteGraph((rng.random((6, 6)) < 0.5).astype(np.uint8))
        cells = chain._walk(g, 1, 40, generator_draws([rng], 15 * 15))
        h = BipartiteGraph(np.frombuffer(cells, np.uint8).reshape(6, 6))
        part = symmetric_difference(g, h)
        deg = Counter(u for u, _ in part.x_edges) + Counter(-1 - v for _, v in part.x_edges)
        if max(deg.values(), default=0) >= 3 and enumerate_pairings_count(g, h) <= 2000:
            kernel_matches_decompose(g, h, {}, public=True)
            checked += 1


def test_shape_memo_keeps_vertex_and_class_patterns_apart(monkeypatch):
    # the figure-eight's edge ids in cell order: 0 (0,0) X, 1 (0,1) Y,
    # 2 (0,2) X, 3 (0,3) Y, 4 (1,0) Y, 5 (1,1) X, 6 (2,2) Y, 7 (2,3) X.
    # Pairing "short" has two 4-cycle circuits of one shape, so the second
    # is a hit; "long" meets u0 twice on one circuit, which is cut into two
    # 4-cycles, and a second trace of it hits.  The reverse pair (Y, X)
    # traces the long circuit with every class exchanged: a second entry,
    # cut alike.  With edge 7 read as a Y-edge, edges 3 and 7 are
    # same-class partners at v3: the long circuit's vertex pattern, whose
    # entry the memo holds, with other classes, so it misses and is
    # refused, as it is with a fresh memo.
    def partners(u_pairs):
        pu, pv = [0] * 8, [0] * 8
        for partner, pairs in ((pu, u_pairs + ((5, 4), (7, 6))),
                               (pv, ((0, 4), (5, 1), (2, 6), (7, 3)))):
            for a, b in pairs:
                partner[a], partner[b] = b, a
        return pu, pv

    short, long = partners(((0, 1), (2, 3))), partners(((0, 3), (2, 1)))
    forward = pairings._number(FIG8_X.key(), FIG8_Y.key(), 4)
    backward = pairings._number(FIG8_Y.key(), FIG8_X.key(), 4)
    in_x = list(forward[2])
    in_x[7] = False
    same_class = forward[:2] + (in_x,) + forward[3:]
    misses = []
    real = pairings._cut
    monkeypatch.setattr(pairings, "_cut", lambda *shape: misses.append(shape) or real(*shape))
    memo = {}
    assert len(pairings._trace(*short, forward, memo)[1]) == 2
    assert len(misses) == 1
    _, cycles, masks = pairings._trace(*long, forward, memo)
    assert cycles == [(3, 7, 6, 2), (0, 1, 5, 4)] and len(misses) == 2
    assert pairings._trace(*long, forward, memo)[1:] == (cycles, masks)
    assert len(misses) == 2
    assert pairings._trace(*long, backward, memo)[1:] == (cycles, masks)
    assert len(misses) == len(memo) == 3
    for memo in (memo, {}):
        with pytest.raises(NonAlternating, match="consecutive edges in one class"):
            pairings._trace(*long, same_class, memo)
    long_pattern = (0, 1, 2, 3, 0, 4, 5, 6)
    assert [pattern for pattern, _ in misses[1:]] == [long_pattern] * 4
    assert [classes for _, classes in misses[1:]] == [
        bytes([1, 0] * 4), bytes([0, 1] * 4), bytes([1, 0, 0, 0, 1, 0, 1, 0]),
        bytes([1, 0, 0, 0, 1, 0, 1, 0])]


def test_kernel_guard_fires_before_any_pairing_is_decomposed(monkeypatch):
    # the figure-eight pair has 2 pairings: a guard of 1 refuses it before
    # the first pairing is traced, and a guard of 2 lets both through
    def no_trace(*args):
        raise AssertionError("a pairing was decomposed past the guard")

    monkeypatch.setattr(pairings, "_trace", no_trace)
    monkeypatch.setattr(pairings, "_MAX_PAIRINGS", 1)
    with pytest.raises(TooManyPairings, match="^2 pairings exceed the guard 1$"):
        _decompositions(FIG8_X.key(), FIG8_Y.key(), 4, {})
    monkeypatch.undo()
    monkeypatch.setattr(pairings, "_MAX_PAIRINGS", 2)
    total, lists = _decompositions(FIG8_X.key(), FIG8_Y.key(), 4, {})
    assert total == len(list(lists)) == 2


def test_kernel_rejects_unequal_margins():
    with pytest.raises(DegreeMismatch):
        _decompositions(M1.key(), BipartiteGraph([[1, 1], [0, 1]]).key(), 2, {})


# -- the reverse pair: (Y, X) cuts the cycles of (X, Y) ----------------------


def exchange_matches_reverse(x_key, y_key, l, x_memo, y_memo) -> int:
    """Assert that the kernel gives (Y, X) the pairing count of (X, Y) and
    the same multiset of per-pairing lists of cycle cell masks: the two
    directions differ only in each cycle's X/Y labels, which a mask does
    not carry, so one cycle list serves both.  Return the number of
    pairings."""
    total, lists = _decompositions(x_key, y_key, l, x_memo)
    back_total, back = _decompositions(y_key, x_key, l, y_memo)
    assert back_total == total
    forward = Counter(lists)
    assert forward == Counter(back)
    assert sum(forward.values()) == total
    return total


@pytest.mark.parametrize("a, b, n, pairs", [
    ((3, 3, 2, 1), (3, 2, 2, 2), 27, 351),
    ((2, 2, 2, 2), (3, 2, 2, 1), 48, 1128),
    ((3, 2, 2, 1), (2, 2, 2, 2), 48, 1128),
    ((2, 2, 2, 2), (2, 2, 2, 2), 90, 4005),
])
def test_exchange_matches_reverse_on_every_pair(a, b, n, pairs):
    # every unordered pair, both directions on one shape memo, as congestion
    # keeps one per call
    space = enumerate_states(BipartiteDegreeSequence(a, b))
    assert space.n == n
    keys = [g.key() for g in graphs(space)]
    memo = {}
    checked = 0
    for xi in range(n):
        for yi in range(xi + 1, n):
            exchange_matches_reverse(keys[xi], keys[yi], space.ds.l, memo, memo)
            checked += 1
    assert checked == pairs


def test_exchange_matches_reverse_on_seeded_pairs():
    # 1,000 seeded pairs of the 1,170-state 5 x 5 space
    space = enumerate_states(BipartiteDegreeSequence((3, 2, 2, 2, 1), (2, 2, 2, 2, 2)))
    assert space.n == 1170
    rng = np.random.default_rng(21)
    totals = set()
    for _ in range(1000):
        xi, yi = rng.choice(space.n, 2, replace=False)
        X, Y = space.graph(xi), space.graph(yi)
        totals.add(exchange_matches_reverse(X.key(), Y.key(), X.l, {}, {}))
    assert max(totals) == 256


# -- the signed difference: equal X - Y, equal decompositions -----------------


def kernel_output(x_key, y_key, l) -> tuple:
    """The kernel's pairing count and every cycle list of (X, Y), each cycle
    as its ``(walk-order cell sequence, cell mask)``, with a fresh memo."""
    return kernel_cycles(x_key, y_key, l, {})


@pytest.mark.parametrize("a, b, n, shared", [
    ((2, 2, 2, 2), (3, 2, 2, 1), 48, 483),
    ((3, 2, 2, 1), (2, 2, 2, 2), 48, 483),
    ((2, 2, 2, 2), (2, 2, 2, 2), 90, 2820),
])
def test_equal_signed_differences_decompose_alike(a, b, n, shared):
    # every unordered pair xi < yi whose X - Y an earlier pair has gets the
    # kernel output of the first such pair; shared counts them, the
    # decompositions congestion's pair loop skips
    space = enumerate_states(BipartiteDegreeSequence(a, b))
    assert space.n == n
    mats = space.adj.astype(np.int8)
    keys = [g.key() for g in graphs(space)]
    first, repeats = {}, 0
    for xi in range(n):
        for yi in range(xi + 1, n):
            diff = (mats[xi] - mats[yi]).tobytes()
            out = kernel_output(keys[xi], keys[yi], space.ds.l)
            if diff in first:
                assert out == first[diff], (xi, yi)
                repeats += 1
            else:
                first[diff] = out
    assert repeats == shared


def test_equal_signed_differences_decompose_alike_on_seeded_pairs():
    # 200 seeded pairs (X, Y) of the 1,170-state 5 x 5 space, each with a
    # second pair (X', Y') of the same difference: X' agrees with X wherever
    # X and Y differ, and Y' = X' - (X - Y) has the same margins, so it is a
    # state of the space
    space = enumerate_states(BipartiteDegreeSequence((3, 2, 2, 2, 1), (2, 2, 2, 2, 2)))
    assert space.n == 1170
    mats = space.adj.reshape(space.n, -1).astype(np.int8)
    rng = np.random.default_rng(27)
    totals = []
    while len(totals) < 200:
        xi, yi = rng.choice(space.n, 2, replace=False)
        diff = mats[xi] - mats[yi]
        moved = diff != 0
        others = np.flatnonzero((mats[:, moved] == mats[xi, moved]).all(axis=1))
        others = others[others != xi]
        if not len(others):
            continue
        xj = rng.choice(others)
        yj = space.index[(mats[xj] - diff).astype(np.uint8).tobytes()]
        assert (mats[xj] - mats[yj] == diff).all()
        X, Y, Xp, Yp = (space.graph(i) for i in (xi, yi, xj, yj))
        out = kernel_output(X.key(), Y.key(), 5)
        assert out == kernel_output(Xp.key(), Yp.key(), 5), (xi, yi, xj, yj)
        totals.append(out[0])
    assert max(totals) == 32


@pytest.mark.parametrize("edges", [((0, 0), (1, 1)), ((0, 0), (0, 1), (1, 2), (2, 2))])
def test_vertex_seq_refuses_edges_that_share_no_endpoint(edges):
    # a walk whose consecutive edges meet in no vertex, the closing pair
    # included, is not alternating
    cyc = pairings.AlternatingCycle(edges)
    with pytest.raises(NonAlternating, match="share no endpoint"):
        cyc.vertex_seq()
