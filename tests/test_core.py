import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degswap import (BipartiteDegreeSequence, BipartiteGraph, NotGraphical, Swap,
                     allowed_swaps, apply_swap, greedy_realize, is_graphical,
                     sample, swap_distance, symmetric_difference)
from degswap.core import _bits, _key_cells, _masks
from degswap.errors import DegreeMismatch, ShapeMismatch, SwapNotAllowed

from oracles import (all_degree_pairs, brute_margin_count, brute_margin_matrices, cell_text,
                     graph_bfs_swap_distance, naive_greedy_realize, naive_push_up,
                     numpy_allowed_swaps, numpy_apply_swap, numpy_swap_is_allowed,
                     numpy_swap_on, numpy_symmetric_difference, push_up, transition_prob)


def bds(a, b):
    return BipartiteDegreeSequence(tuple(a), tuple(b))


def unchecked_ds(a, b):
    """A degree sequence built past the constructor's checks."""
    ds = object.__new__(BipartiteDegreeSequence)
    object.__setattr__(ds, "a", tuple(a))
    object.__setattr__(ds, "b", tuple(b))
    return ds


def realized(realize, ds):
    """The realization, or the text of the ``NotGraphical`` raised."""
    try:
        return realize(ds)
    except NotGraphical as exc:
        return str(exc)


def random_graph(seed, k=4, l=4, p=0.5):
    rng = np.random.default_rng(seed)
    return BipartiteGraph((rng.random((k, l)) < p).astype(np.uint8))


class TestDegreeSequence:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            bds((1, 2), (1, 1, 1))

    def test_rejects_non_integer_degrees(self):
        # no truncation: 2.7 is not read as 2, and neither is 2.0 or "2"
        for a in ((2.7, 1), (2.0, 1), ("2", 1), (np.float64(2), 1)):
            with pytest.raises(ValueError):
                bds(a, (2, 1))
        assert bds((np.int64(2), 1), (np.uint8(2), 1)) == bds((2, 1), (2, 1))

    def test_rejects_oversized_degree(self):
        with pytest.raises(ValueError):
            bds((3,), (1, 1))

    def test_text_round_trip(self):
        ds = bds((2, 2, 2), (3, 2, 1))
        assert BipartiteDegreeSequence.from_text(ds.to_text()) == ds

    # int() reads each of these: a sign, digit-group underscores, and
    # Arabic-Indic and fullwidth digits are no degree
    @pytest.mark.parametrize("token", ["+2", "1_1", "0_2", "\u0662", "\uff12", "-", "--2",
                                       "-+2", "2.0", "0x2", "2-"])
    @pytest.mark.parametrize("line", [0, 1])
    def test_text_tokens_are_ascii_integers(self, token, line):
        lines = ["2 2", "2 2"]
        lines[line] = f"2 {token}"
        with pytest.raises(ValueError, match="not an integer") as info:
            BipartiteDegreeSequence.from_text("\n".join(lines) + "\n")
        assert repr(token) in str(info.value)

    def test_text_reads_ascii_digits(self):
        # leading zeros and a signed zero are ASCII integers
        assert BipartiteDegreeSequence.from_text("02 1\n2 01\n") == bds((2, 1), (2, 1))
        assert BipartiteDegreeSequence.from_text("-0 0\n0\n") == bds((0, 0), (0,))

    def test_negative_text_degree_meets_its_check(self):
        with pytest.raises(ValueError, match="degrees must be non-negative"):
            BipartiteDegreeSequence.from_text("2 -1\n1 0\n")

    def test_semi_regular(self):
        assert bds((2, 2, 2), (3, 2, 1)).is_semi_regular()
        assert not bds((3, 2), (2, 2, 1)).is_semi_regular()


class TestGraphicality:
    def test_perfect_matching(self):
        assert is_graphical(bds((1, 1), (1, 1)))

    def test_sum_mismatch(self):
        assert not is_graphical(bds((2, 2), (1, 1)))

    def test_semi_regular_example(self):
        ds = bds((2, 2, 2), (3, 2, 1))
        assert is_graphical(ds)
        assert brute_margin_count(ds.a, ds.b) >= 1

    def test_agrees_with_brute_force(self):
        for a, b in all_degree_pairs(3, 3):
            ds = bds(a, b)
            assert is_graphical(ds) == (brute_margin_count(a, b) >= 1), (a, b)


class TestGreedyRealize:
    def test_matching_tie_break(self):
        g = greedy_realize(bds((1, 1), (1, 1)))
        assert g.adj.tolist() == [[1, 0], [0, 1]]

    def test_complete(self):
        g = greedy_realize(bds((3, 3, 3), (3, 3, 3)))
        assert g.adj.sum() == 9

    def test_margins(self):
        g = greedy_realize(bds((2, 2, 2), (3, 2, 1)))
        assert g.row_deg == (2, 2, 2) and g.col_deg == (3, 2, 1)

    def test_not_graphical_raises(self):
        with pytest.raises(NotGraphical):
            greedy_realize(bds((2, 2), (1, 1)))

    def test_matches_python_sort_on_small_pairs(self):
        for a, b in all_degree_pairs(4, 4):
            ds = bds(a, b)
            want = realized(naive_greedy_realize, ds)
            assert realized(greedy_realize, ds) == want, (a, b)
            assert is_graphical(ds) == (not isinstance(want, str)), (a, b)

    @pytest.mark.parametrize("a, b", [
        # a V degree above k (or a U degree above l), past the range checks
        # of BipartiteDegreeSequence
        ((2, 1), (3,)), ((3, 3), (3, 3)), ((2, 2), (3, 1)), ((3, 1), (4,)),
        ((2, 2, 2), (2, 4)), ((4, 2), (3, 3)),
        ((2, 2), (1, 1)),        # unequal sums
    ])
    def test_matches_python_sort_when_not_graphical(self, a, b):
        ds = unchecked_ds(a, b)
        got = realized(greedy_realize, ds)
        assert got == realized(naive_greedy_realize, ds)
        assert isinstance(got, str)
        assert not is_graphical(ds)

    def test_matches_python_sort_on_random_sequences(self):
        rng = np.random.default_rng(2026)
        outcomes = set()
        for _ in range(300):
            k, l = (int(x) for x in rng.integers(1, 31, size=2))
            adj = rng.random((k, l)) < rng.random()
            a = sorted(adj.sum(axis=1).tolist(), reverse=True)
            b = sorted(adj.sum(axis=0).tolist(), reverse=True)
            for _ in range(int(rng.integers(4)) if any(b) else 0):
                # move a unit of V degree from the smallest positive column
                # to the largest one below k: b then majorizes more, and
                # soon no longer realizes
                src = max(j for j in range(l) if b[j] > 0)
                dst = min((j for j in range(l) if b[j] < k), default=src)
                if dst < src:
                    b[src] -= 1
                    b[dst] += 1
            if rng.random() < 0.15 and b[-1] < b[0]:
                b[-1] += 1                  # unequal sums
                b.sort(reverse=True)
            ds = bds(a, b)
            want = realized(naive_greedy_realize, ds)
            assert realized(greedy_realize, ds) == want, (a, b)
            assert is_graphical(ds) == (not isinstance(want, str)), (a, b)
            outcomes.add(want.split(":")[0] if isinstance(want, str) else "graph")
        assert {"graph", "degree sums differ"} <= outcomes and len(outcomes) > 2


class TestPushUp:
    def test_identity_case(self):
        g = BipartiteGraph([[1, 0], [0, 1]])
        h, swaps = push_up(g, 0)
        assert h == g and swaps == []

    def test_single_swap_example(self):
        g = BipartiteGraph([[0, 1], [1, 0]])
        h, swaps = push_up(g, 0)
        assert len(swaps) == 1
        assert h.adj[:, 0].tolist() == [1, 0]

    def test_swap_budget_and_target(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = BipartiteGraph((rng.random((4, 5)) < 0.5).astype(np.uint8))
            v = int(rng.integers(5))
            d = g.col_deg[v]
            h, swaps = push_up(g, v)
            assert len(swaps) <= d
            order = sorted(range(4), key=lambda u: (-g.row_deg[u], u))
            assert {u for u in range(4) if h.adj[u, v]} == set(order[:d])
            assert h.row_deg == g.row_deg and h.col_deg == g.col_deg

    @pytest.mark.parametrize("n", range(3, 17))
    def test_row_lists_match_the_numpy_oracle(self, n):
        # seeded n x n graphs of mixed density, random active column sets
        # holding v: the same graph and the same swaps as the cell-by-cell
        # numpy elimination, and the same refusal of an inactive v
        rng = np.random.default_rng(40 + n)
        for _ in range(6):
            g = BipartiteGraph((rng.random((n, n)) < rng.uniform(0.2, 0.8)).astype(np.uint8))
            v = int(rng.integers(n))
            others = [c for c in range(n) if c != v]
            active = [v] + [int(c) for c in rng.choice(others, int(rng.integers(n)),
                                                       replace=False)]
            for cols in (None, active):
                assert push_up(g, v, cols) == naive_push_up(g, v, cols), (n, v, cols)
            for rule in (push_up, naive_push_up):
                with pytest.raises(ValueError):
                    rule(g, v, others)

    def test_active_columns_outside_the_matrix_are_refused(self):
        # column 0's targets are rows 0 and 1; a -1 must not wrap to column
        # 2 and a 3 must not be skipped, either of which left column 0 on
        # rows 1 and 2 with no swap
        g = BipartiteGraph([[0, 1, 1], [1, 1, 0], [1, 0, 1]])
        for cols in ([-1, 0], [0, 3], [0, 1, 2, 3], [-3, 0, 1]):
            with pytest.raises(ValueError, match="outside range"):
                push_up(g, 0, cols)
        for v in (-1, 3):
            with pytest.raises(ValueError, match="not active"):
                push_up(g, v)
        h, swaps = push_up(g, 0, [0, 1, 2])
        assert h.adj[:, 0].tolist() == [1, 1, 0] and len(swaps) == 1

    def test_duplicate_active_columns_count_once(self):
        g = BipartiteGraph([[0, 1, 1], [1, 1, 0], [1, 0, 1]])
        for v, cols in ((0, [0, 0, 1, 2, 1]), (0, [2, 0, 2]), (1, (1, 1, 0))):
            assert push_up(g, v, cols) == naive_push_up(g, v, sorted(set(cols))), (v, cols)


class TestSwaps:
    def test_complete_graph_has_none(self):
        assert allowed_swaps(BipartiteGraph([[1, 1], [1, 1]])) == []

    def test_matching_has_one(self):
        swaps = allowed_swaps(BipartiteGraph([[1, 0], [0, 1]]))
        assert swaps == [Swap(0, 1, 0, 1, 1)]

    def test_count_matches_submatrix_scan(self):
        from itertools import combinations
        for seed in range(30):
            g = random_graph(seed)
            count = 0
            for u1, u2 in combinations(range(g.k), 2):
                for v1, v2 in combinations(range(g.l), 2):
                    sub = g.adj[np.ix_([u1, u2], [v1, v2])]
                    if sub.sum() == 2 and sub[0, 0] == sub[1, 1]:
                        count += 1
            assert len(allowed_swaps(g)) == count

    def test_apply_matching(self):
        g = BipartiteGraph([[1, 0], [0, 1]])
        h = apply_swap(g, Swap(0, 1, 0, 1, 1))
        assert h.adj.tolist() == [[0, 1], [1, 0]]

    def test_not_allowed(self):
        with pytest.raises(SwapNotAllowed):
            apply_swap(BipartiteGraph([[1, 1], [1, 1]]), Swap(0, 1, 0, 1, 1))

    def test_negative_indices_refused(self):
        # a negative index would address row or column k - 1 from the end
        for fields in ((-1, 0, 0, 1, 2), (0, 1, -1, 0, 1), (-2, -1, -2, -1, 1)):
            with pytest.raises(ValueError, match="0 <= u1 < u2"):
                Swap(*fields)

    def test_swap_outside_the_graph_not_allowed(self):
        from degswap.ryser import replay

        g = BipartiteGraph([[1, 0, 1], [0, 1, 0]])
        for s in (Swap(0, 2, 0, 1, 1), Swap(0, 1, 2, 3, 2), Swap(5, 6, 7, 8, 1)):
            assert not g.swap_is_allowed(s)
            with pytest.raises(SwapNotAllowed):
                apply_swap(g, s)
            with pytest.raises(SwapNotAllowed):
                replay(g, [s])

    def test_on_needs_a_one_factor(self):
        # both diagonals full, both empty, one cell short: none is a swap
        for rows in ([[1, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 1], [0, 1]]):
            with pytest.raises(SwapNotAllowed):
                Swap.on(0, 1, 0, 1, BipartiteGraph(rows))
        g = BipartiteGraph([[1, 0, 1], [0, 1, 0]])
        with pytest.raises(SwapNotAllowed):
            Swap.on(0, 2, 0, 1, g)
        assert Swap.on(1, 0, 1, 0, g) == Swap(0, 1, 0, 1, 1)
        assert Swap.on(0, 1, 2, 1, g) == Swap(0, 1, 1, 2, 2)

    def test_derived_graphs_equal_validated_ones(self):
        # entries are checked before the uint8 cast, which would truncate
        # fractions and wrap 256 and -1
        for bad in ([[1, 2], [0, 1]], [[1.5, 0], [0, 1]], [[0.2, 1], [1, 0]], [[256]],
                    [[-1]]):
            with pytest.raises(ValueError):
                BipartiteGraph(bad)
        for seed in range(10):
            g = random_graph(seed)
            for s in allowed_swaps(g):
                h = apply_swap(g, s)
                fresh = BipartiteGraph(h.adj.tolist())
                assert h == fresh and hash(h) == hash(fresh)
                assert (h.row_deg, h.col_deg) == (fresh.row_deg, fresh.col_deg)
                assert h.adj.dtype == np.uint8 and not h.adj.flags.writeable

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_degrees(self, seed):
        g = random_graph(seed)
        for s in allowed_swaps(g):
            h = apply_swap(g, s)
            assert h.row_deg == g.row_deg and h.col_deg == g.col_deg
            assert apply_swap(h, s.inverse()) == g

    def test_fields_are_python_ints(self):
        # fields read through operator.index: numpy ints are stored as ints,
        # and a swap built from a numpy row applies as one built from ints
        s = Swap(*np.array([0, 1, 0, 1, 1]))
        assert all(type(x) is int for x in (s.u1, s.u2, s.v1, s.v2, s.orientation))
        assert s == Swap(0, 1, 0, 1, 1) and hash(s) == hash(Swap(0, 1, 0, 1, 1))
        g = BipartiteGraph([[1, 0], [0, 1]])
        assert g.swap_is_allowed(s)
        assert apply_swap(g, s).adj.tolist() == [[0, 1], [1, 0]]
        for fields in ((0.5, 1, 0, 1, 1), (0, 1, 0, 1, 1.0), ("0", 1, 0, 1, 1),
                       (0, 1, 0, "1", 2), (0, 1, 0, 1, None)):
            with pytest.raises(ValueError, match="swap fields must be integers"):
                Swap(*fields)


def outcome(f, *args):
    """What ``f(*args)`` gives: its value, or the type and text of the
    ``SwapNotAllowed`` it raises."""
    try:
        return f(*args)
    except SwapNotAllowed as e:
        return type(e), str(e)


class TestOneSwapCheck:
    """The graph layer's swap check, listing and distance, all stepping
    through ``core._flip`` on the key read as an int, against the numpy
    cell readings and the graph-per-node BFS they replaced."""

    def test_sweep_against_numpy_references(self):
        from itertools import combinations

        rng = np.random.default_rng(45)
        shapes = [(1, 1), (2, 2), (1, 5), (3, 5), (5, 9)]
        cases = [BipartiteGraph((rng.random(shape) < p).astype(np.uint8))
                 for shape in shapes for p in (0.3, 0.5, 0.7)]
        cases.append(sample(bds((4,) * 16, (4,) * 16), 300, 5))
        for g in cases:
            assert allowed_swaps(g) == numpy_allowed_swaps(g), g
            # every index tuple up to k and l, so one past the shape too
            for u1, u2 in combinations(range(g.k + 1), 2):
                for v1, v2 in combinations(range(g.l + 1), 2):
                    for ori in (1, 2):
                        s = Swap(u1, u2, v1, v2, ori)
                        assert g.swap_is_allowed(s) == numpy_swap_is_allowed(g, s), (g, s)
                        assert outcome(apply_swap, g, s) == outcome(numpy_apply_swap, g, s), s
                    for args in ((u1, u2, v1, v2), (u2, u1, v2, v1)):
                        assert (outcome(Swap.on, *args, g)
                                == outcome(numpy_swap_on, *args, g)), (g, args)
        states = brute_margin_matrices((2, 2, 2), (2, 2, 2))
        assert len(states) == 6
        for x in states:
            for y in states:
                for cap in (None, 0, 1, 2):
                    assert (swap_distance(x, y, cap)
                            == graph_bfs_swap_distance(x, y, cap)), (x.key(), y.key(), cap)


class TestSymmetricDifference:
    def test_equal_graphs(self):
        g = random_graph(1)
        part = symmetric_difference(g, g)
        assert part.x_edges == frozenset() and part.y_edges == frozenset()

    def test_two_matchings(self):
        part = symmetric_difference(BipartiteGraph([[1, 0], [0, 1]]),
                                    BipartiteGraph([[0, 1], [1, 0]]))
        assert part.x_edges == {(0, 0), (1, 1)}
        assert part.y_edges == {(0, 1), (1, 0)}

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_vertex_balance(self, seed):
        g = random_graph(seed)
        h = g
        for _ in range(3):
            moves = allowed_swaps(h)
            if not moves:
                break
            h = apply_swap(h, moves[seed % len(moves)])
        part = symmetric_difference(g, h)
        for side, idx in {("u", u) for u in range(g.k)} | {("v", v) for v in range(g.l)}:
            xs = sum(1 for e in part.x_edges if e[0 if side == "u" else 1] == idx)
            ys = sum(1 for e in part.y_edges if e[0 if side == "u" else 1] == idx)
            assert xs == ys

    def test_errors(self):
        with pytest.raises(ShapeMismatch):
            symmetric_difference(random_graph(0, 2, 2), random_graph(0, 3, 3))
        with pytest.raises(DegreeMismatch):
            symmetric_difference(BipartiteGraph([[1, 0], [0, 0]]),
                                 BipartiteGraph([[0, 0], [0, 1]]))

    @pytest.mark.parametrize("a, b", [((4,) * 16, (4,) * 16),
                                      ((6, 5, 4, 3, 2), (3, 3, 3, 2, 2, 2, 2, 2, 1))])
    def test_matches_the_numpy_formula(self, a, b):
        # seeded pairs of realizations, each pair also against itself: the
        # edge sets read off the kernel's numbering are the cells on in one
        # matrix and off in the other
        from degswap import chain

        ds = bds(a, b)
        for seed in range(4):
            X, Y = chain.sample(ds, 300, 2 * seed), chain.sample(ds, 300, 2 * seed + 1)
            for G, H in ((X, Y), (Y, X), (X, X)):
                part = symmetric_difference(G, H)
                assert (part.x_edges, part.y_edges) == numpy_symmetric_difference(G, H)
            assert part.x_edges == part.y_edges == frozenset()
            assert symmetric_difference(X, Y).x_edges

    @pytest.mark.parametrize("text", ["0 3\n", "2 0\n\n\n"])
    def test_empty_shapes(self, text):
        g = BipartiteGraph.from_text(text)
        part = symmetric_difference(g, g)
        assert (part.x_edges, part.y_edges) == numpy_symmetric_difference(g, g)
        assert part.x_edges == part.y_edges == frozenset()

    def test_shape_checked_before_margins(self):
        # the pair entry points raise ShapeMismatch for two shapes, even
        # where the degree vectors differ too, and DegreeMismatch for one
        # shape with other margins
        from degswap.ryser import ryser_sequence, swap_distance

        eye2, eye3 = BipartiteGraph(np.eye(2)), BipartiteGraph(np.eye(3))
        empty03 = BipartiteGraph.from_text("0 3\n")
        empty30 = BipartiteGraph.from_text("3 0\n\n\n\n")
        for check in (symmetric_difference, ryser_sequence, swap_distance, transition_prob):
            for G, H in ((eye2, eye3), (eye3, eye2), (random_graph(0, 2, 2), eye3),
                         (empty03, empty30)):
                with pytest.raises(ShapeMismatch):
                    check(G, H)
            with pytest.raises(DegreeMismatch):
                check(eye2, BipartiteGraph([[1, 1], [0, 0]]))


class TestKeyCells:
    def test_byte_scan_reads_the_cells(self):
        # a cell mask in key form (cell c at bit 8c) has the cells of its
        # nonzero bytes; any bit off a multiple of 8 is refused
        rng = np.random.default_rng(40)
        for n in (0, 1, 7, 64, 256):
            data = (rng.random(n) < 0.3).astype(np.uint8).tobytes()
            mask = int.from_bytes(data, "little")
            cells = np.flatnonzero(np.frombuffer(data, np.uint8)).tolist()
            assert _key_cells(mask) == [b >> 3 for b in _bits(mask)] == cells
            for shift in range(1, 8):
                for stray in (1 << shift, 1 << 8 * n + shift):
                    with pytest.raises(ValueError, match="off a multiple of 8"):
                        _key_cells(mask | stray)


class TestKeyMasks:
    @pytest.mark.parametrize("k, l", [(0, 3), (3, 0), (1, 65), (5, 5), (4, 9), (9, 4),
                                      (16, 16), (33, 17)])
    def test_rows_and_columns_are_the_packed_bits(self, k, l):
        # seeded graphs of mixed density: row u is row u of the matrix and
        # column v row v of its transpose, each packed little-endian
        rng = np.random.default_rng(10 * k + l)
        for p in (0.0, 0.3, 0.7, 1.0):
            g = BipartiteGraph((rng.random((k, l)) < p).astype(np.uint8))
            rows, cols = _masks(g.key(), k, l)
            for masks, adj in ((rows, g.adj), (cols, g.adj.T)):
                packed = np.packbits(adj, axis=1, bitorder="little")
                assert masks == [int.from_bytes(r.tobytes(), "little") for r in packed], (k, l, p)

    @pytest.mark.parametrize("text", ["0 3\n", "3 0\n\n\n\n"])
    def test_empty_shapes_through_push_up_and_ryser(self, text):
        from degswap.ryser import ryser_sequence

        g = BipartiteGraph.from_text(text)
        assert ryser_sequence(g, g) == []
        for v in range(g.l):
            assert push_up(g, v) == (g, [])
        with pytest.raises(ValueError, match="not active"):
            push_up(g, g.l)


class TestGraphText:
    def test_round_trip(self):
        g = random_graph(9)
        assert BipartiteGraph.from_text(g.to_text()) == g
        assert BipartiteGraph.from_text(g.to_text()).to_text() == g.to_text()

    @pytest.mark.parametrize("k, l", [(1, 1), (1, 7), (7, 1), (3, 5), (6, 2), (0, 3), (2, 0)])
    def test_matches_cell_by_cell_text(self, k, l):
        for seed in range(3):
            g = random_graph(seed, k, l)
            assert g.to_text() == cell_text(g)
            assert BipartiteGraph.from_text(g.to_text()) == g

    @pytest.mark.parametrize("k, l", [(1, 1), (3, 5), (16, 16), (0, 3), (2, 0)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_stack_text_joins_each_layer_text(self, k, l, n):
        from degswap.core import _stack_text

        layers = [random_graph(seed, k, l) for seed in range(n)]
        stack = np.stack([g.adj for g in layers])
        assert _stack_text(stack) == "\n".join(g.to_text() for g in layers)

    def test_empty_shapes(self):
        assert BipartiteGraph(np.zeros((0, 3), dtype=np.uint8)).to_text() == "0 3\n"
        assert BipartiteGraph(np.zeros((2, 0), dtype=np.uint8)).to_text() == "2 0\n\n\n"

    def test_bad_row(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_text("1 2\n12\n")
        with pytest.raises(ValueError):
            BipartiteGraph.from_text("0 3\n101\n")

    @pytest.mark.parametrize("char", ["2", " ", "\u0661", "\uff11", "x", "-"])
    def test_every_non_binary_character_names_its_row(self, char):
        # the rows are the only check on graph text: ASCII 2, an inner
        # space, Arabic-Indic one and fullwidth one are all refused
        for row in (f"1{char}0", f"{char}01", f"10{char}"):
            with pytest.raises(ValueError, match="bad matrix row"):
                BipartiteGraph.from_text(f"2 3\n101\n{row}\n")

    @pytest.mark.parametrize("rows", [["10", "011"], ["101", "01"], ["1010", "0101"],
                                      ["1", "101"], ["101", "1011"]])
    def test_ragged_rows_name_their_row(self, rows):
        with pytest.raises(ValueError, match="bad matrix row"):
            BipartiteGraph.from_text("2 3\n" + "\n".join(rows) + "\n")

    @pytest.mark.parametrize("header", ["-1 2", "2 -1", "2 2 2", "2", "a 2", "2.0 2", "2 x",
                                        "+2 2", "0_2 2", "2 \u0662", "\uff12 2", "2 +2"])
    def test_bad_header_is_named(self, header):
        with pytest.raises(ValueError, match="bad graph header") as info:
            BipartiteGraph.from_text(f"{header}\n10\n01\n")
        assert repr(header) in str(info.value)

    @pytest.mark.parametrize("k, l", [(3, 5), (0, 3), (2, 0)])
    def test_read_matrix_is_read_only_uint8(self, k, l):
        g = BipartiteGraph.from_text(random_graph(1, k, l).to_text())
        assert g.adj.dtype == np.uint8 and g.adj.shape == (k, l)
        assert not g.adj.flags.writeable
        with pytest.raises(ValueError):
            g.adj[...] = 0
        assert g == random_graph(1, k, l)
