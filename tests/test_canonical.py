import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degswap import (BipartiteGraph, Exceeds, FMatrix, FriendlyPath, SteinhausSet,
                     adjusted_positions, canonical_path, cousins, f_matrix,
                     find_friendly_path, hat_matrix, ok_ko_step, path_along_cycle,
                     path_distribution, switch_distance)
from degswap.canonical import (CycleFrame, OKKOSpec, _bridge, _cycle_walk, _int,
                               _switch_distances, cycle_swaps, down_line, down_up_rings,
                               matches_spec, position_distance, ring, up_line,
                               verify_friendly_path, verify_same_state, verify_steinhaus)
from degswap.core import allowed_swaps, apply_swap
from degswap.errors import (CycleMismatch, DegreeMismatch, DiagonalPosition, MarginMismatch,
                            PairingMismatch, PreconditionViolation, ShapeMismatch,
                            SpecViolation, SwapNotAllowed, TooManyPairings)
from degswap.mixing import _routes, enumerate_states
from degswap import (AlternatingCycle, BipartiteDegreeSequence, all_pairings, chain,
                     pairings, random_pairing)
from degswap.ryser import replay

from oracles import (PINNED_16, count_ryser, cycle_graph_pair, friendly_path_exists, graphs,
                     naive_cousins, naive_down_line, naive_down_up_rings, naive_ring,
                     naive_switch_distance, naive_up_line, never_memoize_bridges,
                     perturbed_environment, pinned_pair, random_types, reference_path,
                     ring_blocker_types, sequence_margins_ok, spec_realization,
                     split_environment_pools)


# ---------------------------------------------------------------------------
# cousins and the grid
# ---------------------------------------------------------------------------


class TestCousins:
    def test_worked_example(self):
        # chord between the sixth U-vertex and the second V-vertex, ell = 8
        assert set(cousins((5, 1), 8)) == {(0, 5), (0, 6), (1, 5), (1, 6)}

    def test_at_most_four(self):
        for ell in range(3, 9):
            for a in range(ell):
                for b in range(ell):
                    if ring((a, b), ell) >= 2:
                        assert len(cousins((a, b), ell)) <= 4

    def test_symmetry(self):
        for ell in range(3, 9):
            chords = [(a, b) for a in range(ell) for b in range(ell)
                      if ring((a, b), ell) >= 2]
            for p in chords:
                for q in chords:
                    assert (q in cousins(p, ell)) == (p in cousins(q, ell))

    def test_diagonal_rejected(self):
        with pytest.raises(DiagonalPosition):
            cousins((2, 2), 6)

    def test_spans_diagonal_corners(self):
        # the 2x2 submatrix of a chord and any cousin has both remaining
        # corners on the diagonals, which is what makes the switch witness work
        ell = 7
        for a in range(ell):
            for b in range(ell):
                if ring((a, b), ell) < 2:
                    continue
                for (ca, cb) in cousins((a, b), ell):
                    assert ring((a, cb), ell) in (0, 1)
                    assert ring((ca, b), ell) in (0, 1)


class TestGridTables:
    @pytest.mark.parametrize("m", range(3, 17))
    def test_tables_match_the_cell_formulas(self, m):
        # the per-length tables, and the helpers that read them, against
        # the per-cell formulas, a DiagonalPosition on every diagonal cell;
        # the tables name cell (a, b) by its grid index a * m + b, and a set
        # of cells by the int with the bits of their indices set
        from degswap.canonical import _grid

        grid = _grid(m)
        cells = [(a, b) for a in range(m) for b in range(m)]

        def at(ids):
            if isinstance(ids, int):
                ids = [i for i in range(m * m) if ids >> i & 1]
            return tuple(cells[i] for i in ids)

        assert grid.rings == tuple(naive_ring(p, m) for p in cells)
        assert at(grid.chords) == tuple(p for p in cells if naive_ring(p, m) >= 2)
        assert at(grid.open) == tuple(p for p in cells if naive_ring(p, m))
        for i, (a, b) in enumerate(cells):
            p = (a, b)
            assert ring(p, m) == naive_ring(p, m)
            steps = {((a - 1) % m, b), ((a + 1) % m, b), (a, (b - 1) % m), (a, (b + 1) % m)}
            assert at(grid.orth[i]) == tuple(sorted(steps))
            king = {((a + da) % m, (b + db) % m)
                    for da in (-1, 0, 1) for db in (-1, 0, 1) if da or db}
            assert at(grid.king[i]) == tuple(sorted(king))
            if naive_ring(p, m) >= 2:
                assert cousins(p, m) == at(grid.cousins[i]) == naive_cousins(p, m)
                continue
            assert grid.cousins[i] is None
            for rule in (cousins, naive_cousins):
                with pytest.raises(DiagonalPosition):
                    rule(p, m)
        for i in range(m):
            assert down_line(i, m) == at(grid.down[i]) == naive_down_line(i, m)
            assert up_line(i, m) == at(grid.up[i]) == naive_up_line(i, m)
        assert down_up_rings(m) == tuple(map(at, grid.near)) == naive_down_up_rings(m)

    def test_one_bounded_table_per_length(self):
        from degswap.canonical import _grid

        assert _grid(7) is _grid(7)
        assert _grid.cache_info().maxsize == 64

    def test_grid_layer_digest(self):
        # sha256 of what the grid layer answers, recorded while the blocking
        # set was still searched on tuple cells: find_friendly_path on 100
        # seeded typings of each ell = 3..11 and on the 55 ring-blocker
        # typings with ell <= 12 (the 40 blocking sets among them as sorted
        # cells), and position_distance on every cell pair with ell <= 8,
        # "x" where it raises ValueError
        def lines():
            def dichotomy(ell, types):
                res = find_friendly_path(FMatrix.from_types(ell, types))
                if isinstance(res, FriendlyPath):
                    return f"F {ell} {res.positions} {res.adjusted} {res.length_one}"
                return f"S {ell} {sorted(res.positions)}"

            rng = np.random.default_rng(34)
            for ell in range(3, 12):
                for _ in range(100):
                    yield dichotomy(ell, random_types(ell, rng, float(rng.choice([0.2, 0.5, 0.8]))))
            for ell in range(3, 13):
                for r0 in range(2, ell):
                    yield dichotomy(ell, ring_blocker_types(ell, r0))
            for ell in range(1, 9):
                cells = [(a, b) for a in range(ell) for b in range(ell)]
                for p in cells:
                    row = []
                    for q in cells:
                        try:
                            row.append(str(position_distance(p, q, ell)))
                        except ValueError:
                            row.append("x")
                    yield f"d {ell} {p} {' '.join(row)}"

        text = "\n".join(lines())
        assert (text.count("\nS "), text.count(" x")) == (40, 1262)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8adbc5df7c050a869b2fad1d1bf7e7c309db5890a9c19d330aff5bfae7240bc1")


# ---------------------------------------------------------------------------
# cycle-local views
# ---------------------------------------------------------------------------


# The ring-blocker typings (``oracles.ring_blocker_types``) with ell <= 12
# that block: ring r0 is unfriendly when no cousin of its cells lies on it
# (cousins of a ring-r chord lie on rings -r, 1 - r and 2 - r), that is when
# 2 * r0 is none of ell, ell + 1 and ell + 2, and then it cuts every rook
# path once ell >= 5.  40 of the 55 typings.
RING_BLOCKERS = [(ell, r0) for ell in range(5, 13) for r0 in range(2, ell)
                 if 2 * r0 - ell not in (0, 1, 2)]

# The blocking rings next but one to the main diagonal, r0 = ell - 2 for
# ell >= 7, admit no cut pattern: their down-lines start on a type-0 cell
# followed by type-1 cells, and their up-lines hold no type-0 cell within
# reach, so the construction raises SpecViolation there.
NO_CUT_PATTERN = [(ell, ell - 2) for ell in range(7, 13)]


def _instance(ell, seed, p=0.5):
    rng = np.random.default_rng(seed)
    return cycle_graph_pair(ell, random_types(ell, rng, p))


class TestFMatrix:
    def test_start_state(self):
        G, Gp, cyc = _instance(5, 0)
        F = f_matrix(G, Gp, G, cyc)
        for t in range(5):
            assert F.cells[t][t] == 1
            assert F.cells[t][(t + 1) % 5] == 0

    def test_parity_rule(self):
        rng = np.random.default_rng(2)
        G, Gp, cyc = _instance(6, 2)
        Z = G
        for _ in range(8):
            moves = allowed_swaps(Z)
            Z = apply_swap(Z, moves[int(rng.integers(len(moves)))])
        F = f_matrix(G, Gp, Z, cyc)
        frame = CycleFrame.from_cycle(cyc, G)
        for a in range(6):
            for b in range(6):
                if ring((a, b), 6) >= 2:
                    assert F.cells[a][b] % 2 == int(Z.adj[frame.cell_edge((a, b))])

    def test_wrong_cycle_rejected(self):
        G, Gp, cyc = _instance(5, 3)
        G2, Gp2, cyc2 = _instance(6, 3)
        with pytest.raises(CycleMismatch):
            f_matrix(G, Gp, G, cyc2)


# ---------------------------------------------------------------------------
# the alternating-cycle walker
# ---------------------------------------------------------------------------


def _cell_mask(cells, l) -> int:
    """The cells (u, v) of a graph with l columns as the walker reads them:
    cell c at bit 8c."""
    return sum(1 << 8 * (u * l + v) for u, v in cells)


def _two_by_two_blocks(n):
    """G, the n x n identity; Gp, G with rows 2i and 2i + 1 exchanged for
    each i; and one ``AlternatingCycle`` listing all n / 2 of their 4-cycles."""
    G = BipartiteGraph(np.eye(n, dtype=np.uint8))
    Gp = BipartiteGraph(np.eye(n, dtype=np.uint8)[[i ^ 1 for i in range(n)]])
    seq = tuple(e for i in range(0, n, 2)
                for e in ((i, i), (i, i + 1), (i + 1, i + 1), (i + 1, i)))
    return G, Gp, AlternatingCycle(seq, frozenset(seq[0::2]), frozenset(seq[1::2]))


# name: (l, cells on, cells off, message) for cell sets that are not one
# alternating cycle against the key that holds the cells on
NOT_ONE_CYCLE = {
    "a row with two cells on": (3, [(0, 0), (0, 1)], [(1, 0), (1, 1)], "on one side"),
    "a column with two cells off": (3, [(0, 1), (1, 2)], [(0, 0), (1, 0)], "on one side"),
    "on and off in different rows": (3, [(0, 0), (1, 1)], [(1, 0), (2, 1)], "same rows"),
    "on and off in different columns": (3, [(0, 0), (1, 1)], [(0, 1), (1, 2)], "same rows"),
    "no cells": (3, [], [], "same rows"),
    "two cycles of one length": (4, [(0, 0), (1, 1), (2, 2), (3, 3)],
                                 [(0, 1), (1, 0), (2, 3), (3, 2)], "several cycles"),
    "two cycles of different lengths": (5, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)],
                                        [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)],
                                        "several cycles"),
}


class TestCycleWalk:
    @pytest.mark.parametrize("n", [4, 6])
    def test_union_of_cycles_refused_at_the_frame(self, n):
        # n / 2 disjoint 4-cycles listed as one cycle: the frame refuses
        # them, so f_matrix builds no F view and cycle_swaps fails before
        # any bridge
        G, Gp, cyc = _two_by_two_blocks(n)
        with pytest.raises(CycleMismatch, match="several cycles"):
            CycleFrame.from_cycle(cyc, G)
        with pytest.raises(CycleMismatch, match="several cycles"):
            f_matrix(G, Gp, G, cyc)
        with pytest.raises(CycleMismatch, match="several cycles"):
            cycle_swaps(G, Gp, G, Gp, cyc)

    @pytest.mark.parametrize("name", sorted(NOT_ONE_CYCLE))
    def test_every_defect_rejected(self, name):
        # the walker refuses the cells, and so do the frame and a bridge
        # that read a cycle through it; the key holds one more edge, off
        # the cells, which the walker must ignore
        l, on, off, message = NOT_ONE_CYCLE[name]
        adj = np.zeros((l, l), dtype=np.uint8)
        for u, v in on + [(l - 1, 0)]:
            adj[u, v] = 1
        G = BipartiteGraph(adj)
        key, cells = _int(G.key()), _cell_mask(on + off, l)
        with pytest.raises(CycleMismatch, match=message):
            _cycle_walk(key, l, cells)
        with pytest.raises(CycleMismatch, match=message):
            _bridge(l, key, key ^ cells, {})
        cyc = AlternatingCycle(tuple(on + off), frozenset(on), frozenset(off))
        with pytest.raises(CycleMismatch, match=message):
            CycleFrame.from_cycle(cyc, G)

    def test_other_side_reads_the_cycle_backwards(self):
        # every cycle decompose gives for every pairing of 800 seeded pairs
        # of the 90-state space, 16,321 cycles, walked in decomposition
        # order: against the key with the cycle flipped the walker reads the
        # same cells in the opposite direction, and each frame's main cells
        # are on and its small cells off in its own key
        space = enumerate_states(BipartiteDegreeSequence((2,) * 4, (2,) * 4))
        assert space.n == 90
        rng = np.random.default_rng(37)
        l, walked = 4, 0

        def cells_in_order(us, vs):
            m = len(us)
            return [c for t in range(m) for c in ((us[t], vs[t]), (us[t], vs[(t + 1) % m]))]

        for _ in range(800):
            x, y = rng.choice(space.n, size=2, replace=False)
            X, Y = space.graph(int(x)), space.graph(int(y))
            for pairing in all_pairings(X, Y):
                key = _int(X.key())
                for cyc in pairings.decompose(X, Y, pairing).cycles:
                    cells = _cell_mask(cyc.edge_seq, l)
                    ahead = cells_in_order(*_cycle_walk(key, l, cells))
                    key ^= cells
                    back = cells_in_order(*_cycle_walk(key, l, cells))
                    assert set(ahead) == set(cyc.edge_seq) and len(ahead) == len(cyc)
                    back.reverse()
                    start = back.index(ahead[0])
                    assert back[start:] + back[:start] == ahead
                    for order, side in ((ahead, key ^ cells), (back[::-1], key)):
                        # even positions are the frame's main cells
                        assert all(bool(side >> 8 * (u * l + v) & 1) == (i % 2 == 0)
                                   for i, (u, v) in enumerate(order))
                    walked += 1
                assert key == _int(Y.key())
        assert walked == 16321


def _squares(k, l):
    """Every 2 x 2 one-factor of a k x l key, both ways round: its rows, its
    columns and its two cells that are on."""
    for u1, u2 in itertools.combinations(range(k), 2):
        for v1, v2 in itertools.combinations(range(l), 2):
            for on in (((u1, v1), (u2, v2)), ((u1, v2), (u2, v1))):
                yield [u1, u2], [v1, v2], on


class TestSquareRoute:
    """A 4-cycle, a 2 x 2 one-factor of the key, takes the direct route of
    ``_local_swaps``: its local problem is read off its four cells, and a
    miss stores its one swap without walking the cycle or solving it."""

    def test_direct_route_matches_both_solvers(self):
        # every one-factor of keys up to 16 x 16, the other cells drawn
        # once per shape: the route's rows, columns, swaps and memo entry
        # are the general route's, run by hand, with either solver
        from degswap.canonical import _eliminate_cycle, _local_bytes, _local_swaps, _solve_frame

        rng = np.random.default_rng(40)
        checked = 0
        for k, l in [(2, 2), (2, 16), (16, 2), (5, 7), (16, 16)]:
            rest = _int(rng.integers(0, 2, k * l, dtype=np.uint8).tobytes())
            for rows, cols, on in _squares(k, l):
                mask = _cell_mask([(u, v) for u in rows for v in cols], l)
                key = rest & ~mask | _cell_mask(on, l)
                memo = {}
                got = _local_swaps(key, l, mask, memo, None)
                local = _local_bytes(key.to_bytes(k * l, "little"), l, rows, cols)
                cells = _int(_local_bytes(mask.to_bytes(k * l, "little"), l, rows, cols))
                start = _int(local)
                frame = CycleFrame(*_cycle_walk(start, 2, cells))
                pattern = tuple(_solve_frame(start, 2, frame, start, {})[0])
                assert tuple(_eliminate_cycle(start, cells, frame)) == pattern
                assert got == (rows, cols, pattern)
                assert memo == {((2, 2), local, cells): pattern}
                checked += 1
        assert checked == 2 + 240 + 240 + 420 + 28800

    def test_direct_route_never_walks_or_solves(self, tmp_path, capsys):
        # no 4-cycle, as a bridge, a pattern or a bare local problem, walks
        # or solves; on the CI rows, x3 -> y3 bridges two 4-cycles and runs
        # no elimination, and v13 -> v30 (pairing 0) still eliminates one
        # 8-cell bridge
        from degswap import canonical
        from degswap.cli import main

        calls, sizes = Counter(), Counter()

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        real_bridge = canonical._bridge

        def sizing(l, key_a, key_b, bridges):
            sizes[(key_a ^ key_b).bit_count()] += 1
            return real_bridge(l, key_a, key_b, bridges)

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_cycle_walk", "_solve_frame", "_eliminate"):
                mp.setattr(canonical, name, counting(name, getattr(canonical, name)))
            solve = counting("solve", lambda *args: ())
            k, l = 4, 5
            for rows, cols, on in _squares(k, l):
                mask = _cell_mask([(u, v) for u in rows for v in cols], l)
                key = _cell_mask(on, l)
                ori = 1 if on[0] == (rows[0], cols[0]) else 2
                assert _bridge(l, key, key ^ mask, {}) == [(*rows, *cols, ori)]
                seg = canonical._key_segment({}, {}, l, key.to_bytes(k * l, "little"), mask)
                assert seg == (((key ^ mask).to_bytes(k * l, "little"),), ((*rows, *cols, ori),))
                assert canonical._local_swaps(key, l, mask, {}, solve)[2] == ((0, 1, 0, 1, ori),)
            assert calls == {}
            mp.setattr(canonical, "_bridge", sizing)
            ci_rows = {"x3": ("3 3\n110\n011\n101\n", "3 3\n101\n110\n011\n", [],
                              {4: 2}, {"_cycle_walk": 1, "_solve_frame": 1}),
                       "v13": ("4 4\n1011\n0101\n0110\n1000\n", "4 4\n1101\n0110\n1010\n0001\n",
                               ["--pairing-index", "0"], {4: 2, 8: 1},
                               {"_cycle_walk": 2, "_solve_frame": 1, "_eliminate": 1})}
            for name, (x, y, extra, bridged, solved) in ci_rows.items():
                calls.clear()
                sizes.clear()
                (tmp_path / "x").write_text(x)
                (tmp_path / "y").write_text(y)
                argv = ["canonical-path", str(tmp_path / "x"), str(tmp_path / "y"), "--certify"]
                assert main(argv + extra) == 0, name
                capsys.readouterr()
                assert (sizes, calls) == (bridged, solved), name


class TestHatMatrix:
    def test_cancellation(self):
        space = enumerate_states(BipartiteDegreeSequence((2, 2, 2), (3, 2, 1)))
        X, Y = space.graph(0), space.graph(1)
        assert (hat_matrix(X, Y, X) == Y.adj).all()
        assert (hat_matrix(X, Y, Y) == X.adj).all()

    def test_range_and_margins(self):
        space = enumerate_states(BipartiteDegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)),
                                 max_states=200)
        rng = np.random.default_rng(4)
        for _ in range(40):
            X, Y, Z = (space.graph(int(rng.integers(space.n))) for _ in range(3))
            h = hat_matrix(X, Y, Z)
            assert h.min() >= -1 and h.max() <= 2
            assert (h.sum(axis=1) == np.array(X.row_deg)).all()
            assert (h.sum(axis=0) == np.array(X.col_deg)).all()

    def test_read_only(self):
        space = enumerate_states(BipartiteDegreeSequence((2, 2, 2), (3, 2, 1)))
        h = hat_matrix(*graphs(space)[:3])
        assert h.dtype == np.int8
        with pytest.raises(ValueError):
            h[0, 0] = 0

    def test_integer_key_names_the_matrix(self):
        # congestion keys its certificates by x + y - z, the keys read as
        # little-endian integers: over every triple of the 27-state space,
        # equal integers go with equal hat matrices and back, and the
        # integer is symmetric in X and Y
        space = enumerate_states(BipartiteDegreeSequence((3, 3, 2, 1), (3, 2, 2, 2)))
        assert space.n == 27
        ints = [int.from_bytes(g.key(), "little") for g in graphs(space)]
        hat_of, key_of = {}, {}
        for x, y, z in itertools.product(range(space.n), repeat=3):
            key = ints[x] + ints[y] - ints[z]
            assert key == ints[y] + ints[x] - ints[z]
            hat = hat_matrix(space.graph(x), space.graph(y), space.graph(z)).tobytes()
            assert hat_of.setdefault(key, hat) == hat
            assert key_of.setdefault(hat, key) == key
        assert len(hat_of) == len(key_of) < 27 ** 3


# ---------------------------------------------------------------------------
# friendly paths / blocking sets
# ---------------------------------------------------------------------------


class TestFriendlyDichotomy:
    def test_random_instances_verified(self):
        rng = np.random.default_rng(10)
        for ell in (4, 5, 6, 7):
            for _ in range(120):
                types = random_types(ell, rng, float(rng.choice([0.2, 0.5, 0.8])))
                F = FMatrix.from_types(ell, types)
                res = find_friendly_path(F)
                if isinstance(res, FriendlyPath):
                    verify_friendly_path(res, F)
                else:
                    verify_steinhaus(res, F)
                    verify_same_state(F)

    def test_agreement_with_oracle(self):
        rng = np.random.default_rng(11)
        for ell in (4, 5, 6):
            for _ in range(60):
                types = random_types(ell, rng, float(rng.choice([0.3, 0.5, 0.7])))
                F = FMatrix.from_types(ell, types)
                res = find_friendly_path(F)
                assert isinstance(res, FriendlyPath) == friendly_path_exists(types, ell)

    def test_ring_blockers(self):
        # every ring-blocker typing with ell <= 12: the blocking ones give
        # their ring as the blocking set, the others a friendly path
        assert len(RING_BLOCKERS) == 40
        for ell in range(3, 13):
            for r0 in range(2, ell):
                F = FMatrix.from_types(ell, ring_blocker_types(ell, r0))
                res = find_friendly_path(F)
                if (ell, r0) not in RING_BLOCKERS:
                    verify_friendly_path(res, F)
                    continue
                assert res == SteinhausSet(frozenset((a, (a + r0) % ell) for a in range(ell)), ell)
                verify_steinhaus(res, F)
                if (ell, r0) not in NO_CUT_PATTERN:
                    verify_same_state(F)

    @pytest.mark.xfail(raises=SpecViolation, strict=True,
                       reason="blocking rings at ell - 2 admit no cut pattern")
    @pytest.mark.parametrize("ell, r0", NO_CUT_PATTERN)
    def test_ring_blockers_without_a_cut_pattern(self, ell, r0):
        verify_same_state(FMatrix.from_types(ell, ring_blocker_types(ell, r0)))

    def test_verify_friendly_path_rejects_tampering(self):
        # all chords type 0 at ell = 6: every chord is friendly, and the
        # shortest path runs through rings 5, 4, 3 and 2, one cell each
        ell = 6
        F = FMatrix.from_types(ell, {(a, b): 0 for a in range(ell) for b in range(ell)
                                     if ring((a, b), ell) >= 2})
        res = find_friendly_path(F)
        P = res.positions
        assert [ring(p, ell) for p in P] == [5, 4, 3, 2]
        verify_friendly_path(res, F)
        for positions, adjusted, clause in [
                (P[:1] + P[2:], res.adjusted, "is not a unit step"),
                (P + P[-2:-1], res.adjusted, "repeats a chord"),
                (P[1:], res.adjusted, "does not start next to the main diagonal"),
                (P[:-1], res.adjusted, "does not end next to the small diagonal"),
                (P, res.adjusted[::-1], "anchor sequence disagrees")]:
            with pytest.raises(SpecViolation, match=clause):
                verify_friendly_path(FriendlyPath(positions, adjusted, False), F)

    def test_verify_steinhaus_rejects_tampering(self):
        # ring 3 of ell = 9 blocks; a friendly chord added, two cells taken
        # out (two king components), or one taken out (a rook path through
        # the gap) each break one clause
        ell = 9
        F = FMatrix.from_types(ell, ring_blocker_types(ell, 3))
        res = find_friendly_path(F)
        T = res.positions
        verify_steinhaus(res, F)
        friendly = next(p for p in sorted(ring_blocker_types(ell, 3)) if F.is_friendly(p))
        for positions, clause in [(T | {friendly}, "is friendly"),
                                  (T - {(0, 3), (3, 6)}, "not king-connected"),
                                  (T - {(0, 3)}, "misses a rook path")]:
            with pytest.raises(SpecViolation, match=clause):
                verify_steinhaus(SteinhausSet(positions, ell), F)

    def test_all_type_one_dichotomy_only(self):
        # every chord type 1: asserted through the dichotomy, not hard-coded
        for ell in (4, 6, 7):
            types = {(a, b): 1 for a in range(ell) for b in range(ell)
                     if ring((a, b), ell) >= 2}
            F = FMatrix.from_types(ell, types)
            res = find_friendly_path(F)
            if isinstance(res, FriendlyPath):
                verify_friendly_path(res, F)
            else:
                verify_steinhaus(res, F)

    def test_length_one_flag(self):
        types = {(a, b): 1 for a in range(3) for b in range(3)
                 if ring((a, b), 3) >= 2}
        res = find_friendly_path(FMatrix.from_types(3, types))
        assert isinstance(res, FriendlyPath) and res.length_one

    def test_adjusted_positions_type_zero_identity(self):
        ell = 6
        types = {(a, b): 0 for a in range(ell) for b in range(ell)
                 if ring((a, b), ell) >= 2}
        F = FMatrix.from_types(ell, types)
        res = find_friendly_path(F)
        assert isinstance(res, FriendlyPath)
        assert adjusted_positions(res, F) == res.positions


# ---------------------------------------------------------------------------
# OK / KO steps
# ---------------------------------------------------------------------------


def _okko_environment(ell, seed, forced):
    rng = np.random.default_rng(seed)
    types = random_types(ell, rng, 0.5)
    types.update(forced)
    adj = np.zeros((ell, ell), np.uint8)
    for t in range(ell):
        adj[t, t] = 1
    for (a, b), ty in types.items():
        adj[a, b] = ty
    frame = CycleFrame(tuple(range(ell)), tuple(range(ell)))
    return BipartiteGraph(adj), frame


class TestOkKoStep:
    def test_identity(self):
        G, frame = _okko_environment(8, 0, {(2, 5): 1})
        spec = OKKOSpec("OK", (2, 5), frame)
        L = spec_realization(G, spec)
        assert ok_ko_step(L, spec, spec) == []

    def test_adjacent_ok_step_bound(self):
        G, frame = _okko_environment(10, 1, {(2, 6): 1, (1, 8): 1})
        s1, s2 = OKKOSpec("OK", (2, 6), frame), OKKOSpec("OK", (1, 8), frame)
        L1 = spec_realization(G, s1)
        swaps = ok_ko_step(L1, s1, s2)
        assert 0 < len(swaps) <= 24
        L2 = replay(L1, swaps)[-1]
        assert matches_spec(L2, s2)
        assert L2.adj[frame.cell_edge((2, 6))] == 1

    def test_ok_to_ko_bound(self):
        G, frame = _okko_environment(10, 2, {(2, 6): 1, (8, 1): 0})
        s1, s2 = OKKOSpec("OK", (2, 6), frame), OKKOSpec("KO", (8, 1), frame)
        L1 = spec_realization(G, s1)
        swaps = ok_ko_step(L1, s1, s2)
        assert 0 < len(swaps) <= 40
        assert matches_spec(replay(L1, swaps)[-1], s2)

    def test_ko_to_ko_step(self):
        G, frame = _okko_environment(10, 4, {(6, 2): 0, (8, 1): 0})
        s1, s2 = OKKOSpec("KO", (6, 2), frame), OKKOSpec("KO", (8, 1), frame)
        L1 = spec_realization(G, s1)
        swaps = ok_ko_step(L1, s1, s2)
        assert 0 < len(swaps) <= 24
        L2 = replay(L1, swaps)[-1]
        assert matches_spec(L2, s2)
        assert L2.adj[frame.cell_edge((6, 2))] == 0  # anchor back to type

    def test_ko_to_ok_step(self):
        G, frame = _okko_environment(10, 5, {(6, 2): 0, (1, 7): 1})
        s1, s2 = OKKOSpec("KO", (6, 2), frame), OKKOSpec("OK", (1, 7), frame)
        L1 = spec_realization(G, s1)
        swaps = ok_ko_step(L1, s1, s2)
        assert 0 < len(swaps) <= 40
        assert matches_spec(replay(L1, swaps)[-1], s2)

    def test_source_mismatch_rejected(self):
        G, frame = _okko_environment(8, 3, {(2, 5): 1, (1, 7): 1})
        s1, s2 = OKKOSpec("OK", (2, 5), frame), OKKOSpec("OK", (1, 7), frame)
        with pytest.raises(SpecViolation):
            ok_ko_step(G, s1, s2)  # G is the start state, not the OK pattern

    def test_frame_outside_the_graph_refused(self):
        # V-id 3 or 4 of a 3-column graph would read a cell of the next row,
        # and a repeated id would make the frame's mask sums carry
        G = BipartiteGraph([[1, 1, 1], [0, 1, 1], [1, 0, 0], [1, 0, 0]])
        bad = [CycleFrame((0, 1, 2), (2, 4, 3)), CycleFrame((0, 1, 4), (0, 1, 2)),
               CycleFrame((0, 0, 2), (0, 1, 2)), CycleFrame((0, 1, 2), (1, 1, 2)),
               CycleFrame((0, 1, 2), (0, 1)), CycleFrame((0, 1, -1), (0, 1, 2))]
        for frame in bad:
            spec = OKKOSpec("OK", (0, 2), frame)
            with pytest.raises(ShapeMismatch):
                matches_spec(G, spec)
            with pytest.raises(ShapeMismatch):
                ok_ko_step(G, spec, OKKOSpec("KO", (1, 0), frame))

    def test_matches_spec_reads_the_pattern_cells(self):
        # seeded 4 x 3 graphs against 3-frames, half of them drawn with ids
        # up to 4: a frame in the graph answers as the pattern read cell by
        # cell, and the graph set to the pattern matches; any other frame is
        # refused
        rng = np.random.default_rng(45)
        answered = refused = 0
        for trial in range(1000):
            G = BipartiteGraph((rng.random((4, 3)) < 0.5).astype(np.uint8))
            if trial % 2:
                us, vs = rng.permutation(4)[:3], rng.permutation(3)
            else:
                us, vs = rng.integers(0, 5, 3), rng.integers(0, 5, 3)
            frame = CycleFrame(tuple(us.tolist()), tuple(vs.tolist()))
            spec = OKKOSpec(("OK", "KO")[trial % 4 // 2], ((0, 2), (1, 0), (2, 1))[trial % 3],
                            frame)
            if not (len(set(frame.u_ids)) == len(set(frame.v_ids)) == 3
                    and max(frame.u_ids) < 4 and max(frame.v_ids) < 3):
                with pytest.raises(ShapeMismatch):
                    matches_spec(G, spec)
                refused += 1
                continue
            mains, smalls, anchor_val = spec.pattern()
            want = (all(G.adj[frame.main_edge(t)] == mains[t] for t in range(3))
                    and all(G.adj[frame.small_edge(t)] == smalls[t] for t in range(3))
                    and G.adj[frame.cell_edge(spec.anchor)] == anchor_val)
            assert matches_spec(G, spec) == want, (G.adj.tolist(), spec)
            assert matches_spec(spec_realization(G, spec), spec)
            answered += 1
        assert answered > 400 and refused > 400


# ---------------------------------------------------------------------------
# switch distance
# ---------------------------------------------------------------------------


class TestSwitchDistance:
    def test_zero_for_binary(self):
        binary = [[1, 0], [0, 1]]
        assert switch_distance(binary) == 0
        # answered before the margin check, yet a negative cap still exceeds
        assert switch_distance(binary, cap=-1) == naive_switch_distance(binary, cap=-1) \
            == Exceeds(-1)

    def test_single_switch(self):
        assert switch_distance([[2, 0], [0, 1]]) == 1

    def test_anchored_pattern_is_distance_one(self):
        # an OK pattern's three-term matrix against its own cycle pair holds
        # one entry 2 whose same-type cousin provides the switch
        G, Gp, cyc = _instance(6, 5, p=1.0)
        frame = CycleFrame.from_cycle(cyc, G)
        spec = OKKOSpec("OK", (1, 4), frame)
        L = spec_realization(G, spec)
        h = hat_matrix(G, Gp, L)
        assert h.max() == 2
        assert switch_distance(h) == 1

    def test_non_integer_entries_refused(self):
        # checked before the int64 cast, which would truncate 1.5 and read
        # "1" as 1: both came out at distance 0
        for bad in ([[1.5, 0], [0, 1]], [["1", "0"], ["0", "1"]],
                    [[Fraction(3, 2), 0], [0, 1]], [[float("nan"), 0], [0, 1]],
                    [[1e30, 0], [0, 1]]):
            with pytest.raises(ValueError, match="must be integers"):
                switch_distance(bad)
        # integer, bool and integral entries keep their answers
        assert switch_distance([[True, False], [False, True]]) == 0
        assert switch_distance(np.array([[2, 0], [0, 1]], np.uint8)) == 1
        assert switch_distance([[2.0, 0.0], [0.0, 1.0]]) == 1
        assert switch_distance([[Fraction(2), 0], [0, 1]]) == 1

    def test_exceeds_cap(self):
        assert switch_distance([[2, 0], [0, 1]], cap=0) == Exceeds(0)
        assert naive_switch_distance([[2, 0], [0, 1]], cap=0) == Exceeds(0)

    def test_entry_far_out_of_band(self):
        mat = [[300, -299], [-299, 300]]
        assert switch_distance(mat) == naive_switch_distance(mat) == Exceeds(6)

    def test_margin_mismatch(self):
        with pytest.raises(MarginMismatch):
            switch_distance([[2, 0], [0, 0]])

    @pytest.mark.parametrize("mat", [
        [1, 0, 1],                  # not a matrix
        np.zeros((0, 3), np.int64),
        np.zeros((3, 0), np.int64),
        # rows (3, 3, 0, 0) and columns (3, 1, 1, 1) fail Gale-Ryser at t = 2;
        # the deficiency 2 is above 4 * cap, yet the margins are reported
        [[3, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
    ])
    def test_margin_mismatch_before_search(self, mat):
        for fn in (switch_distance, naive_switch_distance):
            with pytest.raises(MarginMismatch):
                fn(mat, cap=0)

    @staticmethod
    def _margin_cases(family):
        if family == "2x2":
            return [np.array(v, np.int64).reshape(2, 2)
                    for v in itertools.product(range(-2, 4), repeat=4)]
        if family == "seeded":
            rng = np.random.default_rng(22)
            return [rng.integers(-1, 4, size=shape) for shape in [(3, 4), (4, 3)] * 1500]
        return [np.zeros((0, 3), np.int64), np.zeros((3, 0), np.int64)]

    @pytest.mark.parametrize("family, size, refusals", [
        ("2x2", 1296, 1220), ("seeded", 3000, 2970), ("empty", 2, 2)])
    def test_margin_decision_matches_sequence_oracle(self, family, size, refusals):
        # with cap 0 only the margin decision runs: good margins answer 0 or
        # Exceeds(0) before any search, so MarginMismatch is the decision
        cases = self._margin_cases(family)
        assert len(cases) == size
        refused = 0
        for mat in cases:
            try:
                switch_distance(mat, cap=0)
            except MarginMismatch:
                refused += 1
                assert not sequence_margins_ok(mat), mat.tolist()
            else:
                assert sequence_margins_ok(mat), mat.tolist()
        assert refused == refusals

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_plain_bfs(self, seed):
        # brute-force BFS over all switches, no anchoring, as the oracle
        from collections import deque
        from itertools import combinations

        rng = np.random.default_rng(seed)
        base = (rng.random((3, 3)) < 0.5).astype(np.int64)
        mat = base.copy()
        for _ in range(int(rng.integers(1, 3))):
            r = sorted(rng.choice(3, size=2, replace=False))
            c = sorted(rng.choice(3, size=2, replace=False))
            sign = 1 if rng.random() < 0.5 else -1
            mat[r[0], c[0]] += sign
            mat[r[1], c[1]] += sign
            mat[r[0], c[1]] -= sign
            mat[r[1], c[0]] -= sign
        seen = {mat.tobytes(): 0}
        queue = deque([mat])
        oracle = None
        while queue:
            cur = queue.popleft()
            d = seen[cur.tobytes()]
            if ((cur >= 0) & (cur <= 1)).all():
                oracle = d
                break
            if d >= 4:
                continue
            for rr in combinations(range(3), 2):
                for cc in combinations(range(3), 2):
                    for sign in (1, -1):
                        nxt = cur.copy()
                        nxt[rr[0], cc[0]] += sign
                        nxt[rr[1], cc[1]] += sign
                        nxt[rr[0], cc[1]] -= sign
                        nxt[rr[1], cc[0]] -= sign
                        if nxt.min() >= -2 and nxt.max() <= 3 and nxt.tobytes() not in seen:
                            seen[nxt.tobytes()] = d + 1
                            queue.append(nxt)
        got = switch_distance(mat, cap=4)
        if oracle is None:
            assert isinstance(got, Exceeds)
        else:
            assert got == oracle


class TestSwitchDistanceMatchesRescan:
    """The pruned search against ``oracles.naive_switch_distance``, which
    enters every child and rescans its matrix."""

    def test_random_switched_matrices(self):
        rng = np.random.default_rng(8080)
        seen = set()
        for _ in range(2000):
            k, l = (int(x) for x in rng.integers(2, 7, size=2))
            mat = (rng.random((k, l)) < rng.random()).astype(np.int64)
            for _ in range(int(rng.integers(0, 5))):
                r = rng.choice(k, size=2, replace=False)
                c = rng.choice(l, size=2, replace=False)
                sign = 1 if rng.random() < 0.5 else -1
                mat[r[0], c[0]] += sign
                mat[r[1], c[1]] += sign
                mat[r[0], c[1]] -= sign
                mat[r[1], c[0]] -= sign
            cap = int(rng.integers(0, 6))
            got = switch_distance(mat, cap=cap)
            assert got == naive_switch_distance(mat, cap=cap), (mat.tolist(), cap)
            seen.add(got if isinstance(got, int) else "exceeds")
        assert {0, 1, 2, 3, "exceeds"} <= seen

    def test_hats_along_certified_16x16_paths(self):
        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        certs = []
        for p in range(16):
            X, Y = chain.sample(ds, 1000, 800 + 2 * p), chain.sample(ds, 1000, 801 + 2 * p)
            states, path_certs = canonical_path(X, Y, random_pairing(X, Y, p), certify=True)
            for Z, cert in zip(states, path_certs):
                hat = hat_matrix(X, Y, Z)
                assert cert == naive_switch_distance(hat, cap=6)
            certs += path_certs
        assert 2 in certs

    def test_hats_of_certified_v_regular_congestion(self):
        # every three-term matrix the certified 48-state congestion scores,
        # including the one at certificate 3, read off the paths of both
        # directions that its pair loop yields once per unordered pair: the
        # hat X + Y - Z is symmetric in X and Y
        space = enumerate_states(BipartiteDegreeSequence((3, 2, 2, 1), (2, 2, 2, 2)))
        hats = {}
        all_states = graphs(space)
        for xi, yi, _, paths in _routes(space):
            X, Y = all_states[xi], all_states[yi]
            for z in set().union(*paths):
                hat = hat_matrix(X, Y, all_states[z])
                hats.setdefault(hat.tobytes(), hat)
        certs = []
        for hat in hats.values():
            got = switch_distance(hat, cap=6)
            assert got == naive_switch_distance(hat, cap=6), hat.tolist()
            certs.append(got)
        assert max(certs) == 3


class TestSwitchDistancesBatch:
    """``canonical._switch_distances`` decides a stack of matrices that
    share their margins; it must give ``switch_distance`` layer by layer,
    and ``oracles.naive_switch_distance``, on every stack, and leave to
    its search, ``canonical._search``, only the layers at distance 2 or
    more whose deficiency is within four times the cap."""

    @staticmethod
    def check(hats) -> list:
        from degswap import canonical

        searched, real = [], canonical._search

        def searching(mat, deficiency, cap):
            searched.append(mat.astype(np.int8).tobytes())
            return real(mat, deficiency, cap)

        stack = np.asarray(hats, np.int8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(canonical, "_search", searching)
            got = _switch_distances(stack)
        assert got == [switch_distance(h) for h in hats]
        assert got == [naive_switch_distance(h, cap=6) for h in hats]
        assert searched == [h.tobytes() for h, sd in zip(stack, got)
                            if sd not in (0, 1) and (np.abs(2 * h - 1) - 1).sum() // 2 <= 4 * 6]
        return got

    @staticmethod
    def switched(base, switches):
        mat = np.array(base, np.int64)
        for r, c, r2, c2, sign in switches:
            mat[r, c] += sign
            mat[r2, c2] += sign
            mat[r, c2] -= sign
            mat[r2, c] -= sign
        return mat

    def test_hats_of_certified_congestion(self, monkeypatch):
        # every distinct hat that certified congestion scores on the 48U,
        # 48V and 90-state spaces, as the stacks it passes
        from degswap import canonical
        from degswap.mixing import congestion

        real, stacks = canonical._switch_distances, []

        def recording(hats, *cap):
            stacks.append(hats)
            return real(hats, *cap)

        monkeypatch.setattr(canonical, "_switch_distances", recording)
        maxima, certs = [], set()
        for a, b in [((2, 2, 2, 2), (3, 2, 2, 1)), ((3, 2, 2, 1), (2, 2, 2, 2)),
                     ((2, 2, 2, 2), (2, 2, 2, 2))]:
            stacks.clear()
            congestion(enumerate_states(BipartiteDegreeSequence(a, b)))
            space_certs = self.check(np.concatenate(stacks))
            maxima.append(max(space_certs))
            certs.update(space_certs)
        assert maxima == [2, 3, 1]
        assert certs == {0, 1, 2, 3}

    def test_hats_along_certified_16x16_paths(self):
        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        certs = []
        for p in range(20):
            X, Y = chain.sample(ds, 1000, 900 + 2 * p), chain.sample(ds, 1000, 901 + 2 * p)
            states, path_certs = canonical_path(X, Y, random_pairing(X, Y, p), certify=True)
            assert self.check([hat_matrix(X, Y, Z) for Z in states]) == path_certs
            certs += path_certs
        assert {0, 1, 2} <= set(certs)

    def test_planted_stacks(self):
        # switches planted on one 8 x 8 0-1 matrix keep its margins: every
        # stack below mixes 0-1 layers, layers at distance 1 and 2 (one of
        # them at deficiency <= 4, which the broadcast refuses), layers above
        # deficiency 4 and one past the cap
        base = np.array([[int((c - r) % 8 < 3) for c in range(8)] for r in range(8)])
        # four switches on disjoint rows, each made twice, that push 1s to 3
        # and 0s to -2: deficiency 32 > 4 * 6
        past = self.switched(base, [(r, r, r + 1, (r + 3) % 8, 1)
                                    for r in (0, 2, 4, 6) for _ in range(2)])
        rng = np.random.default_rng(2828)
        seen = set()
        for _ in range(60):
            layers = [past]
            for _ in range(int(rng.integers(4, 10))):
                switches = []
                for _ in range(int(rng.integers(0, 4))):
                    r, r2 = rng.choice(8, size=2, replace=False).tolist()
                    c, c2 = rng.choice(8, size=2, replace=False).tolist()
                    switches.append((r, c, r2, c2, 1 if rng.random() < 0.5 else -1))
                layers.append(self.switched(base, switches))
            order = rng.permutation(len(layers))
            hats = [layers[i] for i in order]
            for hat, cert in zip(hats, self.check(hats)):
                deficiency = int((np.abs(2 * hat - 1) - 1).sum()) // 2
                seen.add((cert if isinstance(cert, int) else "past", deficiency <= 4))
        assert {(0, True), (1, True), (2, True), (2, False), ("past", False)} <= seen

    @pytest.mark.parametrize("hats", [
        np.zeros((1, 0, 3), np.int8),
        np.zeros((2, 3, 0), np.int8),
        # rows (2, 0) and columns (2, 0) fail Gale-Ryser, in both layers
        np.array([[[2, 0], [0, 0]], [[1, 1], [1, -1]]], np.int8),
    ])
    def test_empty_and_unrealizable_stacks_raise(self, hats):
        with pytest.raises(MarginMismatch):
            _switch_distances(hats)
        for hat in hats:
            for fn in (switch_distance, naive_switch_distance):
                with pytest.raises(MarginMismatch):
                    fn(hat)


# ---------------------------------------------------------------------------
# paths along cycles
# ---------------------------------------------------------------------------


class TestPathAlongCycle:
    def test_four_cycle_single_swap(self):
        G, Gp, cyc = _instance(2, 0)
        states = path_along_cycle(G, Gp, G, Gp, cyc)
        assert len(states) == 2 and states[-1] == Gp

    def test_random_instances_replay(self):
        rng = np.random.default_rng(20)
        for ell in range(3, 9):
            for _ in range(25):
                G, Gp, cyc = cycle_graph_pair(
                    ell, random_types(ell, rng, float(rng.choice([0.2, 0.5, 0.8]))))
                states = path_along_cycle(G, Gp, G, Gp, cyc)
                assert states[-1] == Gp
                for g in states:
                    assert g.row_deg == G.row_deg and g.col_deg == G.col_deg

    def test_blocked_instances_replay(self):
        # every blocking ring-blocker typing with ell <= 12 that admits a
        # cut pattern (RING_BLOCKERS, NO_CUT_PATTERN)
        for ell, r0 in RING_BLOCKERS:
            if (ell, r0) in NO_CUT_PATTERN:
                continue
            G, Gp, cyc = cycle_graph_pair(ell, ring_blocker_types(ell, r0))
            states = path_along_cycle(G, Gp, G, Gp, cyc)
            assert states[-1] == Gp

    @pytest.mark.xfail(raises=SpecViolation, strict=True,
                       reason="blocking rings at ell - 2 admit no cut pattern")
    @pytest.mark.parametrize("ell, r0", NO_CUT_PATTERN)
    def test_blocked_instances_without_a_cut_pattern_replay(self, ell, r0):
        G, Gp, cyc = cycle_graph_pair(ell, ring_blocker_types(ell, r0))
        assert path_along_cycle(G, Gp, G, Gp, cyc)[-1] == Gp

    def test_nested_blocked_instance(self):
        # two unfriendly rings force a split whose second block is itself
        # blocked, driving the interleaved recursion one level deeper
        ell = 12
        types = {(a, b): 0 if (b - a) % ell in (3, 5) else 1
                 for a in range(ell) for b in range(ell) if (b - a) % ell >= 2}
        F = FMatrix.from_types(ell, types)
        res = find_friendly_path(F)
        assert isinstance(res, SteinhausSet)
        G, Gp, cyc = cycle_graph_pair(ell, types)
        states = path_along_cycle(G, Gp, G, Gp, cyc)
        assert states[-1] == Gp
        assert len(states) - 1 <= 2 * ell

    def test_cycle_cache_keyed_by_shape(self):
        # A 3x8 and a 4x6 graph with the same bytes, both holding this 6-cycle
        # but with different chords, so their swap sequences differ.  (A 2-row
        # graph only holds 4-cycles, whose single swap ignores the shape.)
        # Nothing is cached across calls, so neither order can leak one
        # shape's sequence into the other.
        bits = np.array([1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1,
                         0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1], np.uint8)
        x_edges = frozenset({(0, 0), (1, 1), (2, 2)})
        y_edges = frozenset({(0, 1), (1, 2), (2, 0)})
        cyc = AlternatingCycle(((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)),
                               x_edges, y_edges)
        (G1, Gp1), (G2, Gp2) = [
            (G, G.with_edges(sorted(x_edges), sorted(y_edges)))
            for G in (BipartiteGraph(bits.reshape(3, 8)), BipartiteGraph(bits.reshape(4, 6)))]
        assert G1.key() == G2.key()
        first_2 = cycle_swaps(G2, Gp2, G2, Gp2, cyc)
        then_1 = cycle_swaps(G1, Gp1, G1, Gp1, cyc)
        first_1 = cycle_swaps(G1, Gp1, G1, Gp1, cyc)
        then_2 = cycle_swaps(G2, Gp2, G2, Gp2, cyc)
        assert first_1 == then_1 and first_2 == then_2
        assert first_1 != first_2
        assert replay(G1, first_1)[-1] == Gp1
        assert replay(G2, first_2)[-1] == Gp2

    def test_environment_disjointness_enforced(self):
        # an environment differing from G on the cycle cells themselves
        # violates the pairwise-disjointness precondition
        G, Gp, cyc = _instance(5, 21)
        with pytest.raises(PreconditionViolation):
            path_along_cycle(G, Gp, Gp, Gp, cyc)

    def test_certificates_stay_small_with_environments(self):
        rng = np.random.default_rng(22)
        for ell in (4, 6, 8):
            for _ in range(10):
                G, Gp, cyc = cycle_graph_pair(ell, random_types(ell, rng, 0.5))
                pool_x, pool_y = split_environment_pools(ell, cyc.edge_seq, rng)
                X = perturbed_environment(G, cyc.edge_seq, pool_x, rng)
                Y = perturbed_environment(Gp, cyc.edge_seq, pool_y, rng)
                for Z in path_along_cycle(G, Gp, X, Y, cyc):
                    sd = switch_distance(hat_matrix(X, Y, Z), cap=6)
                    assert isinstance(sd, int) and sd <= 3


# ---------------------------------------------------------------------------
# full canonical paths
# ---------------------------------------------------------------------------


class TestCanonicalPath:
    def test_identity(self):
        space = enumerate_states(BipartiteDegreeSequence((2, 2, 2), (3, 2, 1)))
        X = space.graph(0)
        s = next(all_pairings(X, X))
        assert canonical_path(X, X, s) == [X]

    def test_single_cycle_is_one_swap(self):
        m1 = BipartiteGraph([[1, 0], [0, 1]])
        m2 = BipartiteGraph([[0, 1], [1, 0]])
        s = next(all_pairings(m1, m2))
        assert len(canonical_path(m1, m2, s)) == 2

    def test_fixed_points_hit(self):
        # two disjoint 4-cycles: the path must pass through X with exactly
        # the first cycle flipped
        X = BipartiteGraph([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        Y = BipartiteGraph([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        for s in all_pairings(X, Y):
            from degswap import decompose
            dec = decompose(X, Y, s)
            states = canonical_path(X, Y, s)
            cur = X
            fixed = [cur.key()]
            for cyc in dec.cycles:
                cur = cur.with_edges(sorted(cyc.x_edges), sorted(cyc.y_edges))
                fixed.append(cur.key())
            keys = [g.key() for g in states]
            for fk in fixed:
                assert fk in keys
            assert states[-1] == Y

    def test_pairing_mismatch(self):
        m1 = BipartiteGraph([[1, 0], [0, 1]])
        m2 = BipartiteGraph([[0, 1], [1, 0]])
        s = next(all_pairings(m1, m2))
        other = BipartiteGraph([[1, 1], [1, 1]])
        with pytest.raises(PairingMismatch):
            canonical_path(other, other, s)

    def test_path_distribution_sums_to_one(self):
        from oracles import cycle_graph_pair
        X = BipartiteGraph([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        Y = BipartiteGraph([[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]])
        dist = path_distribution(X, Y)
        assert sum(dist.values()) == 1
        for p in dist.values():
            assert p.denominator in (1, 2)

    def test_too_many_pairings_guard(self, monkeypatch):
        from degswap import pairings
        X = BipartiteGraph([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        Y = BipartiteGraph([[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]])
        monkeypatch.setattr(pairings, "_MAX_PAIRINGS", 1)
        with pytest.raises(TooManyPairings, match="2 pairings exceed the guard 1"):
            path_distribution(X, Y)

    def test_path_distribution_matches_single_paths(self):
        # path_distribution shares one segment cache across its pairings;
        # canonical_path builds each path afresh
        X = BipartiteGraph([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        Y = BipartiteGraph([[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]])
        counts = {}
        for s in all_pairings(X, Y):
            gamma = tuple(g.key() for g in canonical_path(X, Y, s))
            counts[gamma] = counts.get(gamma, 0) + 1
        total = sum(counts.values())
        assert path_distribution(X, Y) == {g: Fraction(c, total) for g, c in counts.items()}

    @pytest.mark.parametrize("a, b, n_pairs", [((2, 2, 2), (2, 2, 2), None),
                                               ((2, 2, 2, 2), (3, 2, 2, 1), 300),
                                               ((3, 3, 2), (2, 2, 2, 1, 1), 300),
                                               ((2, 2, 2, 1, 1), (3, 3, 2), 300)])
    def test_path_distribution_and_id_walk_match_the_reference(self, a, b, n_pairs):
        # path_distribution, with memos fresh for each pair, and congestion's
        # pair loop, mixing._routes, which walks both directions of each
        # unordered pair on state ids, with one segment table shared across
        # the pairs, give the distribution of the paths
        # built cycle by cycle on the full graphs by path_along_cycle, one
        # per pairing: every ordered pair of the 6-state space and seeded
        # pairs of the 48-state space and of the 31-state 3 x 5 space and
        # its 5 x 3 transpose, where a cell's row c // l and column c % l
        # differ from a square space's
        space = enumerate_states(BipartiteDegreeSequence(a, b))
        pairs = [(x, y) for x in range(space.n) for y in range(space.n) if x != y]
        if n_pairs is not None:
            rng = np.random.default_rng(18)
            pairs = [pairs[i] for i in rng.choice(len(pairs), n_pairs, replace=False)]
        by_ids = {}
        for _, _, total, paths in _routes(space):
            for ids, (c, _) in paths.items():
                by_ids.setdefault((ids[0], ids[-1]), {})[ids] = Fraction(c, total)
        for xi, yi in pairs:
            X, Y = space.graph(xi), space.graph(yi)
            counts = {}
            for s in all_pairings(X, Y):
                gamma = tuple(g.key() for g in reference_path(X, Y, s))
                counts[gamma] = counts.get(gamma, 0) + 1
            total = sum(counts.values())
            reference = {gamma: Fraction(c, total) for gamma, c in counts.items()}
            assert path_distribution(X, Y) == reference, (xi, yi)
            assert {tuple(space.graph(i).key() for i in ids): f
                    for ids, f in by_ids[xi, yi].items()} == reference, (xi, yi)

    @pytest.mark.parametrize("mangle", [lambda entries: entries + entries[:1],
                                        lambda entries: entries[1:]])
    def test_decomposition_checked_once_per_pairing(self, monkeypatch, mangle):
        # a decomposition whose cycles overlap, or miss part of X xor Y, is
        # refused before any cycle is walked, by both entry points
        X = BipartiteGraph([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        Y = BipartiteGraph([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        s = next(all_pairings(X, Y))
        real = pairings._cut
        monkeypatch.setattr(pairings, "_cut", lambda *args: mangle(real(*args)))
        with pytest.raises(PreconditionViolation):
            canonical_path(X, Y, s)
        with pytest.raises(PreconditionViolation):
            path_distribution(X, Y)

    def test_walk_caches_segments_and_checks_landing(self):
        # the one walker, _path_counts: one lift per (state, cycle) of its
        # segment table, each distinct path once with the pairings that
        # select it, and a path that misses its end is refused
        from degswap import canonical

        a, b = 1, 2         # two cell masks
        calls = []

        def lift(state, mask):
            calls.append((state, mask))
            return (state + 1, state + 2), "codes"

        segments = {}
        lists = {(a, b): 2, (b, b): 3, (a, a): 1}
        path = (0, 1, 2, 3, 4)
        counts = canonical._path_counts(0, 4, lists, segments, lift)
        assert counts == {path: [6, [segments[0, a], segments[2, b]]]}
        assert canonical._path_counts(0, 4, {(a, b): 1}, segments, lift) == {
            path: [1, counts[path][1]]}
        assert calls == [(0, a), (2, b), (0, b), (2, a)]
        assert segments[0, b] == ((1, 2), "codes") and len(segments) == 4
        with pytest.raises(SpecViolation):
            canonical._path_counts(0, 3, {(a, b): 1}, segments, lift)

    def test_key_segment_checks_each_swap(self):
        # a memoized swap whose cells do not hold the one-factor it removes
        # is refused before its bytes flip, as apply_swap refuses it (the
        # landing check is test_mixing's test_segment_landing_checked)
        from degswap.canonical import _key_segment

        X = BipartiteGraph([[1, 0], [0, 1]])
        Y = BipartiteGraph([[0, 1], [1, 0]])
        (cyc,) = next(pairings._decompositions(X.key(), Y.key(), 2, {})[1])
        patterns = {}
        assert _key_segment(patterns, {}, 2, X.key(), cyc) == ((Y.key(),), ((0, 1, 0, 1, 1),))
        ((pattern, swaps),) = patterns.items()
        patterns[pattern] = tuple((u1, u2, v1, v2, 3 - ori) for u1, u2, v1, v2, ori in swaps)
        with pytest.raises(SwapNotAllowed):
            _key_segment(patterns, {}, 2, X.key(), cyc)

    def test_local_pattern_swaps_lift_to_the_full_solve(self):
        # walking each decomposition's cycles, the swaps solved on the
        # cycle's m x m pattern (or taken from the memo) and lifted through
        # rows and cols are the swaps of the solve on the full graphs; and
        # canonical_path's states and certificates are those of the path
        # built cycle by cycle on the full graphs by path_along_cycle
        from degswap.canonical import _pattern_swaps, _solve_cycle

        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        memo = {}
        sizes = []
        for p in range(20):
            X, Y = chain.sample(ds, 1000, 900 + 2 * p), chain.sample(ds, 1000, 901 + 2 * p)
            pairing = random_pairing(X, Y, p)
            G = X
            reference = [X]
            for cyc in pairings.decompose(X, Y, pairing).cycles:
                target = G.with_edges(sorted(cyc.x_edges), sorted(cyc.y_edges))
                rows, cols, local = _pattern_swaps(_int(G.key()), G.l,
                                                   _cell_mask(cyc.edge_seq, G.l), memo, {})
                lifted = tuple((rows[u1], rows[u2], cols[v1], cols[v2], ori)
                               for u1, u2, v1, v2, ori in local)
                assert lifted == _solve_cycle(G, target, cyc, {}), (p, cyc.edge_seq)
                reference += path_along_cycle(G, target, X, Y, cyc)[1:]
                sizes.append(len(rows))
                G = target
            assert G == Y
            states, certs = canonical_path(X, Y, pairing, certify=True)
            assert states == reference, p
            assert certs == [switch_distance(hat_matrix(X, Y, Z)) for Z in reference], p
        assert max(sizes) >= 8
        assert len(memo) < len(sizes)

    def test_pattern_memo_keeps_row_and_column_order(self):
        # chord layouts of one 10-cycle whose matrices are row or column
        # permutations of each other share every order-free summary, yet
        # their solves differ; through one memo each gets its own solve
        from degswap.canonical import _pattern_swaps, _solve_cycle

        m = 5
        rng = np.random.default_rng(12)
        layouts = set()
        for _ in range(30):
            G, _, _ = cycle_graph_pair(m, random_types(m, rng, 0.5))
            for perm in itertools.permutations(range(m)):
                for adj in (G.adj[list(perm)], G.adj[:, list(perm)]):
                    if all(adj[t, t] and not adj[t, (t + 1) % m] for t in range(m)):
                        layouts.add(adj.tobytes())
        memo = {}
        by_rows = {}
        for layout in sorted(layouts):
            adj = np.frombuffer(layout, np.uint8).reshape(m, m)
            G, H, cyc = cycle_graph_pair(m, {(a, b): int(adj[a, b]) for a in range(m)
                                             for b in range(m) if ring((a, b), m) >= 2})
            rows, cols, local = _pattern_swaps(_int(G.key()), G.l, _cell_mask(cyc.edge_seq, G.l),
                                               memo, {})
            assert rows == cols == list(range(m))
            assert local == _solve_cycle(G, H, cyc, {}), adj.tolist()
            by_rows.setdefault(tuple(sorted(map(bytes, adj))), set()).add(local)
        assert len(memo) == len(layouts)
        assert any(len(solves) > 1 for solves in by_rows.values())

    def test_bridge_memo_is_exact_and_call_scoped(self):
        # seeded 16 x 16 4-regular pairs: one call solves each local bridge
        # problem once, a repeated call solves them all again, and a run in
        # which every bridge misses gives the same states and certificates
        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        pairs = [(chain.sample(ds, 1000, 700 + 2 * p), chain.sample(ds, 1000, 701 + 2 * p))
                 for p in range(8)]
        with pytest.MonkeyPatch.context() as mp:
            calls = count_ryser(mp)

            def solve(p):
                X, Y = pairs[p]
                calls[0] = 0
                return canonical_path(X, Y, random_pairing(X, Y, p), certify=True), calls[0]

            memoized = [solve(p) for p in range(8) for _ in range(2)]
            never_memoize_bridges(mp)
            unmemoized = [solve(p) for p in range(8)]
        assert [path for path, _ in memoized] == [path for path, _ in unmemoized
                                                  for _ in range(2)]
        assert [n for _, n in memoized] == [1, 1, 1, 1, 2, 2, 3, 3, 2, 2, 2, 2, 1, 1, 3, 3]
        # the pattern memo still serves every cycle whose local pattern
        # repeats within the call, so such a hit skips that cycle's bridges;
        # 208 of the 224 bridges differ in four cells and eliminate nothing
        assert [n for _, n in unmemoized] == [1, 2, 2, 3, 2, 2, 1, 3]
        # of those 224 bridges per call, a miss (the memo grows by one)
        # walks its one cycle unless it is a 4-cycle, and a hit walks none
        from degswap import canonical

        walks, per_bridge = [0], Counter()
        real_walk, real_bridge = canonical._cycle_walk, canonical._bridge

        def walking(*args):
            walks[0] += 1
            return real_walk(*args)

        def bridging(l, key_a, key_b, bridges):
            size, before = len(bridges), walks[0]
            out = real_bridge(l, key_a, key_b, bridges)
            per_bridge[len(bridges) - size, walks[0] - before] += 1
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(canonical, "_cycle_walk", walking)
            mp.setattr(canonical, "_bridge", bridging)
            for p, (X, Y) in enumerate(pairs):
                canonical_path(X, Y, random_pairing(X, Y, p))
        assert per_bridge == {(1, 1): 15, (1, 0): 16, (0, 0): 193}

    def test_certified_path(self):
        space = enumerate_states(BipartiteDegreeSequence((2, 2, 2), (3, 2, 1)))
        X, Y = space.graph(0), space.graph(2)
        s = next(all_pairings(X, Y))
        states, certs = canonical_path(X, Y, s, certify=True)
        assert len(states) == len(certs)
        assert all(isinstance(c, int) and c <= 2 for c in certs)


class TestCertifiedStack:
    """``canonical_path(certify=True)`` stacks the walked keys once and
    certifies every layer off that stack; it must give the states of the
    uncertified call and the certificates ``switch_distance(hat_matrix)``
    gives state by state."""

    @staticmethod
    def check(X, Y, pairing) -> list:
        states, certs = canonical_path(X, Y, pairing, certify=True)
        assert states == canonical_path(X, Y, pairing)
        assert certs == [switch_distance(hat_matrix(X, Y, Z)) for Z in states]
        return certs

    def test_drawn_and_pinned_16x16_pairs(self):
        # two of the pinned pairs take a blocked branch
        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        certs = []
        for p in range(12):
            X, Y = chain.sample(ds, 1000, 600 + 2 * p), chain.sample(ds, 1000, 601 + 2 * p)
            certs += self.check(X, Y, random_pairing(X, Y, p))
        for name in sorted(PINNED_16):
            X, Y = pinned_pair(name)
            certs += self.check(X, Y, random_pairing(X, Y, 5))
        assert {0, 1, 2} <= set(certs)

    def test_every_pair_of_the_v_regular_space(self):
        # the 48-state space 3 2 2 1 | 2 2 2 2, whose certificates reach 3,
        # each ordered pair through its first pairing
        space = enumerate_states(BipartiteDegreeSequence((3, 2, 2, 1), (2, 2, 2, 2)))
        states = graphs(space)
        certs = set()
        for X in states:
            for Y in states:
                certs.update(self.check(X, Y, next(all_pairings(X, Y))))
        assert certs == {0, 1, 2, 3}

    def test_certified_work_leaves_no_cyclic_garbage(self):
        # certified 48V congestion and the certified 16 x 16 path whose one
        # hat at 2 goes to the search (chain.sample seeds 20259 and 20272,
        # pairing seed 14) free everything by reference counting: with the
        # collector off and every unreachable object kept, it finds none
        import gc

        from degswap.mixing import congestion

        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        X, Y = chain.sample(ds, 1000, 20259), chain.sample(ds, 1000, 20272)
        space = enumerate_states(BipartiteDegreeSequence((3, 2, 2, 1), (2, 2, 2, 2)))
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert congestion(space).max_switch_distance == 3
            _, certs = canonical_path(X, Y, random_pairing(X, Y, 14), certify=True)
            assert max(certs) == 2
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert garbage == []

    def test_states_are_read_only(self):
        ds = BipartiteDegreeSequence((4,) * 16, (4,) * 16)
        X, Y = chain.sample(ds, 1000, 600), chain.sample(ds, 1000, 601)
        for certify in (False, True):
            path = canonical_path(X, Y, random_pairing(X, Y, 0), certify=certify)
            states = path[0] if certify else path
            assert len(states) > 2
            for Z in states:
                assert not Z.adj.flags.writeable
                with pytest.raises(ValueError):
                    Z.adj[0, 0] = 1 - Z.adj[0, 0]

    def test_state_off_the_margins_raises(self, monkeypatch):
        # a walk that leaves X's margins is refused when certified
        from degswap import canonical

        X, Y = BipartiteGraph([[1, 0], [0, 1]]), BipartiteGraph([[0, 1], [1, 0]])
        pairing = next(all_pairings(X, Y))
        real = canonical._path_counts

        def off_margins(*args):
            ((keys, entry),) = real(*args).items()
            return {(keys[0], bytes([1, 1, 0, 1]), *keys[1:]): entry}

        monkeypatch.setattr(canonical, "_path_counts", off_margins)
        assert len(canonical_path(X, Y, pairing)) == 3
        with pytest.raises(DegreeMismatch):
            canonical_path(X, Y, pairing, certify=True)
