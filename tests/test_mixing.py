import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from degswap import (BipartiteDegreeSequence, BipartiteGraph, canonical, canonical_path, chain,
                     cli, mixing, pairings)
from degswap.chain import pair_count
from degswap.core import is_graphical
from degswap.errors import (DegenerateChain, Exceeds, NonMixing, PreconditionViolation,
                            SpecViolation, TooLarge)
from degswap.mixing import (CongestionReport, StateSpace, TransitionMatrix,
                            build_kernel, congestion, count_realizations,
                            enumerate_states, spectral_gap, total_variation_time,
                            tv_mixing_time)

from oracles import (PINNED_16, all_degree_pairs, brute_margin_count, count_ryser, csr,
                     dense_distance_profile, dense_kernel_rows, dense_total_variation,
                     full_deviations, graphs, kernel_rows, naive_congestion, naive_enumerate,
                     naive_segment, neighbour_rows, never_memoize_bridges, ordered_congestion,
                     pinned_pair)


def bds(a, b):
    return BipartiteDegreeSequence(tuple(a), tuple(b))


def distances(K, measure, count):
    """The distances ``dev / (2 * N * D^t)`` for t = 0 .. count - 1 of one
    ``mixing._decay`` scan: half the largest entrywise deviation from
    uniform under ``mixing._entrywise``, worst-start total variation under
    ``mixing._total``."""
    return [Fraction(dev, 2 * K.n * scale)
            for dev, scale, _ in itertools.islice(mixing._decay(K, measure), count)]


class TestEnumeration:
    def test_two_matchings(self):
        assert enumerate_states(bds((1, 1), (1, 1))).n == 2

    def test_permutation_matrices(self):
        assert enumerate_states(bds((1, 1, 1), (1, 1, 1))).n == 6

    def test_semi_regular_instance(self):
        ds = bds((2, 2, 2), (3, 2, 1))
        assert enumerate_states(ds).n == brute_margin_count(ds.a, ds.b) == 3

    def test_too_large_guard(self):
        with pytest.raises(TooLarge):
            enumerate_states(bds((2, 2, 2, 2), (2, 2, 2, 2)), max_states=10)

    def test_canonical_order(self):
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        keys = [g.key() for g in graphs(space)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("a, b", [
        # shapes beyond the 4 x 4 sweep below: 1 x n, n x 1, zero degrees,
        # rows wider than one byte, and the 1,170- and 2,040-state spaces
        ((7,), (1,) * 7), ((1,) * 7, (7,)), ((4,), (1, 1, 1, 1, 0, 0)),
        ((0,) * 6, (0,)), ((3, 2, 1, 0, 0), (2, 1, 1, 1, 1, 0)),
        ((2, 2), (1,) * 4 + (0,) * 6), ((3, 3, 2), (1,) * 8 + (0,) * 3),
        ((3, 2, 2, 2, 1), (2, 2, 2, 2, 2)), ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2)),
        # keys of more than one word: 66 cells (560 states), and rows of 65
        ((3, 3, 2), (1,) * 8 + (0,) * 14), ((1, 1), (1, 1) + (0,) * 63),
    ])
    def test_matches_graph_walk(self, a, b):
        assert_same_space(bds(a, b))

    def test_matches_graph_walk_on_small_pairs(self):
        checked = 0
        for a, b in all_degree_pairs(4, 4):
            ds = bds(a, b)
            if is_graphical(ds):
                assert_same_space(ds)
                checked += 1
        assert checked > 500

    def test_states_are_trusted_read_only_graphs(self):
        space = enumerate_states(bds((2, 2, 1), (2, 2, 1)))
        assert not any(arr.flags.writeable for arr in (space.adj, space.indptr, space.indices))
        for g in graphs(space):
            assert g == BipartiteGraph(g.adj) and not g.adj.flags.writeable
            assert (g.row_deg, g.col_deg) == ((2, 2, 1), (2, 2, 1))

    def test_too_large_fires_during_the_walk(self, monkeypatch):
        def no_count(ds):
            raise AssertionError("counted before the walk finished")

        monkeypatch.setattr(mixing, "count_realizations", no_count)
        with pytest.raises(TooLarge):
            enumerate_states(bds((3,) * 6, (3,) * 6))

    def test_too_large_fires_on_one_state_with_small_memory(self):
        # the 100 x 100 50-regular start alone has more swaps than the guard
        # allows states, which is decided before any target is built
        ds = bds((50,) * 100, (50,) * 100)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                enumerate_states(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak

    def test_count_checked_above_the_old_cutoff(self, monkeypatch):
        ds = bds((3, 2, 2, 2, 1), (2, 2, 2, 2, 2))
        assert ds.k * ds.l > 20 and enumerate_states(ds).n == 1170
        real = mixing.count_realizations
        monkeypatch.setattr(mixing, "count_realizations", lambda ds: real(ds) + 1)
        with pytest.raises(AssertionError, match="exact count 1171"):
            enumerate_states(ds)


def assert_same_space(ds):
    got, want = enumerate_states(ds), naive_enumerate(ds)
    assert np.array_equal(got.adj, want.adj), ds
    assert got.index == want.index, ds
    assert np.array_equal(got.indptr, want.indptr), ds
    assert np.array_equal(got.indices, want.indices), ds


class TestCounting:
    def test_matches_bitmask_count(self):
        nonzero = 0
        for a, b in all_degree_pairs(4, 4):
            count = count_realizations(bds(a, b))
            assert count == brute_margin_count(a, b), (a, b)
            nonzero += count > 0
        assert 0 < nonzero < len(all_degree_pairs(4, 4))

    def test_unequal_sums_count_zero(self):
        assert count_realizations(bds((2, 2), (1, 1))) == 0

    @pytest.mark.parametrize("n, d, count", [
        (4, 2, 90), (6, 3, 297_200), (8, 4, 116_963_796_250),
    ])
    def test_pinned_regular_counts(self, n, d, count):
        assert count_realizations(bds((d,) * n, (d,) * n)) == count

    def test_staircase_has_one_realization(self):
        # every row's choice but the greedy one is a dead end; the
        # Gale-Ryser pruning drops each at once instead of expanding it
        stairs = tuple(range(40, 0, -1))
        assert count_realizations(bds(stairs, stairs)) == 1
        assert enumerate_states(bds(stairs[-12:], stairs[-12:])).n == 1

    def test_transpose_invariant(self):
        for a, b in (((3, 2, 2, 2, 1), (2, 2, 2, 2, 2)), ((5, 3, 3, 1), (3, 3, 2, 2, 1, 1))):
            assert count_realizations(bds(a, b)) == count_realizations(bds(b, a))

    def test_counting_leaves_no_cyclic_garbage(self):
        # enumerating the 48V space, which counts it, and counting the 6 x 6
        # 3-regular matrices free everything by reference counting: with
        # the collector off and every unreachable object kept, it finds none
        import gc

        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert enumerate_states(bds((3, 2, 2, 1), (2, 2, 2, 2))).n == 48
            assert count_realizations(bds((3,) * 6, (3,) * 6)) == 297_200
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert garbage == []


def _complete(n):
    """The neighbours of the complete move graph on n states."""
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


class TestKernel:
    def test_degenerate_two_state(self):
        K = build_kernel(enumerate_states(bds((1, 1), (1, 1))))
        assert (K.denom, K.diag, neighbour_rows(K)) == (1, (0, 0), ((1,), (0,)))
        assert kernel_rows(K) == [[0, 1], [1, 0]]

    def test_uniform_is_stationary(self):
        K = build_kernel(enumerate_states(bds((2, 2, 2), (3, 2, 1))))
        rows = kernel_rows(K)
        for j in range(K.n):
            assert sum(row[j] for row in rows) == 1

    def test_row_sums(self):
        K = build_kernel(enumerate_states(bds((2, 2, 1), (2, 2, 1))))
        for row in kernel_rows(K):
            assert sum(row) == 1

    def test_entries_match_transition_prob(self):
        # every graphical pair of margins up to 3 x 3, and the 90-state space
        spaces = [enumerate_states(ds) for a, b in all_degree_pairs(3, 3)
                  if is_graphical(ds := bds(a, b))]
        spaces.append(enumerate_states(bds((2,) * 4, (2,) * 4)))
        for space in spaces:
            K = build_kernel(space)
            assert K.jump == Fraction(1, K.denom)
            assert kernel_rows(K) == dense_kernel_rows(space), space.ds
        assert len(spaces) == 84 and spaces[-1].n == 90

    @pytest.mark.parametrize("neighbours, message", [
        (((1,), (), ()), "not symmetric"),
        (((1, 2), (0,), ()), "not symmetric"),
        (((1, 1), (0, 0)), "differs from the jump"),
        (((0, 1), (0,)), "differs from the jump"),
        (((1, 2), (0,), (0,)), "row 0 does not sum"),
    ])
    def test_move_graph_laws_rejected(self, neighbours, message):
        with pytest.raises(AssertionError, match=message):
            TransitionMatrix(1, *csr(neighbours))

    @pytest.mark.parametrize("indptr, indices, message", [
        ([1, 1, 2], [1, 0], "indptr must start at 0"),
        ([0, 2, 1, 2], [1, 2], "never decrease"),
        ([0, 1, 1], [1, 0], "end at len"),
        ([0, 1, 2], [2, 0], "outside \\[0, 2\\)"),
        ([0, 1, 2], [1, -1], "outside \\[0, 2\\)"),
        ([0, 2, 3, 4], [2, 1, 0, 0], "row is not increasing"),
    ])
    def test_malformed_csr_rejected(self, indptr, indices, message):
        # one case per malformed CSR input; the last is a symmetric move
        # graph whose row 0 lists its ids in decreasing order
        with pytest.raises(AssertionError, match=message):
            TransitionMatrix(2, np.array(indptr), np.array(indices))

    def test_bare_kernel_laws_rejected(self):
        # a bare kernel, TransitionMatrix(denom, indptr, indices) with no space or
        # symmetries: state 1 has three moves of 1/2 each, so its holding
        # probability would be -1/2
        with pytest.raises(AssertionError, match="row 1 does not sum"):
            TransitionMatrix(2, *csr(((1,), (0, 2, 3), (1,), (1,))))
        for denom in (0, -1):
            with pytest.raises(ValueError, match="denominator must be positive"):
                TransitionMatrix(denom, *csr(((),)))


class TestSpectralGap:
    def test_two_state_flip(self):
        K = build_kernel(enumerate_states(bds((1, 1), (1, 1))))
        lam2, tau = spectral_gap(K)
        assert abs(lam2 + 1) < 1e-12
        assert abs(tau - 0.5) < 1e-12

    def test_uniform_jump_closed_form(self):
        # every entry is 1/n: n - 1 moves of 1/n and a holding 1/n
        n = 5
        lam2, tau = spectral_gap(TransitionMatrix(n, *csr(_complete(n))))
        assert abs(lam2) < 1e-12 and abs(tau - 1.0) < 1e-12

    def test_semi_regular_gap(self):
        K = build_kernel(enumerate_states(bds((2, 2, 2), (3, 2, 1))))
        lam2, tau = spectral_gap(K)
        assert lam2 < 1
        assert tau >= 1

    def test_eigensolve_guard(self):
        K = build_kernel(enumerate_states(bds((1, 1, 1), (1, 1, 1))))
        with pytest.raises(TooLarge):
            spectral_gap(K, max_states=3)

    def test_reducible_kernel_is_degenerate(self):
        # eigenvalue 1 twice: state 0 never leaves, states 1 and 2 swap
        K = TransitionMatrix(2, *csr(((), (2,), (1,))))
        with pytest.raises(DegenerateChain, match="reducible"):
            spectral_gap(K)
        for scan in (tv_mixing_time, total_variation_time):
            with pytest.raises(NonMixing, match="P\\^4 still has a zero"):
                scan(K, 0.01)

    def test_pinned_1170_state_gap(self, space_1170):
        K = build_kernel(space_1170)
        assert len(K.symmetries) == 3
        sizes = [len(b) for b in mixing._blocks(K, 2000)]
        assert sizes == [170, 151, 148, 143, 148, 143, 134, 133] and sum(sizes) == 1170
        lam2, tau = spectral_gap(K)
        assert f"{lam2:.12g}" == "0.922314848983"
        assert abs(tau - 1 / (1 - lam2)) < 1e-12

    def test_2040_state_gap_matches_dense(self):
        # n exceeds the guard; the largest of its 16 blocks does not
        space = enumerate_states(bds((2,) * 5, (2,) * 5))
        K = build_kernel(space)
        assert space.n == 2040 and len(K.symmetries) == 4
        lam2, _ = spectral_gap(K)
        assert f"{lam2:.12g}" == "0.915817832304"
        assert abs(lam2 - np.linalg.eigvalsh(K.as_float())[-2]) < 1e-10

    def test_spectrum_builds_only_the_start_graph(self, monkeypatch):
        # the space, its kernel and its blocks are arrays: the greedy start is
        # the one graph that enumerating and solving the 1,170 states builds
        built = []
        real = BipartiteGraph._adopt
        monkeypatch.setattr(BipartiteGraph, "_adopt",
                            lambda g, arr: built.append(arr.shape) or real(g, arr))
        space = enumerate_states(bds((3, 2, 2, 2, 1), (2, 2, 2, 2, 2)))
        lam2, _ = spectral_gap(build_kernel(space))
        assert (space.n, f"{lam2:.12g}") == (1170, "0.922314848983")
        assert built == [(5, 5)]

    def test_guard_bounds_the_largest_block(self, space_1170):
        K = build_kernel(space_1170)
        with pytest.raises(TooLarge, match="block of 170 states"):
            spectral_gap(K, max_states=169)
        assert spectral_gap(K, max_states=170) == spectral_gap(K)


@pytest.fixture(scope="module")
def space_1170():
    return enumerate_states(bds((3, 2, 2, 2, 1), (2, 2, 2, 2, 2)))


def forced_kernel(space):
    """The space's kernel carrying every available vertex relabelling,
    whatever its size."""
    swaps = mixing._vertex_swaps(space.ds)
    return TransitionMatrix(build_kernel(space).denom, space.indptr, space.indices,
                            mixing._relabellings(space, swaps))


class TestSymmetryBlocks:
    def test_forced_blocks_match_dense_spectrum(self):
        solved = 0
        for a, b in all_degree_pairs(4, 4):
            ds = bds(a, b)
            if not is_graphical(ds):
                continue
            space = enumerate_states(ds)
            K = forced_kernel(space)
            blocks = mixing._blocks(K, 2000)
            assert sum(len(blk) for blk in blocks) == space.n, (a, b)
            got = np.sort(np.concatenate([np.linalg.eigvalsh(blk) for blk in blocks]))
            dense = np.linalg.eigvalsh(K.as_float())
            assert np.abs(got - dense).max() <= 1e-10, (a, b)
            if space.n < 2:
                with pytest.raises(DegenerateChain):
                    spectral_gap(K)
                continue
            lam2, _ = spectral_gap(K)
            assert abs(lam2 - spectral_gap(build_kernel(space))[0]) <= 1e-10, (a, b)
            solved += 1
        assert solved == 268

    def test_symmetries_relabel_vertices_and_keep_the_move_graph(self, space_1170):
        spaces = [space_1170, enumerate_states(bds((2, 2, 2, 2), (3, 2, 2, 1))),
                  enumerate_states(bds((3, 3, 1), (2, 2, 2, 1)))]
        for space in spaces:
            K = forced_kernel(space)
            nbrs = neighbour_rows(space)
            swaps = mixing._vertex_swaps(space.ds)
            assert len(K.symmetries) == len(swaps) > 0
            for p, (side, a, b) in zip(K.symmetries, swaps):
                for i, g in enumerate(graphs(space)):
                    order = list(range(g.k if side == 0 else g.l))
                    order[a], order[b] = b, a
                    moved = g.adj[order] if side == 0 else g.adj[:, order]
                    assert space.graph(p[i]).key() == moved.tobytes()
                    assert sorted(p[j] for j in nbrs[i]) == list(nbrs[p[i]])

    def test_swaps_are_disjoint_equal_degree_pairs(self):
        swaps = mixing._vertex_swaps(bds((3, 2, 2, 2, 1, 0, 0), (3, 2, 2, 2, 2, 1)))
        # degree 0 rows and degree 6 = k columns are fixed by every realization
        assert swaps == [(0, 1, 2), (1, 1, 2), (1, 3, 4)]

    @pytest.mark.parametrize("perm, message", [
        (lambda space: [1, 2, 0] + list(range(3, space.n)), "involution"),
        (lambda space: list(range(space.n - 1)), "involution"),
        # state 0 and one of its neighbours exchanged: an involution that
        # moves the edges from 0 to its other neighbours off the move graph
        (lambda space: _transposition(space.n, 0, neighbour_rows(space)[0][0]), "move graph"),
    ])
    def test_non_symmetry_rejected(self, perm, message):
        space = enumerate_states(bds((2, 2, 2), (2, 2, 2)))
        with pytest.raises(AssertionError, match=message):
            TransitionMatrix(9, space.indptr, space.indices, [perm(space)])

    def test_overlapping_swaps_rejected(self):
        # exchanging rows 0, 1 and exchanging rows 1, 2 are each symmetries,
        # but they do not commute, so they generate no (Z_2)^2
        space = enumerate_states(bds((2, 2, 2), (2, 2, 2)))
        perms = mixing._relabellings(space, [(0, 0, 1), (0, 1, 2)])
        for p in perms:
            TransitionMatrix(9, space.indptr, space.indices, [p])
        with pytest.raises(AssertionError, match="commute"):
            TransitionMatrix(9, space.indptr, space.indices, perms)

    def test_denominator_too_large_for_exact_blocks(self):
        space = enumerate_states(bds((2, 2, 2), (2, 2, 2)))
        perms = mixing._relabellings(space, mixing._vertex_swaps(space.ds))
        with pytest.raises(AssertionError, match="denominator"):
            TransitionMatrix(2**53, space.indptr, space.indices, perms)

    def test_block_checks(self, monkeypatch):
        space = enumerate_states(bds((2, 2, 2), (2, 2, 2)))
        K = forced_kernel(space)
        # an unverified transposition of two adjacent states sums to an
        # asymmetric integer block
        unverified = build_kernel(space)
        j = neighbour_rows(space)[0][0]
        unverified.symmetries = (np.array(_transposition(space.n, 0, j)),)
        with pytest.raises(AssertionError, match="not symmetric"):
            mixing._blocks(unverified, 2000)
        # blocks that keep every orbit for every character overcount the states
        monkeypatch.setattr(mixing, "_parity", lambda x, m: x & 0)
        with pytest.raises(AssertionError, match="blocks hold"):
            mixing._blocks(K, 2000)

    def test_bare_kernel_carries_no_symmetries(self):
        # TransitionMatrix(denom, indptr, indices), built with no space or symmetries
        space = enumerate_states(bds((2, 2, 2, 2), (2, 2, 2, 2)))
        K = build_kernel(space)
        bare = TransitionMatrix(K.denom, space.indptr, space.indices)
        assert bare.symmetries == () and K.symmetries == ()
        assert spectral_gap(bare) == spectral_gap(K)
        assert abs(spectral_gap(forced_kernel(space))[0] - spectral_gap(K)[0]) < 1e-12

    @pytest.mark.parametrize("a, b, m", [
        ((2, 2, 2), (3, 2, 1), 0), ((2, 2, 2, 2), (3, 2, 2, 1), 0),
        ((2, 2, 2, 2), (2, 2, 2, 2), 0), ((3, 3, 2, 2), (3, 2, 2, 2, 1), 1),
    ])
    def test_symmetries_taken_while_the_mean_block_is_large(self, a, b, m):
        # 3, 48 and 90 states stay dense; 156 states split once into a mean
        # block of 78, as a second split would leave 39 < 64
        assert len(build_kernel(enumerate_states(bds(a, b))).symmetries) == m


def _transposition(n, i, j):
    p = list(range(n))
    p[i], p[j] = j, i
    return p


class TestMixingTime:
    def test_flip_chain_never_mixes(self):
        K = build_kernel(enumerate_states(bds((1, 1), (1, 1))))
        with pytest.raises(NonMixing):
            tv_mixing_time(K, 0.01)
        # every entry of P^t is 0 or 1, so half its deviation from 1/2 is 1/4
        assert tv_mixing_time(K, 0.25) == 0

    def test_loose_epsilon_is_zero(self):
        K = build_kernel(enumerate_states(bds((2, 2, 2), (3, 2, 1))))
        assert tv_mixing_time(K, 0.5) == 0

    @pytest.mark.parametrize("a, b, t", [
        ((2, 2, 2), (3, 2, 1), 9),
        ((2, 2, 2), (2, 2, 2), 9),
        ((2, 2, 2, 2), (3, 2, 2, 1), 17),
        ((3, 2, 2, 1), (2, 2, 2, 2), 17),
        ((2, 2, 2, 2), (2, 2, 2, 2), 12),
    ])
    def test_pinned_mixing_times(self, a, b, t):
        assert tv_mixing_time(build_kernel(enumerate_states(bds(a, b))), 0.01) == t

    def test_profile_matches_dense_oracle(self):
        for a, b in (((2, 2, 2), (3, 2, 1)), ((2, 2, 2), (2, 2, 2))):
            space = enumerate_states(bds(a, b))
            K = build_kernel(space)
            rows = dense_kernel_rows(space)
            for t, d in enumerate(distances(K, mixing._entrywise, 13)):
                assert d == dense_distance_profile(rows, t), (a, b, t)

    def test_finite_mixing(self):
        K = build_kernel(enumerate_states(bds((2, 2, 2), (3, 2, 1))))
        t = tv_mixing_time(K, 0.01)
        assert t > 0
        profile = distances(K, mixing._entrywise, t + 1)
        assert profile[t] <= Fraction(1, 100) < profile[t - 1]

    @pytest.mark.parametrize("eps", [0, -1, 1e-12, float("inf"), float("nan")])
    def test_bad_eps_rejected(self, eps):
        # 1e-12 rounds to 0 at denominators up to 10**9.  On the flip chain a
        # missing check ends at the NonMixing witness instead of scanning on
        K = build_kernel(enumerate_states(bds((1, 1), (1, 1))))
        for scan in (tv_mixing_time, total_variation_time):
            with pytest.raises(ValueError, match="eps must be finite"):
                scan(K, eps)

    def test_scans_need_no_spectrum(self, monkeypatch):
        K = build_kernel(enumerate_states(bds((2, 2, 2, 2), (2, 2, 2, 2))))

        def no_spectrum(*args, **kwargs):
            raise AssertionError("a decay scan solved the spectrum")

        monkeypatch.setattr(mixing, "spectral_gap", no_spectrum)
        assert (tv_mixing_time(K, 0.01), total_variation_time(K, 0.01)) == (12, 25)

    def test_mix_report_solves_the_spectrum_once(self, monkeypatch, tmp_path):
        calls = []
        real = mixing.spectral_gap

        def counting(P, *args, **kwargs):
            calls.append(P)
            return real(P, *args, **kwargs)

        monkeypatch.setattr(mixing, "spectral_gap", counting)
        monkeypatch.setattr(cli, "spectral_gap", counting)
        ds = tmp_path / "d.txt"
        ds.write_text("2 2 2 2\n3 2 2 1\n")
        assert cli.main(["mix-report", "--ds", str(ds)]) == 0
        assert len(calls) == 1

    def test_2040_states_without_symmetry_blocks(self):
        # one dense block of 2,040 states: past the eigensolve guard
        space = enumerate_states(bds((2,) * 5, (2,) * 5))
        K = TransitionMatrix(pair_count(5) ** 2, space.indptr, space.indices, (), space)
        with pytest.raises(TooLarge):
            spectral_gap(K)
        assert (tv_mixing_time(K, 0.01), total_variation_time(K, 0.01)) == (16, 58)


class TestOrbitScan:
    """The decay scans advance one column of ``A^t`` per orbit of the
    relabelling group and give the values of the full N-column scan."""

    def test_matches_full_scan(self):
        checked = set()
        for a, b in all_degree_pairs(4, 4):
            ds = bds(a, b)
            if not is_graphical(ds):
                continue
            space = enumerate_states(ds)
            if space.n < 2:
                continue
            K = build_kernel(space)
            got = [(dev, scale) for dev, scale, _ in
                   itertools.islice(mixing._decay(K, mixing._entrywise), 41)]
            assert got == list(itertools.islice(full_deviations(K), 41)), (a, b)
            checked.add((a, b, space.n))
        assert len(checked) == 268
        assert {((2, 2, 2, 2), (3, 2, 2, 1), 48), ((3, 2, 2, 1), (2, 2, 2, 2), 48),
                ((2, 2, 2, 2), (2, 2, 2, 2), 90)} <= checked

    @pytest.mark.parametrize("a, b, reps", [
        ((2, 2, 2), (3, 2, 1), 1), ((2, 2, 2), (2, 2, 2), 1),
        ((2, 2, 2, 2), (3, 2, 2, 1), 2), ((3, 2, 2, 1), (2, 2, 2, 2), 2),
        ((2, 2, 2, 2), (2, 2, 2, 2), 2),
    ])
    def test_pinned_representative_counts(self, a, b, reps):
        assert len(mixing._representatives(build_kernel(enumerate_states(bds(a, b))))) == reps

    def test_1170_states_mix_from_four_representatives(self, space_1170):
        K = build_kernel(space_1170)
        assert len(mixing._representatives(K)) == 4
        assert tv_mixing_time(K, 0.01) == 19
        assert total_variation_time(K, 0.01) == 62

    def test_representatives_are_orbit_minima(self):
        # every state reaches its representative through the generators,
        # and no two representatives reach each other
        for a, b in (((2, 2, 2, 2), (3, 2, 2, 1)), ((3, 3, 1), (2, 2, 2, 1)),
                     ((2, 2, 2, 2), (2, 2, 2, 2))):
            space = enumerate_states(bds(a, b))
            perms = mixing._orbit_generators(space)
            orbit_min = []
            for x in range(space.n):
                seen, todo = {x}, [x]
                while todo:
                    y = todo.pop()
                    for p in perms:
                        if int(p[y]) not in seen:
                            seen.add(int(p[y]))
                            todo.append(int(p[y]))
                orbit_min.append(min(seen))
            reps = mixing._representatives(build_kernel(space))
            assert reps == tuple(sorted(set(orbit_min))), (a, b)

    def test_generators_relabel_vertices_and_keep_the_move_graph(self, space_1170):
        spaces = [space_1170, enumerate_states(bds((2, 2, 2, 2), (2, 2, 2, 2))),
                  enumerate_states(bds((3, 3, 1), (2, 2, 2, 1)))]
        for space in spaces:
            ds = space.ds
            moves = mixing._vertex_swaps(ds, step=1) + ["T"] * (ds.a == ds.b)
            perms = mixing._orbit_generators(space)
            nbrs = neighbour_rows(space)
            assert len(perms) == len(moves) > 0
            for p, move in zip(perms, moves):
                for i, g in enumerate(graphs(space)):
                    if move == "T":
                        moved = g.adj.T
                    else:
                        side, a, b = move
                        order = list(range(g.k if side == 0 else g.l))
                        order[a], order[b] = b, a
                        moved = g.adj[order] if side == 0 else g.adj[:, order]
                    assert space.graph(p[i]).key() == moved.tobytes()
                    assert sorted(p[j] for j in nbrs[i]) == list(nbrs[p[i]])

    def test_corrupted_generator_rejected(self, monkeypatch):
        # a relabelling that exchanges state 0 with one of its neighbours is
        # an involution but moves the move graph's edges
        space = enumerate_states(bds((2, 2, 2, 2), (3, 2, 2, 1)))
        real = mixing._relabellings

        def corrupted(*args, **kwargs):
            perms = real(*args, **kwargs)
            if perms:       # build_kernel takes no symmetry on 48 states
                perms[0] = np.array(_transposition(space.n, 0, neighbour_rows(space)[0][0]))
            return perms

        monkeypatch.setattr(mixing, "_relabellings", corrupted)
        with pytest.raises(AssertionError, match="move graph"):
            tv_mixing_time(build_kernel(space), 0.01)

    def test_orbits_computed_on_the_first_scan_only(self, monkeypatch):
        space = enumerate_states(bds((2, 2, 2, 2), (2, 2, 2, 2)))
        K = build_kernel(space)
        spectral_gap(K)
        calls = []
        real = mixing._orbit_generators
        monkeypatch.setattr(mixing, "_orbit_generators",
                            lambda space: calls.append(space) or real(space))
        assert K._reps is None
        assert (tv_mixing_time(K, 0.01), total_variation_time(K, 0.01)) == (12, 25)
        assert distances(K, mixing._entrywise, 8) == distances(K, mixing._entrywise, 8)
        assert calls == [space]

    def test_bare_kernel_scans_every_column(self):
        # TransitionMatrix(denom, indptr, indices) knows no space, so it has no
        # relabellings and every state is its own orbit
        space = enumerate_states(bds((2, 2, 2, 2), (3, 2, 2, 1)))
        K = build_kernel(space)
        bare = TransitionMatrix(K.denom, space.indptr, space.indices)
        assert mixing._representatives(bare) == tuple(range(space.n))
        for measure in (mixing._entrywise, mixing._total):
            scans = zip(mixing._decay(bare, measure), mixing._decay(K, measure))
            for t, (full, reduced) in enumerate(itertools.islice(scans, 36)):
                assert full[:2] == reduced[:2], (measure.__name__, t)


class TestTotalVariation:
    def test_matches_dense_oracle(self):
        for a, b in (((2, 2, 2), (3, 2, 1)), ((2, 2, 2), (2, 2, 2))):
            space = enumerate_states(bds(a, b))
            K = build_kernel(space)
            rows = dense_kernel_rows(space)
            for t, d in enumerate(distances(K, mixing._total, 13)):
                assert d == dense_total_variation(rows, t), (a, b, t)

    def test_never_increases(self):
        checked = 0
        for a, b in all_degree_pairs(3, 3):
            ds = bds(a, b)
            if not is_graphical(ds):
                continue
            space = enumerate_states(ds)
            if space.n < 2:
                continue
            K = build_kernel(space)
            tv, entrywise = (distances(K, measure, 31)
                             for measure in (mixing._total, mixing._entrywise))
            assert tv[0] == 1 - Fraction(1, space.n)
            assert entrywise[0] == (1 - Fraction(1, space.n)) / 2
            for profile in (tv, entrywise):
                assert all(later <= earlier for earlier, later in zip(profile, profile[1:])), (
                    a, b)
            checked += 1
        assert checked > 20

    def test_bounds_the_entrywise_profile(self):
        # each entry's deviation is one term of its row's sum
        K = build_kernel(enumerate_states(bds((2, 2, 2, 2), (3, 2, 2, 1))))
        pairs = zip(distances(K, mixing._entrywise, 40), distances(K, mixing._total, 40))
        for t, (entrywise, tv) in enumerate(pairs):
            assert entrywise <= tv, t

    @pytest.mark.parametrize("a, b, t", [
        ((2, 2, 2), (2, 2, 2), 11),
        ((2, 2, 2), (3, 2, 1), 11),
        ((2, 2, 2, 2), (2, 2, 2, 2), 25),
        ((2, 2, 2, 2), (3, 2, 2, 1), 31),
    ])
    def test_pinned_mixing_times(self, a, b, t):
        K = build_kernel(enumerate_states(bds(a, b)))
        assert total_variation_time(K, 0.01) == t
        tv = distances(K, mixing._total, t + 1)
        assert tv[t] <= Fraction(1, 100) < tv[t - 1]

    def test_flip_chain_never_mixes(self):
        K = build_kernel(enumerate_states(bds((1, 1), (1, 1))))
        assert distances(K, mixing._total, 10)[9] == Fraction(1, 2)
        with pytest.raises(NonMixing):
            total_variation_time(K, 0.01)
        # within 1/4 entrywise at t = 0, but never in total variation
        with pytest.raises(NonMixing, match="P\\^2 still has a zero"):
            total_variation_time(K, 0.25)

    def test_loose_epsilon_is_zero(self):
        K = build_kernel(enumerate_states(bds((2, 2, 2), (3, 2, 1))))
        assert total_variation_time(K, 1) == 0

    def test_increase_rejected(self, monkeypatch):
        K = build_kernel(enumerate_states(bds((2, 2, 2), (3, 2, 1))))
        for scan, measure, name in (
                (total_variation_time, "_total", "worst-start total variation"),
                (tv_mixing_time, "_entrywise", "the largest entrywise deviation")):
            real = getattr(mixing, measure)

            def rising(n, scale, col, real=real):
                # D^t is K.denom**t, so this scales up the value at t = 2
                return real(n, scale, col) * (K.denom if scale == K.denom ** 2 else 1)

            monkeypatch.setattr(mixing, measure, rising)
            with pytest.raises(AssertionError, match=f"^{name} increased at t=2$"):
                scan(K, 0.01)
            monkeypatch.undo()


class TestSamplerUniformity:
    def test_chi_square_on_permutation_space(self):
        from scipy import stats

        from degswap import sample

        ds = bds((1, 1, 1), (1, 1, 1))
        space = enumerate_states(ds)
        counts = [0] * space.n
        for i in range(10_000):
            g = sample(ds, 200, seed=777_000 + i)
            counts[space.index[g.key()]] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01, counts


# the certified congestion report of the 90-state 4 x 4 2-regular space
REPORT_90 = CongestionReport(Fraction(539, 10), (84, 88), Fraction(417, 8), 33492, 1)

# the spaces whose certified congestion the pinned-report and memo tests share
SPACES = {"48U": ((2, 2, 2, 2), (3, 2, 2, 1)),
          "48V": ((3, 2, 2, 1), (2, 2, 2, 2)),
          "90": ((2, 2, 2, 2), (2, 2, 2, 2))}


def route_line(xi, yi, total, paths) -> str:
    """One line of what ``_routes`` yields for a pair: the pair, its
    pairing count and each distinct path as its state ids and the number
    of pairings that select it, the paths sorted."""
    paths = sorted((ids, c) for ids, (c, _) in paths.items())
    return f"{xi} {yi} {total} " + " ".join(f"{','.join(map(str, ids))}:{c}"
                                            for ids, c in paths) + "\n"


@pytest.fixture(scope="module")
def certified_runs():
    """Per space, certified congestion run once with every wrapper
    recording, then (48-state spaces only) once more, then once with every
    bridge a miss.  Holds the space; the reports and ``ryser_sequence``
    counts of those calls, in order; and of the first call the pattern
    memo's misses, every segment it lifted as (start key, cycle, (keys,
    swaps)), the ``tobytes`` of each layer of the hat stacks passed to
    ``canonical._switch_distances``, the state ids each ordered pair's
    paths visit, the (X key, Y key) of each ``_decompositions`` call, the
    ``_cut`` calls (the shape memo's misses), the pairs ``_routes``
    yields, in order, the sha256 of everything it yields (``route_line``)
    and the number of cycle lists walked."""
    out = {}
    real_segment, real_walk = mixing._key_segment, mixing._path_counts
    real_distances = canonical._switch_distances
    real_decompositions, real_cut = mixing._decompositions, pairings._cut
    real_routes = mixing._routes
    for name, (a, b) in SPACES.items():
        solves, segments, certified, visited = [0], [], [], {}
        decomposed, cuts, routed, walks = [], [0], [], [0]
        digest = hashlib.sha256()

        def recording(patterns, bridges, l, key, cycle):
            # a miss of the pattern memo adds its one entry
            before = len(patterns)
            seg = real_segment(patterns, bridges, l, key, cycle)
            solves[0] += len(patterns) - before
            segments.append((key, cycle, seg))
            return seg

        def walking(start, end, cycle_lists, *args):
            walks[0] += len(cycle_lists)
            counts = real_walk(start, end, cycle_lists, *args)
            visited.setdefault((start, end), set()).update(*counts)
            return counts

        def certifying(hats):
            certified.extend(hat.tobytes() for hat in hats)
            return real_distances(hats)

        def decomposing(x_key, y_key, *args):
            decomposed.append((x_key, y_key))
            return real_decompositions(x_key, y_key, *args)

        def cutting(*args):
            cuts[0] += 1
            return real_cut(*args)

        def routing(space):
            for route in real_routes(space):
                routed.append(route[:2])
                digest.update(route_line(*route).encode())
                yield route

        def run():
            calls[0] = 0
            reports.append(congestion(space))
            rysers.append(calls[0])

        space = enumerate_states(bds(a, b))
        reports, rysers = [], []
        with pytest.MonkeyPatch.context() as mp:
            calls = count_ryser(mp)
            with pytest.MonkeyPatch.context() as recorders:
                recorders.setattr(mixing, "_key_segment", recording)
                recorders.setattr(mixing, "_path_counts", walking)
                recorders.setattr(canonical, "_switch_distances", certifying)
                recorders.setattr(mixing, "_decompositions", decomposing)
                recorders.setattr(pairings, "_cut", cutting)
                recorders.setattr(mixing, "_routes", routing)
                run()
            if space.n == 48:
                run()
            never_memoize_bridges(mp)
            run()
        out[name] = dict(space=space, reports=reports, rysers=rysers, solves=solves[0],
                         segments=segments, certified=certified, visited=visited,
                         decomposed=decomposed, cuts=cuts[0], routed=routed,
                         routes=digest.hexdigest(), walks=walks[0])
    return out


class TestCongestion:
    def test_two_state_closed_form(self):
        space = enumerate_states(bds((1, 1), (1, 1)))
        rep = congestion(space)
        assert rep.kappa == 1
        assert rep.edge_loading_max == 2

    def test_relaxation_bounded_by_congestion(self):
        for a, b in (((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (3, 2, 1))):
            space = enumerate_states(bds(a, b))
            K = build_kernel(space)
            _, tau = spectral_gap(K)
            rep = congestion(space)
            assert tau <= float(rep.kappa) + 1e-8

    def test_guard(self):
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        with pytest.raises(TooLarge):
            congestion(space, max_states=2)

    def test_single_state_is_degenerate(self):
        space = enumerate_states(bds((2, 2), (2, 2)))
        assert space.n == 1
        with pytest.raises(DegenerateChain):
            congestion(space)

    def test_options_are_keyword_only(self):
        # the space alone fixes the congestion: a kernel passed where the
        # signature once took one is refused, not bound to max_states
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        with pytest.raises(TypeError):
            congestion(space, build_kernel(space))

    def test_path_step_off_the_move_graph_rejected(self):
        # drop the move 0-j from the space's neighbour table: the one-swap
        # path from state 0 to j now steps along a non-edge
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        j = neighbour_rows(space)[0][0]
        cut = tuple(tuple(x for x in nbrs if {i, x} != {0, j})
                    for i, nbrs in enumerate(neighbour_rows(space)))
        tampered = StateSpace(space.ds, space.adj, space.index, *csr(cut))
        with pytest.raises(SpecViolation):
            congestion(tampered)

    def test_matches_naive_oracle(self):
        checked = 0
        for a, b in all_degree_pairs(3, 3):
            ds = bds(a, b)
            if len(a) != 3 or len(b) != 3 or not is_graphical(ds):
                continue
            space = enumerate_states(ds)
            if space.n < 2:
                continue
            K = build_kernel(space)
            assert congestion(space) == naive_congestion(space, K), (a, b)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("a, b", [((2, 2, 2), (2, 2, 2)), ((3, 3, 2, 1), (3, 2, 2, 2)),
                                      ((2, 2, 2, 2), (3, 2, 2, 1)),
                                      ((3, 2, 2, 1), (2, 2, 2, 2)),
                                      pytest.param(None, None, id="4x4-2-to-12-states")])
    def test_matches_ordered_pair_oracle(self, a, b):
        # one decomposition per unordered pair, counted in both directions,
        # reports what a loop over ordered pairs reports; a None pair stands
        # for every graphical pair of all_degree_pairs(4, 4) with 2-12 states
        if a is None:
            sequences = [bds(*pair) for pair in all_degree_pairs(4, 4)]
            sequences = [ds for ds in sequences
                         if is_graphical(ds) and 2 <= count_realizations(ds) <= 12]
            assert len(sequences) == 238
        else:
            sequences = [bds(a, b)]
        for ds in sequences:
            space = enumerate_states(ds)
            assert congestion(space) == ordered_congestion(space), (ds.a, ds.b)

    def test_matrix_past_the_cap_reads_7(self, monkeypatch, tmp_path, capsys):
        # a three-term matrix whose switch distance exceeds the 6-switch cap
        # is certified as 7, "more than 6", in the report and in mix-report's
        # last column; here the matrix of state 1, which every pair with
        # state 1 as an end meets at the other end, is taken past the cap
        space = enumerate_states(bds((2, 2, 2), (2, 2, 2)))
        past = space.adj[1].astype(np.int8).tobytes()
        real = canonical._switch_distances
        capped = []

        def capping(hats):
            sds = real(hats)
            for i, hat in enumerate(hats):
                if hat.tobytes() == past:
                    capped.append(hat)
                    sds[i] = Exceeds(6)
            return sds

        monkeypatch.setattr(canonical, "_switch_distances", capping)
        assert congestion(space).max_switch_distance == 7
        ds = tmp_path / "d.txt"
        ds.write_text("2 2 2\n2 2 2\n")
        assert cli.main(["mix-report", "--ds", str(ds)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "6,0.666666666667,3,9,15,4-5,7"
        assert len(capped) == 2      # one matrix, certified once per call

    def test_certified_in_blocks_of_at_most_chunk(self, monkeypatch):
        # the queue of matrices still to certify is flushed whenever it
        # holds _CHUNK of them: with a chunk of 5 the report is unchanged,
        # and the blocks hold every distinct matrix once
        space = enumerate_states(bds((3, 3, 2, 1), (3, 2, 2, 2)))
        report = congestion(space)
        real, blocks = canonical._switch_distances, []

        def recording(hats):
            blocks.append([hat.tobytes() for hat in hats])
            return real(hats)

        monkeypatch.setattr(canonical, "_switch_distances", recording)
        monkeypatch.setattr(mixing, "_CHUNK", 5)
        assert congestion(space) == report
        assert report.max_switch_distance == 2
        assert len(blocks) > 2 and all(len(block) == 5 for block in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= 5
        hats = [hat for block in blocks for hat in block]
        assert len(hats) == len(set(hats))

    def test_repeated_calls_agree(self):
        space = enumerate_states(bds((2, 2, 2), (2, 2, 2)))
        first = congestion(space)
        assert congestion(space) == first

    @pytest.mark.parametrize("a, b, report", [
        ((2, 2, 2, 2), (3, 2, 2, 1),
         CongestionReport(Fraction(237, 4), (38, 39), Fraction(129, 4), 4568, 2)),
        ((3, 2, 2, 1), (2, 2, 2, 2),
         CongestionReport(Fraction(2787, 16), (44, 46), Fraction(45), 4008, 3)),
    ])
    def test_pinned_48_state_reports(self, certified_runs, a, b, report):
        (run,) = (certified_runs[name] for name, ab in SPACES.items() if ab == (a, b))
        assert run["space"].n == 48
        assert run["reports"][0] == report

    def test_pinned_90_state_report(self, certified_runs):
        run = certified_runs["90"]
        assert run["space"].n == 90
        assert run["reports"][0] == REPORT_90

    def test_segment_landing_checked(self):
        # the segment must land on the key with exactly the cycle's cells
        # flipped: a pattern memo whose entry for the cycle holds no swaps
        # leaves the key as it is, and is refused.  A cell mask carries no
        # X/Y labels, so the cycle as the reverse pair (Y, X) decomposes it
        # is the same mask and flips alike.
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        X, Y = space.graph(0), space.graph(neighbour_rows(space)[0][0])
        (cyc,) = next(pairings._decompositions(X.key(), Y.key(), 3, {})[1])
        patterns = {}
        segment = ((Y.key(),), ((1, 2, 0, 1, 2),))
        assert canonical._key_segment(patterns, {}, 3, X.key(), cyc) == segment
        (back,) = next(pairings._decompositions(Y.key(), X.key(), 3, {})[1])
        assert back == cyc
        assert canonical._key_segment({}, {}, 3, X.key(), back) == segment
        (pattern,) = patterns
        with pytest.raises(SpecViolation):
            canonical._key_segment({pattern: ()}, {}, 3, X.key(), cyc)

    def test_path_key_off_the_space_rejected(self, monkeypatch):
        # a segment through a key that is no state of the space is refused
        # where congestion lifts it to state ids, as a step along a non-edge
        # is (test_path_step_off_the_move_graph_rejected)
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        real = mixing._key_segment

        def off_the_space(*args):
            keys, swaps = real(*args)
            return (bytes(9),) + keys, swaps

        monkeypatch.setattr(mixing, "_key_segment", off_the_space)
        with pytest.raises(SpecViolation):
            congestion(space)

    @pytest.mark.parametrize("mangle", [lambda entries: entries + entries[:1],
                                        lambda entries: entries[1:]])
    def test_kernel_decomposition_checked_once_per_pairing(self, monkeypatch, mangle):
        # a kernel cycle list whose cycles overlap, or miss part of X xor Y,
        # is refused before any cycle is walked
        real = pairings._cut
        monkeypatch.setattr(pairings, "_cut", lambda *args: mangle(real(*args)))
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        with pytest.raises(PreconditionViolation):
            congestion(space)


class TestSegmentMemo:
    """Certified congestion solves each cycle once per local pattern, and
    its byte-flip walk gives the segments of the graph walk."""

    # per space: the patterns solved (the pattern memo's misses) and the
    # segments computed (the segment memo's misses)
    SOLVED = {"48U": (218, 1104), "48V": (218, 1104), "90": (362, 2592)}

    @pytest.mark.parametrize("name", list(SPACES))
    def test_one_solve_per_local_pattern(self, certified_runs, name):
        run = certified_runs[name]
        assert (run["solves"], len(run["segments"])) == self.SOLVED[name]

    @pytest.mark.parametrize("name", list(SPACES))
    def test_segments_match_graph_walk(self, certified_runs, name):
        space = certified_runs[name]["space"]
        for key, cycle, seg in certified_runs[name]["segments"]:
            assert seg == naive_segment(space.graph(space.index[key]), cycle), cycle

    @pytest.mark.parametrize("name", list(SPACES))
    def test_one_certificate_per_hat_matrix(self, certified_runs, name):
        # the integer key x + y - z splits the visited (X, Y, Z) exactly as
        # the hat matrix's bytes do: one certificate per distinct matrix
        run = certified_runs[name]
        space, certified, visited = run["space"], run["certified"], run["visited"]
        graph = graphs(space)
        hats = {canonical.hat_matrix(graph[x], graph[y], graph[z]).tobytes()
                for (x, y), zs in visited.items() for z in zs}
        assert len(certified) == len(set(certified)) == len(hats)
        assert set(certified) == hats


class TestBridgeMemo:
    """Certified congestion solves each local bridge problem once per call,
    and the memo changes no report."""

    @pytest.mark.parametrize("name, solves", [
        ("48U", [10, 10, 72]), ("48V", [72, 72, 192]), ("90", [12, 288])])
    def test_one_ryser_per_local_bridge(self, certified_runs, name, solves):
        # the second call solves every bridge again: the memo is the call's
        assert certified_runs[name]["rysers"] == solves

    @pytest.mark.parametrize("name", list(SPACES))
    def test_reports_match_without_the_memo(self, certified_runs, name):
        reports = certified_runs[name]["reports"]
        # the last report is the one that never hit a bridge
        assert all(r == reports[-1] for r in reports)
        if name == "90":
            assert reports[-1] == REPORT_90


class TestSolverDigest:
    """The cycle solver's output over a fixed sweep, pinned by digest: every
    ``canonical._pattern_swaps`` result ``(rows, cols, swaps)`` for each
    segment certified congestion computes on 48U, 48V and 90 states, each
    space with fresh memos, so each distinct local pattern is solved once;
    then every frame the certified ``canonical_path`` walks on the pinned
    16 x 16 pairs, which reach both blocked branches.  No benchmark workload
    reaches those branches."""

    # sha256 of the sweep's lines, recorded while the solver ran on bytes
    DIGEST = (4844, "8ecdc4b34c5753357a6f502379f12636e6d1c45ad7c2480091810d4ef419ce30")

    def test_pattern_swaps_digest(self, certified_runs):
        lines = []

        def line(out):
            rows, cols, swaps = out
            lines.append(f"{rows} {cols} "
                         + " ".join(",".join(map(str, s)) for s in swaps))
            return out

        for name in SPACES:
            run = certified_runs[name]
            l = run["space"].graph(0).l
            memo, bridges = {}, {}
            for key, mask, _ in run["segments"]:
                line(canonical._pattern_swaps(canonical._int(key), l, mask, memo, bridges))
        ds = bds((4,) * 16, (4,) * 16)
        pairs = [(*pinned_pair(name), 5) for name in sorted(PINNED_16)]
        pairs.append((chain.sample(ds, 1000, 20259), chain.sample(ds, 1000, 20272), 14))
        branches = Counter()
        real = canonical._pattern_swaps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(canonical, "_pattern_swaps", lambda *args: line(real(*args)))
            for branch in ("_first_possibility", "_second_possibility"):
                taken = getattr(canonical, branch)

                def counting(*args, branch=branch, taken=taken):
                    branches[branch] += 1
                    return taken(*args)

                mp.setattr(canonical, branch, counting)
            for X, Y, seed in pairs:
                canonical_path(X, Y, pairings.random_pairing(X, Y, seed), certify=True)
        assert set(branches) == {"_first_possibility", "_second_possibility"}
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == self.DIGEST


class TestDifferenceBuckets:
    """Certified congestion decomposes each signed difference X - Y once
    and still routes every unordered pair once."""

    @pytest.mark.parametrize("name, decompositions, shapes", [
        ("48U", 645, 47), ("48V", 645, 31), ("90", 1185, 166)])
    def test_one_decomposition_per_signed_difference(self, certified_runs, name,
                                                     decompositions, shapes):
        # and one cut per circuit shape: the shape memo lives for the call
        run = certified_runs[name]
        assert (len(run["decomposed"]), run["cuts"]) == (decompositions, shapes)

    @pytest.mark.parametrize("name", list(SPACES))
    def test_decomposed_pairs_have_every_difference_once(self, certified_runs, name):
        run = certified_runs[name]
        mats = run["space"].adj.astype(np.int8)
        index = run["space"].index
        diffs = [(mats[index[x]] - mats[index[y]]).tobytes() for x, y in run["decomposed"]]
        every = {(mats[xi] - mats[yi]).tobytes()
                 for xi, yi in itertools.combinations(range(run["space"].n), 2)}
        assert len(set(diffs)) == len(diffs)
        assert set(diffs) == every

    # per space: the sha256 of the route_line of every pair _routes
    # yields, in order; recorded while _routes still walked keys and mapped
    # each path's keys to state ids
    ROUTES = {"48U": "4e5c6fd30b7937b531814cddd6d4681b30b350b3177d9b9f3e28dfa657c203c9",
              "48V": "3d309f4513e4e50fd804593a4f4d91d9bd69a2a419b7e60910a2d4cd95e95866",
              "90": "1d25db5668ca9a248f0da34915627abe279495d358f6dd6603dd14e212dd59c0"}

    @pytest.mark.parametrize("name", list(SPACES))
    def test_routes_digest(self, certified_runs, name):
        assert certified_runs[name]["routes"] == self.ROUTES[name]

    @pytest.mark.parametrize("name", list(SPACES))
    def test_every_pair_routed_once(self, certified_runs, name):
        run = certified_runs[name]
        n = run["space"].n
        assert len(run["routed"]) == n * (n - 1) // 2
        assert sorted(run["routed"]) == list(itertools.combinations(range(n), 2))

    # per space: the distinct cycle lists of all buckets, and all their lists
    LISTS = {"48U": (1674, 2076), "48V": (1440, 2076), "90": (10068, 18240)}

    @pytest.mark.parametrize("name", list(SPACES))
    def test_each_distinct_cycle_list_walked_once(self, certified_runs, name):
        # every bucket's cycle lists collapse to {tuple of masks: pairings},
        # whose counts add up to the bucket's pairing count; in both
        # directions of every pair, _path_counts over the collapsed lists
        # counts the paths a walk of every raw list counts; and congestion
        # walks each distinct list once per pair and direction
        run = certified_runs[name]
        space = run["space"]
        l = space.ds.l
        mats = space.adj.astype(np.int8)
        keys = [g.key() for g in graphs(space)]
        buckets = {}
        for xi, yi in itertools.combinations(range(space.n), 2):
            buckets.setdefault((mats[xi] - mats[yi]).tobytes(), []).append((xi, yi))
        segments, lift = {}, canonical._key_lift(l)
        distinct = raw = walks = 0
        for pairs in buckets.values():
            xi, yi = pairs[0]
            total, lists = pairings._decompositions(keys[xi], keys[yi], l, {})
            lists = list(lists)
            collapsed = Counter(lists)
            assert sum(collapsed.values()) == len(lists) == total
            distinct += len(collapsed)
            raw += total
            walks += 2 * len(pairs) * len(collapsed)
            for xi, yi in pairs:
                for start, end in ((keys[xi], keys[yi]), (keys[yi], keys[xi])):
                    every = Counter()
                    for cycles in lists:
                        ((path, _),) = canonical._path_counts(start, end, {cycles: 1},
                                                              segments, lift).items()
                        every[path] += 1
                    counts = canonical._path_counts(start, end, collapsed, segments, lift)
                    assert {path: c for path, (c, _) in counts.items()} == every
        assert (distinct, raw) == self.LISTS[name]
        assert run["walks"] == walks

    def test_buckets_do_not_lean_on_the_state_order(self, certified_runs):
        # in key order the first cell where X < Y differ is X's 0, so a
        # difference and its negation never both key a pair xi < yi there;
        # with the 48U states relabelled by a seeded permutation they do,
        # and each must still be decomposed apart
        run = certified_runs["48U"]
        space, report = run["space"], run["reports"][0]
        new = np.random.default_rng(27).permutation(space.n)     # old id -> new id
        old = np.argsort(new)
        rows = neighbour_rows(space)
        adj = space.adj[old]
        shuffled = StateSpace(space.ds, adj, {z.tobytes(): i for i, z in enumerate(adj)},
                              *csr([sorted(new[j] for j in rows[i]) for i in old]))
        mats = adj.astype(np.int8)
        signed = {(mats[xi] - mats[yi]).tobytes()
                  for xi, yi in itertools.combinations(range(space.n), 2)}
        assert len(signed) > 645
        calls = []
        real = mixing._decompositions
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixing, "_decompositions", lambda *args: calls.append(1) or real(*args))
            got = congestion(shuffled)
        assert len(calls) == len(signed)
        # every field but max_edge, whose ties among the heaviest edges break by id
        assert (got.kappa, got.edge_loading_max, got.n_paths, got.max_switch_distance) == (
            report.kappa, report.edge_loading_max, report.n_paths, report.max_switch_distance)
