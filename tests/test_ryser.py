import numpy as np
import pytest

from degswap import (BipartiteDegreeSequence, BipartiteGraph, Unreachable, chain, ryser_sequence,
                     swap_distance)
from degswap.errors import DegreeMismatch
from degswap.mixing import enumerate_states
from degswap.ryser import replay

from oracles import graphs, naive_push_up, naive_ryser_sequence, push_up

M1 = BipartiteGraph([[1, 0], [0, 1]])
M2 = BipartiteGraph([[0, 1], [1, 0]])


def test_equal_graphs_empty_sequence():
    assert ryser_sequence(M1, M1) == []
    assert swap_distance(M1, M1) == 0


def test_two_matchings():
    seq = ryser_sequence(M1, M2)
    assert len(seq) <= 4
    assert replay(M1, seq)[-1] == M2
    assert swap_distance(M1, M2) == 1


def test_all_pairs_of_semi_regular_instance():
    space = enumerate_states(BipartiteDegreeSequence((2, 2, 2), (3, 2, 1)))
    e = space.graph(0).num_edges()
    all_states = graphs(space)
    for X in all_states:
        for Y in all_states:
            seq = ryser_sequence(X, Y)
            states = replay(X, seq)
            assert states[-1] == Y
            assert len(seq) <= 2 * e
            # every prefix keeps the margins
            for g in states:
                assert g.row_deg == X.row_deg and g.col_deg == X.col_deg
            d = swap_distance(X, Y)
            assert isinstance(d, int) and d <= len(seq)


def test_distance_never_exceeds_construction():
    space = enumerate_states(BipartiteDegreeSequence((2, 2, 1), (2, 2, 1)))
    all_states = graphs(space)
    for X in all_states:
        for Y in all_states:
            assert swap_distance(X, Y) <= len(ryser_sequence(X, Y))


def test_unreachable_cap():
    assert swap_distance(M1, M2, cap=0) == Unreachable(0)


def test_capped_sentinels_keep_their_names():
    # the two capped-search sentinels share one body but stay distinct
    from degswap import Exceeds

    assert (repr(Unreachable(3)), repr(Exceeds(3))) == ("Unreachable(cap=3)", "Exceeds(cap=3)")
    assert Unreachable(3) == Unreachable(3) and Exceeds(3) == Exceeds(3)
    assert Unreachable(3) != Exceeds(3) and Exceeds(3) != Unreachable(3)
    assert Unreachable(3) != Unreachable(4) and Exceeds(3) != 3


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        ryser_sequence(M1, BipartiteGraph([[1, 1], [0, 0]]))
    with pytest.raises(DegreeMismatch):
        swap_distance(M1, BipartiteGraph([[1, 1], [0, 0]]))


@pytest.mark.parametrize("n", range(3, 17))
def test_row_lists_match_the_numpy_push_up_chain(n):
    # seeded pairs on the sorted margins of random n x n matrices: the same
    # swap list as column elimination by numpy push-ups, landing on Y
    rng = np.random.default_rng(60 + n)
    for trial in range(3):
        adj = rng.random((n, n)) < rng.uniform(0.2, 0.8)
        ds = BipartiteDegreeSequence(tuple(sorted(adj.sum(axis=1).tolist(), reverse=True)),
                                     tuple(sorted(adj.sum(axis=0).tolist(), reverse=True)))
        X, Y = (chain.sample(ds, 300, 100 * n + 2 * trial + i) for i in (0, 1))
        seq = ryser_sequence(X, Y)
        assert seq == naive_ryser_sequence(X, Y), (n, trial)
        assert replay(X, seq)[-1] == Y


@pytest.mark.parametrize("k, l", [(1, 7), (7, 1), (3, 8), (8, 3), (5, 12)])
def test_rectangular_elimination_matches_the_numpy_push_up_chain(k, l):
    # seeded k x l margins, one trial with a full and an empty row, one with
    # a full and an empty column, two plain: the same swap list as column
    # elimination by numpy push-ups, landing on Y; and push_up itself agrees
    # with the numpy oracle on every column, for all and for seeded active
    # column sets
    rng = np.random.default_rng(70 + 10 * k + l)
    moved = 0
    for trial in range(4):
        adj = (rng.random((k, l)) < rng.uniform(0.3, 0.7)).astype(np.uint8)
        if trial == 0:
            adj[0], adj[-1] = 1, 0
        elif trial == 1:
            adj[:, 0], adj[:, -1] = 1, 0
        ds = BipartiteDegreeSequence(tuple(sorted(adj.sum(axis=1).tolist(), reverse=True)),
                                     tuple(sorted(adj.sum(axis=0).tolist(), reverse=True)))
        X, Y = (chain.sample(ds, 200, 1000 * k + 10 * l + 2 * trial + i) for i in (0, 1))
        seq = ryser_sequence(X, Y)
        assert seq == naive_ryser_sequence(X, Y), (k, l, trial)
        assert replay(X, seq)[-1] == Y
        moved += X != Y
        for v in range(l):
            assert push_up(X, v) == naive_push_up(X, v), (k, l, trial, v)
            others = [c for c in range(l) if c != v]
            active = [v] + rng.choice(others, int(rng.integers(l)), replace=False).tolist()
            assert push_up(X, v, active) == naive_push_up(X, v, active), (k, l, trial, active)
    # one row or one column leaves a single realization; otherwise some pair
    # differs
    if min(k, l) > 1:
        assert moved, (k, l)
