import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from degswap import (BipartiteDegreeSequence, BipartiteGraph, allowed_swaps, greedy_realize,
                     sample)
from degswap import chain
from degswap.errors import DegreeMismatch, NotGraphical
from degswap.mixing import enumerate_states

from oracles import generator_draws, graphs, scalar_walk, transition_prob

DS = BipartiteDegreeSequence((2, 2, 2), (3, 2, 1))


def walked(graph, rngs, steps):
    """``chain._walk`` of one chain per generator of ``rngs`` from ``graph``,
    each on its own stream, as graphs."""
    denom = chain.pair_count(graph.k) * chain.pair_count(graph.l)
    cells = chain._walk(graph, len(rngs), steps, generator_draws(rngs, denom))
    stack = np.frombuffer(cells, np.uint8).reshape(len(rngs), graph.k, graph.l)
    return [BipartiteGraph(layer) for layer in stack]


def test_degenerate_two_matchings():
    m1 = BipartiteGraph([[1, 0], [0, 1]])
    m2 = BipartiteGraph([[0, 1], [1, 0]])
    assert transition_prob(m1, m2) == 1
    assert transition_prob(m1, m1) == 0


def test_single_swap_probability():
    space = enumerate_states(DS)
    X, Y = space.graph(0), space.graph(1)
    assert transition_prob(X, Y) in (Fraction(0), Fraction(1, 9))


def test_rows_sum_to_one():
    space = enumerate_states(DS)
    all_states = graphs(space)
    for X in all_states:
        total = sum(transition_prob(X, Y) for Y in all_states)
        assert total == 1


def test_kernel_symmetry():
    space = enumerate_states(DS)
    all_states = graphs(space)
    for X in all_states:
        for Y in all_states:
            assert transition_prob(X, Y) == transition_prob(Y, X)


def test_mismatch_raises():
    with pytest.raises(DegreeMismatch):
        transition_prob(BipartiteGraph([[1, 0], [0, 1]]),
                        BipartiteGraph([[1, 1], [0, 0]]))


def test_step_complete_graph_stays():
    ds = BipartiteDegreeSequence((2, 2), (2, 2))
    for steps in range(21):
        assert sample(ds, steps, 0) == BipartiteGraph([[1, 1], [1, 1]])


def test_step_degenerate_always_moves():
    # one outcome per step, always a swap: the walk alternates
    ds = BipartiteDegreeSequence((1, 1), (1, 1))
    walks = [sample(ds, steps, 0) for steps in range(11)]
    assert walks[0] != walks[1]
    assert walks == [walks[steps % 2] for steps in range(11)]


def test_step_frequencies_match_kernel():
    # one step from each of the three states, one chain per seed, 98,364
    # chains in all: per state eight groups of _GROUP chains in lockstep and
    # one of 20 in the scalar loop
    space = enumerate_states(DS)
    all_states, size = graphs(space), DS.k * DS.l
    n = 8 * chain._GROUP + 20
    for i, X in enumerate(all_states):
        stacks = list(chain._walk_seeds(X, range(i * n, (i + 1) * n), 1))
        assert [len(s) for s in stacks] == [chain._GROUP] * 8 + [20] and 20 < chain._LOCKSTEP
        counts = [0] * space.n
        for stack in stacks:
            data = stack.tobytes()
            for c in range(0, len(data), size):
                counts[space.index[data[c:c + size]]] += 1
        for j, Y in enumerate(all_states):
            p = float(transition_prob(X, Y))
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[j] - n * p) <= 3 * sigma + 1, (i, j, counts[j], n * p)


def test_sample_zero_steps_is_greedy():
    assert sample(DS, 0, seed=1) == greedy_realize(DS)


def test_sample_matches_stepwise_walk():
    # on 3 x 3, 5 x 4 and 16 x 16; 4,097 and 10,000 steps cross the passes
    # of 4,096 draws
    for ds in (DS, BipartiteDegreeSequence((3, 3, 2, 2, 1), (3, 3, 3, 2)),
               BipartiteDegreeSequence((4,) * 16, (4,) * 16)):
        for seed, steps in ((0, 1), (99, 137), (7, 4097), (1 << 64, 10_000)):
            want = scalar_walk(greedy_realize(ds), np.random.default_rng(seed), steps)
            assert sample(ds, steps, seed) == want, (ds, seed, steps)


def test_sample_deterministic():
    assert sample(DS, 500, seed=42) == sample(DS, 500, seed=42)


def test_sample_margins():
    g = sample(DS, 300, seed=7)
    assert g.row_deg == (2, 2, 2) and g.col_deg == (3, 2, 1)
    assert not g.adj.flags.writeable


@pytest.mark.parametrize("n", range(13))
def test_unrank_lists_pairs_in_combinations_order(n):
    # the pair table: rank r is the pair (i[r], j[r])
    i, j = chain._pairs(n)
    assert i.dtype == j.dtype == np.int64 and len(i) == math.comb(n, 2)
    assert list(zip(i.tolist(), j.tolist())) == list(combinations(range(n), 2))
    for a in (i, j):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0
    assert chain._pairs(n) is chain._pairs(n)


@pytest.mark.parametrize("graph, denom", [
    (BipartiteGraph([[1, 1, 0, 1]]), 0),
    (BipartiteGraph([[1, 0], [0, 1]]), 1),
    (greedy_realize(DS), 9),
    (greedy_realize(BipartiteDegreeSequence((3, 3, 2, 2, 1), (3, 3, 3, 2))), 60),
    (greedy_realize(BipartiteDegreeSequence((200,) * 400, (200,) * 400)), 79_800 ** 2),
])
def test_advance_reproduces_the_stepwise_stream(graph, denom):
    # a walk of one chain on a generator, as sample walks
    assert chain.pair_count(graph.k) * chain.pair_count(graph.l) == denom
    for seed, n in ((3, 0), (5, 1), (8, 150)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert walked(graph, [rng], n) == [scalar_walk(graph, ref, n)]
        # the generator is left where the scalar draws leave it
        assert rng.integers(max(denom, 1)) == ref.integers(max(denom, 1))
        assert rng.random() == ref.random()


def test_advance_blocks_continue_the_stream(monkeypatch):
    # a single chain walks passes of _GROUP draws: 40 steps in passes of 7,
    # and 9 then 31 steps on one generator
    monkeypatch.setattr(chain, "_GROUP", 7)
    graph = greedy_realize(BipartiteDegreeSequence((3, 3, 2, 2, 1), (3, 3, 3, 2)))
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    [one] = walked(graph, [rng], 40)
    assert one == scalar_walk(graph, ref, 40)
    assert rng.random() == ref.random()
    rng = np.random.default_rng(17)
    [nine] = walked(graph, [rng], 9)
    assert walked(nine, [rng], 31) == [one]


def test_advance_keeps_the_state_and_margins():
    # the walk reads its start's key and writes only its own buffer
    start = greedy_realize(DS)
    before = start.key()
    [after] = walked(start, [np.random.default_rng(4)], 300)
    assert start.key() == before and after != start
    assert after.row_deg == (2, 2, 2) and after.col_deg == (3, 2, 1)


@pytest.mark.parametrize("steps", [2.5, "3", None, 3.0, np.float64(2)])
@pytest.mark.parametrize("graph", [BipartiteGraph([[1, 1, 0]]), greedy_realize(DS)],
                         ids=["1x3", "3x3"])
def test_steps_that_are_not_integers_rejected_before_drawing(graph, steps):
    # on the graph's own degree sequence, and before a sequence with no
    # realization is realized
    ds = BipartiteDegreeSequence(tuple(sorted(graph.row_deg, reverse=True)),
                                 tuple(sorted(graph.col_deg, reverse=True)))
    for ds in (ds, BipartiteDegreeSequence((2, 2), (1, 1))):
        with pytest.raises(TypeError, match="steps must be an integer"):
            sample(ds, steps, seed=0)


@pytest.mark.parametrize("steps", [np.int64(7), True, False, 7])
def test_integer_step_counts_accepted(steps):
    want = scalar_walk(greedy_realize(DS), np.random.default_rng(6), int(steps))
    assert sample(DS, steps, seed=6) == want


def test_negative_steps_rejected_before_realizing():
    with pytest.raises(ValueError):
        sample(BipartiteDegreeSequence((2, 2), (1, 1)), -1, seed=0)
    with pytest.raises(NotGraphical):
        sample(BipartiteDegreeSequence((2, 2), (1, 1)), 0, seed=0)


@pytest.mark.parametrize("seed", [None, 2.5, 3.0, np.float64(2), "3", [1, 2], (5,)])
def test_seeds_that_are_not_integers_rejected_before_realizing(seed):
    # a seed of None would draw fresh entropy, and a sequence would seed
    # numpy's SeedSequence with its words: neither is one integer seed
    with pytest.raises(TypeError, match="seed must be an integer"):
        sample(BipartiteDegreeSequence((2, 2), (1, 1)), 50, seed)
    with pytest.raises(TypeError, match="seed must be an integer"):
        sample(DS, 50, seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint8(7), True, False, 1 << 70])
def test_integer_seeds_accepted(seed):
    want = scalar_walk(greedy_realize(DS), np.random.default_rng(int(seed)), 50)
    assert sample(DS, 50, seed) == want


def test_negative_seed_raises_numpys_error_before_realizing():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        sample(BipartiteDegreeSequence((2, 2), (1, 1)), 5, -1)


GROUP_GRAPHS = {
    "1x3, denom 0": BipartiteGraph([[1, 1, 0]]),
    "2x2, denom 1": BipartiteGraph([[1, 0], [0, 1]]),
    "3x3, denom 9": greedy_realize(DS),
    "5x4, denom 60": greedy_realize(BipartiteDegreeSequence((3, 3, 2, 2, 1), (3, 3, 3, 2))),
}


# crossovers that walk every group in lockstep, a group of one too, and
# every group in the scalar loop
BOTH_LOOPS = (1, 1 << 30)


@pytest.mark.parametrize("bound", [1, 7, 20])
@pytest.mark.parametrize("name", sorted(GROUP_GRAPHS))
def test_grouped_chains_match_their_own_walks(monkeypatch, bound, name):
    # 23 chains; at a bound of 1 a walk of 9 steps is walked alone in passes
    # of one draw, as a walk of one is; at 7 it groups by 6, in
    # passes of 7 and 2 steps and sub-blocks of one step; at 20 by 17 and 6,
    # the 6 in sub-blocks of 3 steps; each in both inner loops
    monkeypatch.setattr(chain, "_GROUP", bound)
    graph, seeds = GROUP_GRAPHS[name], range(40, 63)
    for lockstep, steps in product(BOTH_LOOPS, (0, 1, 2, 9)):
        monkeypatch.setattr(chain, "_LOCKSTEP", lockstep)
        size = chain._group_size(steps, graph.k * graph.l)
        stacks = list(chain._walk_seeds(graph, seeds, steps))
        assert [len(s) for s in stacks] == [min(size, len(seeds) - lo)
                                            for lo in range(0, len(seeds), size)]
        layers = [layer for stack in stacks for layer in stack]
        assert len(layers) == len(seeds)
        for stack in stacks:
            assert stack.shape[1:] == (graph.k, graph.l) and not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1
        for seed, layer in zip(seeds, layers):
            [one] = walked(graph, [np.random.default_rng(seed)], steps)
            assert BipartiteGraph(layer) == one
            assert one == scalar_walk(graph, np.random.default_rng(seed), steps)


@pytest.mark.parametrize("name", sorted(GROUP_GRAPHS))
def test_a_group_leaves_each_generator_where_its_scalar_draws_do(monkeypatch, name):
    # 5 chains of 9 steps walk passes of 4, 4 and 1 steps in sub-blocks of
    # one step, and the group of one passes of 4, 4 and 1; both in each
    # inner loop
    monkeypatch.setattr(chain, "_GROUP", 4)
    graph = GROUP_GRAPHS[name]
    denom = chain.pair_count(graph.k) * chain.pair_count(graph.l)
    for lockstep, steps in product(BOTH_LOOPS, (0, 1, 9)):
        monkeypatch.setattr(chain, "_LOCKSTEP", lockstep)
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        refs = [np.random.default_rng(seed) for seed in range(5)]
        cells = chain._walk(graph, len(rngs), steps, generator_draws(rngs, denom))
        stack = np.frombuffer(cells, np.uint8).reshape(len(rngs), graph.k, graph.l)
        for layer, rng, ref in zip(stack, rngs, refs):
            assert BipartiteGraph(layer) == scalar_walk(graph, ref, steps)
            assert rng.random() == ref.random()
        # a group of one leaves its generator where the scalar draws do
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        assert walked(graph, [rng], steps) == [scalar_walk(graph, ref, steps)]
        assert rng.integers(max(denom, 1)) == ref.integers(max(denom, 1))


@pytest.mark.parametrize("name", ["3x3, denom 9", "5x4, denom 60"])
def test_a_long_chain_crosses_passes_at_the_real_bound(name):
    # 10,000 steps are two passes of 4,096 draws and one of 1,808
    graph = GROUP_GRAPHS[name]
    denom = chain.pair_count(graph.k) * chain.pair_count(graph.l)
    rng, ref = np.random.default_rng(23), np.random.default_rng(23)
    assert walked(graph, [rng], 10_000) == [scalar_walk(graph, ref, 10_000)]
    assert rng.integers(denom) == ref.integers(denom)
    assert rng.random() == ref.random()


class _Counted:
    """A generator that records the size of each of its draw calls."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, high, size):
        self.sizes.append(math.prod(np.atleast_1d(size)))
        return self.rng.integers(high, size=size)


class _Blocks:
    """numpy, with each divmod's size recorded: ``_walk`` reads one sub-block
    of draws into positions per divmod."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def divmod(self, draws, denom):
        self.sizes.append(draws.size)
        return np.divmod(draws, denom)


def test_group_bound_holds_draws_and_cells(monkeypatch):
    assert chain._GROUP == 4096
    # the benchmark's shapes: 3 x 3 chains of 200 steps group by 163 and walk
    # in lockstep, sample b's 10 chains of 100 x 100 in the scalar loop
    assert chain._group_size(200, 9) == 163 >= chain._LOCKSTEP > 10
    assert chain._group_size(200, 100 * 100) == 26
    assert chain._group_size(0, 100 * 100) == 26
    for steps, cells in ((200, 9), (1, 9), (0, 10_000), (57, 10_000), (0, 10 ** 6),
                         (10 ** 6, 9), (4096, 9), (4097, 9), (2000, 128 * 128)):
        size = chain._group_size(steps, cells)
        # at most _GROUP chains, so one step of each, a sub-block's least, is
        # at most _GROUP draws
        assert 1 <= size <= chain._GROUP
        assert size == 1 or (size * steps <= 8 * chain._GROUP
                             and size * cells <= 64 * chain._GROUP)
    # walked: every pass draws at most _GROUP per chain and 8 * _GROUP in
    # all, and every sub-block reads at most _GROUP draws into positions
    graph = GROUP_GRAPHS["3x3, denom 9"]
    for g, steps in ((163, 200), (1, 10_000), (chain._GROUP, 1), (30, 5_000), (1000, 40)):
        rngs, blocks = [_Counted(seed) for seed in range(g)], _Blocks()
        with monkeypatch.context() as m:
            m.setattr(chain, "np", blocks)
            chain._walk(graph, g, steps, generator_draws(rngs, 9))
        passes = list(zip(*(rng.sizes for rng in rngs)))
        assert sum(map(sum, passes)) == sum(blocks.sizes) == g * steps
        assert all(max(p) <= chain._GROUP and sum(p) <= 8 * chain._GROUP for p in passes)
        assert max(blocks.sizes) <= chain._GROUP


@pytest.mark.parametrize("ds, g", [(DS, 163), (BipartiteDegreeSequence((50,) * 100, (50,) * 100), 26)],
                         ids=["3x3 lockstep", "100x100 scalar"])
def test_a_pass_holds_its_transient_arrays_to_the_bound(ds, g):
    # a full group of 200 steps, one pass: its draws at 8 bytes each, and one
    # sub-block's positions, under 256 bytes per draw of _GROUP (the scalar
    # loop reads them from lists of ints); on generators' draws, and on the
    # seeded kernel's, whose words and rejection masks are the pass's too
    graph = greedy_realize(ds)
    denom = chain.pair_count(graph.k) * chain.pair_count(graph.l)
    assert chain._group_size(200, graph.k * graph.l) == g
    rngs = [np.random.default_rng(seed) for seed in range(g)]
    chain._walk(graph, 1, 1, generator_draws(rngs[:1], denom))   # the pair tables, cached
    for walk in (lambda: chain._walk(graph, g, 200, generator_draws(rngs, denom)),
                 lambda: next(chain._walk_seeds(graph, range(g), 200))):
        tracemalloc.start()
        try:
            cells = walk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = memoryview(cells).nbytes
        assert size == g * graph.k * graph.l
        assert peak - size <= 8 * g * 200 + 256 * chain._GROUP, peak - size


def test_lockstep_table_flips_only_the_one_factors():
    # every pattern of four 0/1 cells, read as one word in either byte
    # order, has its own residue mod 31; the host's order is the table's
    for order in ("little", "big"):
        words = [int.from_bytes(bytes(p), order) for p in product((0, 1), repeat=4)]
        assert len({w % 31 for w in words}) == 16, order
    for p in product((0, 1), repeat=4):
        x11, x12, x21, x22 = p
        after = [1 - x for x in p] if x11 == x22 != x12 == x21 else list(p)
        word = np.frombuffer(bytes(p), np.uint32)
        moved = chain._NEXT.take(word % 31).view(np.uint8)
        assert moved.tolist() == after, p


def test_both_inner_loops_at_the_real_bounds():
    # 180 3 x 3 chains of 200 steps: a lockstep group of 163, then a scalar
    # one of 17, in one _walk_seeds call
    graph, seeds = GROUP_GRAPHS["3x3, denom 9"], range(180)
    stacks = list(chain._walk_seeds(graph, seeds, 200))
    assert [len(s) for s in stacks] == [163, 17] and 17 < chain._LOCKSTEP <= 163
    layers = [layer for stack in stacks for layer in stack]
    for seed, layer in zip(seeds, layers):
        assert BipartiteGraph(layer) == scalar_walk(graph, np.random.default_rng(seed), 200)
    # 40 16 x 16 4-regular chains of 300 steps: one lockstep pass, read into
    # positions in sub-blocks of 102, 102 and 96 steps
    graph = greedy_realize(BipartiteDegreeSequence((4,) * 16, (4,) * 16))
    assert chain._group_size(300, 256) >= 40 >= chain._LOCKSTEP
    rngs = [np.random.default_rng(seed) for seed in range(40)]
    refs = [np.random.default_rng(seed) for seed in range(40)]
    cells = chain._walk(graph, 40, 300, generator_draws(rngs, 120 * 120))
    stack = np.frombuffer(cells, np.uint8).reshape(40, 16, 16)
    for layer, rng, ref in zip(stack, rngs, refs):
        assert BipartiteGraph(layer) == scalar_walk(graph, ref, 300)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("ds", [BipartiteDegreeSequence((2, 2, 2, 2), (3, 2, 2, 1)),
                                BipartiteDegreeSequence((2,) * 4, (2,) * 4)],
                         ids=["48U", "90"])
def test_holding_probability_counts_the_allowed_swaps(ds):
    # the oracle transition_prob counts core._allowed's field tuples;
    # allowed_swaps builds a Swap for each
    space = enumerate_states(ds)
    graphs_ = graphs(space) + [sample(BipartiteDegreeSequence((4,) * 16, (4,) * 16), 300, 5)]
    for G in graphs_:
        denom = chain.pair_count(G.k) * chain.pair_count(G.l)
        assert transition_prob(G, G) == 1 - Fraction(len(allowed_swaps(G)), denom)
    assert len(allowed_swaps(graphs_[-1])) == 1292


# seeds one word wide, and seeds on each side of 2^32, 2^64 and 2^128 (numpy
# hashes the four-word pool, then each word past it) and past 2^160
SEEDS = (list(range(200)) + [b + d for b in (1 << 32, 1 << 64, 1 << 128) for d in range(-3, 4)]
         + [1 << 160])
# a denominator of 1 reads no word; 3 * 2^30 rejects a quarter of the
# words; 2^32 - 1 and 2^32 end the 32-bit branch, whose word is the low half
# of an output first; 2^32 + 1 and 2^40 + 3 draw whole outputs at 64 bits
DENOMS = (1, 2, 9, 60, 14_400, 24_502_500, 3 << 30, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
          (1 << 40) + 3)


@pytest.mark.parametrize("denom", DENOMS)
@pytest.mark.parametrize("seeds", [range(200), SEEDS], ids=["range", "wide"])
def test_seeded_draws_are_numpys_streams(seeds, denom):
    # odd pass sizes end a pass on a low half, which the next pass reads first
    draw = chain._seeded(seeds, denom)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for n in (1, 7, 3, 200, 4096, 2):
        got = draw(n)
        assert got.shape == (len(seeds), n) and got.dtype == np.int64
        want = np.array([rng.integers(denom, size=n) for rng in rngs])
        assert np.array_equal(got, want), (denom, n)


@pytest.mark.parametrize("denom", [0, 9])
@pytest.mark.parametrize("seeds", [[3, -1], range(-3, 4), [-(1 << 70)]])
def test_seeded_negative_seed_raises_numpys_error(seeds, denom):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as ours:
        chain._seeded(seeds, denom)
    assert str(ours.value) == str(numpy_error.value) == "expected non-negative integer"

