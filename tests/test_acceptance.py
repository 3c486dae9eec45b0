"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded measurements.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from scipy import stats

from degswap import (BipartiteDegreeSequence, BipartiteGraph, FMatrix,
                     FriendlyPath, all_pairings, canonical_path,
                     find_friendly_path, hat_matrix, is_graphical,
                     random_pairing, ryser_sequence, sample, switch_distance)
from degswap.canonical import (CycleFrame, OKKOSpec, cycle_swaps,
                               matches_spec, verify_friendly_path,
                               verify_same_state, verify_steinhaus)
from degswap.mixing import (build_kernel, congestion, enumerate_states,
                            spectral_gap, tv_mixing_time)
from degswap.ryser import replay

from oracles import (all_degree_pairs, brute_margin_count, cycle_graph_pair,
                     dense_kernel_rows, friendly_path_exists, graphs, kernel_rows,
                     perturbed_environment, random_types, spec_realization,
                     split_environment_pools)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


def bds(a, b):
    return BipartiteDegreeSequence(tuple(a), tuple(b))


def test_criterion_1_enumeration_ground_truth():
    with criterion(1, "BFS state count equals brute-force margin count, k,l <= 4"):
        t0 = time.time()
        checked = 0
        for a, b in all_degree_pairs(4, 4):
            expected = brute_margin_count(a, b)
            ds = bds(a, b)
            assert is_graphical(ds) == (expected >= 1), (a, b)
            if expected:
                space = enumerate_states(ds)
                assert space.n == expected, (a, b, space.n, expected)
                checked += 1
        elapsed = time.time() - t0
        print(f"  {checked} graphical sequences verified in {elapsed:.1f}s")
        assert elapsed < 60


def test_criterion_2_ryser_bound():
    with criterion(2, "constructive sequences replay exactly within 2e swaps"):
        instances = [ds for a, b in all_degree_pairs(3, 3)
                     if is_graphical(ds := bds(a, b))]
        instances.append(bds((2, 2, 2), (3, 2, 1)))
        pairs = 0
        for ds in instances:
            space = enumerate_states(ds)
            e = sum(ds.a)
            all_states = graphs(space)
            for X in all_states:
                for Y in all_states:
                    seq = ryser_sequence(X, Y)
                    assert replay(X, seq)[-1] == Y
                    assert len(seq) <= 2 * e, (ds, len(seq), e)
                    pairs += 1
        print(f"  {pairs} ordered pairs checked")


def test_criterion_3_kernel_laws():
    with criterion(3, "kernel symmetry, unit row sums, uniform stationarity (exact)"):
        instances = [ds for a, b in all_degree_pairs(3, 3)
                     if is_graphical(ds := bds(a, b))]
        instances += [bds((2, 2, 2, 2), (2, 2, 2, 2))]
        for ds in instances:
            space = enumerate_states(ds)
            K = build_kernel(space)      # verifies symmetry/rows on build
            rows = kernel_rows(K)
            assert rows == dense_kernel_rows(space), ds
            for j in range(K.n):
                col = sum(rows[i][j] for i in range(K.n))
                assert col == 1, (ds, j)


def test_criterion_4_sinclair_inequality():
    with criterion(4, "relaxation time bounded by congestion on three sequences"):
        t0 = time.time()
        for a, b in (((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (3, 2, 1)),
                     ((2, 2, 2, 2), (2, 2, 2, 2))):
            space = enumerate_states(bds(a, b))
            _, tau = spectral_gap(build_kernel(space))
            rep = congestion(space)
            assert tau <= float(rep.kappa) + 1e-8, (a, b, tau, rep.kappa)
            if space.n == 90:
                assert (rep.kappa, rep.max_edge, rep.edge_loading_max, rep.n_paths) == (
                    Fraction(539, 10), (84, 88), Fraction(417, 8), 33492)
            print(f"  {a}|{b}: N={space.n} tau_rel={tau:.4f} kappa={rep.kappa} "
                  f"({float(rep.kappa):.2f})")
        elapsed = time.time() - t0
        print(f"  total {elapsed:.1f}s")
        assert elapsed < 600


def _random_base_anchor(rng, ell, kind_change):
    # both anchors of the step must be chords: the same-kind target sits at
    # (a-1, b+2), the kind-change target at (b+2, a-1)
    max_gap = ell - 5 if kind_change else ell - 4
    gap = int(rng.integers(2, max_gap + 1))
    a = int(rng.integers(1, ell - 2 - gap))
    return a, a + gap


def test_criterion_5_okko_constants():
    with criterion(5, "pattern steps stay within 24 (same-kind) and 40 (kind change) swaps"):
        rng = np.random.default_rng(2024)
        max_ok = max_ko = 0
        for case in range(500):
            ell = int(rng.integers(7, 11))
            kind_change = case % 2 == 1
            a, b = _random_base_anchor(rng, ell, kind_change)
            types = random_types(ell, rng, 0.5)
            types[(a, b)] = 1
            if kind_change:
                types[((b + 2) % ell, (a - 1) % ell)] = 0
            else:
                types[((a - 1) % ell, (b + 2) % ell)] = 1
            adj = np.zeros((ell, ell), np.uint8)
            for t in range(ell):
                adj[t, t] = 1
            for pos, ty in types.items():
                adj[pos] = ty
            G = BipartiteGraph(adj)
            frame = CycleFrame(tuple(range(ell)), tuple(range(ell)))
            s1 = OKKOSpec("OK", (a, b), frame)
            L1 = spec_realization(G, s1)
            assert matches_spec(L1, s1)
            if kind_change:
                s2 = OKKOSpec("KO", ((b + 2) % ell, (a - 1) % ell), frame)
            else:
                s2 = OKKOSpec("OK", ((a - 1) % ell, (b + 2) % ell), frame)
            from degswap import ok_ko_step
            swaps = ok_ko_step(L1, s1, s2)
            assert matches_spec(replay(L1, swaps)[-1], s2)
            if kind_change:
                assert len(swaps) <= 40, (ell, a, b, len(swaps))
                max_ko = max(max_ko, len(swaps))
            else:
                assert len(swaps) <= 24, (ell, a, b, len(swaps))
                max_ok = max(max_ok, len(swaps))
        print(f"  recorded maxima: same-kind {max_ok} (cap 24), "
              f"kind-change {max_ko} (cap 40)")


def test_criterion_6_single_cycle_paths():
    with criterion(6, "single-cycle paths: replay, linear length, flat certificates"):
        t0 = time.time()
        rng = np.random.default_rng(606)
        ratios = {}
        sd_max = {}
        for ell in range(3, 9):
            worst_len = 0
            worst_sd = 0
            for trial in range(200):
                p = (0.2, 0.5, 0.8)[trial % 3]
                G, Gp, cyc = cycle_graph_pair(ell, random_types(ell, rng, p))
                pool_x, pool_y = split_environment_pools(ell, cyc.edge_seq, rng)
                X = perturbed_environment(G, cyc.edge_seq, pool_x, rng, tries=10)
                Y = perturbed_environment(Gp, cyc.edge_seq, pool_y, rng, tries=10)
                swaps = cycle_swaps(G, Gp, X, Y, cyc)
                states = replay(G, swaps)
                assert states[-1] == Gp
                worst_len = max(worst_len, len(swaps))
                for Z in states:
                    sd = switch_distance(hat_matrix(X, Y, Z), cap=6)
                    assert isinstance(sd, int), "certificate exceeded its cap"
                    worst_sd = max(worst_sd, sd)
            ratios[ell] = worst_len / (2 * ell)
            sd_max[ell] = worst_sd
        fitted = max(ratios.values())
        print(f"  fitted c = {fitted:.3f}; per-length c: "
              + ", ".join(f"{l}:{ratios[l]:.3f}" for l in sorted(ratios)))
        print(f"  max switch distances per length: {sd_max}")
        print(f"  total {time.time() - t0:.1f}s")
        assert time.time() - t0 < 600
        assert max(sd_max[l] for l in (3, 4, 5, 6, 7, 8)) == \
            max(sd_max[l] for l in (3, 4, 5)), "certificate plateau broken"
        for l in range(3, 8):
            assert ratios[l] >= ratios[l + 1], (
                f"fitted c increases from length {l} to {l + 1}: "
                f"{ratios[l]:.3f} -> {ratios[l + 1]:.3f}")


def test_criterion_7_semi_regular_switch_distance():
    with criterion(7, "semi-regular: every intermediate stays within switch distance 2"):
        space = enumerate_states(bds((2, 2, 2), (3, 2, 1)))
        assert space.ds.is_semi_regular()
        checked = 0
        all_states = graphs(space)
        for X in all_states:
            for Y in all_states:
                if X == Y:
                    continue
                for s in all_pairings(X, Y):
                    states, certs = canonical_path(X, Y, s, certify=True)
                    assert all(isinstance(c, int) and c <= 2 for c in certs)
                    checked += len(certs)
        print(f"  {checked} intermediate certificates, all <= 2")


def _u_regular_instance(rng, lo, hi):
    """A random U-regular degree sequence with k, l in lo..hi: each row
    picks the same number of columns at random, and the columns' degrees
    are whatever that gives."""
    k, l = (int(x) for x in rng.integers(lo, hi + 1, size=2))
    d = int(rng.integers(1, l))
    adj = np.zeros((k, l), np.int64)
    for u in range(k):
        adj[u, rng.choice(l, size=d, replace=False)] = 1
    return bds((d,) * k, sorted(adj.sum(axis=0).tolist(), reverse=True))


def test_seeded_certificate_sweep_u_regular():
    """Criterion 7's claim beyond its one 3-state space: canonical paths
    between sampled realizations of random U-regular sequences keep every
    certificate at 2 or below."""
    t0 = time.time()
    rng = np.random.default_rng(7007)
    hist = {}
    for lo, hi, count in ((3, 8, 300), (6, 16, 150)):
        for _ in range(count):
            ds = _u_regular_instance(rng, lo, hi)
            sx, sy, sp = (int(x) for x in rng.integers(2**31, size=3))
            steps = 10 * ds.k * ds.l
            X, Y = sample(ds, steps, seed=sx), sample(ds, steps, seed=sy)
            _, certs = canonical_path(X, Y, random_pairing(X, Y, sp), certify=True)
            for c in certs:
                key = c if isinstance(c, int) else repr(c)
                hist[key] = hist.get(key, 0) + 1
            assert all(isinstance(c, int) and c <= 2 for c in certs), (
                f"certificate above 2: ds={ds.a}|{ds.b}, steps={steps}, "
                f"sample seeds {sx}, {sy}, pairing seed {sp}, certificates {certs}")
    print(f"  450 U-regular paths, certificate histogram "
          f"{dict(sorted(hist.items(), key=str))}, {time.time() - t0:.1f}s")


def test_criterion_8_friendly_dichotomy():
    with criterion(8, "dichotomy on 1000 random chord matrices per grid size 4..7"):
        rng = np.random.default_rng(808)
        found = {"path": 0, "block": 0}
        for ell in (4, 5, 6, 7):
            for trial in range(1000):
                p = (0.15, 0.3, 0.5, 0.7, 0.85)[trial % 5]
                types = random_types(ell, rng, p)
                F = FMatrix.from_types(ell, types)
                res = find_friendly_path(F)
                if isinstance(res, FriendlyPath):
                    verify_friendly_path(res, F)
                    found["path"] += 1
                else:
                    verify_steinhaus(res, F)
                    verify_same_state(F)
                    found["block"] += 1
                if ell <= 6 and trial % 10 == 0:
                    assert isinstance(res, FriendlyPath) == \
                        friendly_path_exists(types, ell)
        print(f"  outcomes: {found['path']} paths, {found['block']} blocking sets")


def test_criterion_9_sampling_uniformity():
    with criterion(9, "chain samples pass the uniformity test on three states"):
        t0 = time.time()
        ds = bds((2, 2, 2), (3, 2, 1))
        space = enumerate_states(ds)
        assert space.n == 3
        base_seed = 12345
        counts = [0, 0, 0]
        for i in range(10_000):
            g = sample(ds, 200, seed=base_seed + i)
            counts[space.index[g.key()]] += 1
        chi2, p = stats.chisquare(counts)
        elapsed = time.time() - t0
        print(f"  counts {counts}, chi2={chi2:.2f}, p={p:.3f}, {elapsed:.1f}s")
        assert p > 0.01
        assert sample(ds, 200, seed=base_seed) == sample(ds, 200, seed=base_seed)
        assert elapsed < 30


def test_criterion_10_mixing_time_sanity():
    with criterion(10, "distance decay time within the spectral order of magnitude"):
        space = enumerate_states(bds((1, 1, 1), (1, 1, 1)))
        K = build_kernel(space)
        _, tau = spectral_gap(K)
        eps = 0.01
        t = tv_mixing_time(K, eps)
        bound = 20 * tau * math.log(space.n / eps)
        print(f"  t_mix={t}, tau_rel={tau:.3f}, bound={bound:.1f}")
        assert 0 < t <= bound
