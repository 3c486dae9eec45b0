"""Friendly chord paths and the swap path they drive along one cycle.

The chords of an alternating cycle live on a grid between the two
diagonals.  A chord is friendly when one of its four cousins (the
reflected 2x2 window) shares its value.  Either a chain of friendly
chords crosses from one diagonal to the other, and then it anchors a
sequence of intermediate target realizations bridged by short swap runs,
or a connected set of unfriendly chords blocks every crossing, and the
cycle is cut into two smaller ones handled recursively.  Both branches
are shown below, with the certificate that every visited realization's
three-term matrix stays within a bounded number of switches of a 0-1
matrix.
"""

import numpy as np

from degswap import (AlternatingCycle, BipartiteGraph, FMatrix, FriendlyPath,
                     find_friendly_path, hat_matrix, path_along_cycle,
                     switch_distance)


def cycle_pair(ell, types):
    """Two realizations differing in one alternating 2*ell-cycle, with the
    chords fixed to ``types`` in both."""
    adj_g = np.zeros((ell, ell), np.uint8)
    adj_h = np.zeros((ell, ell), np.uint8)
    for t in range(ell):
        adj_g[t, t] = 1
        adj_h[t, (t + 1) % ell] = 1
    for (a, b), ty in types.items():
        adj_g[a, b] = adj_h[a, b] = ty
    seq = []
    for t in range(ell):
        seq += [(t, t), (t, (t + 1) % ell)]
    return BipartiteGraph(adj_g), BipartiteGraph(adj_h), AlternatingCycle(tuple(seq))


def chord_cells(ell):
    return [(a, b) for a in range(ell) for b in range(ell)
            if (b - a) % ell >= 2]


def show(ell, types, label):
    F = FMatrix.from_types(ell, types)
    res = find_friendly_path(F)
    print(f"\n{label} (cycle of {2 * ell} edges)")
    for row in F.cells:
        print("   " + " ".join(str(v) for v in row))
    if isinstance(res, FriendlyPath):
        cells = " -> ".join(f"({a + 1},{b + 1})" for a, b in res.positions)
        print("  friendly path:", cells)
    else:
        print("  blocking set:", sorted(res.positions))
    G, Gp, cyc = cycle_pair(ell, types)
    states = path_along_cycle(G, Gp, G, Gp, cyc)
    certs = [switch_distance(hat_matrix(G, Gp, Z)) for Z in states]
    print(f"  path: {len(states) - 1} swaps, certificates {certs}")


rng = np.random.default_rng(4)
show(6, {c: int(rng.random() < 0.5) for c in chord_cells(6)},
     "random chord values")

# every chord on ring 3 is unfriendly: its cousins sit on rings 4, 5, 6
blocked = {c: (0 if (c[1] - c[0]) % 7 == 3 else 1) for c in chord_cells(7)}
show(7, blocked, "a wrapped unfriendly ring blocks every crossing")
