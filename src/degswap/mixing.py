"""Desk-scale ground truth: enumerated state spaces, exact kernels, spectra,
distance-to-uniform decay, and the congestion of the canonical path system.

The kernel is held as an integer matrix over one common denominator, and
everything that feeds an inequality check is computed in Python integers or
exact rationals; floating point only enters the eigensolver.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .canonical import _pairing_cycles, _solve_cycle, hat_matrix, switch_distance
from .chain import pair_count
from .core import (BipartiteDegreeSequence, allowed_swaps, apply_swap,
                   greedy_realize, symmetric_difference)
from .errors import (DegenerateChain, NonMixing, SpecViolation, TooLarge,
                     TooManyPairings)
from .pairings import _all_pairings, _incidences, _pairing_count
from .ryser import replay


@dataclass(frozen=True)
class StateSpace:
    """All realizations of a degree sequence, canonically ordered by the
    row-major bit string of the biadjacency matrix.

    ``neighbours[i]`` lists, in increasing order, the ids of the states one
    allowed swap away from state ``i``: the move graph of the chain.
    """

    ds: BipartiteDegreeSequence
    states: tuple
    index: dict
    neighbours: tuple

    @property
    def n(self) -> int:
        return len(self.states)


def _brute_force_count(ds: BipartiteDegreeSequence) -> int:
    """Direct count of 0-1 matrices with the given margins, by rows."""
    from itertools import combinations

    k, l = ds.k, ds.l
    memo = {}

    def count_from(i, cols_left):
        if i == k:
            return 1 if all(c == 0 for c in cols_left) else 0
        key = (i, cols_left)
        if key in memo:
            return memo[key]
        total = 0
        d = ds.a[i]
        avail = [j for j in range(l) if cols_left[j] > 0]
        if len(avail) >= d:
            for pick in combinations(avail, d):
                nxt = list(cols_left)
                for j in pick:
                    nxt[j] -= 1
                total += count_from(i + 1, tuple(nxt))
        memo[key] = total
        return total

    return count_from(0, tuple(ds.b))


def enumerate_states(ds: BipartiteDegreeSequence, max_states: int = 10000) -> StateSpace:
    """Depth-first enumeration of the realization space over allowed swaps.

    Every allowed swap of every state is applied exactly once, and its
    target is recorded as a neighbour, so the move graph comes out of the
    same pass.  For small instances (k*l <= 20) the count is cross-validated
    against a direct enumeration of all 0-1 matrices with the prescribed
    margins.
    """
    start = greedy_realize(ds)
    found = {start.key(): 0}         # key -> id in discovery order
    graphs = [start]
    moves = {}                       # id -> ids of its swap targets
    stack = [0]
    while stack:
        i = stack.pop()
        g = graphs[i]
        nbrs = moves[i] = []
        for s in allowed_swaps(g):
            h = apply_swap(g, s)
            j = found.get(h.key())
            if j is None:
                if len(graphs) >= max_states:
                    raise TooLarge(f"more than {max_states} realizations")
                j = found[h.key()] = len(graphs)
                graphs.append(h)
                stack.append(j)
            nbrs.append(j)
    order = sorted(range(len(graphs)), key=lambda i: graphs[i].key())
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    states = tuple(graphs[i] for i in order)
    neighbours = tuple(tuple(sorted(rank[j] for j in moves[i])) for i in order)
    if ds.k * ds.l <= 20:
        expected = _brute_force_count(ds)
        if expected != len(states):
            raise AssertionError(
                f"swap enumeration found {len(states)} states, direct count {expected}")
    return StateSpace(ds, states, {g.key(): i for i, g in enumerate(states)}, neighbours)


class TransitionMatrix:
    """Exact kernel of the swap chain on an enumerated space, held in integers.

    ``P = A / denom``, where ``A`` has ``diag[i]`` at ``(i, i)``, ``off`` at
    ``(i, j)`` for every ``j`` in ``neighbours[i]`` and zero elsewhere.  For
    the swap chain ``denom = C(k,2)*C(l,2)``, ``off = 1`` and
    ``A = denom*I - L`` with ``L`` the Laplacian of the move graph.

    The constructor takes dense rational rows and converts them to this form;
    ``entries`` gives them back, built only when first read.
    """

    __slots__ = ("denom", "off", "diag", "neighbours", "_entries")

    def __init__(self, entries, jump):
        rows = [tuple(Fraction(x) for x in row) for row in entries]
        jump = Fraction(jump)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("kernel rows must form a square matrix")
        neighbours = tuple(tuple(j for j, x in enumerate(row) if x and j != i)
                           for i, row in enumerate(rows))
        if any(rows[i][j] != jump for i, nbrs in enumerate(neighbours) for j in nbrs):
            raise ValueError("off-diagonal entry differs from the jump probability")
        denom = math.lcm(jump.denominator, *(rows[i][i].denominator for i in range(n)))
        diag = tuple(int(rows[i][i] * denom) for i in range(n))
        self._set(denom, int(jump * denom), diag, neighbours)

    @classmethod
    def _from_move_graph(cls, denom: int, neighbours: tuple) -> "TransitionMatrix":
        """The kernel stepping to each move-graph neighbour with probability
        1/denom and staying put otherwise."""
        kernel = cls.__new__(cls)
        kernel._set(denom, 1, tuple(denom - len(nbrs) for nbrs in neighbours), neighbours)
        return kernel

    def _set(self, denom, off, diag, neighbours):
        """Store the integer form after checking the kernel laws in integers:
        every off-diagonal entry is zero or the jump, the adjacency is
        symmetric, and each row is non-negative and sums to one."""
        if off < 0:
            raise AssertionError("negative jump probability")
        nbr_sets = [set(nbrs) for nbrs in neighbours]
        for i, nbrs in enumerate(neighbours):
            if len(nbr_sets[i]) != len(nbrs) or i in nbr_sets[i]:
                raise AssertionError("off-diagonal entry differs from the jump probability")
            if any(i not in nbr_sets[j] for j in nbrs):
                raise AssertionError("kernel is not symmetric")
            if diag[i] < 0 or diag[i] + off * len(nbrs) != denom:
                raise AssertionError(f"row {i} does not sum to one")
        self.denom, self.off, self.diag, self.neighbours = denom, off, diag, neighbours
        self._entries = None

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def jump(self) -> Fraction:
        return Fraction(self.off, self.denom)

    @property
    def entries(self) -> tuple:
        """The kernel as dense rows of ``Fraction``s (read-only)."""
        if self._entries is None:
            jump, zero = self.jump, Fraction(0)
            rows = []
            for i, (d, nbrs) in enumerate(zip(self.diag, self.neighbours)):
                row = [zero] * self.n
                for j in nbrs:
                    row[j] = jump
                row[i] = Fraction(d, self.denom)
                rows.append(tuple(row))
            self._entries = tuple(rows)
        return self._entries

    def as_float(self) -> np.ndarray:
        """The kernel in float64; each entry is its integer numerator divided
        by ``denom``, the correctly rounded value of the exact entry."""
        n = self.n
        mat = np.zeros((n, n))
        rows = np.repeat(np.arange(n), [len(nbrs) for nbrs in self.neighbours])
        cols = np.fromiter(itertools.chain.from_iterable(self.neighbours), dtype=np.intp,
                           count=len(rows))
        mat[rows, cols] = self.off / self.denom
        np.fill_diagonal(mat, [d / self.denom for d in self.diag])
        return mat


def build_kernel(space: StateSpace) -> TransitionMatrix:
    """The exact kernel over the enumerated move graph; verifies in integers
    that the move graph is symmetric, that every off-diagonal entry is the
    single jump probability, and that no state has more moves than the
    C(k,2)*C(l,2) outcomes of a step."""
    ds = space.ds
    return TransitionMatrix._from_move_graph(
        pair_count(ds.k) * pair_count(ds.l) or 1, space.neighbours)


def spectral_gap(P: TransitionMatrix, tol: float = 1e-9, max_states: int = 2000):
    """Second-largest distinct eigenvalue and the relaxation time 1/(1 - l2).

    Eigenvalues within ``tol`` of each other count as one value, matching
    the convention of listing distinct eigenvalues in decreasing order.
    """
    if P.n < 2:
        raise DegenerateChain("need at least two states")
    if P.n > max_states:
        raise TooLarge(f"{P.n} states exceed the dense eigensolve guard {max_states}")
    mat = P.as_float()
    vals, vecs = np.linalg.eigh(mat)
    resid = np.abs(mat @ vecs - vecs * vals).max()
    if resid > 1e-10:
        raise AssertionError(f"eigensolver residual {resid:.2e} too large")
    ordered = sorted(vals, reverse=True)
    distinct = [ordered[0]]
    for v in ordered[1:]:
        if distinct[-1] - v > tol:
            distinct.append(v)
    if len(distinct) < 2:
        raise DegenerateChain("kernel has a single distinct eigenvalue")
    lam2 = distinct[1]
    if lam2 >= 1 - 1e-12:
        raise DegenerateChain("second eigenvalue is 1; the chain is disconnected")
    return lam2, 1.0 / (1.0 - lam2)


def _deviations(P: TransitionMatrix):
    """For t = 0, 1, 2, ... yield ``(max_{x,y} |N*A^t(y,x) - D^t|, D^t)``,
    where ``P = A / D`` on N states, so that the entrywise deviation of
    ``P^t`` from uniform is the first value over ``N * D^t``.

    ``A^t`` is advanced by sparse integer products over the move graph:
    column j of ``A`` holds ``diag[j]`` on the diagonal and ``off`` at the
    neighbours of j, because ``A`` is symmetric.
    """
    n, denom, off, diag, neighbours = P.n, P.denom, P.off, P.diag, P.neighbours
    cols = tuple(zip(diag, neighbours))
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    scale = 1
    while True:
        yield max(max(n * max(row) - scale, scale - n * min(row)) for row in power), scale
        power = [[d * x + off * sum(map(row.__getitem__, nbrs))
                  for x, (d, nbrs) in zip(row, cols)] for row in power]
        scale *= denom


def distance_profile(P: TransitionMatrix, t: int) -> Fraction:
    """Half the largest entrywise deviation of ``P^t`` from uniform,
    ``(1/2) max_{x,y} |P^t(y, x) - 1/N|``, as an exact rational.

    This is not the total-variation distance, which sums the deviations of
    a whole row before halving.
    """
    dev, scale = next(itertools.islice(_deviations(P), t, None))
    return Fraction(dev, 2 * P.n * scale)


def tv_mixing_time(P: TransitionMatrix, eps: float, t_max: int | None = None) -> int:
    """Smallest t whose ``distance_profile`` stays at or below eps from t on.

    The profile is half the largest entrywise deviation of ``P^t`` from
    uniform, not the total-variation distance.  Each step is decided in
    integers.  Monotone decay is verified by scanning ahead rather than
    assumed; a periodic chain that never settles raises ``NonMixing``.
    """
    n = P.n
    eps = Fraction(eps).limit_denominator(10**9)
    if t_max is None:
        try:
            _, tau = spectral_gap(P)
            t_max = int(40 * tau * math.log(n / float(eps))) + 50
        except DegenerateChain:
            t_max = 200
    candidate = None
    window = 0
    for t, (dev, scale) in zip(range(t_max + 1), _deviations(P)):
        if dev * eps.denominator <= 2 * eps.numerator * n * scale:
            if candidate is None:
                candidate = t
                window = 0
            else:
                window += 1
                if window >= max(10, candidate):
                    return candidate
        else:
            candidate = None
    if candidate is not None and window >= 3:
        return candidate
    raise NonMixing(f"distance to uniform never settles below {float(eps)} by t={t_max}")


@dataclass
class CongestionReport:
    kappa: Fraction
    max_edge: tuple
    edge_loading_max: Fraction
    n_paths: int
    max_switch_distance: int | None


def _segment(space: StateSpace, segments: dict, i: int, cycle) -> tuple:
    """State ids after each swap that flips ``cycle`` starting from state i.

    ``segments`` is the caller's cache, keyed by ``(i, cycle.edge_seq)``; a
    hit does no graph work.  A newly built segment is checked to step along
    move-graph edges only, and the solver checks that it lands on the
    flipped state.
    """
    key = (i, cycle.edge_seq)
    seg = segments.get(key)
    if seg is None:
        start = space.states[i]
        target = start.with_edges(sorted(cycle.x_edges), sorted(cycle.y_edges))
        seg = []
        for g in replay(start, _solve_cycle(start, target, cycle))[1:]:
            j = space.index.get(g.key())
            if j is None or j not in space.neighbours[i]:
                raise SpecViolation("a canonical path step is not a move-graph edge")
            seg.append(j)
            i = j
        seg = segments[key] = tuple(seg)
    return seg


def congestion(space: StateSpace, kernel: TransitionMatrix,
               max_states: int = 120, max_pairings: int = 5000,
               certify: bool = False, switch_cap: int = 6) -> CongestionReport:
    """The congestion constant of the full canonical path system.

    For every ordered pair (X, Y) and every pairing, the selected path is
    weighted by the fraction of pairings choosing it; each Markov-graph
    edge accumulates weight times the path's unit-cost sum 1/(T * pi).
    The maximum over edges upper-bounds the relaxation time.

    Paths are walked in state ids.  Their segments are cached per call by
    start state and cycle, and with ``certify`` the switch distances per
    distinct three-term matrix; nothing outlives the call.  Loads are
    integer numerators over one common multiple of the pairing counts.
    """
    n = space.n
    if n > max_states:
        raise TooLarge(f"{n} states exceed the congestion guard {max_states}")
    if n < 2:
        raise DegenerateChain("need at least two states")
    if kernel.n != n or kernel.neighbours != space.neighbours:
        raise ValueError("the kernel does not belong to this state space")
    segments = {}
    certs = {}
    scale = 1            # a common multiple of the pairing counts seen so far
    load = {}            # edge -> sum of c * |edges| * scale / T
    weight = {}          # edge -> sum of c * scale / T
    n_paths = 0
    max_sd = 0
    for xi, X in enumerate(space.states):
        for yi, Y in enumerate(space.states):
            if xi == yi:
                continue
            part = symmetric_difference(X, Y)
            incid = _incidences(part)
            t_total = _pairing_count(incid)
            if t_total > max_pairings:
                raise TooManyPairings(
                    f"{t_total} pairings exceed the guard {max_pairings}")
            counts = {}
            for s in _all_pairings(part, incid):
                ids = [xi]
                for cyc in _pairing_cycles(X, Y, s, part):
                    ids.extend(_segment(space, segments, ids[-1], cyc))
                if ids[-1] != yi:
                    raise SpecViolation("path did not land on Y")
                ids = tuple(ids)
                counts[ids] = counts.get(ids, 0) + 1
            if certify:
                for z in set().union(*counts):
                    hat = hat_matrix(X, Y, space.states[z]).cells
                    key = hat.tobytes()
                    sd = certs.get(key)
                    if sd is None:
                        sd = certs[key] = switch_distance(hat, cap=switch_cap)
                    max_sd = max(max_sd, sd if isinstance(sd, int) else sd.cap + 1)
            if scale % t_total:
                grow = t_total // math.gcd(scale, t_total)
                scale *= grow
                load = {e: v * grow for e, v in load.items()}
                weight = {e: v * grow for e, v in weight.items()}
            per_pairing = scale // t_total
            for ids, c in counts.items():
                n_paths += 1
                edges = {(a, b) if a < b else (b, a) for a, b in zip(ids, ids[1:])}
                w = c * per_pairing
                lw = w * len(edges)
                for e in edges:
                    load[e] = load.get(e, 0) + lw
                    weight[e] = weight.get(e, 0) + w
    # the load of edge e is load[e] / (n * scale * jump): one positive factor
    # for every edge, so the integer numerators order the edges as the loads do
    max_edge = max(load, key=lambda e: (load[e], e))
    return CongestionReport(
        kappa=Fraction(load[max_edge] * kernel.denom, n * scale * kernel.off),
        max_edge=max_edge,
        edge_loading_max=Fraction(max(weight.values()), scale),
        n_paths=n_paths,
        max_switch_distance=max_sd if certify else None)
