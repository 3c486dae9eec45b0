"""Bipartite degree sequences, graphs, swaps, and symmetric differences.

Conventions used throughout the package:

* The two vertex classes are U (size k) and V (size l).  A graph is stored
  as a dense k x l 0-1 biadjacency matrix, row u = U-vertex u, column
  v = V-vertex v, row 0 being u1.
* A degree sequence pair (a, b) lists the U degrees and the V degrees,
  both non-increasing.
* A swap exchanges a 2x2 one-factor of the biadjacency matrix for the
  complementary one-factor.  It is the elementary move of the Markov chain
  and preserves every vertex degree.  One check decides it: ``_flip`` on
  the key read as an int (``_int``), one mask test and one XOR, and
  ``_step`` raises ``SwapNotAllowed`` where it fails.  ``swap_is_allowed``,
  ``apply_swap``, ``Swap.on``, ``ryser.swap_distance`` and the cycle solver
  of ``canonical`` all step through it, the graph's own calls on rows
  u1 .. u2 of its key only (``BipartiteGraph._swapped``); ``_allowed``
  lists a graph's swaps off its row bitmasks for ``allowed_swaps`` and
  ``swap_distance``.  Three measured kernels keep one-factor tests of their
  own: the sampler's walk (``chain._walk``), ``mixing._swap_targets`` and
  the 4-cycle route of ``canonical._local_swaps``.
* ``greedy_realize`` builds every chain's start and decides graphicality,
  holding the U-vertices of equal remaining capacity as row bitmasks, with
  no sort per V-vertex.
* Both text readers (``_lines``) take ASCII only: digits, "-", spaces and
  tabs between tokens, and "\\n" or "\\r\\n" line ends.
* X xor Y is read one way, ``_difference``: the XOR of the two keys read
  as little-endian ints (cell c = u*l+v at bit 8c), its edges in cell
  order; ``_number`` adds the decomposition kernel's codes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import DegreeMismatch, NotGraphical, ShapeMismatch, SwapNotAllowed

# cell bytes 0 and 1 to the characters "0" and "1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class BipartiteDegreeSequence:
    """A pair of non-increasing degree lists, one per vertex class.

    ``a`` holds the degrees of class U (length k), ``b`` the degrees of
    class V (length l).  Each U degree is at most l and each V degree at
    most k.  Equal degree sums are required for a realization to exist but
    are deliberately not enforced here; ``is_graphical`` decides that.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        try:
            a = tuple(map(operator.index, self.a))
            b = tuple(map(operator.index, self.b))
        except TypeError:
            raise ValueError("degrees must be integers") from None
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not a or not b:
            raise ValueError("both degree lists must be non-empty")
        if min(a) < 0 or min(b) < 0:
            raise ValueError("degrees must be non-negative")
        if sorted(a, reverse=True) != list(a):
            raise ValueError("U degrees must be non-increasing")
        if sorted(b, reverse=True) != list(b):
            raise ValueError("V degrees must be non-increasing")
        if a[0] > len(b):
            raise ValueError("a U degree exceeds the size of class V")
        if b[0] > len(a):
            raise ValueError("a V degree exceeds the size of class U")

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def l(self) -> int:
        return len(self.b)

    def sums_match(self) -> bool:
        return sum(self.a) == sum(self.b)

    def is_semi_regular(self) -> bool:
        """True when one class has all degrees equal."""
        return len(set(self.a)) == 1 or len(set(self.b)) == 1

    def to_text(self) -> str:
        return " ".join(map(str, self.a)) + "\n" + " ".join(map(str, self.b)) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BipartiteDegreeSequence":
        """Read the text ``to_text`` writes: two lines (``_lines``) of
        integers in ASCII digits, each with an optional leading "-".  A
        line is matched whole by one pattern and its tokens read by
        ``int``; ``ValueError`` naming the first token of any other line
        (``_read_int``), then unless there are exactly two lines."""
        lines = _lines(text)
        for ln in lines:
            if not _INTS.fullmatch(ln):
                for token in _GAPS.split(ln):
                    _read_int(token)
        if len(lines) != 2:
            raise ValueError("degree sequence text needs exactly two non-empty lines")
        return cls(*(tuple(map(int, ln.split())) for ln in lines))


# a line of degrees, stripped: ASCII integers separated by spaces and tabs
_INTS = re.compile(r"-?[0-9]+(?:[ \t]+-?[0-9]+)*")
_GAPS = re.compile(r"[ \t]+")


def _lines(text: str) -> list:
    """The lines of a text format, ended by "\\n" or "\\r\\n", with the
    spaces and tabs around them stripped and the blank ones dropped.  No
    other character separates anything: a lone "\\r", a form feed or a
    no-break space stays in its line, where the reader refuses it."""
    lines = (ln.strip(" \t") for ln in text.replace("\r\n", "\n").split("\n"))
    return [ln for ln in lines if ln]


def _read_int(token: str) -> int:
    """A text token as an int: ASCII digits with an optional leading "-",
    so that a negative degree or size meets its own check; ``ValueError``
    naming any other token, such as "+2", "1_1", "2\\xa02" or non-ASCII
    digits, which ``int`` would read or split."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


@dataclass(frozen=True)
class Swap:
    """A 4-vertex edge exchange, canonicalized with u1 < u2 and v1 < v2.

    ``orientation`` is 1 when the edges present before the swap are
    (u1, v1) and (u2, v2), and 2 when they are (u1, v2) and (u2, v1).
    """

    u1: int
    u2: int
    v1: int
    v2: int
    orientation: int

    def __post_init__(self):
        try:
            for name in ("u1", "u2", "v1", "v2", "orientation"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise ValueError("swap fields must be integers") from None
        if not (0 <= self.u1 < self.u2 and 0 <= self.v1 < self.v2):
            raise ValueError("swap indices must satisfy 0 <= u1 < u2 and 0 <= v1 < v2")
        if self.orientation not in (1, 2):
            raise ValueError("orientation must be 1 or 2")

    @classmethod
    def on(cls, ua: int, ub: int, va: int, vb: int, graph: "BipartiteGraph") -> "Swap":
        """The canonical swap on the four given vertices of ``graph``, its
        orientation read from the key at (u1, v1): 1 when that cell is on;
        ``SwapNotAllowed`` unless the 2x2 is a one-factor of ``graph``."""
        s = cls(*sorted((ua, ub)), *sorted((va, vb)), 1)
        key, cell = graph.key(), s.u1 * graph.l + s.v1
        # a cell past the key belongs to an off-shape swap, refused below
        if cell >= len(key) or not key[cell]:
            s = s.inverse()
        if not graph.swap_is_allowed(s):
            raise SwapNotAllowed(f"({s.u1},{s.u2};{s.v1},{s.v2}) is not a one-factor of this graph")
        return s

    def inverse(self) -> "Swap":
        return Swap(self.u1, self.u2, self.v1, self.v2, 3 - self.orientation)


@dataclass(frozen=True)
class EdgePartition:
    """The symmetric difference of two graphs, split into X-edges and Y-edges."""

    x_edges: frozenset
    y_edges: frozenset


class BipartiteGraph:
    """A simple bipartite graph held as a dense 0-1 biadjacency matrix.

    Instances are immutable; all mutations go through copies.  ``key()``
    returns a hashable canonical form (the raw bytes of the matrix).
    ``row_deg`` and ``col_deg`` are summed from the matrix when first read.
    """

    __slots__ = ("adj", "k", "l", "_row_deg", "_col_deg", "_key")

    def __init__(self, adj):
        arr = np.array(adj)
        if arr.ndim != 2:
            raise ValueError("biadjacency matrix must be two-dimensional")
        # checked before the cast, which would truncate 1.5 and wrap 256
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("biadjacency entries must be 0 or 1")
        self._adopt(arr.astype(np.uint8))

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "BipartiteGraph":
        """Wrap a two-dimensional 0-1 ``uint8`` array built by the package
        itself (typically a copy of a validated graph's matrix with edges
        exchanged), without validating it again.  The graph takes ownership:
        the caller must not write to ``arr`` afterwards."""
        g = cls.__new__(cls)
        g._adopt(arr)
        return g

    def _adopt(self, arr: np.ndarray):
        arr.setflags(write=False)
        self.adj = arr
        self.k, self.l = arr.shape
        self._row_deg = self._col_deg = None
        self._key = arr.tobytes()

    @property
    def row_deg(self) -> tuple:
        """The degrees of the U-vertices, in row order."""
        if self._row_deg is None:
            self._row_deg = tuple(self.adj.sum(axis=1).tolist())
        return self._row_deg

    @property
    def col_deg(self) -> tuple:
        """The degrees of the V-vertices, in column order."""
        if self._col_deg is None:
            self._col_deg = tuple(self.adj.sum(axis=0).tolist())
        return self._col_deg

    # -- identity ---------------------------------------------------------

    def key(self) -> bytes:
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph) and self.k == other.k
                and self.l == other.l and self._key == other._key)

    def __hash__(self) -> int:
        return hash((self.k, self.l, self._key))

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.k}x{self.l}, e={sum(self.row_deg)})"

    # -- queries ----------------------------------------------------------

    def num_edges(self) -> int:
        return int(self.adj.sum())

    def same_margins(self, other: "BipartiteGraph") -> bool:
        return (self.k == other.k and self.l == other.l
                and self.row_deg == other.row_deg and self.col_deg == other.col_deg)

    def swap_is_allowed(self, s: Swap) -> bool:
        return self._swapped(s) is not None

    def _swapped(self, s: Swap):
        """Rows u1 .. u2 of the key read as an int (``_int``) with ``s``
        applied by ``_flip``, its rows at offsets 0 and (u2-u1)*l, or None
        unless ``s`` is allowed: only the swap's span of the key is read.
        Its indices are checked against the shape first: a column past l
        would alias into the next row."""
        if s.u2 >= self.k or s.v2 >= self.l:
            return None
        l = self.l
        window = _int(self._key[s.u1 * l:(s.u2 + 1) * l])
        return _flip(window, 0, (s.u2 - s.u1) * l, s.v1, s.v2, s.orientation)

    # -- construction -----------------------------------------------------

    def with_edges(self, removals, additions) -> "BipartiteGraph":
        arr = self.adj.copy()
        arr.setflags(write=True)
        for (u, v) in removals:
            arr[u, v] = 0
        for (u, v) in additions:
            arr[u, v] = 1
        return BipartiteGraph._trusted(arr)

    # -- text format ------------------------------------------------------

    def to_text(self) -> str:
        """The header ``k l`` and the k matrix rows, each line ended by a
        newline."""
        return _stack_text(self.adj[None])

    @classmethod
    def from_text(cls, text: str) -> "BipartiteGraph":
        """Read the text ``to_text`` writes, its lines read by ``_lines``.
        The header must be two non-negative integers in ASCII digits
        separated by spaces or tabs, and every row l characters 0 or 1,
        checked before the rows are counted; ``ValueError`` naming the
        header or the row otherwise.  Those checks are the whole
        validation: the matrix is built from the checked rows and not
        checked again."""
        lines = _lines(text)
        if not lines:
            raise ValueError("empty graph text")
        try:
            k, l = map(_read_int, _GAPS.split(lines[0]))
        except ValueError:
            k = l = -1
        if k < 0 or l < 0:
            raise ValueError(f"bad graph header {lines[0]!r}: expected two non-negative "
                             "integers k l")
        body = lines[1:]
        for ln in body:
            if len(ln) != l or set(ln) - {"0", "1"}:
                raise ValueError(f"bad matrix row {ln!r}")
        if l == 0 and not body:
            body = [""] * k      # the k rows of a k x 0 matrix are blank lines
        if len(body) != k:
            raise ValueError(f"expected {k} matrix rows, found {len(body)}")
        cells = np.frombuffer("".join(body).encode("ascii"), np.uint8) - ord("0")
        return cls._trusted(cells.reshape(k, l))


def _stack_text(stack: np.ndarray) -> str:
    """The text forms (``BipartiteGraph.to_text``) of the layers of an
    (n, k, l) 0-1 ``uint8`` stack, joined by newlines: every layer's rows
    are rendered in one pass, and each gets its header."""
    n, k, l = stack.shape
    rows = np.full((n, k, l + 1), ord("\n"), dtype=np.uint8)
    rows[:, :, :l] = stack + ord("0")
    body, head, w = rows.tobytes().decode(), f"{k} {l}\n", k * (l + 1)
    return "\n".join([head + body[i * w:(i + 1) * w] for i in range(n)])


# -- realization --------------------------------------------------------------


def greedy_realize(ds: BipartiteDegreeSequence) -> BipartiteGraph:
    """Build a realization of ``ds`` greedily, or raise ``NotGraphical``.

    V-vertices are satisfied in non-increasing degree order; each one is
    connected to the U-vertices with the largest remaining capacity, ties
    broken by lowest index.  Getting stuck proves non-graphicality, so this
    doubles as the graphicality test.

    No sort runs per V-vertex.  The U-vertices of one positive remaining
    capacity form a run, a row bitmask, and the runs are held highest
    capacity first.  A column of degree d takes min(d, k) rows: whole runs
    from the top, then the lowest-index rows of the run it ends in, whose
    boundary a bisection on the bit count of a low slice of the run finds.
    It is stuck when fewer rows than that have capacity left.  Taken rows
    drop one level, and runs that meet at one capacity merge.  The matrix
    is built once at the end from the column masks.
    """
    if not ds.sums_match():
        raise NotGraphical(
            f"degree sums differ: sum(a)={sum(ds.a)} vs sum(b)={sum(ds.b)}")
    k, l = ds.k, ds.l
    by_cap = {}
    for u, c in enumerate(ds.a):
        if c > 0:
            by_cap[c] = by_cap.get(c, 0) | 1 << u
    runs = sorted(by_cap.items(), reverse=True)     # (capacity, rows), highest first
    left = sum(m.bit_count() for _, m in runs)      # rows with capacity left
    cols = []
    for j, d in enumerate(ds.b):
        if d == 0:
            cols.append(0)
            continue
        need = min(d, k)
        if left < need:
            raise NotGraphical(f"cannot satisfy V-vertex {j} with degree {d}")
        col, out, i = 0, [], 0
        while need:
            c, m = runs[i]
            i += 1
            n = m.bit_count()
            if n > need:
                # the need lowest rows of m: the least p with that many below bit p
                lo, hi = need, m.bit_length()
                while lo < hi:
                    p = (lo + hi) >> 1
                    if (m & ((1 << p) - 1)).bit_count() < need:
                        lo = p + 1
                    else:
                        hi = p
                rest = m & ~((1 << lo) - 1)
                m ^= rest
                _add_run(out, c, rest)
                n = need
            col |= m
            need -= n
            _add_run(out, c - 1, m)
        if i < len(runs):
            _add_run(out, *runs[i])
            i += 1
        if out[-1][0] == 0:                     # rows whose capacity ran out
            left -= out.pop()[1].bit_count()
        runs[:i] = out
        cols.append(col)
    if left:
        raise NotGraphical("leftover capacity after placing all V-vertices")
    # column j's mask as k bits, low row first; its transpose is the matrix
    width = (k + 7) >> 3
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in cols), np.uint8)
    bits = np.unpackbits(packed.reshape(l, width), axis=1, count=k, bitorder="little")
    return BipartiteGraph._trusted(np.ascontiguousarray(bits.T))


def _add_run(runs: list, cap: int, rows: int):
    """Append the run ``(cap, rows)`` to ``runs``, a list in decreasing
    capacity whose last capacity is at least ``cap``, merging it into the
    last run when the two capacities are equal."""
    if runs and runs[-1][0] == cap:
        runs[-1] = (cap, runs[-1][1] | rows)
    else:
        runs.append((cap, rows))


def is_graphical(ds: BipartiteDegreeSequence) -> bool:
    """True iff a simple bipartite realization of ``ds`` exists, decided by
    ``_gale_ryser``."""
    return _gale_ryser(ds.a, ds.b)


def _gale_ryser(a, b) -> bool:
    """True iff some 0-1 matrix has row sums ``a`` and column sums ``b``,
    lists of integers in any order.  An empty list answers False, as no
    degree sequence has an empty class.

    Decided by the Gale-Ryser theorem: the sums agree, and for every t the
    t largest row sums add up to at most sum_j min(b_j, t), the number of
    ones the columns can put in t rows.  That sum is the running total of
    the conjugate of b, so after the sort the test is O(k + l).  Row sums
    out of [0, l] fail it without a check of their own: a negative one
    leaves the other k - 1 rows more than the total (or, when k = 1, a
    negative column sum), and one above l exceeds the l columns at t = 1.
    """
    if not a or not b:
        return False
    a = sorted(a, reverse=True)
    k = len(a)
    if sum(a) != sum(b):
        return False
    at_least = [0] * (k + 1)      # at_least[t]: column sums >= t, once summed
    for d in b:
        if d < 0 or d > k:
            return False
        at_least[d] += 1
    for t in range(k - 1, 0, -1):
        at_least[t] += at_least[t + 1]
    need = room = 0
    for t in range(1, k + 1):
        need += a[t - 1]
        room += at_least[t]
        if need > room:
            return False
    return True


# -- swaps ---------------------------------------------------------------------


def apply_swap(G: BipartiteGraph, s: Swap) -> BipartiteGraph:
    """Apply an allowed swap, returning the new realization."""
    window = G._swapped(s)
    if window is None:
        raise SwapNotAllowed(f"{s} is not allowed in this graph")
    key, lo, hi = G.key(), s.u1 * G.l, (s.u2 + 1) * G.l
    cells = key[:lo] + window.to_bytes(hi - lo, "little") + key[hi:]
    return BipartiteGraph._trusted(np.frombuffer(cells, np.uint8).reshape(G.k, G.l))


def allowed_swaps(G: BipartiteGraph) -> list:
    """All swaps allowed in G, in canonical (u1, u2, v1, v2) order
    (``_allowed``)."""
    return [Swap(*s) for s in _allowed(G.key(), G.k, G.l)]


def _allowed(key: bytes, k: int, l: int) -> list:
    """The fields ``(u1, u2, v1, v2, orientation)`` of every swap allowed in
    the k x l matrix with the byte key ``key``, in (u1, u2, v1, v2) order,
    read off its row bitmasks (``_masks``): on rows u1 < u2, each column a
    that only u1 holds pairs with each column b that only u2 holds, and the
    orientation is 1 when a < b, so that u1 holds v1."""
    rows = _masks(key, k, l)[0]
    out = []
    for u1, r1 in enumerate(rows):
        for u2 in range(u1 + 1, k):
            r2 = rows[u2]
            out += sorted((u1, u2, min(a, b), max(a, b), 1 if a < b else 2)
                          for a in _bits(r1 & ~r2) for b in _bits(r2 & ~r1))
    return out


def _int(key: bytes) -> int:
    """A key (``BipartiteGraph.key``) read as one int, cell c = u*l+v at
    bit 8c: the form of every cell mask and of the keys the cycle solver,
    the decomposition kernel and congestion hold."""
    return int.from_bytes(key, "little")


def _flip(key: int, a: int, b: int, c: int, d: int, orientation: int):
    """``key`` (a key held as an int) with the 2x2 cells in the rows
    starting at cell offsets a < b and the columns c < d swapped, if they
    hold the one-factor that a swap of this orientation removes: one mask
    check, then one XOR; None otherwise.  The one one-factor check outside
    the three measured kernels named in the module docstring."""
    first = 1 << 8 * (a + c) | 1 << 8 * (b + d)
    second = 1 << 8 * (a + d) | 1 << 8 * (b + c)
    quad = first | second
    if key & quad != (first if orientation == 1 else second):
        return None
    return key ^ quad


def _step(key: int, l: int, swap) -> int:
    """The key (l columns, held as an int) after the swap with the fields
    ``swap``, ``(u1, u2, v1, v2, orientation)``, by ``_flip``;
    ``SwapNotAllowed`` unless its four cells hold the one-factor it
    removes.  The indices are not checked against the shape."""
    u1, u2, v1, v2, ori = swap
    nxt = _flip(key, u1 * l, u2 * l, v1, v2, ori)
    if nxt is None:
        raise SwapNotAllowed(f"swap {swap} is not allowed in this graph")
    return nxt


def _targets(deg: list, d: int) -> list:
    """The d rows of largest degree ``deg[u]``, ties by lowest index, in that
    order: the rows ``_push_up`` brings onto a column of degree d."""
    # a stable sort: equal degrees keep the lowest index first
    return sorted(range(len(deg)), key=deg.__getitem__, reverse=True)[:d]


def _push_up(rows: list, cols: list, v: int, active: int, targets: list) -> list:
    """Ryser's push-up, the kernel of ``ryser_sequence``: rewire a matrix
    held as bitmasks in place so that column v holds the rows ``targets``,
    with at most one swap per target.  Bit v of ``rows[u]`` and bit u of
    ``cols[v]`` are cell (u, v), and ``active`` is the mask of the active
    columns, v among them, from which each swap's witness column comes.
    ``targets`` is
    ``_targets`` of the row degrees inside the active columns, which no swap
    here changes.  Returns the swaps applied, in order, each as the fields
    ``(u1, u2, v1, v2, orientation)`` of its ``Swap``."""
    col = cols[v]
    # the non-target rows on v, which leave it lowest first
    leaving = col & ~sum(1 << u for u in targets)
    swaps = []
    for u in targets:
        if col >> u & 1:
            continue
        low = leaving & -leaving
        leaving ^= low
        u_prime = low.bit_length() - 1
        # the lowest active column u has and u' lacks (v is not on row u)
        wit = rows[u] & ~rows[u_prime] & active
        v_prime = (wit & -wit).bit_length() - 1
        # the 2x2 submatrix is a one-factor: (u, v_prime) and (u_prime, v)
        # are on, so (u1, v1) is on when exactly one of u, v comes first
        u1, u2 = (u, u_prime) if u < u_prime else (u_prime, u)
        v1, v2 = (v, v_prime) if v < v_prime else (v_prime, v)
        swaps.append((u1, u2, v1, v2, 1 if (u1 == u) != (v1 == v) else 2))
        rows[u] ^= (1 << v) | (1 << v_prime)
        rows[u_prime] ^= (1 << v) | (1 << v_prime)
        col ^= low | (1 << u)
        cols[v_prime] ^= low | (1 << u)
    cols[v] = col
    return swaps


def _masks(key: bytes, k: int, l: int) -> tuple:
    """The row and the column bitmasks of the k x l matrix with the byte key
    ``key`` (``BipartiteGraph.key``): bit v of ``rows[u]`` and bit u of
    ``cols[v]`` are cell (u, v).  The key is reversed once into "0"/"1"
    digits, most significant cell first; row u is one slice of them and
    column v a strided slice, each read in base 2, and an empty one is 0."""
    digits = key[::-1].translate(_DIGITS)       # cell c at digit k*l-1-c
    rows = [int(digits[(k - 1 - u) * l:(k - u) * l] or b"0", 2) for u in range(k)]
    cols = [int(digits[l - 1 - v::l] or b"0", 2) for v in range(l)]
    return rows, cols


def _bits(n: int) -> list:
    """The positions of the set bits of the int n >= 0, increasing."""
    out = []
    while n:
        low = n & -n
        out.append(low.bit_length() - 1)
        n ^= low
    return out


def _key_cells(mask: int) -> list:
    """The cells of the cell mask ``mask``, increasing: a set of cells in
    the form of a key (``BipartiteGraph.key``) read as a little-endian int,
    cell c at bit 8c.  The mask's bytes are scanned for the ones that hold
    1; a mask with a bit off a multiple of 8 holds some other byte, so its
    bit count tells it apart, and it raises ``ValueError``."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    cells = []
    c = data.find(1)
    while c >= 0:
        cells.append(c)
        c = data.find(1, c + 1)
    if len(cells) != mask.bit_count():
        raise ValueError("a cell mask sets a bit off a multiple of 8")
    return cells


# -- symmetric difference ------------------------------------------------------


def _check_margins(X: BipartiteGraph, Y: BipartiteGraph):
    """The checks of ``symmetric_difference``, without its edge sets:
    ``ShapeMismatch`` unless X and Y have one shape, ``DegreeMismatch``
    unless they have one degree vector on each side."""
    if (X.k, X.l) != (Y.k, Y.l):
        raise ShapeMismatch(f"{X.k}x{X.l} vs {Y.k}x{Y.l}")
    if not X.same_margins(Y):
        raise DegreeMismatch("graphs do not share their degree vectors")


def symmetric_difference(X: BipartiteGraph, Y: BipartiteGraph) -> EdgePartition:
    """Split E(X) xor E(Y) into X-edges and Y-edges.

    Requires equal shapes and equal per-vertex margins (``_check_margins``);
    under that condition every vertex touches as many X-edges as Y-edges.
    The edge sets are read off ``_difference`` (``_partition``).
    """
    _check_margins(X, Y)
    return _partition(_difference(X.key(), Y.key(), X.l))


def _difference(x_key: bytes, y_key: bytes, l: int) -> tuple:
    """The edges of X xor Y in cell order, which is edge order.

    X and Y are given by their keys, realizations with l V-vertices; read
    as little-endian integers, cell c = u*l+v sits at bit 8c.  Returns
    ``(edges, cells, in_x, full)``: edge i is ``edges[i]`` in cell
    ``cells[i]``, ``in_x[i]`` tells whether it is an X-edge, and ``full``,
    the XOR of the two keys' ints, is the cell mask of X xor Y.
    """
    full = _int(x_key) ^ _int(y_key)
    cells = _key_cells(full)
    return [divmod(c, l) for c in cells], cells, [x_key[c] == 1 for c in cells], full


def _number(x_key: bytes, y_key: bytes, l: int) -> tuple:
    """``_difference`` with the codes of the decomposition kernel, as
    ``(edges, cells, in_x, us, vs, bits, full)``: ``us[i]`` codes the U end
    of edge i as 2u and ``vs[i]`` its V end as 2v+1, and ``bits[i]`` is
    ``1 << 8 * cells[i]``, a big int on a large matrix, which only the
    kernel's cycle masks need."""
    edges, cells, in_x, full = _difference(x_key, y_key, l)
    us = [2 * u for u, _ in edges]
    vs = [2 * v + 1 for _, v in edges]
    return edges, cells, in_x, us, vs, [1 << 8 * c for c in cells], full


def _partition(numbering) -> EdgePartition:
    """The ``EdgePartition`` of the edges of X xor Y, read off the first
    three items of ``_difference`` or ``_number``."""
    edges, _, in_x = numbering[:3]
    return EdgePartition(frozenset(compress(edges, in_x)),
                         frozenset(compress(edges, map(operator.not_, in_x))))
