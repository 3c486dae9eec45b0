"""Command-line entry point.

Subcommands: check, realize, sample, transform, decompose, canonical-path,
mix-report.  Exit codes: 0 success, 1 domain error, 2 usage error.  Domain
errors print one line to stderr as ``error[Code]: message``.  Every
randomized subcommand takes --seed and defaults to DEFAULT_SEED, so equal
invocations produce byte-identical output; decompose's --all and
canonical-path's --pairing-index each exclude --seed.  Both pair commands
run the kernel on a pairing's partner arrays and build no ``Pairing``.

Vertices in textual output are 1-based; a swap prints as "u1 u2 v1 v2",
listing the two U-vertices and then the two V-vertices.  Each command
prints the swaps its construction applied, never ones read off matrices.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .canonical import _certificates, _path_stack
from .chain import _check_steps, _walk_seeds
from .core import BipartiteDegreeSequence, BipartiteGraph, _DIGITS, _stack_text, greedy_realize
from .errors import DegSwapError, NotGraphical
from .mixing import build_kernel, congestion, enumerate_states, spectral_gap, tv_mixing_time
from .pairings import (_decomposition, _nth_partners, _numbered, _partners, _random_partners,
                       _trace, _vertex_walk)
from .ryser import _sequence

DEFAULT_SEED = 20259


def _read_ds(path: str) -> BipartiteDegreeSequence:
    with open(path, encoding="utf-8", newline="") as fh:
        return BipartiteDegreeSequence.from_text(fh.read())


def _read_graph(path: str) -> BipartiteGraph:
    with open(path, encoding="utf-8", newline="") as fh:
        return BipartiteGraph.from_text(fh.read())


def _swap_line(u1, u2, v1, v2) -> str:
    return f"{u1 + 1} {u2 + 1} {v1 + 1} {v2 + 1}"


def _vertex_label(w) -> str:
    side, idx = w
    return f"{side}{idx + 1}"


def cmd_check(args) -> int:
    ds = _read_ds(args.ds)
    try:
        greedy_realize(ds)
    except NotGraphical as exc:
        print(f"not graphical: {exc}")
        return 1
    print("graphical")
    return 0


def cmd_realize(args) -> int:
    sys.stdout.write(greedy_realize(_read_ds(args.ds)).to_text())
    return 0


def cmd_sample(args) -> int:
    ds = _read_ds(args.ds)
    if args.count < 0:
        raise ValueError("count must be non-negative")
    stacks = ()
    if args.count > 0:
        # one realization per command; --count 0 neither realizes nor validates
        _check_steps(args.steps)
        stacks = _walk_seeds(greedy_realize(ds), range(args.seed, args.seed + args.count),
                             args.steps)
    if args.stats:
        hist = {}
        for stack in stacks:
            cells, n = stack.tobytes(), stack[0].size
            for i in range(len(stack)):
                key = cells[i * n:(i + 1) * n]
                hist[key] = hist.get(key, 0) + 1
        print("state,count")
        # keys are the raw 0/1 cell bytes, so they sort as the bit strings do
        for key in sorted(hist):
            print(f"{key.translate(_DIGITS).decode()},{hist[key]}")
        return 0
    # each group's graphs are printed as it is walked, joined as to_text's are
    for i, stack in enumerate(stacks):
        sys.stdout.write(("\n" if i else "") + _stack_text(stack))
    return 0


def cmd_transform(args) -> int:
    g1, g2 = _read_graph(args.g1), _read_graph(args.g2)
    # ryser_sequence's swaps as fields: no Swap is built to be printed
    sys.stdout.write("".join(_swap_line(*s[:4]) + "\n" for s in _sequence(g1, g2)))
    return 0


def cmd_decompose(args) -> int:
    x, y = _read_graph(args.x), _read_graph(args.y)
    # as canonical-path does: X xor Y numbered once, partner arrays straight
    # to the kernel, one shape memo for the command and no Pairing between
    numbering, incid, _ = _numbered(x, y)
    m, memo = len(numbering[0]), {}
    partners = _partners(incid, m) if args.all else [_random_partners(incid, m, args.seed)]
    for pi, (pu, pv) in enumerate(partners):    # printed as it runs, never held
        dec = _decomposition(numbering, pu, pv, memo)
        print(f"pairing {pi}")
        for ci, circ in enumerate(dec.circuits):
            verts = " ".join(_vertex_label(w) for w in _vertex_walk(circ))
            print(f"  circuit {ci}: {verts}")
        for ci, cyc in enumerate(dec.cycles):
            verts = " ".join(_vertex_label(w) for w in cyc.vertex_seq())
            print(f"  cycle {ci}: {verts}")
    return 0


def cmd_canonical_path(args) -> int:
    x, y = _read_graph(args.x), _read_graph(args.y)
    # X xor Y is numbered once: the partner arrays of random_pairing or
    # nth_pairing go straight to the kernel, with no Pairing between
    numbering, incid, _ = _numbered(x, y)
    if args.pairing_index is not None:
        # unranked: a pair can have too many pairings to walk
        pu, pv = _nth_partners(incid, len(numbering[0]), args.pairing_index)
    else:
        pu, pv = _random_partners(incid, len(numbering[0]), args.seed)
    # the walk checks each swap it applies: all is checked before printing
    stack, swaps = _path_stack(x, y, _trace(pu, pv, numbering, {})[2])
    if args.certify:
        certs = _certificates(x.adj, y.adj, stack)
    sys.stdout.write(_stack_text(stack))
    if args.certify:
        print("---")
        print("step,swap,switch_distance")
        lines = [""] + [_swap_line(*s[:4]) for s in swaps]
        for i, (sw, sd) in enumerate(zip(lines, certs)):
            print(f"{i},{sw},{sd}")
    return 0


def cmd_mix_report(args) -> int:
    ds = _read_ds(args.ds)
    space = enumerate_states(ds)
    kernel = build_kernel(space)
    lam2, tau = spectral_gap(kernel)
    try:
        tmix = tv_mixing_time(kernel, args.eps)
        tmix_str = str(tmix)
    except DegSwapError as exc:
        tmix_str = f"none({exc.code})"
    rep = congestion(space)
    print("n,lambda2,tau_rel,tv_mixing_time,kappa,max_edge,max_switch_distance")
    edge = f"{rep.max_edge[0]}-{rep.max_edge[1]}"
    print(f"{space.n},{lam2:.12g},{tau:.12g},{tmix_str},{rep.kappa}"
          f",{edge},{rep.max_switch_distance}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as it
    was, so every call starts from the same parser."""
    p = argparse.ArgumentParser(prog="degswap", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"degswap {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("check", help="test whether a degree sequence pair is graphical")
    q.add_argument("ds")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("realize", help="emit the greedy realization")
    q.add_argument("ds")
    q.set_defaults(func=cmd_realize)

    q = sub.add_parser("sample", help="run the swap chain and emit samples")
    q.add_argument("--ds", required=True)
    q.add_argument("--steps", type=int, default=200)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--count", type=int, default=1)
    q.add_argument("--stats", action="store_true",
                   help="emit a state,count CSV instead of graphs")
    q.set_defaults(func=cmd_sample)

    q = sub.add_parser("transform", help="swap sequence from one realization to another")
    q.add_argument("g1")
    q.add_argument("g2")
    q.set_defaults(func=cmd_transform)

    q = sub.add_parser("decompose", help="circuits and cycles of a pairing")
    q.add_argument("x")
    q.add_argument("y")
    pick = q.add_mutually_exclusive_group()
    pick.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pick.add_argument("--all", action="store_true")
    q.set_defaults(func=cmd_decompose)

    q = sub.add_parser("canonical-path", help="the canonical path for one pairing")
    q.add_argument("x")
    q.add_argument("y")
    pick = q.add_mutually_exclusive_group()
    pick.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pick.add_argument("--pairing-index", type=int, default=None)
    q.add_argument("--certify", action="store_true")
    q.set_defaults(func=cmd_canonical_path)

    q = sub.add_parser("mix-report", help="exact mixing diagnostics as CSV")
    q.add_argument("--ds", required=True)
    q.add_argument("--eps", type=float, default=0.01)
    q.set_defaults(func=cmd_mix_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegSwapError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
