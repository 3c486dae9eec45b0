"""Per-layer tracing installed from outside the package.

The package is not instrumented itself, so the traced run replaces public
functions with timing wrappers.  A module binds the names it imports when it
is imported (``from .core import apply_swap``), so each wrapper is installed
under every name in every ``degswap`` module that refers to the original
function object, which is the name the caller looks up at call time.
Constructors and methods are wrapped on the class.

Every wrapped call is a frame on one stack.  A layer's self time is its
frame's duration minus the time of the wrapped frames it called.  Leaf
calls that run hundreds of thousands of times are only aggregated into
``calls`` and ``self_s``; coarse calls also keep a span
``(op id, name, parent name, start, end)`` for the spans file.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

COARSE = ("op", "cli.main", "mixing.congestion", "mixing.tv_mixing_time",
          "canonical.canonical_path", "ryser.ryser_sequence")
# Stages whose inclusive time is reported as ``total_s`` besides ``self_s``.
STAGES = ("chain.sample", "ryser.ryser_sequence", "canonical.canonical_path",
          "mixing.enumerate_states", "mixing.build_kernel", "mixing.spectral_gap",
          "mixing.tv_mixing_time", "mixing.congestion")


class Tracer:
    def __init__(self):
        self.stack = []                 # frames: [name, start, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.op_id = 0
        self.cycle_keys = set()

    def enter(self, name):
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        end = perf_counter()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if name in STAGES and all(frame[0] != name for frame in self.stack):
            self.total_s[name] += dur
        if name in COARSE:
            self.spans.append((self.op_id, name, parent[0] if parent else None,
                               start, end))

    def _untimed(self, hook, *args):
        """Run a bookkeeping hook without charging it to any layer."""
        t = perf_counter()
        out = hook(*args)
        if self.stack:
            self.stack[-1][2] += perf_counter() - t
        return out

    def wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer._untimed(before, args, kwargs) if before else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after:
                tracer._untimed(after, args, kwargs, result, token)
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        """Time each ``next`` on the generator; the consumer's loop body runs
        between frames and is charged to the caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                tracer.counters[name + ".yielded"] += 1
                yield item

        return wrapper


def _replace_everywhere(original, wrapper):
    """Rebind every name in the degswap modules that refers to ``original``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "degswap" or modname.startswith("degswap.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns the tracer."""
    import degswap.canonical as canonical
    import degswap.chain as chain
    import degswap.cli as cli
    import degswap.core as core
    import degswap.mixing as mixing
    import degswap.pairings as pairings
    import degswap.ryser as ryser
    from degswap.errors import Exceeds

    c = tracer.counters

    def count_steps(args, kwargs, result, token):
        c["chain.sample.steps"] += kwargs.get("steps", args[1] if len(args) > 1 else 0)

    def ryser_bound(args, kwargs, result, token):
        c["ryser.swaps"] += len(result)
        c["ryser.bound"] += 2 * args[0].num_edges()

    def cycle_repeat(args, kwargs, result, token):
        G, cycle = args[0], args[4]
        key = (G.k, G.l, G.key(), tuple(cycle.edge_seq))
        if key in tracer.cycle_keys:
            c["canonical.cycle_swaps.repeats"] += 1
        else:
            tracer.cycle_keys.add(key)

    def cert(args, kwargs, result, token):
        value = result.cap + 1 if isinstance(result, Exceeds) else int(result)
        c["canonical.cert_max"] = max(c["canonical.cert_max"], value)

    def pairings_before(args, kwargs):
        return c["pairings.all_pairings.yielded"]

    def paths_per_pairing(args, kwargs, result, token):
        c["mixing.congestion.paths"] += result.n_paths
        c["mixing.congestion.pairings"] += c["pairings.all_pairings.yielded"] - token

    functions = [
        (core, "apply_swap", {}), (core, "symmetric_difference", {}),
        (core, "allowed_swaps", {}), (core, "greedy_realize", {}),
        (chain, "sample", {"after": count_steps}),
        (ryser, "ryser_sequence", {"after": ryser_bound}),
        (pairings, "random_pairing", {}), (pairings, "decompose", {}),
        (canonical, "canonical_path", {}),
        (canonical, "cycle_swaps", {"after": cycle_repeat}),
        (canonical, "switch_distance", {"after": cert}),
        (canonical, "hat_matrix", {}),
        (mixing, "tv_mixing_time", {}),
        (mixing, "congestion", {"before": pairings_before, "after": paths_per_pairing}),
        (mixing, "enumerate_states", {}), (mixing, "build_kernel", {}),
        (mixing, "spectral_gap", {}),
        (cli, "main", {}),
    ]
    for mod, attr, hooks in functions:
        layer = mod.__name__.rsplit(".", 1)[1]
        original = getattr(mod, attr)
        _replace_everywhere(original, tracer.wrap(original, f"{layer}.{attr}", **hooks))
    original = pairings.all_pairings
    _replace_everywhere(original, tracer.wrap_generator(original, "pairings.all_pairings"))

    graph = core.BipartiteGraph
    graph.__init__ = tracer.wrap(graph.__init__, "core.BipartiteGraph")
    graph.to_text = tracer.wrap(graph.to_text, "core.to_text")
    return tracer


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values keyed by the names listed in BENCHMARK.json."""
    c = tracer.counters
    out = {}
    for name in ("core.BipartiteGraph", "core.apply_swap", "core.symmetric_difference",
                 "core.allowed_swaps", "core.greedy_realize", "core.to_text",
                 "chain.sample", "ryser.ryser_sequence", "pairings.random_pairing",
                 "pairings.decompose", "canonical.canonical_path", "canonical.cycle_swaps",
                 "canonical.switch_distance", "canonical.hat_matrix",
                 "mixing.tv_mixing_time", "mixing.congestion", "mixing.enumerate_states",
                 "mixing.build_kernel", "mixing.spectral_gap", "cli.main"):
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in STAGES:
        out[f"{name}.total_s"] = (tracer.total_s[name], "s")
    out["pairings.all_pairings.self_s"] = (tracer.self_s["pairings.all_pairings"], "s")
    out["pairings.all_pairings.yielded"] = (c["pairings.all_pairings.yielded"], "count")
    out["chain.sample.steps"] = (c["chain.sample.steps"], "count")
    out["ryser.swaps_per_bound"] = (_ratio(c["ryser.swaps"], c["ryser.bound"]), "ratio")
    out["canonical.cycle_swaps.repeat_ratio"] = (
        _ratio(c["canonical.cycle_swaps.repeats"], tracer.calls["canonical.cycle_swaps"]),
        "ratio")
    out["canonical.cert_max"] = (c["canonical.cert_max"], "count")
    out["mixing.paths_per_pairing"] = (
        _ratio(c["mixing.congestion.paths"], c["mixing.congestion.pairings"]), "ratio")
    return out
