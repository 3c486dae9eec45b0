"""The four workloads: inputs made from the workload seed, the op stream, and
the output check against the references recorded by ``record.py``.

Every workload measures two cases, ``a`` and ``b``; the end-to-end metrics
``a_per_s``, ``a_p50_ms``, ``a_p90_ms`` and ``b_p50_ms`` are taken per unit of
work of those cases (see README.md for what a unit is in each workload).
Ops of case ``check`` are checked for correctness but not timed into a
metric.  The package is driven only through ``degswap.cli.main`` (with argv,
in-process) or, where no subcommand exists, public functions, always looked
up as module attributes at call time so that the traced run's wrappers are
the ones called.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import degswap.canonical as canonical
import degswap.chain as chain
import degswap.cli as cli
import degswap.mixing as mixing
from degswap.core import BipartiteDegreeSequence

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


class OpFailed(Exception):
    """An op exited non-zero."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ds_text(rows: str) -> str:
    """'3 2 1|2 2 2' -> the two-line degree-sequence file format."""
    return "\n".join(rows.split("|")) + "\n"


def regular_ds(n: int, d: int) -> str:
    side = " ".join([str(d)] * n)
    return f"{side}|{side}"


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def cli_call(argv):
    """Run one subcommand in-process; returns (stdout, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        end = perf_counter()
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue(), start, end


class Op:
    """One measured operation.  ``run()`` returns (output, timings), where
    timings is a list of (case, start, end, units) in perf_counter time."""

    def __init__(self, key, run):
        self.key = key
        self.run = run


class Workload:
    name = ""
    exact = False        # compare outputs verbatim instead of by digest
    min_ops = 1

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def setup(self, workdir: str, seed: int):
        raise NotImplementedError

    def ops(self):
        """The endless op stream of one run, fixed by the seed given to setup."""
        raise NotImplementedError

    def reference_ops(self):
        """Every op ``ops`` can yield, for recording the references."""
        raise NotImplementedError

    def matches(self, references: dict, key: str, output: str) -> bool:
        want = references[self.name].get(key)
        return want is not None and want == (output if self.exact else digest(output))


class Sample(Workload):
    """``degswap sample``: 3x3 ``--stats`` batches (a) and 100x100 text batches (b)."""

    name = "sample"
    min_ops = 2
    POOL = tuple(1 + 10007 * i for i in range(64))     # base --seed of one batch
    SMALL = "2 2 2|3 2 1"
    LARGE = regular_ds(100, 50)
    STEPS = 200

    def counts(self):
        return (20, 2) if self.smoke else (100, 10)

    def setup(self, workdir, seed):
        self.small = write(os.path.join(workdir, "small.ds"), ds_text(self.SMALL))
        self.large = write(os.path.join(workdir, "large.ds"), ds_text(self.LARGE))
        rng = random.Random(seed)
        self.order = {part: rng.sample(self.POOL, len(self.POOL)) for part in ("small", "large")}

    def op(self, part, count, base):
        argv = ["sample", "--ds", self.small if part == "small" else self.large,
                "--steps", str(self.STEPS), "--count", str(count), "--seed", str(base)]
        if part == "small":
            argv.append("--stats")
        case = "a" if part == "small" else "b"

        def run():
            out, start, end = cli_call(argv)
            return out, [(case, start, end, count)]

        return Op(f"{part}:{count}:{base}", run)

    def ops(self):
        small, large = self.counts()
        i = 0
        while True:
            yield self.op("small", small, self.order["small"][i % len(self.POOL)])
            yield self.op("large", large, self.order["large"][i % len(self.POOL)])
            i += 1

    def reference_ops(self):
        small, large = self.counts()
        for base in self.POOL:
            yield self.op("small", small, base)
            yield self.op("large", large, base)


class Mix(Workload):
    """``degswap mix-report`` on the U-regular 48-state space (a), its
    V-regular transpose (b) and the 6-state space (output check only).

    A run makes two rounds, since a single 48-state report per run left its
    time spread by ~9 % between runs.  Before each report the module-level
    cycle cache of ``canonical`` is emptied, as a new CLI process has it."""

    name = "mix"
    exact = True
    min_ops = 6

    def cases(self):
        if self.smoke:
            return {"a": "2 2 2|3 2 1", "b": "3 2 1|2 2 2", "check": "2 2 2|2 2 2"}
        return {"a": "2 2 2 2|3 2 2 1", "b": "3 2 2 1|2 2 2 2", "check": "2 2 2|2 2 2"}

    def setup(self, workdir, seed):
        self.files = {case: write(os.path.join(workdir, f"{case}.ds"), ds_text(rows))
                      for case, rows in self.cases().items()}

    def op(self, case, rows, path):
        def run():
            clear = getattr(canonical, "clear_path_cache", None)   # absent if not global
            if clear is not None:
                clear()
            out, start, end = cli_call(["mix-report", "--ds", path])
            return out, [(case, start, end, 1)]

        return Op(rows, run)

    def ops(self):
        # A fixed order: the first report of a process also pays for growing
        # the heap, so a seed-shuffled order moved a and b by ~10 % per run.
        cases = self.cases()
        while True:
            for case in ("check", "a", "b"):
                yield self.op(case, cases[case], self.files[case])

    def reference_ops(self):
        for case, rows in self.cases().items():
            yield self.op(case, rows, self.files[case])


class Paths(Workload):
    """``degswap transform X Y`` then ``degswap canonical-path X Y --certify``
    for ordered pairs of 16x16 4-regular realizations drawn with ``sample``.
    Case a is the pair, case b the certified canonical path alone."""

    name = "paths"
    GRAPHS = 64
    DS = regular_ds(16, 4)
    DRAW_STEPS = 1000
    DRAW_SEED = 20259

    @property
    def min_ops(self):
        return 3 if self.smoke else 200

    def setup(self, workdir, seed):
        ds = BipartiteDegreeSequence.from_text(ds_text(self.DS))
        self.graphs = []
        for g in range(self.GRAPHS):
            graph = chain.sample(ds, self.DRAW_STEPS, self.DRAW_SEED + g)
            self.graphs.append(write(os.path.join(workdir, f"g{g}.txt"), graph.to_text()))
        pairs = [(i, j) for i in range(self.GRAPHS) for j in range(self.GRAPHS) if i != j]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs

    def op(self, i, j):
        x, y = self.graphs[i], self.graphs[j]
        pairing_seed = str(1 + self.GRAPHS * i + j)

        def run():
            swaps, start, _ = cli_call(["transform", x, y])
            path, path_start, end = cli_call(
                ["canonical-path", x, y, "--certify", "--seed", pairing_seed])
            return swaps + "\0" + path, [("a", start, end, 1), ("b", path_start, end, 1)]

        return Op(f"{i}:{j}", run)

    def ops(self):
        while True:
            for i, j in self.pairs:
                yield self.op(i, j)

    def reference_ops(self):
        return (self.op(i, j) for i in range(self.GRAPHS) for j in range(self.GRAPHS) if i != j)


class Spectrum(Workload):
    """enumerate_states -> build_kernel -> spectral_gap on the 1,170-state
    space (a) and the 90-state 4x4 2-regular space (b).  A run makes three
    rounds, each solving b four times and then a; with one b per round the b
    median spread by ~9 % between runs, with two rounds the a median by ~12 %."""

    name = "spectrum"
    exact = True
    min_ops = 15

    def cases(self):
        if self.smoke:
            return {"a": "2 2 2 2|2 2 2 2", "b": "2 2 2|2 2 2"}
        return {"a": "3 2 2 2 1|2 2 2 2 2", "b": "2 2 2 2|2 2 2 2"}

    def setup(self, workdir, seed):
        self.ds = {}
        for case, rows in self.cases().items():
            path = write(os.path.join(workdir, f"{case}.ds"), ds_text(rows))
            with open(path, encoding="utf-8") as fh:
                self.ds[case] = BipartiteDegreeSequence.from_text(fh.read())

    def op(self, case, rows, ds):
        def run():
            start = perf_counter()
            space = mixing.enumerate_states(ds)
            lam2, _ = mixing.spectral_gap(mixing.build_kernel(space))
            end = perf_counter()
            return f"{space.n},{lam2:.12g}", [(case, start, end, 1)]

        return Op(rows, run)

    def ops(self):
        cases = self.cases()
        while True:
            for case in ("b", "b", "b", "b", "a"):      # fixed order, as for Mix
                yield self.op(case, cases[case], self.ds[case])

    def reference_ops(self):
        for case, rows in self.cases().items():
            yield self.op(case, rows, self.ds[case])


WORKLOADS = {cls.name: cls for cls in (Sample, Mix, Paths, Spectrum)}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)
