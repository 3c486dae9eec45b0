"""degswap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sample,mix,paths,spectrum} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout: the package is imported from
``./src``, never from an installed copy, and the run fails without printing
a result when ``./src/degswap`` is missing.

Every measured pass runs in a fresh child interpreter, so module-level state
such as the canonical-path cycle cache starts empty, and peak RSS and import
time belong to that pass.  Children run one at a time, with one BLAS thread,
and time ops with the host-speed probe of ``speed.py``.

``--trace 0`` prints the end-to-end metrics.  Set-up (interpreter start to
inputs ready) is timed in SETUP_REPEATS children and reported as the median;
the last of them also runs the ops.  ``--trace 1`` prints the per-layer
metrics: one untraced child runs the op stream for ``--seconds``, then a
traced child runs the same ops with wrappers installed, and the difference
of their op times is reported as ``trace.overhead_s``.  The traced child's
coarse spans go to ``.perfbench/spans/<workload>-seed<N>.json``.

The last line of stdout is the JSON result; the line before it records the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
RUN_LIMIT_S = 170          # every child is stopped by then
# One BLAS thread: the speed probe samples only the measuring thread's CPU,
# and a second thread pool paid a ~1 s warm-up on the first eigh of a run.
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("sample", "mix", "paths", "spectrum")
# The speed.py probe loop whose normalized times drifted least per workload.
PROBE_LOOPS = {"sample": "indexing", "paths": "indexing",
               "mix": "arithmetic", "spectrum": "arithmetic"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=20259)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs and op counts, for the smoke test")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    p.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- child: one fresh interpreter ---------------------------------------------


def child_main(args) -> int:
    import speed

    probe = speed.SpeedProbe(PROBE_LOOPS[args.workload])
    if not args.traced:
        probe.start()
    try:
        result = child_run(args, probe)
    finally:
        probe.stop()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def child_run(args, probe) -> dict:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import degswap

    src = os.path.join(root, "src", "degswap")
    if os.path.dirname(os.path.abspath(degswap.__file__)) != src:
        raise RuntimeError(f"degswap imported from {degswap.__file__}, not {src}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.smoke)
    workload.setup(args.workdir, args.seed)
    raw, ref = probe.seconds(args.t0, time.perf_counter())
    result = {"setup_s": ref, "setup_raw_s": raw}
    if args.child == "setup":
        return result
    tracer = None
    if args.traced:
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer())
    result.update(measure(workload, workloads, args, tracer, probe))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = child_env()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        spans = os.path.join(root, ".perfbench", "spans", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "name", "parent", "start", "end"],
                       "spans": tracer.spans}, fh)
    return result


def measure(workload, workloads, args, tracer, probe):
    """Run ops until ``--seconds`` have passed and ``min_ops`` are done, or
    exactly ``--ops`` ops when given.  Records are (case, reference seconds,
    units, raw seconds); ``op_s`` is the raw time inside ops."""
    references = workloads.load_references()
    records, failures, outputs = [], [], {}
    attempted = 0
    op_s = 0.0
    start = time.perf_counter()
    for op in workload.ops():
        if args.ops is not None:
            if attempted >= args.ops:
                break
        elif attempted >= workload.min_ops and time.perf_counter() - start >= args.seconds:
            break
        attempted += 1
        if tracer is not None:
            tracer.op_id += 1
            tracer.enter("op")
        t = time.perf_counter()
        try:
            output, timings = op.run()
        except Exception as exc:   # any error is a failed op; keep measuring
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        finally:
            op_s += probe.seconds(t, time.perf_counter())[0]
            if tracer is not None:
                tracer.exit()
        if not workload.matches(references, op.key, output):
            failures.append(f"{op.key}: output differs from the reference")
            continue
        for case, begin, end, units in timings:
            raw, ref = probe.seconds(begin, end)
            records.append((case, ref, units, raw))
        if workload.exact:
            outputs.setdefault(op.key, output.strip().splitlines()[-1])
    return {"records": records, "attempted": attempted, "failures": failures,
            "op_s": op_s, "outputs": outputs}


def child_env() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:   # older numpy has no dict mode; the name is informational
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- parent -------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "degswap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Children:
    """Starts child interpreters one at a time inside a scratch directory of
    the checkout, and stops each one by the run's deadline."""

    def __init__(self, root, args):
        self.root, self.args = root, args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=base)
        self.count = 0
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    def run(self, mode, *extra):
        self.count += 1
        workdir = os.path.join(self.tmp, f"child{self.count}")
        os.makedirs(workdir)
        out = os.path.join(self.tmp, f"child{self.count}.json")
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--child", mode,
               "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--workdir", workdir, "--out", out, *extra]
        if a.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        subprocess.run(cmd + ["--t0", repr(t0)], cwd=self.root, env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(1.0, self.deadline - t0))
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        shutil.rmtree(workdir)
        return result

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def quantile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(records) -> dict:
    per_unit = {case: [s / u for c, s, u, _ in records if c == case] for case in ("a", "b")}
    a_seconds = sum(s for c, s, u, _ in records if c == "a")
    a_units = sum(u for c, s, u, _ in records if c == "a")
    return {
        "a_per_s": (a_units / a_seconds, "1/s"),
        "a_p50_ms": (statistics.median(per_unit["a"]) * 1e3, "ms"),
        "a_p90_ms": (quantile(per_unit["a"], 90) * 1e3, "ms"),
        "b_p50_ms": (statistics.median(per_unit["b"]) * 1e3, "ms"),
    }


def parent_main(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degswap", "cli.py")):
        print(f"error: {root} holds no degswap source tree (src/degswap); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    children = Children(root, args)
    try:
        if args.trace:
            plain = children.run("measure")
            traced = children.run("measure", "--traced", "--ops", str(plain["attempted"]))
            runs = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = (traced["op_s"] - plain["op_s"], "s")
            print(f"# traced {traced['attempted']} ops: {traced['op_s']:.3f} s traced, "
                  f"{plain['op_s']:.3f} s untraced")
        else:
            setups = [children.run("setup") for _ in range(SETUP_REPEATS - 1)]
            run = children.run("measure")
            runs = [run]
            setups.append(run)
            raw_setups = [r["setup_raw_s"] for r in setups]
            metrics = {"setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
                       "peak_rss_mb": (run["peak_rss_mb"], "MB")}
            metrics.update(end_to_end(run["records"]))
            raw = {c: [r[3] / r[2] * 1e3 for r in run["records"] if r[0] == c]
                   for c in ("a", "b")}
            print(f"# {args.workload}: {run['attempted']} ops in {run['op_s']:.3f} s; "
                  f"samples a={len(raw['a'])} b={len(raw['b'])}; wall-clock medians "
                  f"a={statistics.median(raw['a']):.6g} ms b={statistics.median(raw['b']):.6g} ms, "
                  f"setup {statistics.median(raw_setups):.4g} s")
    finally:
        children.close()
    for run in runs:
        for key, row in run["outputs"].items():
            print(f"# {args.workload} {key}: {row}")
        for failure in run["failures"]:
            print(f"# FAILED {failure}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    env = dict(runs[-1]["env"], nproc=nproc(), cpu=cpu_model(), commit=git_commit(root),
               src_sha256=source_digest(root), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, smoke=args.smoke)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
