"""Record the reference outputs that the benchmark checks every op against.

    python3 perfbench/record.py [workload ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Every op any seed can produce is run once, untimed; sample and
paths outputs are stored as digests, mix-report rows and spectra verbatim.
Takes a few minutes, mostly the 4,032 paths pairs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile


def main(argv) -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    names = argv or list(workloads.WORKLOADS)
    try:
        references = workloads.load_references()
    except FileNotFoundError:
        references = {}
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=base)
    try:
        for name in names:
            table = {}
            for smoke in (False, True):
                workload = workloads.WORKLOADS[name](smoke)
                workload.setup(tmp, 0)
                for op in workload.reference_ops():
                    if op.key in table:
                        continue
                    output, _ = op.run()
                    table[op.key] = output if workload.exact else workloads.digest(output)
            references[name] = table
            print(f"{name}: {len(table)} references", file=sys.stderr)
    finally:
        shutil.rmtree(tmp)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
