"""Record the reference key numbers and report digests into reference.json.

    python3 benchmark/record_reference.py      # from the root of a checkout

Runs every workload input once (each `torus-pair` perturbation seed, and
the single analytic input of the other workloads) through the same child
process as the benchmark and stores what the output checks read.  Re-record
only when a change is meant to alter the numbers; rounding-level drift is
absorbed by the tolerance in workloads.py.
"""

import json
import shutil
import os
import sys
import time

from run import REFERENCE, WORK_DIR, Runner
from workloads import PAIR_VARIANTS, WORKLOADS, report_digest


def main() -> int:
    root = os.getcwd()
    reference = {}
    for name, workload in WORKLOADS.items():
        seeds = range(PAIR_VARIANTS) if "seed" in workload.make_config(0) else [0]
        for seed in seeds:
            work = os.path.join(root, WORK_DIR, f"reference-{name}-{seed}")
            os.makedirs(work, exist_ok=True)
            runner = Runner(root, work, workload, workload.make_config(seed),
                            time.monotonic() + 600)
            entry = {}

            def keep(out, result):
                problems, keys, _ = workload.check(out)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                entry.update(keys=keys, digest=report_digest(out))

            result = runner.child("call", keep=keep)
            if result["problems"]:
                print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[workload.variant(seed)] = entry
            shutil.rmtree(work)
            print(f"{name} {workload.variant(seed)}: {entry['keys']}")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
