"""Write golden.json: the deterministic outputs of every workload, each from
one cold process at the current commit, seed 0.

    python3 perfbench/record_golden.py

Run from the repository root.  The golden record is the behaviour oracle:
re-record it only for a change that is meant to alter outputs, and say so.
"""

import json
import os
import sys

from run import HERE, child_env, spawn


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS
    build = os.path.join(root, ".bench_build", "inputs")
    os.makedirs(build, exist_ok=True)
    golden = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.prepare(0, build)
        golden[name] = spawn(root, child_env(root), name, "run",
                             inputs)["outputs"]
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
