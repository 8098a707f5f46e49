"""Write the reference reports: every workload at the default seed.

    python3 bench/make_reference.py

Run it only at a commit whose reports are known good; the benchmark then
requires every later commit to reproduce them byte for byte.
"""

from __future__ import annotations

import sys

from run import setup
from workloads import DEFAULT_SEED, SRC, WORKLOADS, reference_paths, run_op


def main():
    sys.path.insert(0, str(SRC))
    for workload in WORKLOADS:
        problems, jobs = setup(workload, DEFAULT_SEED)
        outputs = run_op(problems, jobs, DEFAULT_SEED)
        for path, out in zip(reference_paths(workload, jobs), outputs):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(out)
            print(path)


if __name__ == "__main__":
    main()
