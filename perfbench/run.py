#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0

Every argument is passed on to perfbench/rrbench.ml, which prints its
report and, as the last line of standard output, one JSON object with
the run's checks and metrics.  The build's own output goes to standard
error.  Trace files are written under .perfbench_work/ and removed at
the end of the run.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "rrbench.exe")
WORKDIR = ".perfbench_work"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print(
            "perfbench: dune-project and lib/ not found; run from the root "
            "of a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Keep every build artifact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/rrbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    os.makedirs(WORKDIR, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:] + ["--workdir", WORKDIR]).returncode


if __name__ == "__main__":
    sys.exit(main())
