#!/usr/bin/env python3
"""Build the benchmark package in release mode and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <hot_reads|adhoc_cqa|churn|scatter> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR when it is set, else to perfbench/target. Cargo's
output goes to stderr; the benchmark's report goes to stdout and ends with one JSON
line. The exit code is the build's when the build fails, else the benchmark's.

The benchmark runs pinned to one CPU, the lowest this process may use. Unpinned,
the client and server threads of a closed loop land on the same or on different
CPUs from one run to the next, and round-trip-bound metrics moved by 1.5 to 1.7
times between runs of identical code; pinned, they repeat within a few percent.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "pdqi-perfbench")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
