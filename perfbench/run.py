#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <exact-polybench|warp-stencil|serve-mix> \
        --seed N --seconds S --trace 0|1

The benchmark is the Rust package next to this file.  It is built in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then run with
the same arguments.  Its standard output passes through: one line per
metric, then the result object as the last line.  The exit code is the
benchmark's (1 on a failed check), or 2 when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: the benchmark did not build", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
