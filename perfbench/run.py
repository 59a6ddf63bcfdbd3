#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root), and Cargo's output to standard error, so the last line
of standard output is the benchmark's JSON result. The benchmark runs
pinned to one CPU: both client threads share it, so the cost of a call
does not swing with where the host places two busy vCPUs, and with a
fixed malloc mmap threshold (see README.md, "Host time"). The exit code is the build's when it fails, else the
benchmark's (non-zero when an output check failed). Traced runs write
their spans under perfbench/results/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(HERE, "results")]
    # The child inherits the affinity; the build above used every CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A fixed mmap threshold: glibc otherwise raises it after each freed
    # slab, so whether a later setup's slab lands on the heap, and with it
    # the peak resident set, would vary from run to run.
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    sys.stdout.flush()
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
