#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-small-rw --seed 1 --seconds 10 --trace 0

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode, then
runs it from the repository root with the same arguments. Cargo's output
goes to stderr, so the benchmark's result stays the last line of stdout.
The build directory is $CARGO_TARGET_DIR, or `.bench_build` at the
repository root when that is unset. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("perfbench: the repository sources are missing; nothing to build",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
