#!/usr/bin/env python3
"""Build the release `pc` binary and the benchmark, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); generated inputs, per-run server files and trace spans go
to `.bench_work`. Both are relative to the repository root. The benchmark's
output, ending in one JSON result line, is the last thing on stdout; cargo
writes only to stderr. Exits non-zero without a result line when the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest, *extra]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "--bin", "pc")
    build(os.path.join(HERE, "Cargo.toml"))
    bench = os.path.join(target, "release", "perfbench")
    args = [bench, *sys.argv[1:]]
    args += ["--pc", os.path.join(target, "release", "pc"), "--work", os.path.join(ROOT, ".bench_work")]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    main()
