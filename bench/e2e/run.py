#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it.

    python3 bench/e2e/run.py [--workload W] [--seed N] [--seconds T] [--trace 0|1]

Every argument passes through to bench_e2e (see bench_e2e.cpp for all of
them). The build goes to $CARGO_TARGET_DIR/e2e, default .bench_build/e2e,
relative to the repository root; the run's working directory is the
repository root, so inputs and results land in bench-out/. Build output
goes to stderr, so the last stdout line stays bench_e2e's JSON result.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("error: bench/e2e builds the ftroute sources at the repository "
              "root, and they are missing", file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build.is_absolute():
        build = ROOT / build
    build = build / "e2e"
    try:
        if not (build / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                            "-B", str(build), "-DCMAKE_BUILD_TYPE=Release",
                            "-DBUILD_TESTING=OFF"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build), "--target",
                        "bench_e2e", "-j", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: building bench_e2e failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([str(build / "bench_e2e"), *sys.argv[1:]],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
