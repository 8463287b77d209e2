#!/usr/bin/env python3
"""Builds bench_relbench from this checkout's sources and runs one workload.

    python3 bench/relbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/relbench (default .bench_build/relbench,
relative to the checkout root); build logs go to standard error. --seconds
sets how long the untraced repetitions measure. With --trace 1 the run adds
the traced repetition and the replay, writes the spans next to the build,
and its closing JSON line carries the per-layer metrics instead of the
end-to-end ones. The last line of standard output is that JSON line; the
exit code is the benchmark's (non-zero on any failed check, or when the
build fails).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure, ["cmake", "--build", build_dir, "-j", "4"]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "relbench")
    if not build(build_dir):
        print("relbench: build failed", file=sys.stderr)
        return 1

    tag = "%s-%d" % (args.workload, args.seed)
    command = [os.path.join(build_dir, "bench_relbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", os.path.join(build_dir, "spans-%s.json" % tag),
                    "--json", os.path.join(build_dir, "report-%s-traced.json"
                                           % tag)]
    else:
        command += ["--json", os.path.join(build_dir, "report-%s.json" % tag)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
