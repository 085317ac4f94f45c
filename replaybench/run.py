#!/usr/bin/env python3
"""Builds replay_bench from source and runs one workload.

Run from the repository root:

    python3 replaybench/run.py --workload standby --seed 1 --seconds 12 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; build output goes to stderr so the last line of stdout is
replay_bench's result object. Traced runs write their spans next to the
build. The exit code is replay_bench's, or 2 when the checkout holds no
sources to build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "replay_bench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("replaybench: no sources to build under " + ROOT, file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "replaybench")
    if not build(build_dir):
        print("replaybench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if "--git-sha" not in args:
        args += ["--git-sha", git_sha()]
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        name = "trace-%s-seed%s.jsonl" % (option(args, "--workload"),
                                          option(args, "--seed"))
        args += ["--trace-out", os.path.join(build_dir, name)]
    binary = os.path.join(build_dir, "replay_bench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
