#!/usr/bin/env python3
"""Build and run the LFS stack benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <smallfile-churn|zipf-read|array-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it, and passes its report through. The last
line of standard output is the benchmark's JSON result. With `--trace 1`
the spans of the last traced round are written to
`perfbench/out/<workload>.spans.csv`.

Exits non-zero, without a result line, if the build or the run fails, and
non-zero with a result line whose `correct` is false if any correctness
check failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    workload = arg_value(argv, "--workload")
    if workload is None:
        print("run.py: --workload is required", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary] + argv
    if arg_value(argv, "--trace") == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"{workload}.spans.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(run.stdout)
        print(f"run.py: no result line (exit code {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or result["correct"] is not True:
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
