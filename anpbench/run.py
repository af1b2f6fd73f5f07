#!/usr/bin/env python3
"""Build and run the anp benchmark described in BENCHMARK.json.

Run from the repository root:

    python3 anpbench/run.py --workload <ladder_bulk|apps_corun|flow_study> \
        --seed <n> --seconds <s> --trace <0|1>

It builds the `anpbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), prints a machine stanza as one JSON line, then
runs the benchmark binary, whose last stdout line is the result object
(`correct`, `attempted`, `failed`, `metrics`). Run outputs (span files,
scratch journals) go to `.anpbench/`. Exits non-zero, printing no result,
when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def command_output(argv):
    """Stdout of `argv`, stripped, or None if it cannot run."""
    try:
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def flag(argv, name, default=None):
    """The value following `name` in `argv`, if any."""
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("anpbench: build failed", file=sys.stderr)
        return 1

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "profile": "release",
        "commit": command_output(["git", "--git-dir", ".git", "rev-parse", "HEAD"]),
        "workload": flag(argv, "--workload"),
        "workload_seed": flag(argv, "--seed", "0xa11ce"),
    }
    print(json.dumps({"machine": machine}), flush=True)

    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "anpbench")
    return subprocess.run([exe, *argv], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
