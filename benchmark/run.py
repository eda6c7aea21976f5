#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload knee --seed 1 --seconds 25 --trace 0

The arguments are handed to `benchmark.exe run` unchanged (see
benchmark/README.md).  The benchmark's report goes to standard output and
ends with one JSON line; the build's messages go to standard error.
"""

import glob
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "benchmark", "benchmark.exe")

# The benchmark itself stays well inside this; the build is not counted.
RUN_TIMEOUT_S = 170


def toolchain_env():
    """The environment with the OCaml toolchain on PATH and no shared
    dune cache, so every build artefact stays inside the checkout."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune") is None:
        prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
        prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
        for prefix in prefixes:
            if prefix and os.path.isfile(os.path.join(prefix, "bin", "dune")):
                env["PATH"] = os.path.join(prefix, "bin") + os.pathsep + env.get("PATH", "")
                break
    return env


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    env = toolchain_env()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "benchmark/benchmark.exe"],
            env=env, stdout=sys.stderr)
    except FileNotFoundError:
        print("run.py: dune is not installed", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: the build failed", file=sys.stderr)
        return build.returncode
    try:
        return subprocess.run([EXE, "run"] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark ran past %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
