#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload compile-mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  The build goes through dune into
the checkout's own _build directory (dune's shared cache is disabled),
its output goes to standard error, and then this process becomes the
benchmark executable, so the last line of standard output is the
benchmark's JSON result and its exit code is the benchmark's.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/main.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: no dune-project and lib/ next to perfbench/; "
                         "run from a full checkout of the repository\n")
        return 2
    dune = dune_command()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(dune + ["build", "--root", ".", TARGET],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
