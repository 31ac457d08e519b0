#!/usr/bin/env python3
"""Build the xqdb benchmark from source and run one workload.

Usage, from the root of an xqdb checkout:

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark executable
(perfbench/main.ml), whose last line of standard output is the JSON
result.  The build's own output goes to standard error.  The exit code
is the benchmark's: 0 only when every output matched its oracle.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.stderr.write("perfbench: run from the root of an xqdb checkout "
                         "(no dune-project and lib/ here)\n")
        return 2
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
