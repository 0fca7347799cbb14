#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the Go benchmark in perfbench/ (a module of its own
that uses the repository's packages through a replace directive) into
.bench_build/, with the Go build cache and every temporary file kept
under .bench_build/ too, then runs it with the given arguments. The
benchmark's standard output is passed through; its last line is the
JSON result. A failed build or run exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    scratch = os.path.join(build, "run")
    for d in (build, tmp, scratch, os.path.join(build, "home")):
        os.makedirs(d, exist_ok=True)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    run_dir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        proc = subprocess.Popen([exe, "-scratch", run_dir] + sys.argv[1:],
                                cwd=root, env=env)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
