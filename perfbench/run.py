#!/usr/bin/env python3
"""Build and run the perfbench Go program from the repository checkout.

Usage (from the repository root):
    python3 perfbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

Every build and cache file goes under .bench_build/ in the checkout
(CARGO_TARGET_DIR, when set, names that directory). The Go program prints
the result line; this wrapper passes its output and exit code through.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(root, build))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    # Build under a private name and rename, so a build never rewrites a
    # binary another run is executing.
    fresh = "%s.%d" % (binary, os.getpid())
    built = subprocess.run(["go", "build", "-o", fresh, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    os.replace(fresh, binary)
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
