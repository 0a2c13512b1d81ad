#!/usr/bin/env python3
"""Build the perfbench driver from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--threads <n>]

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only re-check the build. Build
output goes to standard error, so the last line of standard output is the
driver's JSON result. Traced runs (--trace 1) write their spans to
.bench_build/perfbench/traces/<workload>-seed<n>.json. Any build failure
exits non-zero without printing a result.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (once) and build the driver; returns the binary path."""
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if not os.path.exists(cache):
            configured = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                                         "-DCMAKE_BUILD_TYPE=Release"],
                                        stdout=sys.stderr)
            if configured.returncode != 0:
                # Configure again next time instead of building from a
                # half-written cache.
                if os.path.exists(cache):
                    os.remove(cache)
                raise subprocess.CalledProcessError(configured.returncode,
                                                    configured.args)
        subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def option(args, flag):
    """Value of --flag in args (either '--flag v' or '--flag=v')."""
    for i, a in enumerate(args):
        if a == flag and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    return None


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    extra = ["--commit", source_id()]
    if option(args, "--trace") == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}"
        extra += ["--trace-out", os.path.join(traces, name + ".json")]
    return subprocess.run([binary] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
