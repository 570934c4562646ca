#!/usr/bin/env python3
"""Build and run the nvp benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 12 --trace 0

Builds `repro` and `nvpd` from the checkout's workspace and the
`nvpbench` benchmark binary from `perfbench/` (release, offline, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs `nvpbench`.
Its stdout ends with one JSON result line. The stamp line before it
records the rustc version, the git commit when there is one, and a
SHA-256 over the sources that were built, which identifies the code
even in a checkout without git metadata.

Exits non-zero without a result when the checkout cannot be built.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "compat", "perfbench/src", "perfbench/Cargo.toml")


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def stdout_of(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "nvp-experiments", "--bin", "repro", "-p", "nvpd", "--bin", "nvpd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    bin_dir = os.path.join(target, "release")
    bench = [os.path.join(bin_dir, "nvpbench"), "run", *sys.argv[1:],
              "--bin-dir", bin_dir,
              "--rustc", stdout_of(["rustc", "--version"]),
              "--commit", stdout_of(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "none",
              "--source-sha256", source_digest()]
    sys.exit(subprocess.run(bench).returncode)


if __name__ == "__main__":
    main()
