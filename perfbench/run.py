#!/usr/bin/env python3
"""Build and run the polysig end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (the `perfbench/` package) and the
`polysig-serve` binary in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one measurement. The benchmark's last line of
standard output is the result object; details and spans are written under
`.bench_out/`. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["estimate_sweep", "verify_sweep", "serve_mix", "federated_stream"]
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["src", "crates", "vendor", "perfbench"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock"]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(root, target_dir, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        rev = tool_version(["git", "-C", root, "rev-parse", "HEAD"])
        if rev:
            return rev
    h = hashlib.sha256()
    paths = [os.path.join(root, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ["Cargo.toml", os.path.join("perfbench", "Cargo.toml")]:
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a polysig checkout ({needed} not found)")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(root, target_dir)

    cargo_build(root, target_dir, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])
    cargo_build(root, target_dir, ["--bin", "polysig-serve"])
    bench = os.path.join(target_dir, "release", "perfbench")
    server = os.path.join(target_dir, "release", "polysig-serve")

    env = dict(
        os.environ,
        PERFBENCH_RUSTC=tool_version(["rustc", "--version"]),
        PERFBENCH_COMMIT=source_id(root),
    )
    cmd = [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", server,
        "--out", os.path.join(root, ".bench_out"),
    ]
    # the benchmark starts server children; run it in its own process group so
    # a timeout or an interrupt stops all of them
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        stop()
    sys.exit(code)


if __name__ == "__main__":
    main()
