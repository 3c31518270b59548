#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke      # every workload, small, both ways
    python3 perfbench/run.py --selftest   # the harness's own tests

Run it from the root of an lsmlab checkout. The build goes through
perfbench/CMakeLists.txt, which builds the engine through the top-level
CMakeLists.txt, into .bench_build/perfbench (Release). The last line of
stdout is the benchmark's JSON result; build output goes to stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not an lsmlab checkout: no CMakeLists.txt or src/")
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "perfbench_stats_test", "-j", str(jobs())],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the engine and benchmark sources, so a result names the
    code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.selftest or args.workload):
        ap.error("give --workload, --smoke or --selftest")

    build()
    if args.selftest:
        proc = subprocess.run([str(BUILD / "perfbench_stats_test")])
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        proc = subprocess.run([sys.executable, "-m", "unittest", "-q",
                               "test_perfbench"], cwd=HERE)
        sys.exit(proc.returncode)

    cmd = [str(BUILD / "perfbench"), "--commit", commit(),
           "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]
    # malloc asks for transparent huge pages. With 4 KiB pages, which
    # physical pages (and so which cache sets) a process gets is random, and
    # the memory-bound numbers of a cache-resident zipf mix moved by a fifth
    # between runs of one seed.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    sys.stdout.flush()
    sys.stderr.flush()
    # exec, so a signal meant for the benchmark reaches it and no child
    # outlives this process.
    os.execve(cmd[0], cmd, env)


if __name__ == "__main__":
    main()
