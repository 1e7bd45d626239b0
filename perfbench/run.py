#!/usr/bin/env python3
"""Build and run the Mekong host-time benchmark for one workload.

    python3 perfbench/run.py --workload <functional|replay|resolve|tenants> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release
profile, offline) from source, runs the workload, stores the result with
its provenance under `perfbench/out/`, and prints the result as the last
line of standard output. Exits non-zero, without a result, when the build
or the run fails; exits non-zero with a result whose `correct` is false
when an output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("functional", "replay", "resolve", "tenants")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def tool_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "third_party", "perfbench"]
    for root in roots:
        path = os.path.join(ROOT, root)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance():
    return {
        "git_revision": tool_output(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_used": 1,
        "rustc": tool_output(["rustc", "--version"]),
        "profile": "release",
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        r = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    os.makedirs(OUT, exist_ok=True)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", OUT]
    # The program runs on one CPU: its parallel parts (the rayon stub sizes
    # its pool from the CPUs it may use) would otherwise measure how much
    # of a second CPU other load on the host leaves free.
    cpu = min(os.sched_getaffinity(0))
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                           preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"perfbench: no result (exit code {r.returncode})", file=sys.stderr)
        return 1

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "provenance": provenance(),
        "log": lines[:-1],
        "result": result,
    }
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"seed": a.seed, "provenance": record["provenance"]}))
    print(json.dumps(result))
    return r.returncode if r.returncode != 0 else (0 if result.get("correct") else 1)


if __name__ == "__main__":
    sys.exit(main())
