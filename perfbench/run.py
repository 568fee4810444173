#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_small|native_spin \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark and the `crossinv`
daemon from source with dune, runs one measurement, and checks that the
last line of output is a result carrying exactly the metrics BENCHMARK.json
lists for the mode (end-to-end with --trace 0, per-layer with --trace 1).
Exits non-zero, without printing a result, when anything is missing.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
DAEMON = os.path.join("_build", "default", "bin", "crossinv.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    cmd = dune() + ["build", "--root", ".", "./perfbench/main.exe", "./bin/crossinv.exe"]
    # No shared dune cache: the build writes only under _build in the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def revision():
    if not os.path.exists(".git"):
        return source_digest()
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return source_digest()


def source_digest():
    """Identifies a checkout that is not a git repository by its sources."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src-" + h.hexdigest()


def check(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(result))
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            fail("%s is not a whole number" % k)
    if result["attempted"] < 1:
        fail("nothing attempted")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail("%s has no finite value" % name)
        if m.get("unit") != want[name]:
            fail("%s has unit %r, BENCHMARK.json says %r" % (name, m.get("unit"), want[name]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % a.workload)
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--daemon", DAEMON, "--rev", revision()]
    # Own process group, so a timeout also stops the daemon the run started.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run timed out")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit code %d)" % p.returncode)
    check(result, spec, a.trace == 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if p.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
