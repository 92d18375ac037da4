#!/usr/bin/env python3
"""Tracer benchmark: one run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench.exe from the checkout's sources with dune, runs its
set-up (the simulator, which generates the workload's inputs from the
seed) three times and reports the median as setup_s, scaled to the
reference host's speed like every timed end-to-end figure, then runs the
measured phase in a fresh process over the generated files. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1, as listed in BENCHMARK.json). Exits non-zero on a wrong result
or any error. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("rubis_live", "mesh_cascade")
SETUP_RUNS = 3
INPUT_FILES = ("traces.ptb", "oracle.txt", "feed.ptb", "feed.order", "queries.txt", "meta.bin")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(cmd, timeout, **kw):
    """Run to completion (killed and reaped on timeout); stderr passes through."""
    try:
        return subprocess.run(cmd, timeout=timeout, stdout=subprocess.PIPE, text=True, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail(f"no dune-project in {ROOT}: the benchmark builds the tracer from this checkout")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir, "./perfbench/perfbench.exe"]
    # No shared dune cache: the build reads and writes inside the checkout only.
    r = run(cmd, timeout=850, stderr=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    sys.stderr.write(r.stdout)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "perfbench.exe")


def digest_inputs(data_dir):
    h = hashlib.sha256()
    for name in INPUT_FILES:
        with open(os.path.join(data_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def setup(exe, args, data_dir):
    """Generate the inputs SETUP_RUNS times; they must be identical.

    Each set-up times itself, scaled to the reference host's speed (see
    Host in perfbench.ml), and prints that as JSON on its last line."""
    times, digests = [], set()
    for _ in range(SETUP_RUNS):
        shutil.rmtree(data_dir, ignore_errors=True)
        r = run([exe, "setup", "--workload", args.workload, "--seed", str(args.seed),
                 "--out", data_dir], timeout=120)
        if r.returncode != 0:
            fail("setup failed")
        lines = r.stdout.strip().splitlines()
        try:
            times.append(float(json.loads(lines[-1])["setup_s"]))
        except (IndexError, ValueError, KeyError, TypeError):
            fail(f"setup printed no timing: {r.stdout!r}")
        print("\n".join(lines), file=sys.stderr)
        digests.add(digest_inputs(data_dir))
    if len(digests) != 1:
        fail("set-up is not deterministic: the same seed gave different inputs")
    return statistics.median(times)


def main(argv):
    args = parse_args(argv)
    expected = expected_metrics(args.trace)
    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    exe = build(build_dir)
    data_dir = os.path.join(build_dir, "perfbench", f"{args.workload}-{args.seed}")
    setup_s = setup(exe, args, data_dir)

    cmd = [exe, "measure", "--workload", args.workload, "--dir", data_dir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, "perfbench", f"spans-{args.workload}.tsv")]
    # One worker domain for anything that sizes itself from PT_JOBS; the
    # 2-domain figures ask for two explicitly.
    env = dict(os.environ, PT_JOBS="1")
    r = run(cmd, timeout=170, env=env)
    shutil.rmtree(data_dir, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("measured phase failed")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"measured phase printed no result: {lines[-1]!r}")

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != expected:
        fail(f"metric set differs from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}, or units differ")
    print(json.dumps(result))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail("wrong result")


if __name__ == "__main__":
    main(sys.argv[1:])
