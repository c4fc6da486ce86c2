#!/usr/bin/env python3
"""End-to-end benchmark of the mini-POP model (see README.md here).

Builds the benchmark program from source, runs one workload for a fixed
amount of work, checks the program's outputs and prints one JSON result
line last on stdout:

    python3 bench_e2e/run.py --workload sim_evp_r1 --seed 1 --seconds 25 --trace 0

--seconds sets the number of replayed rounds through a fixed rate per
workload, so a run always does the same work; it is not a time box.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

    python3 bench_e2e/run.py --self-check

runs every workload twice on the default seed and once on another seed
and bathymetry, and checks that every exact count repeats bit for bit.

Everything is built and written under $CARGO_TARGET_DIR (default
.bench_build) in the current directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Replayed rounds per requested second (a round's typical wall time on
# the reference host is its inverse). A run sets its models up once
# before the rounds and once more after every round.
WORKLOADS = {
    "sim_evp_r1": 12.5,
    "ens_evp_b8": 1.55,
    "sim_diag_r4": 4.5,
}
DEFAULT_SEED = 2015
# The self-check's run on inputs the reference was not made from.
OTHER_SEED, OTHER_BATHYMETRY_SEED = 7, 11


def run_timeout_s(rounds, rate):
    """Time allowed for one program run: 170 s for the default window,
    longer for longer ones."""
    return 45 + 5 * rounds / rate

# Per-layer metrics the program computes from counts alone; they must
# repeat bit for bit between runs of one seed.
EXACT_METRICS = [
    "solver.iters_per_solve", "solver.flops_per_step", "solver.active_frac",
    "solver.redundant_flop_frac", "batch.lane_efficiency",
    "batch.members_per_halo_round", "comm.halo_rounds_per_step",
    "comm.msgs_per_step", "comm.bytes_per_step", "comm.allreduces_per_step",
    "setup.lanczos_steps",
]


def fail(msg):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(1)


def out_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    build_dir = os.path.join(out_dir(), "bench_e2e")
    log_path = os.path.join(out_dir(), "bench_e2e-build.log")
    os.makedirs(out_dir(), exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", build_dir, "-j", jobs]]
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_e2e")


def run_program(exe, workload, seed, rounds, trace,
                bathymetry_seed=DEFAULT_SEED):
    spans = os.path.join(out_dir(), "spans", f"{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [exe, f"--workload={workload}", f"--seed={seed}",
           f"--rounds={rounds}", f"--trace={trace}",
           f"--bathymetry-seed={bathymetry_seed}",
           f"--spans={spans}"]
    timeout = run_timeout_s(rounds, WORKLOADS[workload])
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:.0f} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        fail(f"{workload} exited with code {p.returncode}")
    return json.loads(lines[-1])


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def scaled_diff(x, ref, floor):
    return abs(x - ref) / max(abs(ref), floor)


def reference_failures(record, ref):
    """Diagnostics of the default seed against the stored reference."""
    want = ref["workloads"].get(record["config"]["workload"])
    got = record["diagnostics"]
    if want is None or len(want) != len(got):
        return ["reference: no stored diagnostics for this workload"]
    tol = ref["tolerance"]
    bad = []
    for m, (g, w) in enumerate(zip(got, want)):
        for key, floor in (("mean_ssh", 1.0), ("mean_temperature", 0.0),
                           ("kinetic_energy", 0.0)):
            if not scaled_diff(g[key], w[key], floor) <= tol:
                bad.append(f"reference: member {m} {key} {g[key]!r} "
                           f"differs from {w[key]!r}")
    return bad


def check_failures(record):
    return [f"check failed: {k}" for k, v in record["checks"].items()
            if v is False]


def source_digest():
    """sha256 of the library and benchmark sources (the checkout need not
    be a git repository)."""
    h = hashlib.sha256()
    root = os.path.dirname(HERE)
    for top in ("src", os.path.basename(HERE)):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return None
    p = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() or None


def benchmark(args):
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    rounds = max(4, round(WORKLOADS[args.workload] * args.seconds))
    exe = build()
    record = run_program(exe, args.workload, args.seed, rounds, args.trace)
    failures = check_failures(record)
    if args.seed == DEFAULT_SEED:
        failures += reference_failures(record, load_reference())
    record["failures"] = failures
    record["build"]["commit"] = git_commit()
    record["build"]["source_sha256"] = source_digest()
    records = os.path.join(out_dir(), "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f)
    record["timing"].pop("untraced_round_series_ms", None)
    for f in failures:
        print(f"bench_e2e: {f}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if not failures else 1


def self_check():
    """Exact-count audit and a run on seeds not used by the reference."""
    exe = build()
    ref = load_reference()
    problems = []
    for w in WORKLOADS:
        found = []
        runs = [run_program(exe, w, DEFAULT_SEED, 6, 1) for _ in range(2)]
        for r in runs:
            found += check_failures(r)
        a, b = runs
        if a["counts"] != b["counts"]:
            found.append("counts differ between two runs")
        for m in EXACT_METRICS:
            if a["metrics"][m]["value"] != b["metrics"][m]["value"]:
                found.append(f"{m} differs between two runs")
        r = run_program(exe, w, DEFAULT_SEED, 4, 0)
        found += check_failures(r) + reference_failures(r, ref)
        other = run_program(exe, w, OTHER_SEED, 4, 0, OTHER_BATHYMETRY_SEED)
        found += [f"seed {OTHER_SEED}, bathymetry {OTHER_BATHYMETRY_SEED}: "
                  f"{p}" for p in check_failures(other)]
        print(f"{w}: {'FAILED' if found else 'ok'}", file=sys.stderr)
        problems += [f"{w}: {p}" for p in found]
    for p in problems:
        print(f"bench_e2e self-check: {p}", file=sys.stderr)
    print(json.dumps({"self_check": "pass" if not problems else "fail",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if not args.workload:
        ap.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
