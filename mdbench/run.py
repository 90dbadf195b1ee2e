#!/usr/bin/env python3
"""Metadata-op benchmark: what a simulated HopsFS-CL metadata op costs the
host and the simulated cluster.

    python3 mdbench/run.py --workload <spotify|mutations|az_failover|all>
                           --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds mdbench_sim (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks its outputs
and prints the metrics, then one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer split.
Exits non-zero when the build, the run or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write only into the build directory
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("spotify", "mutations", "az_failover")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "mdbench")


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(os.path.join(out, "build.log"), "w") as f:
        for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                    + gen,
                    ["cmake", "--build", out, "-j", "4"]):
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                raise stats.BenchError(
                    f"build failed: {' '.join(cmd)} (see {f.name})")
    return os.path.join(out, "mdbench_sim")


def run_sim(binary, workload, seed, seconds, trace):
    out = build_dir()
    err_path = os.path.join(out, f"{workload}-{seed}-{trace}.stderr")
    with open(err_path, "w") as err:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=err, timeout=RUN_TIMEOUT_S,
            check=False)
    if proc.returncode != 0:
        raise stats.BenchError(
            f"mdbench_sim exited {proc.returncode} (see {err_path})")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise stats.BenchError("mdbench_sim printed nothing")
    return json.loads(lines[-1])


def correctness(raw, binary, workload, seed):
    """Every correctness problem of one run (empty = correct)."""
    problems = []
    runs = stats.sim_runs(raw)
    for w in runs:
        for c in w["checks"]:
            if not c["ok"]:
                problems.append(f"sub-run {w['subrun']} check {c['name']}: "
                                f"{c['detail']}")
    if workload == "az_failover":
        for w in runs:
            recs = w["recoveries"]
            if not recs or any(r["aborted"] or r["serving_s"] < 0
                               for r in recs):
                problems.append(f"sub-run {w['subrun']}: the dark AZ's NDB "
                                f"nodes did not all recover ({recs})")
    # Every repeat of a sub-run, and the traced window, simulate the same
    # run: their digests must match.
    problems += stats.digest_mismatches(raw["windows"])
    # ... and so must any earlier run of this build with the same seed.
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    store = stats.DigestStore(os.path.join(build_dir(), "digests.json"))
    for w in runs:
        msg = store.check_and_record(
            f"{build_id}/{workload}/{seed}/{w['subrun']}", w["digest"])
        if msg:
            problems.append(f"sub-run {w['subrun']}: {msg}")
    return problems


def run_workload(binary, workload, seed, seconds, trace):
    raw = run_sim(binary, workload, seed, seconds, trace)
    problems = correctness(raw, binary, workload, seed)
    metrics = {}
    try:
        table = stats.per_layer(raw) if trace else stats.end_to_end(raw)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    except stats.BenchError as e:
        problems.append(str(e))
    runs = stats.sim_runs(raw)
    attempted = sum(w["ok"] + w["failed"] for w in runs)
    failed = sum(w["failed"] for w in runs)
    errors = {}
    for w in runs:
        for code, n in w["errors"].items():
            errors[code] = errors.get(code, 0) + n
    print(f"== {workload} (seed {seed}, trace {trace}): {attempted} ops "
          f"attempted, {failed} failed {json.dumps(errors) if failed else ''}")
    for w in runs:
        for c in w["checks"]:
            print(f"  [{'pass' if c['ok'] else 'FAIL'}] {c['name']}: "
                  f"{c['detail']}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    if not trace:
        raw_cpu = sorted(w["cpu_s"] for w in raw["windows"])
        ref_ms = sorted(x / 1e6 for w in raw["windows"] for x in w["ref_ns"])
        print(f"  raw window CPU {raw_cpu[len(raw_cpu) // 2]:.3f} s (median of "
              f"{len(raw_cpu)}), reference chunk {ref_ms[len(ref_ms) // 2]:.3f} "
              f"ms (scaled to {stats.REF_CHUNK_MS} ms)")
    for k, v in metrics.items():
        print(f"  {k:34s} {v['value']:>14.6g} {v['unit']}")
    return not problems, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        binary = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, a, f, m = run_workload(binary, name, args.seed, args.seconds,
                                       args.trace)
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            if args.workload == "all":
                m = {f"{name}.{k}": v for k, v in m.items()}
            metrics.update(m)
    except (stats.BenchError, subprocess.TimeoutExpired, OSError,
            ValueError) as e:
        print(f"mdbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
