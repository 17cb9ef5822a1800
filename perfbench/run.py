"""Benchmark of the adaptive solve: time, memory and accuracy end to end, and a
per-layer split from a traced run.

    python3 perfbench/run.py --workload corner2d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Each repetition runs in a fresh process (perfbench/child.py) and its outputs
are checked against closed-form or independently computed quantities
(perfbench/checks.py).  Repetitions run one after another, closed loop, as many
as fit in --seconds, and at least three.  With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics (medians over
repetitions); with --trace 1 repetitions alternate untraced and traced, and it
holds the per-layer metrics of the traced ones.  Human-readable tables go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 120
MIN_REPS = 3
MAX_RUN_S = 150      # the whole invocation must end within 180 s
END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("h1_error", "1"))
# One thread per BLAS/OpenMP pool: the only parallelism measured is ppum4's
# own thread pool (threads = 2 = nproc).
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "vtk.bytes":
        return "B"
    return "count"


def spawn(workload, out, seed, sets, trace=False):
    """Run one child; returns (result dict, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--out", out, "--seed", str(seed)]
    cmd += [a for kv in sets for a in ("--set", kv)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **CHILD_ENV)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child
    res["setup_s"] = res["ready"] - t_spawn
    return res, None


def measure(workload, seed, seconds, trace, sets):
    """Repetitions for `seconds`; returns the result object the last line prints."""
    man = None
    if workload == "coupled2d":
        from manufactured import Manufactured, rotation_angle
        man = Manufactured(rotation_angle(seed))
    out = os.path.join(OUT, workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    attempted = failed = 0
    reps = []
    first_csv = None
    csv_identical = True
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        rep_out = os.path.join(out, "rep")
        shutil.rmtree(rep_out, ignore_errors=True)
        res, err = spawn(workload, rep_out, seed, sets, trace=traced)
        attempted += 1
        if res is None:
            failed += 1
            print(f"[{workload}] repetition {attempted} failed: {err}", file=sys.stderr)
        else:
            h1, failures, info = checks.check(workload, rep_out, man)
            with open(os.path.join(rep_out, "levels.csv"), "rb") as f:
                csv_bytes = f.read()
            if first_csv is None:
                first_csv = csv_bytes
            elif csv_bytes != first_csv:
                csv_identical = False
                print(f"[{workload}] levels.csv differs between repetitions", file=sys.stderr)
            if failures:
                failed += 1
                print(f"[{workload}] repetition {attempted} failed its checks:\n  "
                      + "\n  ".join(failures), file=sys.stderr)
            else:
                res.update(h1_error=h1, traced=traced, info=info)
                reps.append(res)
        # stop before a repetition that would overrun the run, judged by the
        # mean repetition so far, but not before MIN_REPS (a median of one or
        # two repetitions follows a single slow one) unless that would take
        # the run past MAX_RUN_S
        elapsed = time.perf_counter() - start
        ahead = elapsed + elapsed / attempted
        if ahead > seconds and (attempted >= MIN_REPS or ahead > MAX_RUN_S):
            break

    plain = [r for r in reps if not r["traced"]]
    if not plain:
        raise SystemExit(f"{workload}: no repetition succeeded")
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        if not traced_reps:
            raise SystemExit(f"{workload}: no traced repetition succeeded")
        metrics = {}
        for key in traced_reps[0]["trace"]:
            metrics[key] = statistics.median(r["trace"][key] for r in traced_reps)
        for key in traced_reps[0]["setup"]:
            metrics[key] = statistics.median(r["setup"][key] for r in traced_reps)
        traced_solve = statistics.median(r["solve_s"] for r in traced_reps)
        metrics["trace.overhead_s"] = traced_solve - statistics.median(
            r["solve_s"] for r in plain)
        share = metrics["trace.unattributed_s"] / traced_solve
        if share >= 0.05:
            print(f"[{workload}] warning: {share:.1%} of the traced solve is outside "
                  "named spans", file=sys.stderr)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END}
    info = plain[-1]["info"]
    print(f"[{workload}] seed {seed}: {attempted} repetitions, {failed} failed, "
          f"{len(plain)} untraced; levels {plain[-1]['levels']}; "
          + ", ".join(f"{k} {v:.4g}" for k, v in info.items()), file=sys.stderr)
    print("  solve_s per repetition: " + " ".join(f"{r['solve_s']:.3f}" for r in plain),
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": csv_identical, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="picks the rotation of coupled2d's manufactured solution")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a RunConfig field (reference figures only)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "afem")):
        raise SystemExit(f"no afem package under {ROOT}/src: run from a checkout of the repo")

    if args.workload == "all":
        result = {w: {"end_to_end": measure(w, args.seed, args.seconds, False, args.set),
                      "per_layer": measure(w, args.seed, args.seconds, True, args.set)}
                  for w in WORKLOADS}
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.set)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
