"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload corner2d --out DIR [--seed N]
                               [--trace] [--set key=value ...]

Set-up builds the workload's problem and initial mesh and injects them at
`afem.driver.build_problem` / `build_mesh`; the solve is then one call to
`run_adaptive` or `run_ppum`.  Prints one JSON line: the perf_counter reading
when set-up finished (the parent subtracts its own reading from before the
spawn), the solve time, the peak resident memory and, when traced, the
per-layer summary.  The library is imported from the `src/` directory of the
checkout this file lives in, never from anywhere else.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--set", action="append", default=[])
    args = ap.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    t = time.perf_counter()
    import afem.driver as driver
    if not os.path.abspath(driver.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"afem imported from {driver.__file__}, not from {SRC}")
    import workloads
    import_s = time.perf_counter() - t

    overrides = dict(kv.split("=", 1) for kv in args.set)
    cfg = workloads.run_config(args.workload, args.out, overrides)
    t = time.perf_counter()
    problem = workloads.problem_of(args.workload, cfg, args.seed)
    problem_s = time.perf_counter() - t
    t = time.perf_counter()
    mesh = workloads.mesh_of(args.workload, cfg, problem)
    mesh_s = time.perf_counter() - t
    driver.build_problem = lambda cfg: problem
    driver.build_mesh = lambda cfg, problem=None: mesh
    ready = time.perf_counter()
    result = {"ready": ready, "setup": {"setup.import_s": import_s,
                                        "setup.problem_s": problem_s,
                                        "setup.mesh_s": mesh_s}}

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    if cfg.ppum_subdomains > 1:
        report = driver.run_ppum(cfg)
    else:
        report = driver.run_adaptive(cfg)
    t1 = time.perf_counter()

    result["solve_s"] = t1 - t0
    result["status"] = report.status
    result["levels"] = len(report.levels)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.unpatch()
        tracer.write_jsonl(os.path.join(args.out, "trace.jsonl"))
        summary = tracer.summary(t0, t1)
        summary["trace.levels"] = len(report.levels)
        result["trace"] = summary
    print(json.dumps(result))


if __name__ == "__main__":
    main()
