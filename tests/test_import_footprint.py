"""What a run imports: start-up loads everything, and nothing heavier than it
must.

A fresh Python process imports `afem.driver` and `afem.cli`, checks that
`scipy.special` is not among the loaded modules (the quadrature tables are
literals), then runs three tiny configurations that between them reach the
residual and dual indicators, the direct and multilevel solvers and the
partition-of-unity driver.  No run may import a module the start-up imports
had not loaded: a lazy import would move start-up cost into the solve time.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys, tempfile
import afem.driver, afem.cli
special = "scipy.special" in sys.modules
from afem.config import RunConfig
from afem.driver import run_adaptive, run_ppum
loaded, runs = set(sys.modules), []
with tempfile.TemporaryDirectory() as tmp:
    for run, cfg in [
            (run_adaptive, dict(problem="square_sine", mesh_n=2, max_vertices=30)),
            (run_adaptive, dict(problem="cube_sine", mesh_n=2, max_vertices=40,
                                indicator="dual", linear="multilevel")),
            (run_ppum, dict(problem="square_sine", mesh_n=2, max_vertices=30,
                            ppum_subdomains=2))]:
        report = run(RunConfig(out=os.path.join(tmp, str(len(runs))), **cfg))
        runs.append([report.status, len(report.levels), sorted(set(sys.modules) - loaded)])
print(json.dumps({"special": special, "runs": runs}))
"""


def test_runs_import_nothing_after_start_up():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["special"], "importing afem.driver and afem.cli loads scipy.special"
    assert [status for status, _, _ in result["runs"]] == ["vertex_cap", "vertex_cap", "blended"]
    for status, levels, new in result["runs"]:
        assert levels > 1, status
        assert new == [], f"a {status} run imported {new}"
