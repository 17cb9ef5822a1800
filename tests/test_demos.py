"""The demo scripts run to completion.

Each script in `demos/` is copied into a temporary directory and run there
as its own Python process, with the library on PYTHONPATH, so the outputs it
writes next to itself land in that directory.
"""
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def run_demo(name, tmp_path):
    script = tmp_path / name
    shutil.copy(os.path.join(DEMOS, name), script)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", ["adaptive_poisson.py", "constraint_solve.py"])
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)
    assert (tmp_path / "out").is_dir()


def test_ppum_demo_reports_identical_runs(tmp_path):
    out = run_demo("ppum_partition.py", tmp_path)
    assert "status: blended" in out.splitlines()
    cover = next(ln for ln in out.splitlines()
                 if ln.startswith("max subdomains covering a point:"))
    assert 1 <= int(cover.split(":")[1]) <= 4
    assert (tmp_path / "out" / "ppum_partition" / "levels.csv").exists()
