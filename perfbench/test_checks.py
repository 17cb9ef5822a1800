"""Tests of the benchmark's checker.

    python3 -m pytest -q perfbench/test_checks.py

The checker must reproduce a closed-form error, and must reject a run whose
solution values were changed after the run wrote them.
"""

import math
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402


def write_vtk(path, pts, cells, u):
    d = pts.shape[1]
    ctype = 5 if d == 2 else 10
    lines = ["# vtk DataFile Version 3.0", "test", "ASCII", "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(pts)} double"]
    lines += [" ".join(repr(float(c)) for c in p) + " 0.0" * (3 - d) for p in pts]
    lines.append(f"CELLS {len(cells)} {len(cells) * (d + 2)}")
    lines += [" ".join([str(d + 1)] + [str(int(v)) for v in c]) for c in cells]
    lines.append(f"CELL_TYPES {len(cells)}")
    lines += [str(ctype)] * len(cells)
    lines += [f"POINT_DATA {len(pts)}", "SCALARS u double 1", "LOOKUP_TABLE default"]
    lines += [repr(float(v)) for v in u]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def grid(n, d):
    """Unit square/cube, n cells per side, each cell split into simplices
    whose vertices are cell corners (Kuhn split)."""
    axes = np.linspace(0.0, 1.0, n + 1)
    pts = np.array(np.meshgrid(*([axes] * d), indexing="ij")).reshape(d, -1).T
    idx = np.arange((n + 1) ** d).reshape((n + 1,) * d)
    perms = [(0, 1), (1, 0)] if d == 2 else \
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    cells = []
    for base in np.ndindex(*([n] * d)):
        for p in perms:
            cur = list(base)
            path = [idx[tuple(cur)]]
            for ax in p:
                cur[ax] += 1
                path.append(idx[tuple(cur)])
            cells.append(path)
    return pts, np.array(cells)


@pytest.mark.parametrize("d", [2, 3])
def test_interpolant_of_quadratic_matches_closed_form(tmp_path, d):
    # u = x^2: on cells with corners at x = a, a + h the interpolant is the 1D
    # linear interpolant in x, so |u - Iu|_1^2 = h^2/3 and ||u - Iu||^2 = h^4/30.
    n = 4
    h = 1.0 / n
    pts, cells = grid(n, d)
    path = os.path.join(tmp_path, "q.vtk")
    write_vtk(path, pts, cells, pts[:, 0] ** 2)
    p, c, fields = checks.read_vtk(path)
    uh = checks.solution_values(fields)

    def exact(x):
        return (x[:, 0] ** 2)[:, None]

    def grad(x):
        g = np.zeros((len(x), 1, d))
        g[:, 0, 0] = 2.0 * x[:, 0]
        return g

    l2sq, semisq = checks.errors(p, c, uh, exact, grad)
    assert semisq == pytest.approx(h * h / 3.0, rel=1e-12)
    assert l2sq == pytest.approx(h ** 4 / 30.0, rel=1e-12)
    h1, spread = checks.h1_with_spread(p, c, uh, exact, grad)
    assert h1 == pytest.approx(math.sqrt(h * h / 3.0 + h ** 4 / 30.0), rel=1e-12)
    assert spread <= 1e-4 * h1
    assert checks.integral_p1(p, c, uh[:, 0]) == pytest.approx(1.0 / 3.0 + h * h / 6.0)


@pytest.fixture(scope="module")
def corner_run(tmp_path_factory):
    from afem.driver import run_adaptive
    from workloads import run_config

    out = str(tmp_path_factory.mktemp("corner2d"))
    run_adaptive(run_config("corner2d", out, {}))
    return out


def test_genuine_run_passes(corner_run):
    h1, failures, info = checks.check("corner2d", corner_run)
    assert failures == []
    assert 0.0 < h1 < 0.1 and info["galerkin_ratio"] < 1.0


def _perturbed_copy(src, dst, also_csv):
    shutil.copytree(src, dst)
    rows = checks.read_levels(os.path.join(dst, "levels.csv"))
    last = os.path.join(dst, f"level{len(rows) - 1:02d}.vtk")
    pts, cells, fields = checks.read_vtk(last)
    u = fields["u"].copy()
    interior = (np.abs(pts).max(axis=1) < 1.0 - 1e-12) & (np.abs(pts).min(axis=1) > 1e-12)
    u[interior] += 1e-2 * np.sin(7.0 * pts[interior, 0] + 3.0 * pts[interior, 1])
    write_vtk(last, pts, cells, u)
    if also_csv:
        h1, _ = checks.h1_with_spread(pts, cells, u[:, None], checks.corner_exact,
                                      checks.corner_grad)
        path = os.path.join(dst, "levels.csv")
        with open(path) as f:
            text = f.read().rstrip("\n").split("\n")
        cols = text[-1].split(",")
        cols[5] = repr(h1)
        text[-1] = ",".join(cols)
        with open(path, "w") as f:
            f.write("\n".join(text) + "\n")


@pytest.mark.parametrize("also_csv", [False, True])
def test_perturbed_solution_is_rejected(corner_run, tmp_path, also_csv):
    # Changing u_h alone breaks agreement with levels.csv; changing levels.csv
    # to match still fails Galerkin best approximation.
    dst = os.path.join(tmp_path, "run")
    _perturbed_copy(corner_run, dst, also_csv)
    _, failures, _ = checks.check("corner2d", dst)
    assert failures
    if also_csv:
        assert any("nodal interpolant" in f for f in failures)
    else:
        assert any("levels.csv" in f for f in failures)
