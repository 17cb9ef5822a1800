"""The outputs of four small library runs, pinned against committed files.

One run for each benchmark workload's path through the library: the
residual indicator with `maximum` marking on the L-shape, the dual indicator
with the multilevel solver in 3D, the coupled (phi, W) system on the annulus
with a Robin outer circle (the only run with flux faces), and a PPUM run on
four subdomains.  Each writes `levels.csv` and `report.json`; the committed
copies under `data/workload_outputs/<run>/` hold `report.json` without its
wall times.  Integer columns and strings must match exactly and floats to
rtol 1e-12; a second run in the same process must write byte-identical
files.  After a deliberate change of the outputs, rewrite the references
with

    PYTHONPATH=src python3 tests/test_workload_outputs.py
"""
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from afem import driver, generators, ppum, problems
from afem.assembly import dirichlet_start
from afem.config import RunConfig
from afem.indicators import residual_indicator
from afem.mesh import DIRICHLET, NEUMANN
from afem.newton import newton_solve
from afem.problem import batched

DATA = Path(__file__).parent / "data" / "workload_outputs"
WALL_TIMES = ("wall_time", "local_wall_s")
INT_COLUMNS = ("level", "n_vertices", "n_simplices", "newton_iterations", "linear_iterations")


def _gauss(amp, width, center):
    return batched(lambda x: amp * np.exp(-((x - center) ** 2).sum(axis=1) / width ** 2))


def _coupled():
    """The coupled system with nonzero batched data on the annulus, inner
    circle Dirichlet and outer circle Robin."""
    coeffs = problems.ConstraintCoefficients(
        dim=2, Rhat=_gauss(2.0, 0.5, [0.6, 0.2]), rho=_gauss(0.05, 0.4, [-0.5, 0.4]),
        trK=batched(lambda x: 0.4 + 0.2 * x[:, 0]),
        trK_grad=batched(lambda x: np.tile([0.2, 0.0], (len(x), 1))),
        Ahat=batched(lambda x: np.tile([[0.1, 0.05], [0.05, -0.1]], (len(x), 1, 1))),
        jhat=batched(lambda x: np.column_stack((0.02 * x[:, 1], -0.01 * x[:, 0]))),
        robin_c=_gauss(1.0, 2.0, [0.0, 0.0]), robin_z=batched(lambda x: 1.0 + 0.1 * x[:, 1]),
        robin_C=batched(lambda x: np.tile([[0.8, 0.1], [0.1, 0.6]], (len(x), 1, 1))),
        robin_Z=batched(lambda x: np.column_stack((0.05 * x[:, 0], 0.02 + 0 * x[:, 1]))),
        dirichlet_f=batched(lambda x: 1.2 + 0.1 * x[:, 0]))
    return problems.coupled_forms(coeffs)


def _annulus():
    return generators.annulus(2, 12, 0.5, 1.0, boundary=lambda c: (
        NEUMANN if math.hypot(c[0], c[1]) > 0.75 else DIRICHLET))


RUNS = {
    "corner": lambda out: driver.run_adaptive(RunConfig(
        problem="corner_singularity", strategy="maximum", theta=0.3, max_vertices=150, out=out)),
    "cube_dual": lambda out: driver.run_adaptive(RunConfig(
        problem="cube_sine", mesh_n=2, indicator="dual", linear="multilevel",
        max_vertices=50, out=out)),
    "coupled_robin": lambda out: _injected(RunConfig(
        problem="coupled", max_vertices=100, out=out), _coupled(), _annulus()),
    "ppum": lambda out: driver.run_ppum(RunConfig(
        problem="square_sine", ppum_subdomains=4, max_vertices=110, out=out)),
}


def _injected(cfg, problem, mesh):
    """run_adaptive on a problem and mesh a config cannot state."""
    with mock.patch.object(driver, "build_problem", lambda cfg: problem), \
            mock.patch.object(driver, "build_mesh", lambda cfg, problem=None: mesh):
        return driver.run_adaptive(cfg)


def _no_wall_times(doc):
    if isinstance(doc, dict):
        return {k: _no_wall_times(v) for k, v in doc.items() if k not in WALL_TIMES}
    if isinstance(doc, list):
        return [_no_wall_times(v) for v in doc]
    return doc


def _outputs(name, out):
    """The run's levels.csv text and report.json without wall times."""
    RUNS[name](str(out))
    report = _no_wall_times(json.loads((out / "report.json").read_text()))
    return (out / "levels.csv").read_text(), json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def first_runs(tmp_path_factory):
    return {name: tmp_path_factory.mktemp(name) for name in RUNS}


def _close(new, ref, where):
    if isinstance(ref, dict):
        assert sorted(new) == sorted(ref), where
        for k in ref:
            _close(new[k], ref[k], f"{where}.{k}")
    elif isinstance(ref, list):
        assert len(new) == len(ref), where
        for i, (a, b) in enumerate(zip(new, ref)):
            _close(a, b, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert isinstance(new, float), where
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=0.0, err_msg=where)
    else:
        assert new == ref and type(new) is type(ref), where


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_references(name, first_runs):
    csv, report = _outputs(name, first_runs[name])
    ref_csv = (DATA / name / "levels.csv").read_text()
    rows = [line.split(",") for line in csv.splitlines()]
    ref_rows = [line.split(",") for line in ref_csv.splitlines()]
    assert rows[0] == ref_rows[0] and len(rows) == len(ref_rows)
    for row, ref in zip(rows[1:], ref_rows[1:]):
        for col, a, b in zip(rows[0], row, ref):
            if col in INT_COLUMNS or not b:
                assert a == b, (col, row, ref)
            else:
                np.testing.assert_allclose(float(a), float(b), rtol=1e-12, atol=0.0, err_msg=col)
    _close(json.loads(report), json.loads((DATA / name / "report.json").read_text()), name)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_second_run_is_byte_identical(name, first_runs, tmp_path):
    first, second = first_runs[name], tmp_path
    if not (first / "levels.csv").exists():
        _outputs(name, first)
    _outputs(name, second)
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for rel in files:
        a, b = (first / rel).read_bytes(), (second / rel).read_bytes()
        if rel.name == "report.json":
            a, b = (json.dumps(_no_wall_times(json.loads(v)), sort_keys=True) for v in (a, b))
        assert a == b, rel


def test_ppum_blend_is_bitwise_the_same_in_either_subdomain_order():
    prob = problems.benchmark_poisson("square_sine")
    coarse = prob.mesh_factory(4)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), 4)
    order = range(dec.n_subdomains)

    def blend(indices):
        solved = {i: ppum.local_solve(prob, coarse, u0, dec, i, 110) for i in indices}
        local = [solved[i] for i in order]
        mesh = ppum.build_blend_mesh(coarse, dec, [f.mesh for f in local])
        pou = ppum.partition_of_unity(mesh, coarse.n_vertices, ppum.taper_weights(coarse, dec))
        return ppum.blend(pou, local)

    ascending, reverse = blend(order), blend(reversed(order))
    np.testing.assert_array_equal(ascending.mesh.coords, reverse.mesh.coords)
    np.testing.assert_array_equal(ascending.mesh.sverts, reverse.mesh.sverts)
    np.testing.assert_array_equal(ascending.values, reverse.values)


if __name__ == "__main__":
    import tempfile

    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            csv, report = _outputs(name, Path(tmp))
        (DATA / name).mkdir(parents=True, exist_ok=True)
        (DATA / name / "levels.csv").write_text(csv)
        (DATA / name / "report.json").write_text(report)
        print(f"wrote {DATA / name}", file=sys.stderr)
