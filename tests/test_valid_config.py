"""Valid configurations, drawn at random, end normally or in a named failure.

The problem comes from `BUILT_IN`; its dimension is the one it states, or a
drawn one where it reads `dim` or runs in either.  Every run ends either
with a status of `STATUSES`, finite indicator totals, strictly rising vertex
counts in an adaptive run and the same `levels.csv` bytes when run again, or
in a `DriverError` naming level k, with `levels.csv` holding the k finished
rows and `report.json` the status `failed at level k`.
"""
import json
import math
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from afem.config import RunConfig, build_mesh, build_problem, validate
from afem.driver import DriverError, run_adaptive, run_ppum
from afem.problems import BUILT_IN

STATUSES = ("vertex_cap", "no_marks", "target_met", "blended")
# each generator's dimension and the largest mesh_n drawn for it
MESHES = {"unit_square": (2, 3), "l_shape": (2, 2), "annulus": (2, 2),
              "unit_cube": (3, 2), "sphere_in_box": (3, 1)}


@st.composite
def valid_runs(draw):
    """(cfg, ppum): a validated config and whether it is a PPUM run."""
    name = draw(st.sampled_from(list(BUILT_IN)))
    cfg = RunConfig(problem=name, dim=draw(st.sampled_from([2, 3])))
    problem = build_problem(cfg)
    cfg.dim = problem.dim or cfg.dim
    default = problem.mesh_factory is not None and problem.mesh_factory(1).dim == cfg.dim
    meshes = [g for g, (dim, _) in MESHES.items() if dim == cfg.dim]
    cfg.mesh = draw(st.sampled_from(["auto"] * default + meshes))
    cfg.mesh_n = draw(st.integers(1, MESHES[cfg.mesh][1] if cfg.mesh in MESHES else 2))
    mesh = build_mesh(cfg, problem)
    cfg.max_vertices = draw(st.integers(mesh.n_vertices, mesh.n_vertices + 40))
    cfg.strategy = draw(st.sampled_from(["equidistribution", "maximum", "hybrid"]))
    cfg.theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)))
    cfg.ppum_subdomains = draw(st.integers(1, min(4, len(mesh.live_simplices()))))
    ppum = draw(st.booleans())
    if not ppum:
        cfg.indicator = draw(st.sampled_from(["residual", "dual"]))
        cfg.linear = draw(st.sampled_from(["direct", "multilevel"]))
        cfg.target_eta = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    validate(cfg)
    return cfg, ppum


def _outcome(cfg, ppum, out):
    """The run's levels.csv bytes, after checking how it ended."""
    cfg.out = out
    try:
        report = (run_ppum if ppum else run_adaptive)(cfg)
    except DriverError as exc:
        k = int(re.match(r"level (\d+): ", str(exc)).group(1))
        with open(os.path.join(out, "report.json")) as f:
            assert json.load(f)["status"].startswith(f"failed at level {k}: ")
        with open(os.path.join(out, "levels.csv")) as f:
            text = f.read()
        assert len(text.splitlines()) == k + 1
        return text
    assert report.status in STATUSES, report.status
    assert all(math.isfinite(r.eta_total) for r in report.levels)
    if not ppum:
        counts = [r.n_vertices for r in report.levels]
        assert all(a < b for a, b in zip(counts, counts[1:])), counts
    with open(os.path.join(out, "levels.csv")) as f:
        return f.read()


@settings(max_examples=40, deadline=None)
@given(run=valid_runs())
def test_valid_configs_end_normally_or_name_the_level(run):
    cfg, ppum = run
    with tempfile.TemporaryDirectory() as tmp:
        first = _outcome(cfg, ppum, os.path.join(tmp, "a"))
        assert _outcome(cfg, ppum, os.path.join(tmp, "b")) == first
