"""The benchmark's tracer patches library names by attribute and wraps the
problem callbacks; a rename in `src/afem` or a change of the callback
signatures must fail here rather than in a traced benchmark run."""
import importlib.util
import json
from pathlib import Path

import pytest

import afem.assembly as assembly
import afem.driver as driver
import afem.indicators as indicators
import afem.multilevel as multilevel
import afem.newton as newton
import afem.ppum as ppum
import afem.vtk as vtk
from afem import generators
from afem.config import RunConfig, build_problem
from afem.mesh import Mesh
from afem.problems import BUILT_IN

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_site():
    sites = [(assembly, "face_rule"), (indicators, "face_rule"), (Mesh, "face_normal"),
             (newton, "assemble_jacobian"), (newton, "assemble_residual"),
             (assembly, "measure_error"), (indicators, "residual_indicator")]
    sites += [(owner, "prolongation_from_refinement")
              for owner in (driver, ppum, indicators, multilevel)]
    sites += [(owner, "export_vtk") for owner in (driver, vtk)]
    before = [getattr(owner, attr) for owner, attr in sites]
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(sites, before))
    finally:
        tracer.unpatch()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(sites, before))


def test_refine_hook_tallies_bisections_and_passes():
    mesh = generators.unit_square(1)
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        rep = mesh.refine_marked([0])
    finally:
        tracer.unpatch()
    summary = tracer.summary(0.0, 1.0)
    # triangle 0 splits the shared diagonal; closure bisects triangle 1 in a
    # second pass, reusing the midpoint
    assert summary["mesh.bisections"] == len(rep.bisections) == 2
    assert summary["mesh.closure_passes"] == rep.passes == 2


def test_report_refinements_match_traced_counts(tmp_path, monkeypatch):
    # the corner2d workload: each level but the last ends in a refinement,
    # and report.json carries its counts; the residual indicator refines nothing
    monkeypatch.syspath_prepend(str(TRACER.parent))
    import workloads

    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        driver.run_adaptive(workloads.run_config("corner2d", str(tmp_path), {}))
    finally:
        tracer.unpatch()
    levels = json.loads((tmp_path / "report.json").read_text())["levels"]
    refinements = [level["refinement"] for level in levels]
    assert refinements[-1] is None and None not in refinements[:-1]
    summary = tracer.summary(0.0, 1.0)
    for key, traced in (("bisections", "mesh.bisections"),
                        ("closure_passes", "mesh.closure_passes")):
        assert sum(r[key] for r in refinements[:-1]) == summary[traced] > 0


def test_subdomain_rounds_match_traced_newton_iterations(tmp_path, monkeypatch):
    # the ppum4 workload: the coarse solve plus one Newton solve per subdomain
    # round after the first are all the Newton solves the run makes
    monkeypatch.syspath_prepend(str(TRACER.parent))
    import workloads

    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        driver.run_ppum(workloads.run_config("ppum4", str(tmp_path), {}))
    finally:
        tracer.unpatch()
    doc = json.loads((tmp_path / "report.json").read_text())
    local = sum(len(r["newton"]["step_lengths"])
                for rounds in doc["ppum"]["rounds"] for r in rounds[1:])
    traced = tracer.summary(0.0, 1.0)["newton.iterations"]
    assert traced == doc["levels"][0]["newton_iterations"] + local
    assert local > 0


@pytest.mark.parametrize("name", BUILT_IN)
def test_instrumented_callbacks_are_counted(name):
    mod = _tracer_module()
    tracer = mod.Tracer()
    problem = tracer.instrument_problem(build_problem(RunConfig(problem=name, dim=2)))
    mesh = (problem.mesh_factory or generators.unit_square)(2)
    u = assembly.dirichlet_start(problem, mesh)

    def calls(cb):
        return mod._peek(tracer.leaf_calls.get(f"problems.{cb}"))

    for step, cb in ((assembly.assemble_residual, "Ft"),
                     (assembly.assemble_jacobian, "DFt"),
                     (indicators.residual_indicator, "SFt")):
        before = calls(cb)
        step(problem, u)
        assert calls(cb) > before, f"{name}: {step.__name__} made no counted {cb} call"
