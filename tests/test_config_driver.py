"""Run configuration parsing and the adaptive driver."""
import dataclasses
import json
import re
import threading
import types

import numpy as np
import pytest

import afem.driver as driver
import afem.indicators as indicators
import afem.newton as newton
import afem.ppum as ppum
from afem.config import (ConfigError, RunConfig, build_mesh, build_problem,
                         load_config, parse_config, validate)
from afem import generators
from afem.cli import main
from afem.driver import DriverError, run_adaptive, run_ppum
from afem.multilevel import build_hierarchy
from afem.newton import NewtonError
from afem.problem import ProblemError, batched
from afem.problems import ConstraintCoefficients, coupled_forms


# ------------------------------------------------------------------- config

def test_parse_config_basic():
    cfg = parse_config("""
# a comment
problem = square_sine
mesh_n = 4
max_vertices = 600
strategy = hybrid
theta = 0.5
""")
    assert cfg.problem == "square_sine"
    assert cfg.mesh_n == 4 and cfg.max_vertices == 600
    assert cfg.strategy == "hybrid" and cfg.theta == 0.5


@pytest.mark.parametrize("text,fieldname", [
    ("problem = nope", "problem"),
    ("theta = 1.5", "theta"),
    ("newton_tolerance = -1", "newton_tolerance"),
    ("indicator = wild", "indicator"),
    ("linear = qr", "linear"),
    ("ppum_subdomains = 0", "ppum_subdomains"),
    ("zzz = 1", "zzz"),
    # settings the run loops fix: p = 2, a 1e-10 floor on the multilevel
    # tolerance, two overlap layers, and max_vertices as the PPUM budget
    ("p = 3", "p"),
    ("linear_tolerance = 1e-8", "linear_tolerance"),
    ("ppum_layers = 3", "ppum_layers"),
    ("ppum_budget = 100", "ppum_budget"),
])
def test_errors_name_the_field(text, fieldname):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fieldname in str(err.value)


def test_parse_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("problem = square_sine\nmesh_n = not_a_number\n")
    assert "line 2" in str(err.value)


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("problem = cube_sine\nmesh_n = 3\n")
    cfg = load_config(str(p))
    assert cfg.problem == "cube_sine" and cfg.mesh_n == 3


def test_theta_zero_means_strategy_default():
    cfg = parse_config("problem = square_sine\ntheta = 0\n")
    assert cfg.theta_or_none is None
    cfg2 = parse_config("problem = square_sine\ntheta = 0.4\n")
    assert cfg2.theta_or_none == 0.4


def test_coefficient_specs():
    cfg = parse_config("""
problem = hamiltonian
dim = 2
mesh = unit_square
coeff.Rhat = const:8.0
coeff.rho = gaussian:amp=0.05,width=0.5,center=0.5 0.5
""")
    prob = build_problem(cfg)
    assert prob.n_components == 1
    # the gaussian peaks at its center and decays away from it
    rho = prob.constraint_coefficients.rho
    peak, off = rho(np.array([[0.5, 0.5], [0.0, 0.0]]))
    assert peak > off


def test_bad_coefficient_spec_rejected():
    # specs are parsed when the problem is built, so errors surface there
    with pytest.raises(ConfigError) as err:
        build_problem(parse_config("problem = hamiltonian\ndim = 2\n"
                                   "coeff.rho = lookup:table\n"))
    assert "coeff.rho" in str(err.value)
    with pytest.raises(ConfigError):
        build_problem(parse_config("problem = hamiltonian\ndim = 2\n"
                                   "coeff.unknown_name = const:1\n"))


def test_build_mesh_modes(tmp_path):
    cfg = parse_config("problem = square_sine\nmesh_n = 3\n")
    # auto defers to the problem's own generator
    assert build_mesh(cfg, build_problem(cfg)).n_vertices == 16
    cfg2 = parse_config("problem = square_sine\nmesh = l_shape\nmesh_n = 2\n")
    assert build_mesh(cfg2).n_vertices == 21
    # file: round trip through the text format
    from afem.generators import unit_square
    from afem.mesh_io import write_mesh
    path = tmp_path / "m.txt"
    write_mesh(unit_square(2), path)
    cfg3 = parse_config(f"problem = square_sine\nmesh = file:{path}\n")
    assert build_mesh(cfg3).n_vertices == 9


def _unreadable_mesh(case, tmp_path):
    """A missing mesh file, or one whose first vertex line (line 4) is
    malformed, and the reason its ConfigError gives."""
    if case == "missing":
        return tmp_path / "nowhere" / "m.txt", "No such file or directory"
    from afem.mesh_io import write_mesh
    bad = tmp_path / "bad.txt"
    write_mesh(generators.unit_square(1), bad)
    lines = bad.read_text().splitlines()
    lines[3] = "0 x 0.0 1"
    bad.write_text("\n".join(lines) + "\n")
    return bad, "line 4: bad coordinate in '0 x 0.0 1'"


@pytest.mark.parametrize("case", ["missing", "malformed"])
@pytest.mark.parametrize("run", [run_adaptive, run_ppum, build_mesh])
def test_unreadable_mesh_file_is_a_config_error_naming_mesh(run, case, tmp_path):
    path, reason = _unreadable_mesh(case, tmp_path)
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        run(RunConfig(mesh=f"file:{path}", out=str(out)))
    assert str(err.value) == f"mesh: file {str(path)!r}: {reason}"
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing", "malformed"])
@pytest.mark.parametrize("command", ["solve", "ppum", "mesh-info", "mesh-refine"])
def test_cli_unreadable_mesh_file_exits_2_writing_nothing(command, case, tmp_path, capsys):
    path, reason = _unreadable_mesh(case, tmp_path)
    out, cfg = tmp_path / "out", tmp_path / "run.cfg"
    cfg.write_text(f"mesh = file:{path}\n")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: mesh: file {str(path)!r}: {reason}\n"
    assert not out.exists()


# ------------------------------------------------------------------- driver

def test_run_adaptive_square_sine(tmp_path):
    out = tmp_path / "r1"
    rep = run_adaptive(RunConfig(problem="square_sine", mesh_n=4,
                                 max_vertices=500, out=str(out)))
    assert rep.status == "vertex_cap"
    nvs = [r.n_vertices for r in rep.levels]
    assert nvs == sorted(nvs) and nvs[-1] >= 500
    h1s = [r.h1_error for r in rep.levels]
    assert h1s[-1] < h1s[0]
    assert (out / "levels.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "level00.vtk").exists()


def test_run_adaptive_respects_tiny_cap():
    rep = run_adaptive(RunConfig(problem="square_sine", mesh_n=4, max_vertices=25))
    assert len(rep.levels) == 1 and rep.status == "vertex_cap"


def test_run_adaptive_rejects_impossible_cap():
    with pytest.raises(ConfigError):
        run_adaptive(RunConfig(problem="square_sine", mesh_n=4, max_vertices=10))


@pytest.mark.parametrize("command,run", [("solve", run_adaptive), ("ppum", run_ppum)])
def test_cap_below_the_initial_mesh_names_max_vertices(command, run, tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^max_vertices: 10 is smaller than the "
                                          r"initial mesh \(25 vertices\)$"):
        run(RunConfig(problem="square_sine", mesh_n=4, max_vertices=10))
    path = tmp_path / "run.cfg"
    path.write_text("problem = square_sine\nmesh_n = 4\nmax_vertices = 10\n")
    assert main([command, "--config", str(path)]) == 2
    assert "config error: max_vertices: 10 is smaller" in capsys.readouterr().err


def test_more_subdomains_than_initial_simplices_names_ppum_subdomains(tmp_path, capsys):
    # square_sine at mesh_n = 4 has 32 simplices; the run refuses before writing
    with pytest.raises(ConfigError, match=r"^ppum_subdomains: 40 is larger than the "
                                          r"initial mesh \(32 simplices\)$"):
        run_ppum(RunConfig(problem="square_sine", mesh_n=4, ppum_subdomains=40,
                           out=str(tmp_path / "api")))
    assert not (tmp_path / "api").exists()
    path = tmp_path / "run.cfg"
    path.write_text("problem = square_sine\nmesh_n = 4\nppum_subdomains = 40\n")
    assert main(["ppum", "--config", str(path)]) == 2
    assert "config error: ppum_subdomains: 40 is larger" in capsys.readouterr().err


def test_csv_reproducible_byte_for_byte(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_adaptive(RunConfig(problem="square_sine", mesh_n=4,
                               max_vertices=400, out=str(out)))
        outs.append((out / "levels.csv").read_bytes())
    assert outs[0] == outs[1]


def test_run_adaptive_multilevel_linear():
    rep = run_adaptive(RunConfig(problem="square_sine", mesh_n=4,
                                 max_vertices=400, linear="multilevel"))
    assert rep.levels[-1].h1_error < 0.3
    assert any(r.linear_iterations > 0 for r in rep.levels[1:])


def _cube3d(**kw):
    return RunConfig(problem="cube_sine", mesh_n=2, indicator="dual", strategy="hybrid",
                     linear="multilevel", max_vertices=50, **kw)


def _counting_builds(monkeypatch):
    """The Jacobians `afem.driver` builds a hierarchy for, in order."""
    built, build_hierarchy = [], driver.build_hierarchy

    def build(a, prolongations):
        built.append(a)
        return build_hierarchy(a, prolongations)

    monkeypatch.setattr(driver, "build_hierarchy", build)
    return built


def test_linear_problem_builds_one_hierarchy_per_level(monkeypatch):
    # cube_sine is linear: every Newton step of a level meets the same
    # Jacobian, so the level's hierarchy and its factors serve them all
    built = _counting_builds(monkeypatch)
    rep = run_adaptive(_cube3d())
    assert len(rep.levels) == 4 and len(built) == 4
    assert rep.extras["hierarchy_builds"] == [1, 1, 1, 1]
    assert [r.newton_iterations for r in rep.levels] == [1, 2, 3, 4]
    assert [r.linear_iterations for r in rep.levels] == [1, 2, 4, 7]


def test_nonlinear_problem_builds_one_hierarchy_per_newton_step(monkeypatch):
    # bratu's Jacobian moves with every step, so no step reuses a hierarchy
    # built for another Jacobian
    built = _counting_builds(monkeypatch)
    rep = run_adaptive(RunConfig(problem="bratu", mesh_n=4, max_vertices=100,
                                 linear="multilevel"))
    steps = [r.newton_iterations for r in rep.levels]
    assert len(rep.levels) > 1 and min(steps) >= 2
    assert rep.extras["hierarchy_builds"] == steps and len(built) == sum(steps)
    assert all((p != q).nnz for p, q in zip(built, built[1:]) if p.shape == q.shape)


def test_nonsymmetric_jacobian_runs_multilevel(monkeypatch):
    # a varying trK adds a phi -> W block, 4 phi^5 grad trK, with no
    # transposed W -> phi block, so every Jacobian goes to BiCGSTAB
    def problem(cfg):
        return coupled_forms(ConstraintCoefficients(
            dim=2, Rhat=1.0, rho=0.1, trK=batched(lambda x: 0.5 + 0.3 * x[:, 0]),
            trK_grad=batched(lambda x: np.broadcast_to([0.3, 0.0], x.shape))))

    monkeypatch.setattr(driver, "build_problem", problem)
    monkeypatch.setattr(driver, "build_mesh", lambda cfg, problem=None: generators.unit_square(4))
    built = _counting_builds(monkeypatch)
    reps = {linear: run_adaptive(RunConfig(problem="coupled", dim=2, max_vertices=100,
                                           linear=linear))
            for linear in ("direct", "multilevel")}
    assert built and all(build_hierarchy(a, []).solve(np.ones(a.shape[0]), 1e-8)[1].method
                         == "bicgstab" for a in built)
    direct, ml = ([r.eta_total for r in reps[k].levels] for k in ("direct", "multilevel"))
    assert len(direct) == len(ml) > 2
    np.testing.assert_allclose(ml, direct, rtol=1e-10)
    assert all(r.linear_iterations > 0 for r in reps["multilevel"].levels)


def test_multilevel_runs_repeat_byte_for_byte(tmp_path):
    # the hierarchy cache carries nothing from one level or run to the next
    csvs = []
    for name in ("a", "b"):
        run_adaptive(_cube3d(out=str(tmp_path / name)))
        csvs.append((tmp_path / name / "levels.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("make_cfg", [
    _cube3d,
    lambda out: RunConfig(problem="bratu", mesh_n=4, max_vertices=100, out=out),
], ids=["multilevel", "direct"])
def test_report_json_keeps_the_newton_history(tmp_path, make_cfg):
    cfg = make_cfg(out=str(tmp_path))
    run_adaptive(cfg)
    doc = json.loads((tmp_path / "report.json").read_text())
    rows = (tmp_path / "levels.csv").read_text().splitlines()[1:]
    assert len(doc["levels"]) == len(rows)
    for level, row in zip(doc["levels"], rows):
        hist, steps = level["newton"], level["newton_iterations"]
        assert hist["converged"]
        assert len(hist["residuals"]) == steps + 1  # the initial residual first
        for name in ("step_lengths", "forcing_terms", "linear_iterations"):
            assert len(hist[name]) == steps
        assert sum(hist["linear_iterations"]) == int(row.split(",")[-1])
    builds = doc.get("hierarchy_builds")
    assert builds == ([1] * len(rows) if cfg.linear == "multilevel" else None)


def test_run_adaptive_dual_indicator():
    rep = run_adaptive(RunConfig(problem="square_sine", mesh_n=4,
                                 max_vertices=300, indicator="dual"))
    assert len(rep.extras["dual_estimate"]) == len(rep.levels)


def test_run_adaptive_target_eta_stop():
    rep = run_adaptive(RunConfig(problem="square_sine", mesh_n=4,
                                 max_vertices=100000, target_eta=0.5))
    assert rep.status == "target_met"
    assert rep.levels[-1].eta_total <= 0.5


def test_run_adaptive_constraint_problem():
    rep = run_adaptive(RunConfig(problem="hamiltonian_manufactured",
                                 mesh_n=4, max_vertices=400))
    assert rep.levels[-1].h1_error < rep.levels[0].h1_error
    assert all(r.newton_iterations <= 8 for r in rep.levels)


def test_run_ppum_blends_and_writes(tmp_path):
    out = tmp_path / "pp"
    rep = run_ppum(RunConfig(problem="square_sine", mesh_n=4, max_vertices=400,
                             ppum_subdomains=4, out=str(out)))
    assert rep.status == "blended"
    assert rep.extras["ppum"]["pou_sum_deviation"] <= 1e-12
    assert rep.extras["ppum"]["max_cover"] <= 4
    assert len(rep.levels) == 2  # coarse record plus the blended record
    for i in range(4):
        assert (out / f"sub{i}" / "mesh.txt").exists()
    assert (out / "blend.vtk").exists()


@pytest.mark.parametrize("key,value", [("indicator", "dual"), ("linear", "multilevel"),
                                       ("target_eta", 1e9)])
def test_run_ppum_names_a_setting_it_ignores(key, value, tmp_path, capsys):
    # the PPUM run always takes the residual indicator and the direct solver
    # and never stops on an indicator target
    cfg = RunConfig(problem="square_sine", ppum_subdomains=2, max_vertices=100)
    setattr(cfg, key, value)
    with pytest.raises(ConfigError, match=f"^{key}: "):
        run_ppum(cfg)
    path = tmp_path / "run.cfg"
    path.write_text(f"problem = square_sine\nppum_subdomains = 2\n{key} = {value}\n")
    assert main(["ppum", "--config", str(path)]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


# the four-subdomain run's levels.csv at budget 110 (25 -> 131 vertices)
PPUM_110_LEVELS = [
    [0, 25, 32, 3.180616603881648, 0.07986212344359442, 0.8423540489026474, 1, 0],
    [1, 131, 230, 1.0659639465203536, 0.00961329584737991, 0.2786659845876246, 0, 0]]


def _assert_ppum_110_levels(text):
    header, *levels = text.splitlines()
    assert header == ("level,n_vertices,n_simplices,eta_total,l2_error,h1_error,"
                      "newton_iterations,linear_iterations")
    got = np.array([[float(v) for v in r.split(",")] for r in levels])
    np.testing.assert_allclose(got, np.array(PPUM_110_LEVELS), rtol=1e-12)


def test_run_ppum_starts_no_thread(tmp_path, monkeypatch):
    # the subdomain runs go one after another on the calling thread
    def refuse(self):
        raise RuntimeError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                             out=str(tmp_path)))
    assert rep.status == "blended"
    _assert_ppum_110_levels((tmp_path / "levels.csv").read_text())


def test_run_ppum_reports_local_wall_times(tmp_path):
    # one wall time per subdomain run in report.json; levels.csv keeps its
    # schema and its numbers
    run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                       out=str(tmp_path)))
    wall = json.loads((tmp_path / "report.json").read_text())["ppum"]["local_wall_s"]
    assert len(wall) == 4
    assert all(isinstance(w, float) and w >= 0.0 for w in wall)
    _assert_ppum_110_levels((tmp_path / "levels.csv").read_text())


def test_run_ppum_reports_each_subdomain_round(tmp_path):
    # every round of a subdomain run but the last refines, so its vertex count
    # rises strictly; the first round is the coarse field, solved before it
    rep = run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                             out=str(tmp_path)))
    doc = json.loads((tmp_path / "report.json").read_text())["ppum"]
    assert doc["rounds"] == rep.extras["ppum"]["rounds"]
    assert len(doc["rounds"]) == 4
    for rounds, local in zip(doc["rounds"], doc["local_vertices"]):
        assert len(rounds) > 1
        assert set(rounds[0]) == {"n_vertices", "n_simplices", "eta_total", "newton",
                                  "refinement"}
        nvs = [r["n_vertices"] for r in rounds]
        assert all(a < b for a, b in zip(nvs, nvs[1:])) and nvs[-1] == local
        assert nvs[0] == rep.levels[0].n_vertices
        assert rounds[0]["newton"] is None
        assert all(r["newton"]["converged"] for r in rounds[1:])
        assert rounds[-1]["refinement"] is None
        assert all(r["refinement"]["bisections"] > 0 for r in rounds[:-1])


# ------------------------------------------------------------ failure paths

def _newton_fails_on_call(monkeypatch, n):
    """The n-th Newton solve from now on raises NewtonError; `newton_solve`
    looks `newton_iterate` up at call time, wherever its caller lives."""
    calls, iterate = [], newton.newton_iterate

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise NewtonError(f"provoked on call {n}")
        return iterate(*args, **kwargs)

    monkeypatch.setattr(newton, "newton_iterate", failing)


@pytest.mark.parametrize("k", [1, 2])
def test_newton_failure_names_its_level_and_keeps_finished_rows(k, tmp_path, monkeypatch):
    # one Newton solve per level: the (k+1)-th solve is level k's
    _newton_fails_on_call(monkeypatch, k + 1)
    with pytest.raises(DriverError, match=rf"^level {k}: provoked on call {k + 1}$"):
        run_adaptive(RunConfig(problem="square_sine", mesh_n=4, max_vertices=500,
                               out=str(tmp_path)))
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == f"failed at level {k}: provoked on call {k + 1}"
    header, *rows = (tmp_path / "levels.csv").read_text().splitlines()
    assert [int(r.split(",")[0]) for r in rows] == list(range(k))
    assert len(doc["levels"]) == k


def test_failed_subdomain_is_named_and_skips_the_blend(tmp_path, monkeypatch):
    # the coarse solve is call 1, subdomain 0's first round call 2
    _newton_fails_on_call(monkeypatch, 2)
    rep = run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                             out=str(tmp_path)))
    assert rep.status == "subdomain_failed: 0"
    assert list(rep.extras["subdomain_errors"]) == [0]
    assert rep.extras["subdomain_errors"][0].startswith("subdomain 0: ")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "subdomain_failed: 0"
    assert doc["subdomain_errors"]["0"].startswith("subdomain 0: provoked on call 2")
    local = doc["ppum"]["local_vertices"]
    assert local[0] is None and None not in local[1:]
    assert not (tmp_path / "blend.vtk").exists()
    header, *rows = (tmp_path / "levels.csv").read_text().splitlines()
    assert len(rows) == 1 and rows[0].startswith("0,25,32,")


def test_every_failed_subdomain_is_named_and_the_others_run(tmp_path, monkeypatch):
    solve = ppum.local_solve

    def failing(problem, coarse, u, dec, i, *args, **kwargs):
        if i in (1, 3):
            raise ppum.PpumError(f"subdomain {i}: provoked")
        return solve(problem, coarse, u, dec, i, *args, **kwargs)

    monkeypatch.setattr(ppum, "local_solve", failing)
    rep = run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                             out=str(tmp_path)))
    assert rep.status == "subdomain_failed: 1, 3"
    assert rep.extras["subdomain_errors"] == {1: "subdomain 1: provoked",
                                              3: "subdomain 3: provoked"}
    local = rep.extras["ppum"]["local_vertices"]
    assert local[1] is None and local[3] is None and local[0] > 25 and local[2] > 25
    assert [len(r) > 1 for r in rep.extras["ppum"]["rounds"]] == [True, False, True, False]
    assert len(rep.extras["ppum"]["local_wall_s"]) == 4
    assert not (tmp_path / "blend.vtk").exists()


def _assert_failed_at(out, k, message):
    """report.json names the failure at level k, and levels.csv holds its k rows."""
    doc = json.loads((out / "report.json").read_text())
    assert doc["status"] == f"failed at level {k}: {message}"
    header, *rows = (out / "levels.csv").read_text().splitlines()
    assert header == driver.CSV_HEADER
    assert [int(r.split(",")[0]) for r in rows] == list(range(k))


def test_ppum_coarse_newton_failure_is_level_0(tmp_path, monkeypatch):
    _newton_fails_on_call(monkeypatch, 1)
    with pytest.raises(DriverError, match=r"^level 0: provoked on call 1$"):
        run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                           out=str(tmp_path)))
    _assert_failed_at(tmp_path, 0, "provoked on call 1")


def test_ppum_blend_failure_is_level_1_and_keeps_the_coarse_row(tmp_path, monkeypatch):
    def failing(*args):
        raise ppum.PpumError("provoked blend failure")

    monkeypatch.setattr(ppum, "blend", failing)
    with pytest.raises(DriverError, match=r"^level 1: provoked blend failure$"):
        run_ppum(RunConfig(problem="square_sine", ppum_subdomains=4, max_vertices=110,
                           out=str(tmp_path)))
    _assert_failed_at(tmp_path, 1, "provoked blend failure")
    assert not (tmp_path / "blend.vtk").exists()


def _newton_stalls(monkeypatch):
    """square_sine with its Jacobian negated: every Newton step points uphill,
    so a damped step of length lam leaves the residual (1 + lam) r."""
    problem = build_problem(RunConfig(problem="square_sine"))
    dft = problem.DFt
    stalled = dataclasses.replace(problem, DFt=lambda *args: -dft(*args))
    monkeypatch.setattr(driver, "build_problem", lambda cfg: stalled)


@pytest.mark.parametrize("run,cfg", [
    (run_adaptive, dict(mesh_n=4, max_vertices=500)),
    (run_ppum, dict(ppum_subdomains=4, max_vertices=110)),
])
def test_newton_stall_is_named_at_level_0(run, cfg, tmp_path, monkeypatch):
    _newton_stalls(monkeypatch)
    with pytest.raises(DriverError, match=r"^level 0: no damping step reduced the "
                                          r"residual .* after \d+ halvings$") as info:
        run(RunConfig(problem="square_sine", out=str(tmp_path), **cfg))
    assert isinstance(info.value.__cause__, NewtonError)
    _assert_failed_at(tmp_path, 0, str(info.value.__cause__))


PHI_FLOOR_RUN = ("problem = hamiltonian\nmesh = unit_square\nmesh_n = 4\nmax_vertices = 80\n"
                 "coeff.dirichlet_f = const:1e-7\n")


def test_phi_floor_boundary_data_is_named_at_level_0(tmp_path):
    # once this ran to vertex_cap with 3202 clamp events and phi = 1e-7
    message = "dirichlet_f must lie above the phi floor 1e-06, got 1e-07 at (0.0, 0.0)"
    with pytest.raises(DriverError, match=rf"^level 0: {re.escape(message)}$") as info:
        run_adaptive(dataclasses.replace(parse_config(PHI_FLOOR_RUN), out=str(tmp_path / "lib")))
    assert isinstance(info.value.__cause__, ProblemError)
    _assert_failed_at(tmp_path / "lib", 0, message)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PHI_FLOOR_RUN)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 3
    _assert_failed_at(tmp_path / "cli", 0, message)


def test_singular_adjoint_is_named_at_level_0(tmp_path, monkeypatch):
    # only the adjoint solve reads `spla` through afem.indicators; the primal
    # direct solves keep scipy's spsolve
    nan_solve = types.SimpleNamespace(spsolve=lambda a, b: np.full(len(b), np.nan))
    monkeypatch.setattr(indicators, "spla", nan_solve)
    with pytest.raises(DriverError, match=r"^level 0: adjoint system is singular") as info:
        run_adaptive(RunConfig(problem="square_sine", mesh_n=4, max_vertices=500,
                               indicator="dual", out=str(tmp_path)))
    assert isinstance(info.value.__cause__, indicators.IndicatorError)
    _assert_failed_at(tmp_path, 0, str(info.value.__cause__))
