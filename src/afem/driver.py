"""Run orchestration: the adaptive loop and the partition-of-unity pipeline.

Both entry points take a RunConfig and produce a RunReport plus, when an
output directory is set, a fixed-schema CSV convergence table, per-level VTK
files, and a JSON report.  The CSV contains no timestamps or machine state,
so identical configurations produce byte-identical tables.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from . import ppum as ppum_mod
from .assembly import apply_dirichlet, dirichlet_start, measure_error
from .config import ConfigError, RunConfig, build_mesh, build_problem
from .indicators import dual_indicator, mark, residual_indicator, solve_dual
from .mesh_io import write_mesh
from .multilevel import build_hierarchy, prolongation_from_refinement
from .newton import NewtonConfig, newton_solve
from .problem import SolutionField
from .vtk import export_vtk


class DriverError(Exception):
    pass


CSV_HEADER = ("level,n_vertices,n_simplices,eta_total,l2_error,h1_error,"
              "newton_iterations,linear_iterations")


@dataclass
class LevelRecord:
    level: int
    n_vertices: int
    n_simplices: int
    eta_total: float
    l2_error: float = None
    h1_error: float = None
    newton_iterations: int = 0
    linear_iterations: int = 0
    wall_time: float = 0.0
    newton: dict = None     # the Newton history; report.json only
    refinement: dict = None  # the refinement that ends the level; report.json only

    def csv_row(self) -> str:
        def g(v):
            return "" if v is None else repr(float(v))
        return (f"{self.level},{self.n_vertices},{self.n_simplices},"
                f"{g(self.eta_total)},{g(self.l2_error)},{g(self.h1_error)},"
                f"{self.newton_iterations},{self.linear_iterations}")


@dataclass
class RunReport:
    levels: list = field(default_factory=list)
    clamp_events: int = 0
    status: str = "incomplete"
    extras: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [r.csv_row() for r in self.levels]) + "\n"

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "clamp_events": self.clamp_events,
            "levels": [vars(r) for r in self.levels],
            **self.extras,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=str)


def _write_outputs(cfg: RunConfig, report: RunReport) -> None:
    if not cfg.out:
        return
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "levels.csv"), "w") as f:
        f.write(report.to_csv())
    with open(os.path.join(cfg.out, "report.json"), "w") as f:
        f.write(report.to_json())


def _clamp_count(problem) -> int:
    coeffs = problem.constraint_coefficients
    return coeffs.clamps.count if coeffs is not None else 0


LINEAR_TOLERANCE_FLOOR = 1e-10  # tightest relative residual asked of a multilevel solve


def _make_linear_solve(cfg: RunConfig, prolongations: list, builds: list):
    """Newton inner solver: direct sparse factorization (None), or V-cycle-
    preconditioned Krylov on the Galerkin hierarchy of the Jacobian, rebuilt when
    a Jacobian differs bitwise from the last; `builds` gets each one's depth."""
    if cfg.linear == "direct":
        return None
    cache = {}

    def ml_solve(a, rhs, tol):
        key = (a.shape, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes())
        if cache.get("key") != key:
            cache.update(key=key, hierarchy=build_hierarchy(a, prolongations))
            builds.append(cache["hierarchy"].n_levels)
        x, rep = cache["hierarchy"].solve(rhs, tol=max(tol, LINEAR_TOLERANCE_FLOOR))
        return x, rep.iterations

    return ml_solve


def _level_record(level: int, problem, u, fld, t0: float, nrep=None) -> LevelRecord:
    """The level's row for u on its mesh: sizes, indicator total, error norms
    when the problem has an exact solution, and the Newton solve's effort."""
    l2 = h1 = None
    if problem.exact is not None:
        l2, h1 = measure_error(u.mesh, u, problem.exact, problem.exact_grad)
    return LevelRecord(
        level=level, n_vertices=u.mesh.n_vertices,
        n_simplices=len(u.mesh.live_simplices()),
        eta_total=fld.total(), l2_error=l2, h1_error=h1,
        newton_iterations=nrep.iterations if nrep else 0,
        linear_iterations=int(sum(nrep.linear_iterations)) if nrep else 0,
        wall_time=time.perf_counter() - t0, newton=asdict(nrep) if nrep else None)


def _initial_mesh(cfg: RunConfig, problem):
    """The configured mesh; a vertex cap below its size is a ConfigError."""
    mesh = build_mesh(cfg, problem)
    if cfg.max_vertices < mesh.n_vertices:
        raise ConfigError(f"max_vertices: {cfg.max_vertices} is smaller than the "
                          f"initial mesh ({mesh.n_vertices} vertices)")
    return mesh


def _indicate(cfg: RunConfig, problem, u):
    """(field, extras) for the configured indicator choice."""
    if cfg.indicator == "dual":
        weights = solve_dual(problem, u, 1.0)
        fld, estimate = dual_indicator(problem, u, weights)
        return fld, {"dual_estimate": estimate}
    return residual_indicator(problem, u), {}


def run_adaptive(cfg: RunConfig) -> RunReport:
    """Solve, estimate, mark, refine until the vertex cap or indicator target.

    Each level records mesh size, total indicator, error norms when an exact
    solution is attached, and solver effort.  Partial outputs are written
    before any error is re-raised with its level context.
    """
    problem = build_problem(cfg)
    mesh = _initial_mesh(cfg, problem)
    if problem.constraint_coefficients is not None:
        problem.constraint_coefficients.clamps.reset()

    report = RunReport()
    newton_cfg = NewtonConfig(tolerance=cfg.newton_tolerance,
                              max_iterations=cfg.newton_max_iterations)
    prols = []
    u = dirichlet_start(problem, mesh)
    level = 0
    try:
        while True:
            t0 = time.perf_counter()
            builds = []  # the solver, and its hierarchy, go with the Newton solve
            u, nrep = newton_solve(problem, u, newton_cfg,
                                   _make_linear_solve(cfg, prols, builds))
            fld, extras = _indicate(cfg, problem, u)
            if cfg.linear == "multilevel":
                extras["hierarchy_builds"] = len(builds)
            for k, v in extras.items():
                report.extras.setdefault(k, []).append(v)
            rec = _level_record(level, problem, u, fld, t0, nrep)
            report.levels.append(rec)
            if cfg.out:
                os.makedirs(cfg.out, exist_ok=True)
                export_vtk(mesh, {"u": u}, fld,
                           os.path.join(cfg.out, f"level{level:02d}.vtk"))

            if cfg.target_eta > 0.0 and rec.eta_total <= cfg.target_eta:
                report.status = "target_met"
                break
            if mesh.n_vertices >= cfg.max_vertices:
                report.status = "vertex_cap"
                break
            marks = mark(fld, cfg.strategy, cfg.theta_or_none)
            if not marks:
                report.status = "no_marks"
                break
            old_nv = mesh.n_vertices
            ref = mesh.refine_marked(marks)
            rec.refinement = {"bisections": len(ref.bisections), "closure_passes": ref.passes}
            pr = prolongation_from_refinement(old_nv, mesh, problem.n_components)
            prols.append(pr)
            u = apply_dirichlet(problem, SolutionField.from_flat(
                mesh, problem.n_components, pr @ u.flat))
            level += 1
    except Exception as exc:
        report.status = f"failed at level {level}: {exc}"
        report.clamp_events = _clamp_count(problem)
        _write_outputs(cfg, report)
        raise DriverError(f"level {level}: {exc}") from exc

    report.clamp_events = _clamp_count(problem)
    _write_outputs(cfg, report)
    return report


def run_ppum(cfg: RunConfig) -> RunReport:
    """Coarse solve, error-weighted decomposition, independent subdomain
    runs (thread pool), partition-of-unity blend, error measurement.

    Subdomain failures are reported individually; the blend is skipped if any
    local run failed.  It uses the residual indicator and the direct solver
    and has no indicator target: another setting of these is a ConfigError.
    """
    for key, used in (("indicator", "residual"), ("linear", "direct"), ("target_eta", 0.0)):
        if getattr(cfg, key) != used:
            raise ConfigError(f"{key}: the PPUM run takes only {used!r}, got {getattr(cfg, key)!r}")
    problem = build_problem(cfg)
    coarse = _initial_mesh(cfg, problem)
    if problem.constraint_coefficients is not None:
        problem.constraint_coefficients.clamps.reset()

    report = RunReport()
    newton_cfg = NewtonConfig(tolerance=cfg.newton_tolerance,
                              max_iterations=cfg.newton_max_iterations)

    t0 = time.perf_counter()
    u0, nrep = newton_solve(problem, dirichlet_start(problem, coarse), newton_cfg)
    fld = residual_indicator(problem, u0)
    report.levels.append(_level_record(0, problem, u0, fld, t0, nrep))

    dec = ppum_mod.decompose(coarse, fld, cfg.ppum_subdomains)

    wall = [0.0] * dec.n_subdomains

    def one(i):
        t = time.perf_counter()
        try:
            return ppum_mod.local_solve(problem, coarse, u0, dec, i, cfg.max_vertices,
                                        cfg.strategy, cfg.theta_or_none, newton_cfg)
        finally:
            wall[i] = time.perf_counter() - t

    t1 = time.perf_counter()
    locals_out, errors = [None] * dec.n_subdomains, {}
    with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
        futures = {i: ex.submit(one, i) for i in range(dec.n_subdomains)}
        for i, fut in futures.items():
            try:
                locals_out[i] = fut.result()
            except Exception as exc:
                errors[i] = str(exc)

    report.extras.update({
        "ppum": {
            "subdomains": dec.n_subdomains,
            "overlap_layers": dec.layers,
            "max_cover": dec.max_cover,
            "budget": cfg.max_vertices,
            "local_vertices": [f.mesh.n_vertices if f is not None else None
                               for f in locals_out],
            "local_wall_s": wall,
        }})
    if errors:
        report.extras["subdomain_errors"] = errors
        report.status = "subdomain_failed: " + ", ".join(map(str, sorted(errors)))
        report.clamp_events = _clamp_count(problem)
        _write_outputs(cfg, report)
        return report

    blend_m = ppum_mod.build_blend_mesh(coarse, dec, [f.mesh for f in locals_out])
    pou = ppum_mod.partition_of_unity(
        blend_m, coarse.n_vertices, ppum_mod.taper_weights(coarse, dec))
    upp = ppum_mod.blend(dec, pou, locals_out)
    report.extras["ppum"]["pou_sum_deviation"] = pou.sum_deviation()

    bfld = residual_indicator(problem, upp)
    report.levels.append(_level_record(1, problem, upp, bfld, t1))
    report.status = "blended"
    report.clamp_events = _clamp_count(problem)

    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        export_vtk(blend_m, {"u": upp}, bfld, os.path.join(cfg.out, "blend.vtk"))
        for i, fldi in enumerate(locals_out):
            sub = os.path.join(cfg.out, f"sub{i}")
            os.makedirs(sub, exist_ok=True)
            write_mesh(fldi.mesh, os.path.join(sub, "mesh.txt"))
            export_vtk(fldi.mesh, {"u": fldi},
                       None, os.path.join(sub, "solution.vtk"))
    _write_outputs(cfg, report)
    return report
