"""Run orchestration: the adaptive run and the partition-of-unity pipeline.

Both entry points take a RunConfig and produce a RunReport plus, when an
output directory is set, a fixed-schema CSV convergence table, per-level VTK
files, and a JSON report.  The CSV contains no timestamps or machine state,
so identical configurations produce byte-identical tables.  Both run in
`_run`, where any failure ends with the status `failed at level k`, partial
outputs and a DriverError.  One adaptive loop, `ppum.adaptive_rounds`, serves
`run_adaptive` and every subdomain run of `run_ppum`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from . import ppum as ppum_mod
# ppum.adaptive_rounds calls apply_dirichlet, mark and
# prolongation_from_refinement; perfbench's tracer wraps them here too
from .assembly import apply_dirichlet, dirichlet_start, measure_error  # noqa: F401
from .config import ConfigError, RunConfig, build_mesh, build_problem
from .indicators import dual_indicator, mark, residual_indicator, solve_dual  # noqa: F401
from .mesh_io import write_mesh
from .multilevel import build_hierarchy, prolongation_from_refinement  # noqa: F401
from .newton import NewtonConfig, newton_solve
from .vtk import export_vtk


class DriverError(Exception):
    pass


CSV_HEADER = ("level,n_vertices,n_simplices,eta_total,l2_error,h1_error,"
              "newton_iterations,linear_iterations")


@dataclass
class LevelRecord(ppum_mod.RoundRecord):
    """A round's record with the level, error norms, solver effort and wall time."""

    level: int = 0
    l2_error: float = None
    h1_error: float = None
    newton_iterations: int = 0
    linear_iterations: int = 0
    wall_time: float = 0.0

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


def _finish(cfg: RunConfig, problem, report: RunReport):
    """Set the run's clamp count, then write the CSV table and the JSON report
    to the output directory, if one is set."""
    coeffs = problem.constraint_coefficients
    report.clamp_events = coeffs.clamps.count if coeffs is not None else 0
    if cfg.out:
        for name, text in (("levels.csv", report.to_csv()), ("report.json", report.to_json())):
            with open(os.path.join(cfg.out, name), "w") as f:
                f.write(text)


LINEAR_TOLERANCE_FLOOR = 1e-10  # tightest relative residual asked of a multilevel solve


def _make_linear_solve(cfg: RunConfig, prolongations: list, extras: dict):
    """Newton inner solver: direct sparse factorization (None), or V-cycle-
    preconditioned Krylov on the Galerkin hierarchy of the Jacobian, rebuilt when
    a Jacobian differs bitwise from the last; extras["hierarchy_builds"] gets
    the count of one solver's builds."""
    if cfg.linear == "direct":
        return None
    builds = extras.setdefault("hierarchy_builds", [])
    builds.append(0)
    cache = {}

    def ml_solve(a, rhs, tol):
        key = (a.shape, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes())
        if cache.get("key") != key:
            cache.update(key=key, hierarchy=build_hierarchy(a, prolongations))
            builds[-1] += 1
        x, rep = cache["hierarchy"].solve(rhs, tol=max(tol, LINEAR_TOLERANCE_FLOOR))
        return x, rep.iterations

    return ml_solve


def _level_record(rec: LevelRecord, level: int, problem, u, t0: float) -> LevelRecord:
    """rec with the level, u's error norms if exact, its Newton effort and time since t0."""
    rec.level = level
    if problem.exact is not None:
        rec.l2_error, rec.h1_error = measure_error(u.mesh, u, problem.exact, problem.exact_grad)
    if rec.newton:
        rec.newton_iterations = len(rec.newton["step_lengths"])
        rec.linear_iterations = int(sum(rec.newton["linear_iterations"]))
    rec.wall_time = time.perf_counter() - t0
    return rec


def _run(cfg: RunConfig, body) -> RunReport:
    """Set the run up (ConfigErrors come first), then body(problem, mesh,
    newton_cfg, report) records the levels and returns the status.  A failure
    sets the status `failed at level k`, k the levels recorded, writes the
    partial outputs and raises DriverError("level k: ...")."""
    problem = build_problem(cfg)
    mesh = build_mesh(cfg, problem)
    if cfg.max_vertices < mesh.n_vertices:
        raise ConfigError(f"max_vertices: {cfg.max_vertices} is smaller than the "
                          f"initial mesh ({mesh.n_vertices} vertices)")
    if cfg.ppum_subdomains > (n := len(mesh.live_simplices())):
        raise ConfigError(f"ppum_subdomains: {cfg.ppum_subdomains} is larger than the "
                          f"initial mesh ({n} simplices)")
    if problem.constraint_coefficients is not None:
        problem.constraint_coefficients.clamps.reset()
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
    report = RunReport()
    try:
        report.status = body(problem, mesh, NewtonConfig(
            tolerance=cfg.newton_tolerance, max_iterations=cfg.newton_max_iterations), report)
    except Exception as exc:
        level = len(report.levels)
        report.status = f"failed at level {level}: {exc}"
        raise DriverError(f"level {level}: {exc}") from exc
    finally:
        _finish(cfg, problem, report)
    return report


def run_adaptive(cfg: RunConfig) -> RunReport:
    """Solve, then `ppum.adaptive_rounds`: estimate, mark, refine and solve
    until the vertex cap, the indicator target or a round without marks.

    Each level records mesh size, total indicator, error norms when an exact
    solution is attached, and solver effort.
    """
    def body(problem, mesh, newton_cfg, report):
        def indicate(u):
            if cfg.indicator == "residual":
                return residual_indicator(problem, u)
            fld, estimate = dual_indicator(problem, u, solve_dual(problem, u, 1.0))
            report.extras.setdefault("dual_estimate", []).append(estimate)
            return fld

        def on_round(rec, u, fld):
            report.levels.append(_level_record(rec, len(report.levels), problem, u, t0[0]))
            if cfg.out:
                export_vtk(u.mesh, {"u": u}, fld,
                           os.path.join(cfg.out, f"level{rec.level:02d}.vtk"))
            t0[0] = time.perf_counter()  # the next level starts at its marking

        t0 = [time.perf_counter()]
        u, nrep = newton_solve(problem, dirichlet_start(problem, mesh), newton_cfg,
                               _make_linear_solve(cfg, [], report.extras))
        return ppum_mod.adaptive_rounds(
            problem, u, nrep, newton_cfg, indicate, cfg.strategy, cfg.theta_or_none,
            cfg.max_vertices, cfg.target_eta, on_round=on_round, record=LevelRecord,
            linear_solver=lambda prols: _make_linear_solve(cfg, prols, report.extras))[1]

    return _run(cfg, body)


def run_ppum(cfg: RunConfig) -> RunReport:
    """Coarse solve and error-weighted decomposition (level 0), subdomain
    runs, partition-of-unity blend and error measurement (level 1).

    The subdomain runs are independent and run one after another, in order,
    on the calling thread.  Subdomain failures are reported individually and
    the later runs still go ahead; the blend is skipped if any local run
    failed.  It uses the residual indicator and the direct solver and has no
    indicator target: another setting of these is a ConfigError.
    """
    for key, used in (("indicator", "residual"), ("linear", "direct"), ("target_eta", 0.0)):
        if getattr(cfg, key) != used:
            raise ConfigError(f"{key}: the PPUM run takes only {used!r}, got {getattr(cfg, key)!r}")

    def body(problem, coarse, newton_cfg, report):
        t0 = time.perf_counter()
        u0, nrep = newton_solve(problem, dirichlet_start(problem, coarse), newton_cfg)
        fld = residual_indicator(problem, u0)
        dec = ppum_mod.decompose(coarse, fld, cfg.ppum_subdomains)
        report.levels.append(_level_record(LevelRecord.of(u0, fld, nrep), 0, problem, u0, t0))

        wall = [0.0] * dec.n_subdomains
        rounds = [[] for _ in range(dec.n_subdomains)]
        t1 = time.perf_counter()
        locals_out, errors = [None] * dec.n_subdomains, {}
        for i, rs in enumerate(rounds):
            t = time.perf_counter()
            try:
                locals_out[i] = ppum_mod.local_solve(
                    problem, coarse, u0, dec, i, cfg.max_vertices, cfg.strategy,
                    cfg.theta_or_none, newton_cfg, on_round=lambda rec, u, f: rs.append(rec))
            except Exception as exc:
                errors[i] = str(exc)
            wall[i] = time.perf_counter() - t

        report.extras["ppum"] = {
            "subdomains": dec.n_subdomains,
            "overlap_layers": dec.layers,
            "max_cover": dec.max_cover,
            "budget": cfg.max_vertices,
            "local_vertices": [None if f is None else f.mesh.n_vertices for f in locals_out],
            "local_wall_s": wall,
            "rounds": [[vars(r) for r in rs] for rs in rounds],
        }
        if errors:
            report.extras["subdomain_errors"] = errors
            return "subdomain_failed: " + ", ".join(map(str, sorted(errors)))

        blend_m = ppum_mod.build_blend_mesh(coarse, dec, [f.mesh for f in locals_out])
        pou = ppum_mod.partition_of_unity(
            blend_m, coarse.n_vertices, ppum_mod.taper_weights(coarse, dec))
        upp = ppum_mod.blend(pou, locals_out)
        report.extras["ppum"]["pou_sum_deviation"] = pou.sum_deviation()

        bfld = residual_indicator(problem, upp)
        report.levels.append(_level_record(LevelRecord.of(upp, bfld), 1, problem, upp, t1))
        if cfg.out:
            export_vtk(blend_m, {"u": upp}, bfld, os.path.join(cfg.out, "blend.vtk"))
            for i, fldi in enumerate(locals_out):
                sub = os.path.join(cfg.out, f"sub{i}")
                os.makedirs(sub, exist_ok=True)
                write_mesh(fldi.mesh, os.path.join(sub, "mesh.txt"))
                export_vtk(fldi.mesh, {"u": fldi}, None, os.path.join(sub, "solution.vtk"))
        return "blended"

    return _run(cfg, body)
