"""The four workloads: a `RunConfig` each, plus the problem and initial mesh
that `afem.driver.run_adaptive` / `run_ppum` are handed.

Every workload runs through the library's own entry points.  The child
process builds the problem and the mesh once, during set-up, and injects them
at `afem.driver.build_problem` / `build_mesh`, the lookups both entry points
make first.  So the timed solve does not rebuild what set-up already timed.
`coupled2d` needs this injection: a config cannot express its symbolic
coefficients or its Robin outer boundary (generator meshes flag every face
Dirichlet), so its problem and mesh come from `coupled_problem` and
`coupled_mesh`, and its config holds the loop settings only.
"""

from __future__ import annotations

import math

WORKLOADS = ("corner2d", "cube3d", "coupled2d", "ppum4")


def run_config(name: str, out: str, overrides: dict):
    """RunConfig of a workload, with `--set` overrides applied."""
    from afem.config import RunConfig, validate

    if name == "corner2d":
        cfg = RunConfig(problem="corner_singularity", indicator="residual",
                        strategy="maximum", theta=0.3, linear="direct",
                        max_vertices=250, out=out)
    elif name == "cube3d":
        cfg = RunConfig(problem="cube_sine", mesh_n=2, indicator="dual",
                        strategy="hybrid", linear="multilevel",
                        max_vertices=50, out=out)
    elif name == "coupled2d":
        # problem and mesh are injected; these name what they stand for
        cfg = RunConfig(problem="coupled", dim=2, mesh="annulus",
                        indicator="residual", strategy="hybrid", linear="direct",
                        max_vertices=50, out=out)
    elif name == "ppum4":
        cfg = RunConfig(problem="square_sine", ppum_subdomains=4, threads=2,
                        max_vertices=110, out=out)
    else:
        raise ValueError(f"unknown workload {name!r}")
    for key, val in overrides.items():
        setattr(cfg, key, type(getattr(cfg, key))(val))
    validate(cfg)
    return cfg


def problem_of(name: str, cfg, seed: int):
    """Problem instance of a workload."""
    if name == "coupled2d":
        return coupled_problem(seed)
    from afem.config import build_problem

    return build_problem(cfg)


def mesh_of(name: str, cfg, problem):
    """Initial mesh of a workload."""
    if name == "coupled2d":
        return coupled_mesh()
    from afem.config import build_mesh

    return build_mesh(cfg, problem)


def coupled_problem(seed: int):
    """The coupled (phi, W) problem with coupled2d's manufactured data; the
    seed picks the rotation angle of the manufactured solution."""
    from afem.problems import ConstraintCoefficients, coupled_forms

    from manufactured import Manufactured, rotation_angle

    man = Manufactured(rotation_angle(seed))
    problem = coupled_forms(ConstraintCoefficients(dim=2, **man.coefficients()))
    problem.exact = man.exact
    problem.exact_grad = man.exact_grad
    return problem


def coupled_mesh():
    """Initial annulus: inner circle Dirichlet, outer circle Robin."""
    from afem.generators import annulus
    from afem.mesh import DIRICHLET, NEUMANN

    from manufactured import N_R, N_T, R_INNER, R_OUTER

    mid = 0.5 * (R_INNER + R_OUTER)

    def classify(c):
        return NEUMANN if math.hypot(c[0], c[1]) > mid else DIRICHLET

    return annulus(N_R, N_T, R_INNER, R_OUTER, boundary=classify)
