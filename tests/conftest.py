"""Shared helpers for the test suite."""
import math

import numpy as np
import pytest

from afem.assembly import apply_dirichlet, dirichlet_start, measure_error
from afem.indicators import mark, residual_indicator
from afem.multilevel import prolongation_from_refinement
from afem.newton import NewtonConfig, newton_solve
from afem.problem import SolutionField


def rate(coarse_err: float, fine_err: float) -> float:
    """log2 error ratio between successive uniformly refined levels."""
    return math.log2(coarse_err / fine_err)


def solve_on(problem, mesh, tol: float = 1e-11, u0: SolutionField = None):
    if u0 is None:
        u0 = dirichlet_start(problem, mesh)
    u, rep = newton_solve(problem, u0, NewtonConfig(tolerance=tol))
    return u, rep


def adapt(problem, mesh, max_vertices: int, strategy: str = "hybrid",
          theta: float = None, tol: float = 1e-11):
    """Minimal solve-estimate-mark-refine loop; returns (u, history)."""
    u, _ = solve_on(problem, mesh, tol)
    history = [(mesh.n_vertices, *measure_error(mesh, u, problem.exact,
                                                problem.exact_grad))] \
        if problem.exact else [(mesh.n_vertices, None, None)]
    while mesh.n_vertices < max_vertices:
        field = residual_indicator(problem, u)
        marks = mark(field, strategy, theta)
        if not marks:
            break
        old = mesh.n_vertices
        mesh.refine_marked(marks)
        pr = prolongation_from_refinement(old, mesh, problem.n_components)
        u = apply_dirichlet(problem, SolutionField.from_flat(
            mesh, problem.n_components, pr @ u.flat))
        u, _ = solve_on(problem, mesh, tol, u0=u)
        if problem.exact:
            history.append((mesh.n_vertices,
                            *measure_error(mesh, u, problem.exact, problem.exact_grad)))
        else:
            history.append((mesh.n_vertices, None, None))
    return u, history


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
