"""Damped inexact Newton iteration.

Each step solves the linearized system to the forcing tolerance
min(0.5, sqrt(|F|)), so the outer iteration turns superlinear as it closes in,
then backtracks by halving the step until the residual norm actually drops.  The
residual norm is the Euclidean norm; constrained entries are zero by
construction, so they never contribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_jacobian, assemble_residual
from .problem import ProblemDefinition, ProblemError, SolutionField


class NewtonError(Exception):
    """Nonlinear solve failure; carries the report accumulated so far."""

    def __init__(self, msg, report=None, x=None):
        super().__init__(msg)
        self.report = report
        self.x = x


MAX_HALVINGS = 10   # step halvings tried before a Newton step is given up


@dataclass
class NewtonConfig:
    tolerance: float = 1e-10
    max_iterations: int = 25


@dataclass
class NewtonReport:
    residuals: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    forcing_terms: list = field(default_factory=list)
    linear_iterations: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.step_lengths)


def _direct_solve(a, rhs, tol):
    return spla.spsolve(a.tocsc(), rhs), 0


def newton_iterate(residual_fn, jacobian_fn, x0: np.ndarray,
                   config: NewtonConfig = None, linear_solve=None):
    """Core loop over plain arrays; returns (x, NewtonReport).

    linear_solve(a, rhs, tol) -> (dx, inner_iterations) may solve inexactly to
    the given relative tolerance; the default is a direct sparse solve.
    """
    config = config or NewtonConfig()
    linear_solve = linear_solve or _direct_solve
    report = NewtonReport()
    x = np.array(x0, dtype=float)
    r = residual_fn(x)
    rnorm = float(np.linalg.norm(r))
    report.residuals.append(rnorm)
    for _ in range(config.max_iterations):
        if rnorm <= config.tolerance:
            report.converged = True
            return x, report
        eta = min(0.5, np.sqrt(rnorm))
        a = jacobian_fn(x)
        dx, inner = linear_solve(a, -r, eta)
        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            xt = x + lam * dx
            rt = residual_fn(xt)
            rtnorm = float(np.linalg.norm(rt))
            if rtnorm < rnorm:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise NewtonError(
                f"no damping step reduced the residual below {rnorm:.3e} "
                f"after {MAX_HALVINGS} halvings", report=report, x=x)
        x, r, rnorm = xt, rt, rtnorm
        report.residuals.append(rnorm)
        report.step_lengths.append(lam)
        report.forcing_terms.append(eta)
        report.linear_iterations.append(inner)
    if rnorm <= config.tolerance:
        report.converged = True
        return x, report
    raise NewtonError(
        f"newton did not reach {config.tolerance:.1e} in {config.max_iterations} "
        f"iterations (residuals {['%.3e' % v for v in report.residuals]})",
        report=report, x=x)


def newton_solve(problem: ProblemDefinition, u0: SolutionField,
                 config: NewtonConfig = None, linear_solve=None):
    """Newton iteration on an assembled problem; u0 must carry dirichlet data.
    A converged iterate outside the problem's `floor` raises ProblemError,
    naming the first vertex at or below it."""

    mesh = u0.mesh
    nc = problem.n_components

    def residual_fn(xflat):
        return assemble_residual(problem, SolutionField.from_flat(mesh, nc, xflat))

    def jacobian_fn(xflat):
        return assemble_jacobian(problem, SolutionField.from_flat(mesh, nc, xflat))

    x, report = newton_iterate(residual_fn, jacobian_fn, u0.flat.copy(),
                               config, linear_solve)
    u = SolutionField.from_flat(mesh, nc, x)
    if problem.floor is not None:
        col, floor = problem.floor
        low = np.flatnonzero(~(u.values[:, col] > floor))  # NaN too
        if low.size:
            i = low[0]
            raise ProblemError(f"newton solution at or below the floor {floor} of component "
                               f"{col}: {u.values[i, col]} at vertex {i} "
                               f"{tuple(mesh.coords[i].tolist())}")
    return u, report
