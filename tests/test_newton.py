"""Damped Newton iteration on algebraic and finite element problems."""
import numpy as np
import pytest
import scipy.sparse as sp

from afem.assembly import dirichlet_start, measure_error
from afem.newton import NewtonConfig, NewtonError, NewtonReport, newton_iterate, newton_solve
from afem.problems import benchmark_bratu, benchmark_poisson


def cubic_callbacks():
    # scalar root problem u^3 = 8; Newton from 3 is the classic textbook run
    res = lambda x: np.array([x[0] ** 3 - 8.0])
    jac = lambda x: sp.csr_matrix(np.array([[3.0 * x[0] ** 2]]))
    return res, jac


def test_cubic_root_first_step_oracle():
    # one undamped step from 3: x1 = 3 - 19/27 = 62/27, so the next residual
    # is (62/27)^3 - 8 = 4.10831721...
    res, jac = cubic_callbacks()
    x, rep = newton_iterate(res, jac, np.array([3.0]), NewtonConfig(tolerance=1e-14))
    assert abs(x[0] - 2.0) < 1e-12
    assert rep.converged
    assert abs(rep.residuals[0] - 19.0) < 1e-12
    expect = (62.0 / 27.0) ** 3 - 8.0
    assert abs(rep.residuals[1] - expect) < 1e-12
    assert rep.step_lengths[0] == 1.0


def test_quadratic_convergence_tail():
    res, jac = cubic_callbacks()
    _, rep = newton_iterate(res, jac, np.array([3.0]), NewtonConfig(tolerance=1e-14))
    r = rep.residuals
    # ratios r_{k+1} / r_k^2 stay bounded once the iterates are close
    for k in range(len(r) - 2, len(r) - 1):
        if r[k] > 1e-12:
            assert r[k + 1] <= 1.0 * r[k] ** 2


def test_backtracking_engages_and_recovers():
    # atan has a tiny basin for full steps; from 2.0 plain Newton diverges,
    # the damped iteration must halve at least once and still converge
    res = lambda x: np.array([np.arctan(x[0])])
    jac = lambda x: sp.csr_matrix(np.array([[1.0 / (1.0 + x[0] ** 2)]]))
    x, rep = newton_iterate(res, jac, np.array([2.0]), NewtonConfig(tolerance=1e-12))
    assert abs(x[0]) < 1e-12
    assert rep.converged
    assert min(rep.step_lengths) < 1.0


def test_failure_raises_with_report():
    # residual exp(u): no root, every step fails to reduce after max halvings
    res = lambda x: np.exp(x)
    jac = lambda x: sp.csr_matrix(np.array([[np.exp(x[0])]]))
    with pytest.raises(NewtonError) as err:
        newton_iterate(res, jac, np.array([0.0]),
                       NewtonConfig(tolerance=1e-12, max_iterations=5))
    assert isinstance(err.value.report, NewtonReport)
    assert not err.value.report.converged


def test_max_iterations_respected():
    res, jac = cubic_callbacks()
    with pytest.raises(NewtonError):
        newton_iterate(res, jac, np.array([100.0]),
                       NewtonConfig(tolerance=1e-14, max_iterations=2))


def test_linear_problem_converges_in_one_step():
    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(6)
    u, rep = newton_solve(prob, dirichlet_start(prob, mesh),
                          NewtonConfig(tolerance=1e-10))
    assert rep.converged and rep.iterations == 1
    l2, _ = measure_error(mesh, u, prob.exact, prob.exact_grad)
    assert l2 < 0.05


def test_bratu_newton_history():
    # genuinely nonlinear: more than one step, monotone residual history
    prob = benchmark_bratu(2.0)
    mesh = prob.mesh_factory(6)
    u, rep = newton_solve(prob, dirichlet_start(prob, mesh),
                          NewtonConfig(tolerance=1e-12))
    assert rep.converged and 2 <= rep.iterations <= 8
    assert all(b < a for a, b in zip(rep.residuals, rep.residuals[1:]))
    assert u.values.min() >= 0.0  # Bratu solution is nonnegative


def test_custom_linear_solver_is_used():
    calls = []

    def linear_solve(a, rhs, tol):
        import scipy.sparse.linalg as spla
        calls.append(tol)
        return spla.spsolve(a.tocsc(), rhs), 1

    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(4)
    _, rep = newton_solve(prob, dirichlet_start(prob, mesh),
                          NewtonConfig(tolerance=1e-10), linear_solve=linear_solve)
    assert calls and rep.linear_iterations == [1] * len(calls)


def test_forcing_terms_shrink_with_residual():
    prob = benchmark_bratu(2.0)
    mesh = prob.mesh_factory(6)
    _, rep = newton_solve(prob, dirichlet_start(prob, mesh),
                          NewtonConfig(tolerance=1e-12))
    f = rep.forcing_terms
    assert f[-1] < f[0] <= 0.5
