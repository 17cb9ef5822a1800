"""Residual indicator, marking strategies, and the dual-weighted estimate."""
import math

import numpy as np
import pytest

from afem.assembly import dirichlet_start, measure_error
from afem.generators import unit_cube, unit_square
from afem.indicators import (IndicatorField, dual_indicator, mark,
                             residual_indicator, solve_dual)
from afem.mesh import DIRICHLET, INTERIOR, Mesh
from afem.newton import NewtonConfig, newton_solve
from afem.problem import ProblemDefinition, SolutionField
from afem.problems import benchmark_poisson

from pointwise_oracle import domain_average, evaluate_functional, interpolate


def poisson(fval, dirichlet=None):
    def Ft(t, x, n, u, gu):
        if t == 0:
            return np.column_stack((gu[:, 0], np.full(len(x), -fval)))
        return np.zeros((len(x), x.shape[1] + 1))

    def DFt(t, x, n, u, gu):
        d = x.shape[1]
        return np.tile(np.diag([1.0 if t == 0 else 0.0] * d + [0.0]), (len(x), 1, 1))

    return ProblemDefinition("poisson", 1, Ft, DFt,
                             dirichlet=dirichlet or (lambda x: np.zeros(1)))


def reference_triangle():
    m = Mesh(2)
    for p in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        m.add_vertex(p)
    m.add_simplex((0, 1, 2))
    return m.finalize(boundary=DIRICHLET)


def test_single_triangle_oracle():
    # f=1, u_h=0, all-dirichlet triangle: interior residual is exactly 1,
    # no jump faces, so eta = h_s * ||1||_L2 = h_s / sqrt(2) with the
    # inscribed diameter h_s = 2 - sqrt(2) of the unit right triangle
    m = reference_triangle()
    ind = residual_indicator(poisson(1.0), SolutionField.zeros(m), p=2.0)
    hs = m.tables().h[0]
    assert abs(hs - (2.0 - math.sqrt(2.0))) < 1e-14
    eta = ind.eta[0]
    assert abs(eta - (math.sqrt(2.0) - 1.0)) < 1e-14
    assert abs(ind.total() - eta) < 1e-15


def test_indicator_vanishes_for_exact_linear():
    # a linear field solves the f=0 problem exactly: no interior residual,
    # no gradient jumps, so every indicator is zero up to roundoff
    lin = lambda x: np.array([x[0] - 2.0 * x[1]])
    prob = poisson(0.0, dirichlet=lin)
    mesh = unit_square(4)
    ind = residual_indicator(prob, interpolate(mesh, lin))
    assert ind.total() < 1e-12
    assert all(v >= 0.0 for v in ind.eta.values())


def test_indicator_vanishes_for_exact_linear_3d():
    lin = lambda x: np.array([x[0] + x[1] - x[2]])
    prob = poisson(0.0, dirichlet=lin)
    mesh = unit_cube(2)
    ind = residual_indicator(prob, interpolate(mesh, lin))
    assert ind.total() < 1e-12


def test_indicator_decreases_under_refinement():
    prob = benchmark_poisson("square_sine")
    prev = None
    for n in (4, 8, 16):
        mesh = prob.mesh_factory(n)
        u, _ = newton_solve(prob, dirichlet_start(prob, mesh),
                            NewtonConfig(tolerance=1e-12))
        tot = residual_indicator(prob, u).total()
        if prev is not None:
            assert tot < prev
        prev = tot


def test_effectivity_bounded():
    # the estimator must bound the H1 error up to a mesh-independent constant
    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(8)
    u, _ = newton_solve(prob, dirichlet_start(prob, mesh),
                        NewtonConfig(tolerance=1e-12))
    _, h1 = measure_error(mesh, u, prob.exact, prob.exact_grad)
    eff = residual_indicator(prob, u).total() / h1
    assert 1.0 < eff < 20.0


# ------------------------------------------------------------------ marking

def test_maximum_strategy():
    mesh = unit_square(4)
    f = IndicatorField(mesh, {0: 2.0, 1: 1.0, 2: 1.0, 3: 0.0}, 2.0)
    assert mark(f, "maximum", 0.6) == [0]
    # scale invariance: thresholds are relative to the largest indicator
    fs = IndicatorField(mesh, {k: 3.0 * v for k, v in f.eta.items()}, 2.0)
    assert mark(fs, "maximum", 0.6) == [0]


def test_equidistribution_strategy():
    mesh = unit_square(4)
    fu = IndicatorField(mesh, {i: 1.0 for i in range(6)}, 2.0)
    # perfectly equidistributed indicators leave nothing above the mean
    assert mark(fu, "equidistribution", 1.0) == []
    f = IndicatorField(mesh, {0: 2.0, 1: 1.0, 2: 1.0, 3: 0.5}, 2.0)
    got = mark(f, "equidistribution", 1.0)
    assert 0 in got and 3 not in got


def test_hybrid_strategy_mass_fraction():
    mesh = unit_square(4)
    # squared total 15; simplex 0 alone carries 9 >= half, so it marks alone
    f = IndicatorField(mesh, {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0}, 2.0)
    assert mark(f, "hybrid") == [0]


def test_zero_field_marks_nothing():
    mesh = unit_square(4)
    f = IndicatorField(mesh, {i: 0.0 for i in range(6)}, 2.0)
    for strategy in ("maximum", "equidistribution", "hybrid"):
        assert mark(f, strategy) == []


def test_marking_deterministic_and_validated():
    mesh = unit_square(4)
    f = IndicatorField(mesh, {i: float(i % 5) for i in range(12)}, 2.0)
    assert mark(f, "hybrid") == mark(f, "hybrid")
    with pytest.raises(ValueError):
        mark(f, "nonsense")
    with pytest.raises(ValueError):
        mark(f, "maximum", theta=1.5)


# --------------------------------------------------------------------- dual

def solved_square_sine():
    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(8)
    u, _ = newton_solve(prob, dirichlet_start(prob, mesh),
                        NewtonConfig(tolerance=1e-12))
    return prob, mesh, u


def test_same_space_dual_estimate_is_zero():
    # Galerkin orthogonality: testing the residual with a member of the
    # solution space gives exactly zero
    prob, mesh, u = solved_square_sine()
    w = solve_dual(prob, u, lambda x: np.ones(1), same_space=True)
    find, est = dual_indicator(prob, u, w)
    assert est == 0.0 and find.max() == 0.0


def test_dual_estimate_tracks_true_functional_error():
    prob, mesh, u = solved_square_sine()
    w = solve_dual(prob, u, lambda x: np.ones(1))
    _, est = dual_indicator(prob, u, w)
    true_err = (evaluate_functional(mesh, lambda x: prob.exact(x), lambda x: np.ones(1), 1)
                - evaluate_functional(mesh, u, lambda x: np.ones(1), 1))
    assert 0.5 <= est / true_err <= 2.0


def test_self_adjoint_dual_equals_primal():
    # psi = f makes the dual problem identical to the primal one
    prob, mesh, u = solved_square_sine()
    f = lambda x: np.array([2.0 * np.pi ** 2 * np.sin(np.pi * x[0]) * np.sin(np.pi * x[1])])
    w = solve_dual(prob, u, f, same_space=True)
    assert np.abs(w.phi.values - u.values).max() < 1e-8


def test_nonnegative_weight_gives_positive_dual():
    prob, mesh, u = solved_square_sine()
    psi = lambda x: np.array([1.0 if (abs(x[0] - 0.5) < 0.25 and abs(x[1] - 0.5) < 0.25) else 0.0])
    w = solve_dual(prob, u, psi, same_space=True)
    interior = np.flatnonzero(mesh.vclass == INTERIOR)
    assert w.phi.values[interior, 0].min() > 0.0


def test_domain_average_weight():
    # the factory returns psi = 1/|domain| so <u, psi> is the mean of u
    mesh = unit_square(3)
    u = interpolate(mesh, lambda x: np.array([x[0]]))
    psi = domain_average(mesh)
    assert evaluate_functional(mesh, u, psi) == pytest.approx(0.5)
