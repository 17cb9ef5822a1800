"""Constraint-system problems: scalar slopes, operator blocks, Newton behavior."""
import math
import re

import numpy as np
import pytest

import pointwise_oracle as oracle
from afem import generators
from afem import problems as P
from afem.assembly import (apply_dirichlet, assemble_jacobian, assemble_residual,
                           dirichlet_start, free_dof_mask, measure_error)
from afem.config import PROBLEMS, RunConfig, build_problem
from afem.elements import linear_element
from afem.indicators import residual_indicator
from afem.mesh import DIRICHLET, NEUMANN, Mesh
from afem.newton import NewtonConfig, newton_solve
from afem.problem import SolutionField

from conftest import rate
from test_walk_oracle import CASES


# -------------------------------------------------------- pointwise oracles

def test_scalar_slope_oracles():
    # P'(1) with only the curvature term: (1/8) * 8 = 1
    # P'(1) with only the extrinsic term: (1/12) * 12 = 1
    # slope at 1 with only extrinsic 12/5: (5/12) * (12/5) = 1
    zeros = {"Rhat": 0.0, "trK2": 0.0, "rho": 0.0}
    assert P.hamiltonian_Pprime(1.0, zeros, 0.0) == 0.0
    assert abs(P.hamiltonian_Pprime(1.0, {"Rhat": 8.0, "trK2": 0.0, "rho": 0.0}, 0.0) - 1.0) < 1e-15
    assert abs(P.hamiltonian_Pprime(1.0, {"Rhat": 0.0, "trK2": 12.0, "rho": 0.0}, 0.0) - 1.0) < 1e-15
    slope = P.hamiltonian_Pprime_slope(1.0, {"Rhat": 0.0, "trK2": 12.0 / 5.0, "rho": 0.0}, 0.0)
    assert abs(slope - 1.0) < 1e-15


def test_negative_power_clamp_counts():
    coeffs = P.ConstraintCoefficients(dim=2, rho=0.5, dirichlet_f=1.0)
    coeffs.clamps.reset()
    val = P.hamiltonian_Pprime(0.0, {"Rhat": 0.0, "trK2": 0.0, "rho": 0.5}, 1.0,
                               clamps=coeffs.clamps)
    assert np.isfinite(val)
    assert coeffs.clamps.count == 1


def test_vector_operator_oracles():
    # W = (x, 0, 0): conformal Killing part is grad-symmetrization minus the
    # divergence third, giving diag(4/3, -2/3, -2/3); strain (EW)^11 = 1
    gw = np.zeros((3, 3))
    gw[0, 0] = 1.0
    assert np.allclose(P._lw(gw, 3), np.diag([4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0]),
                       atol=1e-15)
    assert abs(P._sym_up(gw)[0, 0] - 1.0) < 1e-15


def test_divergence_free_field_has_zero_lw():
    # rotation field W = (-y, x, 0): symmetric gradient and divergence vanish
    gw = np.zeros((3, 3))
    gw[0, 1] = -1.0
    gw[1, 0] = 1.0
    assert np.abs(P._lw(gw, 3)).max() < 1e-15


# ------------------------------------------------ packed pointwise template

POINTWISE = {name: (lambda name=name: build_problem(RunConfig(problem=name, dim=2)))
             for name in PROBLEMS}
POINTWISE.update({name: (lambda name=name: CASES[name]()[0])
                  for name in CASES if name.endswith("_annulus")})
# every block of the coupled K nonzero: varying trK, Ahat, current, Robin data
POINTWISE["coupled_varying"] = lambda: P.coupled_forms(P.ConstraintCoefficients(
    dim=2, Rhat=2.0, trK=lambda x: 1.0 + 0.5 * x[0], trK_grad=lambda x: np.array([0.5, 0.0]),
    Ahat=np.array([[0.3, 0.1], [0.1, -0.3]]), rho=0.02, jhat=np.array([0.01, -0.02]),
    robin_c=0.7, robin_z=0.5, robin_C=np.array([[0.7, 0.1], [0.1, 0.5]]),
    robin_Z=np.array([0.2, -0.1])))


@pytest.mark.parametrize("name", sorted(POINTWISE))
def test_dft_is_the_derivative_of_ft(name, rng):
    # K = dF/dz with z = [gu.ravel(), u], against central differences of F
    # in every slot of z, on elements (t = 0) and flux faces (t = 1), at three
    # points evaluated in one batched call
    problem = POINTWISE[name]()
    nc = problem.n_components
    dim = problem.mesh_factory(1).dim if problem.mesh_factory else 2
    m = nc * dim
    h = 1e-6
    npts = 3
    x = rng.uniform(0.1, 0.9, (npts, dim))
    normal = rng.standard_normal((npts, dim))
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    z = np.column_stack([rng.uniform(-1.0, 1.0, (npts, m)), rng.uniform(1.0, 1.5, (npts, nc))])
    for t in (0, 1):
        def f(z):
            return problem.Ft(t, x, normal, z[:, m:], z[:, :m].reshape(npts, nc, dim))

        k = problem.DFt(t, x, normal, z[:, m:], z[:, :m].reshape(npts, nc, dim))
        assert k.shape == (npts, m + nc, m + nc)
        fd = np.stack([(f(z + h * e) - f(z - h * e)) / (2.0 * h) for e in np.eye(m + nc)],
                      axis=2)
        for q in range(npts):
            scale = max(1.0, float(np.abs(k[q]).max()))
            assert float(np.abs(fd[q] - k[q]).max()) <= 1e-7 * scale, (t, fd[q] - k[q])


# ------------------------------------------------- batched evaluation edges

def _pointwise_clamps(problem, u):
    """Clamps counted by one Ft and one DFt call per assembly point, each
    evaluated alone through the oracle's one-point adapter."""
    mesh = u.mesh
    clamps = problem.constraint_coefficients.clamps
    clamps.reset()
    el = linear_element(mesh.dim)
    for s in mesh.live_simplices():
        geom, grads = oracle._element_data(mesh, int(s), el)
        uloc = u.values[mesh.sverts[s]]
        for x, b in zip(geom.to_physical(el.rule.points), el.rule.barycentric):
            for cb in (problem.Ft, problem.DFt):
                oracle.at_point(cb, 0, x, None, b @ uloc, uloc.T @ grads)
    for bf in oracle._boundary_faces(mesh):
        if bf.bclass == NEUMANN:
            _, grads = oracle._element_data(mesh, bf.simplex, el)
            uloc = u.values[mesh.sverts[bf.simplex]]
            xq, _, bas = oracle._face_frame(mesh, bf)
            for x, b in zip(xq, bas):
                for cb in (problem.Ft, problem.DFt):
                    oracle.at_point(cb, 1, x, bf.normal, b @ uloc, uloc.T @ grads)
    return clamps.count


def test_batched_clamp_count_matches_pointwise():
    # phi below the floor at every third vertex: some points clamp, some not
    problem, mesh = CASES["coupled_annulus"]()
    u = SolutionField.zeros(mesh, problem.n_components)
    u.values[:, 0] = np.where(np.arange(mesh.n_vertices) % 3 == 0, -0.5, 1.0)
    expected = _pointwise_clamps(problem, u)
    clamps = problem.constraint_coefficients.clamps
    clamps.reset()
    assemble_residual(problem, u)
    assemble_jacobian(problem, u)
    assert clamps.count == expected > 0


def test_negative_rho_at_one_point_names_it():
    mesh = generators.unit_square(2)
    bad = mesh.tables().element_points(linear_element(2).rule.points)[3, 1]
    coeffs = P.ConstraintCoefficients(
        dim=2, rho=lambda x: -1.0 if np.array_equal(x, bad) else 0.1)
    prob = P.hamiltonian_forms(coeffs)
    u = SolutionField(mesh, 1, np.ones((mesh.n_vertices, 1)))
    with pytest.raises(P.ProblemError, match=re.escape(f"at {tuple(bad.tolist())}")):
        assemble_residual(prob, u)


def _one_simplex(dim):
    m = Mesh(dim)
    for x in np.vstack([np.zeros(dim), np.eye(dim)]):
        m.add_vertex(x)
    m.add_simplex(tuple(range(dim + 1)))
    return m.finalize(boundary=DIRICHLET)


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_problem_assembles_on_one_simplex(name):
    # a single all-Dirichlet simplex has no face rows: the face blocks of
    # assembly and the residual indicator are empty and skipped
    problem = build_problem(RunConfig(problem=name, dim=2))
    mesh = _one_simplex(problem.mesh_factory(1).dim if problem.mesh_factory else 2)
    assert len(mesh.tables().owner) == 0
    u = dirichlet_start(problem, mesh)
    r = assemble_residual(problem, u)
    a = assemble_jacobian(problem, u).toarray()
    assert r.shape == (mesh.n_vertices * problem.n_components,) and np.all(r == 0.0)
    np.testing.assert_array_equal(a, np.eye(len(r)))
    eta = residual_indicator(problem, u).eta
    assert list(eta) == [0] and np.isfinite(eta[0])
    if problem.exact is not None:
        assert np.all(np.isfinite(measure_error(mesh, u, problem.exact, problem.exact_grad)))


# ------------------------------------------------------- scalar constraint

def test_hamiltonian_trivial_two_iterations():
    prob = P.hamiltonian_trivial(dim=2)
    mesh = prob.mesh_factory(4)
    u, rep = newton_solve(prob, dirichlet_start(prob, mesh), NewtonConfig(tolerance=1e-10))
    assert rep.converged and rep.iterations <= 2
    assert np.abs(u.values - 1.0).max() < 1e-10
    # converged state must evaluate without touching the positivity floor
    prob.constraint_coefficients.clamps.reset()
    assemble_residual(prob, u)
    assert prob.constraint_coefficients.clamps.count == 0


def test_hamiltonian_manufactured_newton_and_rates():
    errs = {}
    for n in (8, 16):
        prob = P.hamiltonian_manufactured()
        mesh = prob.mesh_factory(n)
        u0 = apply_dirichlet(prob, SolutionField(mesh, 1, np.ones((mesh.n_vertices, 1))))
        u, rep = newton_solve(prob, u0, NewtonConfig(tolerance=1e-12, max_iterations=12))
        assert rep.converged and rep.iterations <= 8
        errs[n] = measure_error(mesh, u, prob.exact, prob.exact_grad)
    assert abs(rate(errs[8][1], errs[16][1]) - 1.0) < 0.2   # H1 order 1
    assert abs(rate(errs[8][0], errs[16][0]) - 2.0) < 0.3   # L2 order 2


def test_hamiltonian_manufactured_superlinear_tail():
    prob = P.hamiltonian_manufactured()
    mesh = prob.mesh_factory(8)
    u0 = apply_dirichlet(prob, SolutionField(mesh, 1, np.ones((mesh.n_vertices, 1))))
    _, rep = newton_solve(prob, u0, NewtonConfig(tolerance=1e-12, max_iterations=12))
    r = rep.residuals
    for k in range(max(0, len(r) - 4), len(r) - 1):
        assert r[k + 1] <= 10.0 * r[k] ** 1.5


# --------------------------------------------------------- vector constraint

def test_momentum_operator_spd():
    coeffs = P.ConstraintCoefficients(dim=3)
    prob = P.momentum_forms(coeffs)
    mesh = generators.unit_cube(2)
    a = assemble_jacobian(prob, dirichlet_start(prob, mesh)).toarray()
    assert np.abs(a - a.T).max() < 1e-12
    np.linalg.cholesky(a)  # raises LinAlgError if any eigenvalue <= 0


def test_momentum_zero_data_gives_zero_field():
    coeffs = P.ConstraintCoefficients(dim=3)
    prob = P.momentum_forms(coeffs)
    mesh = generators.unit_cube(2)
    w, _ = newton_solve(prob, dirichlet_start(prob, mesh), NewtonConfig(tolerance=1e-12))
    assert np.abs(w.values).max() < 1e-12


def test_momentum_manufactured_rates():
    errs = {}
    for n in (3, 6):
        prob = P.momentum_manufactured()
        mesh = prob.mesh_factory(n)
        u, rep = newton_solve(prob, dirichlet_start(prob, mesh), NewtonConfig(tolerance=1e-11))
        assert rep.iterations <= 2  # the system is linear in W
        errs[n] = measure_error(mesh, u, prob.exact, prob.exact_grad)
    assert abs(rate(errs[3][1], errs[6][1]) - 1.0) < 0.3
    assert rate(errs[3][0], errs[6][0]) > 1.5


# ------------------------------------------------------------ coupled system

def test_coupled_trivial_state():
    prob = P.coupled_trivial(dim=2)
    mesh = prob.mesh_factory(4)
    u, rep = newton_solve(prob, dirichlet_start(prob, mesh), NewtonConfig(tolerance=1e-11))
    assert np.abs(u.values[:, 0] - 1.0).max() < 1e-10
    assert np.abs(u.values[:, 1:]).max() < 1e-10
    prob.constraint_coefficients.clamps.reset()
    assemble_residual(prob, u)
    assert prob.constraint_coefficients.clamps.count == 0


def test_coupled_jacobian_matches_finite_differences(rng):
    coeffs = P.ConstraintCoefficients(
        dim=2, Rhat=2.0, trK=lambda x: 1.0 + 0.5 * x[0],
        trK_grad=lambda x: np.array([0.5, 0.0]),
        Ahat=np.array([[0.3, 0.1], [0.1, -0.3]]), rho=0.02,
        jhat=np.array([0.01, -0.02]), dirichlet_f=1.0)
    prob = P.coupled_forms(coeffs)
    mesh = generators.unit_square(3)
    nv = mesh.n_vertices
    free = free_dof_mask(prob, mesh)
    for _ in range(5):
        vals = np.ones((nv, 3))
        vals[:, 0] = np.clip(1.0 + 0.1 * rng.standard_normal(nv), 0.5, 2.0)
        vals[:, 1:] = 0.1 * rng.standard_normal((nv, 2))
        state = SolutionField(mesh, 3, vals)
        f0 = assemble_residual(prob, state)
        jmat = assemble_jacobian(prob, state)
        d = rng.standard_normal(nv * 3)
        d[~free] = 0.0  # dirichlet rows carry the identity in J, frozen in F
        d /= np.linalg.norm(d)
        jd = jmat @ d
        last = None
        for eps in (1e-4, 5e-5, 2.5e-5):
            up = SolutionField.from_flat(mesh, 3, state.flat + eps * d)
            fd = (assemble_residual(prob, up) - f0) / eps
            err = np.linalg.norm((fd - jd)[free]) / max(np.linalg.norm(jd), 1e-30)
            if last is not None:
                assert err < 0.75 * last or err < 1e-7
            last = err
        assert last < 1e-4


def test_constant_trk_decouples_momentum_rows(rng):
    # with grad(trK) = 0 and jhat = 0 the momentum equation has no phi term,
    # while the scalar equation still sees W through the squared flux
    coeffs = P.ConstraintCoefficients(
        dim=2, Rhat=2.0, trK=1.3, Ahat=np.array([[0.3, 0.1], [0.1, -0.3]]),
        rho=0.02, dirichlet_f=1.0)
    prob = P.coupled_forms(coeffs)
    mesh = generators.unit_square(3)
    nv = mesh.n_vertices
    vals = np.ones((nv, 3))
    vals[:, 0] = 1.0 + 0.2 * rng.random(nv)
    vals[:, 1:] = 0.3 * rng.standard_normal((nv, 2))
    jmat = assemble_jacobian(prob, SolutionField(mesh, 3, vals)).toarray()
    w_rows = np.array([v * 3 + c for v in range(nv) for c in (1, 2)])
    phi_cols = np.array([v * 3 for v in range(nv)])
    assert np.abs(jmat[np.ix_(w_rows, phi_cols)]).max() < 1e-14
    assert np.abs(jmat[np.ix_(phi_cols, w_rows)]).max() > 1e-6


def test_coupled_solution_matches_decoupled_scalar():
    # constant trK and zero momentum source: W = 0 is exact, so the coupled
    # phi must agree with the scalar solve to solver precision
    mesh = generators.unit_square(6)
    hprob = P.hamiltonian_forms(P.demo_constraint_coefficients(dim=2))
    h0 = apply_dirichlet(hprob, SolutionField(mesh, 1, np.ones((mesh.n_vertices, 1))))
    uh, _ = newton_solve(hprob, h0, NewtonConfig(tolerance=1e-13))
    cprob = P.coupled_forms(P.demo_constraint_coefficients(dim=2))
    c0 = SolutionField.zeros(mesh, 3)
    c0.values[:, 0] = 1.0
    uc, _ = newton_solve(cprob, apply_dirichlet(cprob, c0), NewtonConfig(tolerance=1e-13))
    assert np.abs(uc.values[:, 0] - uh.values[:, 0]).max() < 1e-8
    assert np.abs(uc.values[:, 1:]).max() < 1e-8

