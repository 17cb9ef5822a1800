"""Residual/Jacobian assembly against hand-computed oracles."""
import math

import numpy as np
import pytest

from afem import generators, problems
from afem.assembly import (apply_dirichlet, assemble_jacobian, assemble_residual,
                           dirichlet_start, free_dof_mask, measure_error)
from afem.elements import face_rule, linear_element
from afem.mesh import DIRICHLET, NEUMANN, Mesh
from afem.problem import ProblemDefinition, SolutionField

from pointwise_oracle import evaluate_functional, interpolate
from test_walk_oracle import CASES

# frozen oracle: stiffness of the linear basis on the unit right triangle,
# gradients (-1,-1), (1,0), (0,1) over area 1/2
STIFFNESS = np.array([[1.0, -0.5, -0.5],
                      [-0.5, 0.5, 0.0],
                      [-0.5, 0.0, 0.5]])


def one_triangle(boundary):
    m = Mesh(2)
    for x in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        m.add_vertex(x)
    m.add_simplex((0, 1, 2))
    return m.finalize(boundary=boundary)


def poisson_unit_load():
    # F = [A, B] = [grad u, -1] on elements, nothing on flux faces
    def Ft(t, x, n, u, gu):
        return np.column_stack((gu[:, 0], -np.ones(len(x)))) if t == 0 else np.zeros((len(x), 3))

    def DFt(t, x, n, u, gu):
        return np.tile(np.diag([1.0, 1.0, 0.0] if t == 0 else [0.0] * 3), (len(x), 1, 1))

    return ProblemDefinition(name="unit_load", n_components=1, Ft=Ft, DFt=DFt,
                             dirichlet=lambda x: np.array([0.0]))


def test_stiffness_matrix_oracle():
    # NEUMANN boundary keeps the dirichlet identity rows out of the matrix
    m = one_triangle(NEUMANN)
    u = SolutionField.zeros(m)
    a = assemble_jacobian(poisson_unit_load(), u).toarray()
    assert np.abs(a - STIFFNESS).max() < 1e-14


def test_unit_load_vector():
    # F(0)(phi_i) = -int phi_i = -area/3 at every vertex of one triangle
    m = one_triangle(NEUMANN)
    r = assemble_residual(poisson_unit_load(), SolutionField.zeros(m))
    assert np.allclose(r, -1.0 / 6.0, atol=1e-15)


def test_robin_boundary_block():
    # flux + u - 1 = 0 on the whole boundary: the jacobian gains a boundary
    # mass matrix (entry sum = perimeter), the residual at u=0 gains -int_bdry v
    def Ft(t, x, n, u, gu):
        if t == 0:
            return np.column_stack((gu[:, 0], np.zeros(len(x))))
        return np.column_stack((np.zeros((len(x), 2)), u[:, 0] - 1.0))

    def DFt(t, x, n, u, gu):
        return np.tile(np.diag([1.0, 1.0, 0.0] if t == 0 else [0.0, 0.0, 1.0]), (len(x), 1, 1))

    prob = ProblemDefinition(name="robin", n_components=1, Ft=Ft, DFt=DFt,
                             dirichlet=lambda x: np.array([0.0]))
    m = one_triangle(NEUMANN)
    perim = 2.0 + math.sqrt(2.0)
    a = assemble_jacobian(prob, SolutionField.zeros(m)).toarray()
    assert abs(a.sum() - perim) < 1e-12  # stiffness rows sum to zero
    r = assemble_residual(prob, SolutionField.zeros(m))
    assert abs(r.sum() + perim) < 1e-12


@pytest.mark.parametrize("name", ["square_sine", "cube_sine", "coupled_annulus",
                                  "momentum_annulus"])
def test_one_callback_call_per_quadrature_point(name):
    # one Ft and one DFt call per non-empty block (simplices, then flux
    # faces), which together visit every quadrature point exactly once
    problem, mesh = CASES[name]()
    calls = {"Ft": [], "DFt": []}

    def counted(cb, fn):
        def wrapper(*args):
            calls[cb].append((args[0], args[1].copy()))
            return fn(*args)
        return wrapper

    for cb in calls:
        setattr(problem, cb, counted(cb, getattr(problem, cb)))
    tab = mesh.tables()
    flux = tab.flag == NEUMANN
    assert flux.any() == name.endswith("_annulus")
    blocks = [(0, tab.element_points(linear_element(mesh.dim).rule.points))]
    if flux.any():
        blocks.append((1, tab.face_quadrature(face_rule(mesh.dim, 3))[0][flux]))
    u = SolutionField.zeros(mesh, problem.n_components)
    u.values[:, 0] = 1.0
    assemble_residual(problem, u)
    assemble_jacobian(problem, u)
    for cb in calls:
        assert len(calls[cb]) == len(blocks)
        for (t, x), (t_ref, x_ref) in zip(calls[cb], blocks):
            assert t == t_ref
            np.testing.assert_array_equal(x, x_ref.reshape(-1, mesh.dim))


def test_dirichlet_rows_are_identity():
    prob = problems.benchmark_poisson("square_sine")
    mesh = generators.unit_square(2)
    u = dirichlet_start(prob, mesh)
    a = assemble_jacobian(prob, u).toarray()
    r = assemble_residual(prob, u)
    fixed = ~free_dof_mask(prob, mesh)
    for i in np.flatnonzero(fixed):
        row = np.zeros(len(r))
        row[i] = 1.0
        assert np.array_equal(a[i], row)
        assert np.array_equal(a[:, i], row)
    assert np.all(r[fixed] == 0.0)


def test_interpolate_and_dirichlet_start():
    mesh = generators.unit_square(2)
    u = interpolate(mesh, lambda x: np.array([x[0] + 2.0 * x[1]]))
    assert np.allclose(u.values[:, 0], mesh.coords @ [1.0, 2.0])
    prob = problems.benchmark_poisson("square_sine")
    g = dirichlet_start(prob, mesh)
    onb = mesh.vclass == DIRICHLET
    for v in np.flatnonzero(onb):
        assert g.values[v] == pytest.approx(prob.dirichlet(mesh.coords[v]).tolist())
    assert np.all(g.values[~onb] == 0.0)


def test_measure_error_exact_for_linear_fields():
    # piecewise linear space contains u(x) = 3x - y + 1 exactly
    mesh = generators.unit_square(3)
    exact = lambda x: np.array([3.0 * x[0] - x[1] + 1.0])
    grad = lambda x: np.array([[3.0, -1.0]])
    u = interpolate(mesh, exact)
    l2, h1 = measure_error(mesh, u, exact, grad)
    assert l2 < 1e-14 and h1 < 1e-13


def test_measure_error_sees_perturbation():
    mesh = generators.unit_square(3)
    exact = lambda x: np.array([x[0]])
    u = interpolate(mesh, exact)
    u.values[12, 0] += 0.1
    l2, h1 = measure_error(mesh, u, exact, lambda x: np.array([[1.0, 0.0]]))
    assert l2 > 1e-3 and h1 > 1e-2


def test_evaluate_functional():
    mesh = generators.unit_square(3)
    assert evaluate_functional(mesh, lambda x: np.array([1.0]), lambda x: 1.0) == pytest.approx(1.0)
    # int over unit square of x = 1/2, with the linear interpolant exact
    u = interpolate(mesh, lambda x: np.array([x[0]]))
    assert evaluate_functional(mesh, u, lambda x: 1.0) == pytest.approx(0.5)
    # weighted: int x * y dx dy = 1/4 (callable field, exact quadrature)
    val = evaluate_functional(mesh, lambda x: np.array([x[0]]), lambda x: x[1])
    assert val == pytest.approx(0.25)


def test_jacobian_matches_finite_differences(rng):
    # nonlinear scalar problem, directional FD at the free dofs only
    # (dirichlet rows hold the identity, their residual entries stay frozen)
    prob = problems.benchmark_bratu(1.5)
    mesh = generators.unit_square(3)
    u = dirichlet_start(prob, mesh)
    u.values[:, 0] += 0.1 * rng.standard_normal(mesh.n_vertices)
    u = apply_dirichlet(prob, u)
    free = free_dof_mask(prob, mesh)
    a = assemble_jacobian(prob, u)
    r0 = assemble_residual(prob, u)
    d = rng.standard_normal(len(r0))
    d[~free] = 0.0
    jd = a @ d
    errs = []
    for eps in (1e-4, 1e-5, 1e-6):
        up = SolutionField.from_flat(mesh, 1, u.flat + eps * d)
        fd = (assemble_residual(prob, up) - r0) / eps
        errs.append(np.abs((fd - jd)[free]).max())
    assert errs[0] < 1e-2
    assert errs[2] < 2e-4  # first-order decay in eps


def test_vector_component_interleaving():
    # dof ordering is vertex-major: component c of vertex v sits at v*nc + c
    mesh = generators.unit_square(2)
    u = interpolate(mesh, lambda x: np.array([x[0], 10.0 * x[1]]), n_components=2)
    v, c = 5, 1
    assert u.flat[v * 2 + c] == u.values[v, c]
    assert u.values[v, 1] == pytest.approx(10.0 * mesh.coords[v, 1])
