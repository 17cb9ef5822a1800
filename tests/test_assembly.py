"""Residual/Jacobian assembly against hand-computed oracles."""
import math

import numpy as np
import pytest

import afem.assembly as assembly
from afem import generators, problems
from afem.assembly import (AssemblyPlan, apply_dirichlet, assemble_jacobian, assemble_residual,
                           assembly_plan, dirichlet_start, free_dof_mask, measure_error)
from afem.elements import default_rule, face_rule
from afem.mesh import DIRICHLET, NEUMANN, Mesh
from afem.newton import newton_solve
from afem.problem import ProblemDefinition, SolutionField

from pointwise_oracle import evaluate_functional, interpolate
from test_walk_oracle import CASES

# frozen oracle: stiffness of the linear basis on the unit right triangle,
# gradients (-1,-1), (1,0), (0,1) over area 1/2
STIFFNESS = np.array([[1.0, -0.5, -0.5],
                      [-0.5, 0.5, 0.0],
                      [-0.5, 0.0, 0.5]])


def one_triangle(boundary):
    return Mesh.from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                            boundary=boundary)


def poisson_unit_load():
    # A = grad u and B = -1 on elements, nothing on flux faces
    def DFt(t, x, n, u, gu):
        return np.tile(np.diag([1.0, 1.0, 0.0] if t == 0 else [0.0] * 3), (len(x), 1, 1))

    return ProblemDefinition(n_components=1, flux=lambda x, u, gu: gu,
                             source=lambda x, u, gu: -np.ones((len(x), 1)), DFt=DFt,
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
    def DFt(t, x, n, u, gu):
        return np.tile(np.diag([1.0, 1.0, 0.0] if t == 0 else [0.0, 0.0, 1.0]), (len(x), 1, 1))

    prob = ProblemDefinition(n_components=1, flux=lambda x, u, gu: gu,
                             source=lambda x, u, gu: np.zeros((len(x), 1)),
                             face_term=lambda x, u: u - 1.0, DFt=DFt,
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
    blocks = [(0, tab.element_points(default_rule(mesh.dim).points))]
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
    np.testing.assert_array_equal(g.values[onb], prob.dirichlet(mesh.coords[onb]))
    assert np.all(g.values[~onb] == 0.0)


def test_dirichlet_start_begins_at_the_initial_value():
    prob = problems.coupled_trivial(dim=2)
    mesh = generators.unit_square(3)
    u = dirichlet_start(prob, mesh)
    onb = mesh.vclass == DIRICHLET
    assert np.any(~onb) and prob.initial_value is not None
    assert np.all(u.values[~onb] == prob.initial_value)
    np.testing.assert_array_equal(u.values[onb], prob.dirichlet(mesh.coords[onb]))


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


@pytest.fixture
def built_plans(monkeypatch):
    """Every assembly plan built while the test runs."""
    built = []

    class Counted(AssemblyPlan):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(assembly, "AssemblyPlan", Counted)
    return built


def test_newton_solve_builds_one_plan_and_refinement_drops_it(built_plans):
    prob = problems.benchmark_bratu()
    mesh = generators.unit_square(4)
    _, rep = newton_solve(prob, dirichlet_start(prob, mesh))
    assert rep.converged and rep.iterations >= 2
    assert len(built_plans) == 1 and mesh.tables().plans == {1: built_plans[0]}
    mesh.refine_marked([int(mesh.live_simplices()[0])])
    assert mesh.tables().plans == {}
    assemble_residual(prob, dirichlet_start(prob, mesh))
    assert len(built_plans) == 2 and mesh.tables().plans == {1: built_plans[1]}


def test_each_component_count_gets_its_own_plan(built_plans):
    mesh = generators.unit_square(3)
    scalar = problems.benchmark_poisson("square_sine")
    vector = problems.coupled_forms(problems.ConstraintCoefficients(dim=2, Rhat=0.3, rho=0.4))
    fields = {p.n_components: dirichlet_start(p, mesh) for p in (scalar, vector)}
    first = assemble_jacobian(scalar, fields[1])
    assemble_jacobian(vector, fields[3])
    assert sorted(mesh.tables().plans) == [1, 3] and len(built_plans) == 2
    assert assembly_plan(mesh, 1) is built_plans[0] and assembly_plan(mesh, 3) is built_plans[1]
    again = assemble_jacobian(scalar, fields[1])
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(again, attr), getattr(first, attr))
    assert len(built_plans) == 2
