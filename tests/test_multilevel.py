"""Multilevel hierarchy: smoother, transfer operators, V-cycle-preconditioned Krylov."""
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
from afem import generators
from afem.assembly import assemble_jacobian, assemble_residual
from afem.multilevel import (MAX_ITERATIONS, MultilevelError, build_hierarchy,
                             galerkin_product, prolongation_from_refinement)
from afem.problem import SolutionField
from afem.problems import benchmark_poisson


def poisson_chain(levels, n0=2, nc=1):
    """Uniformly refined square with the prolongation of every refinement."""
    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(n0)
    prolongs = []
    for _ in range(levels - 1):
        nv = mesh.n_vertices
        mesh.uniform_refine()
        prolongs.append(prolongation_from_refinement(nv, mesh, nc))
    u = SolutionField.zeros(mesh)
    a = assemble_jacobian(prob, u)
    b = -assemble_residual(prob, u)
    return mesh, a, b, prolongs


def test_gauss_seidel_oracle():
    # one forward sweep on [[2,1],[1,2]] x = (3,3) from x=0:
    # x0 = 3/2, then x1 = (3 - 1*1.5)/2 = 3/4
    hier = build_hierarchy(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), [])
    out = hier.sweep(0, np.zeros(2), np.array([3.0, 3.0]), "forward")
    assert np.allclose(out, [1.5, 0.75])
    back = hier.sweep(0, np.zeros(2), np.array([3.0, 3.0]), "backward")
    assert np.allclose(back, [0.75, 1.5])


def _dominant(n, density, seed, symmetric):
    """A random sparse matrix with a diagonal of either sign that outweighs
    the rest of its row."""
    rng = np.random.default_rng(seed)
    off = sp.random(n, n, density=density, random_state=seed, format="csr")
    off = off - sp.diags(off.diagonal())
    if symmetric:
        off = off + off.T
    else:
        off = off - 0.5 * sp.random(n, n, density=density, random_state=seed + 1).T
        off = off - sp.diags(off.diagonal())
    weight = np.asarray(abs(off).sum(axis=1)).ravel() + rng.uniform(0.5, 2.0, n)
    return (off + sp.diags(weight * rng.choice([-1.0, 1.0], n))).tocsr()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 16),
       symmetric=st.booleans(), direction=st.sampled_from(["forward", "backward"]))
def test_sweep_matches_sequential_gauss_seidel(n, density, seed, symmetric, direction):
    # the cached triangular factors give the sequential update, one unknown
    # at a time, to round-off, and the second sweep reuses the first's factor
    a = _dominant(n, density, seed, symmetric)
    rng = np.random.default_rng(seed + 2)
    hier = build_hierarchy(a, [])
    for _ in range(2):
        x, b = rng.normal(size=n), rng.normal(size=n)
        want = oracle.gauss_seidel(a, x, b, direction)
        got = hier.sweep(0, x, b, direction)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_sweeps_on_coarse_levels_match_sequential_gauss_seidel():
    _, a, b, prolongs = poisson_chain(3)
    hier = build_hierarchy(a, prolongs)
    rng = np.random.default_rng(0)
    for k in range(hier.n_levels):
        n = hier.matrices[k].shape[0]
        x, rhs = rng.normal(size=n), rng.normal(size=n)
        for direction in ("forward", "backward"):
            want = oracle.gauss_seidel(hier.matrices[k], x, rhs, direction)
            got = hier.sweep(k, x, rhs, direction)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_zero_diagonal_names_its_level():
    # A_1 = P_0^T A_0 P_0 = diag(0, 1, 1): the fine and coarsest operators are
    # regular, the middle level cannot be smoothed
    a0 = sp.diags([1.0, -1.0, 1.0, 1.0], format="csr")
    p0 = sp.csr_matrix(np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
    p1 = sp.csr_matrix(np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
    hier = build_hierarchy(a0, [p1, p0])
    assert np.array_equal(hier.matrices[1].toarray(), np.diag([0.0, 1.0, 1.0]))
    with pytest.raises(MultilevelError, match=r"^zero diagonal on level 1$"):
        hier.solve(np.ones(4), tol=1e-10)


@pytest.mark.parametrize("a,prolongs", [
    (np.array([[1.0, 1.0], [1.0, 1.0]]), []),
    (np.diag([2.0, 2.0]), [sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))]),
])
def test_singular_coarsest_operator_is_named(a, prolongs):
    # the coarsest operator is factored once, as the hierarchy is built
    with pytest.raises(MultilevelError, match=r"^coarsest factorization failed"):
        build_hierarchy(sp.csr_matrix(a), prolongs)


def test_gauss_seidel_fixed_point():
    hier = build_hierarchy(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), [])
    x = np.array([1.0, 1.0])  # exact solution of a x = (3,3)
    out = hier.sweep(0, x, np.array([3.0, 3.0]), "forward")
    assert np.allclose(out, x)


def test_prolongation_structure():
    # coarse vertices keep their value; every new vertex averages its two
    # parent vertices, so rows are either a single 1 or two entries of 1/2
    mesh = benchmark_poisson("square_sine").mesh_factory(2)
    nvc = mesh.n_vertices
    mesh.uniform_refine()
    p = sp.csr_matrix(prolongation_from_refinement(nvc, mesh, 1)).toarray()
    assert np.allclose(p[:nvc], np.eye(nvc))
    for r in range(nvc, mesh.n_vertices):
        nz = np.flatnonzero(p[r])
        assert np.allclose(p[r, nz], [0.5, 0.5])


def test_prolongation_reproduces_linears():
    mesh = benchmark_poisson("square_sine").mesh_factory(2)
    nvc = mesh.n_vertices
    mesh.uniform_refine()
    p = prolongation_from_refinement(nvc, mesh, 1)
    lin = lambda c: 2.0 * c[:, 0] - 3.0 * c[:, 1] + 1.0
    assert np.allclose(p @ lin(mesh.coords[:nvc]), lin(mesh.coords))


def test_prolongation_vector_components():
    mesh = benchmark_poisson("square_sine").mesh_factory(2)
    nvc = mesh.n_vertices
    mesh.uniform_refine()
    p1 = sp.csr_matrix(prolongation_from_refinement(nvc, mesh, 1))
    p3 = sp.csr_matrix(prolongation_from_refinement(nvc, mesh, 3))
    assert p3.shape == (3 * p1.shape[0], 3 * p1.shape[1])
    # component c of the vector operator is the scalar operator
    d1, d3 = p1.toarray(), p3.toarray()
    for c in range(3):
        assert np.array_equal(d3[c::3][:, c::3], d1)
    assert d3[0::3][:, 1::3].max() == 0.0  # no cross-component coupling


MESHES = {
    "unit_square": lambda: generators.unit_square(2),
    "l_shape": lambda: generators.l_shape(1),
    "annulus": lambda: generators.annulus(1, 6),
    "unit_cube": lambda: generators.unit_cube(1),
    "sphere_in_box": lambda: generators.sphere_in_box(3),
}

# a negative pick counts from the newest live simplex, so that refinement can
# concentrate and the vertex genealogy grow deep
MARKINGS = st.lists(st.lists(st.integers(-6, 10 ** 6), min_size=1, max_size=4),
                    min_size=1, max_size=8)


def _assert_csr_bitwise(p, q):
    assert p.shape == q.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(p, name), getattr(q, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), marking=MARKINGS,
       coeffs=st.lists(st.integers(-8, 8), min_size=4, max_size=4))
def test_prolongation_matches_oracle_and_reproduces_linears(name, marking, coeffs):
    # after every round of a random marking sequence, the one-level and the
    # whole-genealogy prolongation equal the former per-vertex rows bitwise,
    # and both carry a linear field on the coarser vertices to the same
    # linear field on all of them
    mesh = MESHES[name]()
    nv0 = mesh.n_vertices
    slope, offset = np.array(coeffs[:mesh.dim]) / 4.0, coeffs[3] / 4.0
    for picks in marking:
        live = mesh.live_simplices()
        old_nv = mesh.n_vertices
        mesh.refine_marked(sorted({int(live[k if k < 0 else k % len(live)]) for k in picks}))
        for n_coarse in (old_nv, nv0):
            for nc in (1, 3):
                p = prolongation_from_refinement(n_coarse, mesh, nc)
                _assert_csr_bitwise(p, oracle.prolongation_from_refinement(n_coarse, mesh, nc))
                # component c of the field is (c + 1) times the linear function
                lin = np.outer(mesh.coords @ slope + offset, np.arange(1, nc + 1))
                np.testing.assert_allclose(p @ lin[:n_coarse].ravel(), lin.ravel(),
                                           rtol=0.0, atol=1e-12)


def test_prolongation_rejects_more_coarse_than_mesh_vertices():
    mesh = generators.unit_square(1)
    with pytest.raises(MultilevelError, match="more vertices than the mesh"):
        prolongation_from_refinement(mesh.n_vertices + 1, mesh)


def test_prolongation_names_the_first_vertex_without_parents():
    # the initial mesh's vertices have no parent edge; a coarse count one
    # below theirs leaves the last of them to be prolongated
    mesh = generators.unit_square(2)
    nv0 = mesh.n_vertices
    mesh.uniform_refine()
    with pytest.raises(MultilevelError, match=rf"^vertex {nv0 - 1} has no parent edge"):
        prolongation_from_refinement(nv0 - 1, mesh)
    with pytest.raises(MultilevelError, match=r"^vertex 0 has no parent edge"):
        prolongation_from_refinement(0, mesh, 3)


def test_galerkin_product_matches_dense():
    rng = np.random.default_rng(7)
    a = sp.random(30, 30, density=0.3, random_state=0).tocsr() + sp.eye(30) * 5.0
    p = sp.random(30, 12, density=0.4, random_state=1).tocsr()
    g = galerkin_product(a, p)
    assert np.allclose(g.toarray(), p.T.toarray() @ a.toarray() @ p.toarray(), atol=1e-13)


def test_hierarchy_galerkin_identity():
    # stored coarse operators are exactly the triple products of their parents
    _, a, _, prolongs = poisson_chain(3)
    hier = build_hierarchy(a, prolongs)
    assert hier.n_levels == 3
    for k in range(hier.n_levels - 1):
        a_fine = hier.matrices[k]
        p = hier.prolongations[k]
        dense = p.T.toarray() @ a_fine.toarray() @ p.toarray()
        assert np.abs(hier.matrices[k + 1].toarray() - dense).max() < 1e-13


def test_solve_matches_direct():
    for levels in (3, 5):
        _, a, b, prolongs = poisson_chain(levels)
        hier = build_hierarchy(a, prolongs)
        x, rep = hier.solve(b, tol=1e-10)
        ref = spla.spsolve(a.tocsc(), b)
        assert rep.converged and rep.method == "cg"
        assert np.abs(x - ref).max() < 1e-7


def test_iteration_count_level_independent():
    # optimal preconditioning: iteration counts may not blow up with depth
    _, a3, b3, pr3 = poisson_chain(3)
    _, a6, b6, pr6 = poisson_chain(6)
    h3 = build_hierarchy(a3, pr3)
    h6 = build_hierarchy(a6, pr6)
    _, r3 = h3.solve(b3, tol=1e-8)
    _, r6 = h6.solve(b6, tol=1e-8)
    assert r6.iterations <= 2 * max(1, r3.iterations)


def test_nonsymmetric_falls_back_to_tfqmr():
    _, a, b, prolongs = poisson_chain(4)
    an = _nonsymmetric(a)
    hier = build_hierarchy(an, prolongs)
    x, rep = hier.solve(b, tol=1e-10)
    assert rep.method == "bicgstab" and rep.converged
    assert np.abs(x - spla.spsolve(an.tocsc(), b)).max() < 1e-6


def _nonsymmetric(a):
    s = sp.random(a.shape[0], a.shape[0], density=0.001, random_state=3) * 0.05
    return (a + s - s.T).tocsr()


@pytest.mark.parametrize("method", ["cg", "bicgstab"])
def test_iterations_count_v_cycles(method):
    _, a, b, prolongs = poisson_chain(4)
    hier = build_hierarchy(a if method == "cg" else _nonsymmetric(a), prolongs)
    levels, v_cycle = [], hier.v_cycle
    hier.v_cycle = lambda r, level=0: levels.append(level) or v_cycle(r, level)
    _, rep = hier.solve(b, tol=1e-10)
    assert rep.method == method
    assert rep.iterations == levels.count(0) > 0


UNREACHED = (r"did not reach the relative residual {}: \|b - Ax\| = \S+ > tol \|b\| = \S+ "
             r"after \d+ V-cycles \(scipy info -?\d+\)$")


@pytest.mark.parametrize("method", ["cg", "bicgstab"])
def test_unreachable_tolerance_is_a_named_error(method):
    # a zero residual is out of reach: CG runs into its iteration cap (its
    # recurrence breaks down to NaN on the way), BiCGSTAB into breakdowns
    _, a, b, prolongs = poisson_chain(3)
    hier = build_hierarchy(a if method == "cg" else _nonsymmetric(a), prolongs)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            MultilevelError, match=f"^{method} " + UNREACHED.format(r"0\.0e\+00")):
        hier.solve(b, tol=0.0)


@pytest.mark.parametrize("method", ["cg", "bicgstab"])
def test_convergence_is_judged_on_the_true_residual(method):
    # scipy tests its recursively updated residual, which keeps falling below
    # the true one: at tol 1e-30 it reports success where |b - Ax| / |b| stays
    # near 3e-16.  The solve goes on from x until its V-cycle budget is spent
    _, a, b, prolongs = poisson_chain(3)
    a = a if method == "cg" else _nonsymmetric(a)
    hier = build_hierarchy(a, prolongs)
    x, rep = hier.solve(b, tol=1e-12)
    assert rep.method == method
    assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            MultilevelError, match=f"^{method} " + UNREACHED.format(r"1\.0e-30")) as err:
        hier.solve(b, tol=1e-30)
    assert int(re.search(r"after (\d+) V-cycles", str(err.value)).group(1)) >= MAX_ITERATIONS


def test_bicgstab_spends_the_v_cycle_budget_not_twice_it():
    # each BiCGSTAB iteration applies the V-cycle twice, so scipy gets half
    # the remaining budget in iterations, rounded up
    _, a, b, prolongs = poisson_chain(3)
    s = sp.random(a.shape[0], a.shape[0], density=0.05, random_state=3) * 50
    hier = build_hierarchy((a + s - s.T).tocsr(), prolongs)
    with pytest.raises(MultilevelError, match="^bicgstab " + UNREACHED.format(r"1\.0e-10")) as err:
        hier.solve(b, tol=1e-10)
    cycles = int(re.search(r"after (\d+) V-cycles", str(err.value)).group(1))
    assert MAX_ITERATIONS <= cycles <= MAX_ITERATIONS + 1


def test_single_level_is_exact_preconditioner():
    # one level: every V-cycle is the coarsest direct solve, so the Krylov
    # wrapper converges immediately
    _, a, b, _ = poisson_chain(2, n0=2)
    hier = build_hierarchy(a, [])
    assert hier.n_levels == 1
    x, rep = hier.solve(b, tol=1e-12)
    assert rep.converged and rep.iterations <= 2
    assert np.abs(a @ x - b).max() < 1e-10
