"""Assembly, indicators and error measurement against the per-point oracle.

`pointwise_oracle.py` keeps the loops that walked the mesh on their own and
reaches the batched callbacks one point at a time.  The library evaluates
every block of points in one call over the element and face rows of
`Mesh.tables()` and sums each entry in the order of those loops, so on meshes
without flux faces the results must be bitwise equal.  On the annulus with a
flux-flagged outer circle the Robin terms are compared to 1e-12 relative;
there each constraint form runs with its Robin and source data set.  The
curated cases are repeated on random marking sequences.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
from afem import generators
from afem.assembly import assemble_jacobian, assemble_residual, measure_error
from afem.indicators import _functional_load, dual_indicator, residual_indicator, solve_dual
from afem.mesh import DIRICHLET, NEUMANN
from afem.problems import (ConstraintCoefficients, benchmark_bratu, benchmark_poisson,
                           coupled_forms, hamiltonian_forms, hamiltonian_manufactured,
                           momentum_forms, momentum_manufactured)


def _outer_flux(c):
    return NEUMANN if np.hypot(c[0], c[1]) > 0.75 else DIRICHLET


def _annulus(forms, **data):
    """A constraint form on the annulus with a flux-flagged outer circle."""
    return (forms(ConstraintCoefficients(dim=2, **data)),
            generators.annulus(1, 6, boundary=_outer_flux))


CASES = {
    "square_sine": lambda: (benchmark_poisson("square_sine"), generators.unit_square(2)),
    "cube_sine": lambda: (benchmark_poisson("cube_sine"), generators.unit_cube(1)),
    "bratu": lambda: (benchmark_bratu(), generators.unit_square(2)),
    "hamiltonian_manufactured": lambda: (hamiltonian_manufactured(), generators.unit_square(2)),
    "momentum_manufactured": lambda: (momentum_manufactured(), generators.unit_cube(1)),
    "coupled_annulus": lambda: _annulus(coupled_forms, Rhat=0.3, trK=0.2, rho=0.4,
                                        robin_c=0.7, robin_z=0.5),
    "hamiltonian_annulus": lambda: _annulus(
        hamiltonian_forms, Rhat=0.3, rho=0.4, Ahat=np.array([[0.3, 0.1], [0.1, -0.3]]),
        trK=lambda x: 0.2 + 0.1 * x[0], trK_grad=lambda x: np.array([0.1, 0.0]),
        robin_c=0.7, robin_z=lambda x: 0.5 + 0.1 * x[1]),
    "momentum_annulus": lambda: _annulus(
        momentum_forms, trK=lambda x: 0.2 + 0.1 * x[0] * x[1],
        trK_grad=lambda x: np.array([0.1 * x[1], 0.1 * x[0]]),
        jhat=lambda x: np.array([0.01 * x[1], -0.02]),
        robin_C=np.array([[0.7, 0.1], [0.1, 0.5]]),
        robin_Z=lambda x: np.array([0.2, -0.1 * x[0]])),
}


def _state(name):
    """Problem, twice adaptively refined mesh, and a smooth nonpolynomial
    field with a positive first component (the constraint forms need phi > 0)."""
    problem, mesh = CASES[name]()
    for _ in range(2):
        live = mesh.live_simplices()
        mesh.refine_marked(live[: max(1, len(live) // 3)])
    nc = problem.n_components
    return problem, mesh, oracle.interpolate(mesh, _field(nc), nc)


def _field(nc):
    def field(x):
        return np.array([1.2 + 0.3 * math.sin(1.3 * x[0] + 2.1 * x[-1] + c)
                         for c in range(nc)])

    return field


def _flux(mesh):
    return bool(np.any(mesh.sflags[mesh.live_simplices()] == NEUMANN))


def _same(new, ref, exact):
    new, ref = np.asarray(new, dtype=float), np.asarray(ref, dtype=float)
    if exact:
        np.testing.assert_array_equal(new, ref)
    else:
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert float(np.max(np.abs(new - ref))) <= 1e-12 * scale


def _assembly_matches(problem, u, exact):
    mesh = u.mesh
    _same(assemble_residual(problem, u), oracle.assemble_residual(problem, u), exact)
    a, b = assemble_jacobian(problem, u), oracle.assemble_jacobian(problem, u)
    if exact:
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
    _same(a.toarray(), b.toarray(), exact)
    if problem.exact is not None:
        _same(measure_error(mesh, u, problem.exact, problem.exact_grad),
              oracle.measure_error(mesh, u, problem.exact, problem.exact_grad), True)


def _indicators_match(problem, u, exact, eta_exact, ps=(1.0, 2.0)):
    mesh = u.mesh
    for p in ps:
        new, ref = residual_indicator(problem, u, p), oracle.residual_indicator(problem, u, p)
        assert sorted(new.eta) == sorted(ref.eta)
        _same([new.eta[s] for s in ref.eta], list(ref.eta.values()), eta_exact)

    psi = oracle.domain_average(mesh, problem.n_components)
    weights = solve_dual(problem, u, psi)
    fine = weights.fine_mesh
    _same(_functional_load(fine, psi, problem.n_components),
          oracle.functional_load(fine, psi, problem.n_components), True)
    (new, est), (ref, ref_est) = (dual_indicator(problem, u, weights),
                                  oracle.dual_indicator(problem, u, weights))
    assert sorted(new.eta) == sorted(ref.eta)
    _same([new.eta[s] for s in ref.eta] + [est], list(ref.eta.values()) + [ref_est], exact)


@pytest.mark.parametrize("name", sorted(CASES))
def test_assembly_matches_pointwise_oracle(name):
    problem, mesh, u = _state(name)
    exact = not _flux(mesh)
    assert exact == (not name.endswith("_annulus"))
    _assembly_matches(problem, u, exact)


@pytest.mark.parametrize("name", sorted(CASES))
def test_indicators_match_pointwise_oracle(name):
    problem, mesh, u = _state(name)
    exact = not _flux(mesh)
    _indicators_match(problem, u, exact, exact)


RANDOM = {
    "l_shape": lambda: (benchmark_poisson("corner_singularity"), generators.l_shape(1)),
    "annulus": CASES["coupled_annulus"],
    "unit_cube": lambda: (benchmark_poisson("cube_sine"), generators.unit_cube(1)),
}

MARKINGS = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
                    min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(RANDOM)), marking=MARKINGS)
def test_random_refinements_match_pointwise_oracle(name, marking):
    # after every refinement of a random marking sequence, at the tolerances
    # of the curated cases above, except for the residual indicator: its
    # h^p and eta = (...)^(1/p) are numpy powers, which round differently
    # from the libm pow of the oracle's scalar `**` on about 1% of elements
    problem, mesh = RANDOM[name]()
    nc = problem.n_components
    exact = not _flux(mesh)
    assert exact == (name != "annulus")
    for picks in marking:
        live = mesh.live_simplices()
        mesh.refine_marked(sorted({int(live[p % len(live)]) for p in picks}))
        u = oracle.interpolate(mesh, _field(nc), nc)
        _assembly_matches(problem, u, exact)
        _indicators_match(problem, u, exact, False, ps=(2.0,))
