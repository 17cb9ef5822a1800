"""The data contract of `afem.problem.sample` and the built-in data written
for it.

A datum declared with `batched` takes the points x (N, d) and returns
(N,) + shape values; `sample` calls it once per block and checks the shape
exactly.  Any other callable is a function of one point, called once per
point.  Every datum of the built-in problems is declared, and each matches its
former one-point form, kept in `pointwise_oracle.py`, to 1e-14 relative at
random points of its domain.
"""
import math
import re

import numpy as np
import pytest

import pointwise_oracle as oracle
from afem import generators
from afem.config import RunConfig, build_problem
from afem.problem import ProblemError, batched, sample
from afem.problems import (BUILT_IN, PHI_FLOOR, ConstraintCoefficients, coupled_forms,
                           hamiltonian_forms, momentum_forms)
from test_sample_rows import Counting

COEFFICIENT_FIELDS = ("Rhat", "trK", "trK_grad", "Ahat", "rho", "jhat", "robin_c", "robin_z",
                      "robin_C", "robin_Z", "dirichlet_f", "dirichlet_F")


# ------------------------------------------------------------------ contract

@batched
def scalar_datum(x):
    return 1.0


@batched
def flat_datum(x):
    return x[:, 0]


@batched
def transposed_datum(x):
    return x[:, :1].T


@pytest.mark.parametrize("datum, got", [(scalar_datum, ()), (flat_datum, (5,)),
                                        (transposed_datum, (1, 5))])
def test_wrong_shape_names_the_datum_and_both_shapes(datum, got):
    x = np.random.default_rng(0).random((5, 2))
    with pytest.raises(ProblemError, match=re.escape(datum.__name__)) as err:
        sample(datum, x, (1,))
    assert f"shape {got}" in str(err.value) and "expected (5, 1)" in str(err.value)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_declared_datum_is_one_call_on_all_points(n):
    # n = 1, n = d and n != d all give the per-point values
    x = np.random.default_rng(n).random((n, 2))
    f = Counting(batched(lambda x: np.stack([x[:, 0] + 2.0 * x[:, 1], x[:, 0] * x[:, 1]],
                                            axis=1)))
    got = sample(f, x, (2,))
    assert f.calls == 1
    np.testing.assert_array_equal(got, [(p[0] + 2.0 * p[1], p[0] * p[1]) for p in x])


def test_empty_block_makes_no_call():
    f = Counting(batched(lambda x: np.ones((len(x), 1))))
    assert sample(f, np.empty((0, 3)), (1,)).shape == (0, 1)
    assert f.calls == 0


def test_undeclared_callable_is_called_per_point():
    # at N = d a one-point `x[0]` would return a row of the right shape from
    # the whole block; undeclared, it is called once per point instead
    x = np.array([[0.25, 0.5], [0.75, 1.0]])
    np.testing.assert_array_equal(sample(lambda p: p[0], x), [0.25, 0.75])


def test_undeclared_math_callable_runs_unchanged():
    x = np.random.default_rng(1).random((7, 2))
    got = sample(lambda p: math.hypot(p[0], p[1]), x)
    np.testing.assert_array_equal(got, [math.hypot(*p) for p in x])


def test_dirichlet_vector_names_the_first_bad_point():
    coeffs = ConstraintCoefficients(dim=2, dirichlet_f=batched(lambda x: 0.5 - x[:, 0]))
    x = np.array([[0.1, 0.0], [0.7, 0.2], [0.9, 0.3]])
    with pytest.raises(ProblemError, match=re.escape("at (0.7, 0.2)")):
        coeffs.dirichlet_vector(x)
    np.testing.assert_array_equal(coeffs.dirichlet_vector(x[:1]), [[0.4, 0.0, 0.0]])


@pytest.mark.parametrize("f", [PHI_FLOOR, 1e-7])
def test_dirichlet_vector_rejects_data_at_or_below_the_phi_floor(f):
    # boundary data the potential would clamp: the solve could not keep it
    x = np.array([[0.1, 0.0], [0.7, 0.2]])
    with pytest.raises(ProblemError, match=re.escape(
            f"dirichlet_f must lie above the phi floor {PHI_FLOOR}, got {f} at (0.1, 0.0)")):
        ConstraintCoefficients(dim=2, dirichlet_f=f).dirichlet_vector(x)
    above = np.nextafter(PHI_FLOOR, 1.0)
    np.testing.assert_array_equal(
        ConstraintCoefficients(dim=2, dirichlet_f=above).dirichlet_vector(x)[:, 0], above)


# -------------------------------------------------- built-in data vs oracle

# the gaussian coefficient specs (amp, width), centred at (0.5, ..., 0.5)
GAUSSIANS = {"Rhat": (0.3, 0.4), "rho": (0.05, 0.5), "dirichlet_f": (1.0, 2.0)}


def _specs(dim):
    center = " ".join(["0.5"] * dim)
    return dict({k: f"gaussian:amp={a},width={w},center={center}"
                 for k, (a, w) in GAUSSIANS.items()}, robin_c="const:0.7")


def _built(name, dim):
    cfg = RunConfig(problem=name, dim=dim)
    if "coefficients" in BUILT_IN[name].reads:
        cfg.coefficients = _specs(dim)
    return build_problem(cfg)


def _demo(forms, dim):
    return forms(oracle.demo_constraint_coefficients(dim))


def _data(problem):
    """Every datum a problem carries, by name."""
    out = {"dirichlet": problem.dirichlet, "exact": problem.exact,
           "exact_grad": problem.exact_grad}
    coeffs = problem.constraint_coefficients
    if coeffs is not None:
        out.update({f"coeff.{k}": getattr(coeffs, k) for k in COEFFICIENT_FIELDS})
    return out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", BUILT_IN)
def test_builtin_problems_carry_only_declared_data(name, dim):
    # a built-in datum that falls back to one call per point fails here
    problem = _built(name, dim)
    undeclared = [k for k, v in _data(problem).items()
                  if callable(v) and getattr(v, "batched", False) is not True]
    assert not undeclared


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("forms", [hamiltonian_forms, momentum_forms, coupled_forms])
def test_demo_coefficients_carry_only_declared_data(forms, dim):
    undeclared = [k for k, v in _data(_demo(forms, dim)).items()
                  if callable(v) and getattr(v, "batched", False) is not True]
    assert not undeclared


def _poisson(variant):
    exact, grad = oracle.poisson_data(variant)
    return {"exact": exact, "exact_grad": grad, "dirichlet": exact}


def _trivial(dim, coupled):
    exact, grad = oracle.trivial_data(dim, coupled)
    return {"exact": exact, "exact_grad": grad}


def _gaussians(dim):
    return {f"coeff.{k}": oracle.gaussian(a, w, np.full(dim, 0.5))
            for k, (a, w) in GAUSSIANS.items()}


def _manufactured_momentum():
    exact, grad, jhat = oracle.momentum_manufactured_data()
    return {"exact": exact, "exact_grad": grad, "coeff.jhat": jhat}


# case -> (problem, its domain mesh, the one-point originals of its data by
# name); a constraint form's dirichlet data is added by `_references`
CASES = {
    "square_sine": lambda: (_built("square_sine", 2), generators.unit_square(2),
                            _poisson("square_sine")),
    "cube_sine": lambda: (_built("cube_sine", 3), generators.unit_cube(2),
                          _poisson("cube_sine")),
    "corner_singularity": lambda: (_built("corner_singularity", 2), generators.l_shape(2),
                                   _poisson("corner_singularity")),
    "bratu": lambda: (_built("bratu", 2), generators.unit_square(2),
                      {"dirichlet": oracle.bratu_dirichlet}),
    "hamiltonian_trivial_2d": lambda: (_built("hamiltonian_trivial", 2),
                                       generators.unit_square(2), _trivial(2, False)),
    "hamiltonian_trivial_3d": lambda: (_built("hamiltonian_trivial", 3),
                                       generators.unit_cube(2), _trivial(3, False)),
    "coupled_trivial_2d": lambda: (_built("coupled_trivial", 2), generators.unit_square(2),
                                   _trivial(2, True)),
    "coupled_trivial_3d": lambda: (_built("coupled_trivial", 3), generators.unit_cube(2),
                                   _trivial(3, True)),
    "hamiltonian_manufactured": lambda: (
        _built("hamiltonian_manufactured", 2), generators.unit_square(2),
        dict(zip(("exact", "exact_grad"), oracle.hamiltonian_manufactured_data()))),
    "momentum_manufactured": lambda: (_built("momentum_manufactured", 3),
                                      generators.unit_cube(2), _manufactured_momentum()),
    **{f"{name}_{dim}d": (lambda name=name, dim=dim: (
        _built(name, dim), generators.unit_square(2) if dim == 2 else generators.unit_cube(2),
        _gaussians(dim)))
       for name, b in BUILT_IN.items() if "coefficients" in b.reads for dim in (2, 3)},
    **{f"demo_{forms.__name__}_{dim}d": (lambda forms=forms, dim=dim: (
        _demo(forms, dim), generators.annulus(2, 12) if dim == 2 else generators.unit_cube(2),
        {"coeff.rho": oracle.demo_rho(dim)}))
       for forms in (hamiltonian_forms, momentum_forms, coupled_forms) for dim in (2, 3)},
}


def _references(problem, originals):
    if problem.constraint_coefficients is not None and "dirichlet" not in originals:
        originals = dict(originals, dirichlet=oracle.forms_dirichlet(problem))
    return originals


def _random_points(mesh, n, rng):
    """n points drawn uniformly in random live simplices of mesh."""
    tab = mesh.tables()
    rows = rng.integers(len(tab.ids), size=n)
    lam = rng.dirichlet(np.ones(mesh.dim + 1), size=n)
    return np.einsum("nk,nkd->nd", lam, mesh.coords[tab.verts[rows]])


def _shape(key, nc, d):
    return {"dirichlet": (nc,), "exact": (nc,), "exact_grad": (nc, d),
            "coeff.jhat": (d,)}.get(key, ())


@pytest.mark.parametrize("case", sorted(CASES))
def test_ported_data_match_pointwise_originals(case):
    problem, mesh, originals = CASES[case]()
    originals = _references(problem, originals)
    data = _data(problem)
    x = _random_points(mesh, 200, np.random.default_rng(7))
    for key, ref_fn in originals.items():
        shape = _shape(key, problem.n_components, mesh.dim)
        got, ref = sample(data[key], x, shape), sample(ref_fn, x, shape)
        scale = max(float(np.abs(ref).max()), 1e-300)
        assert float(np.abs(got - ref).max()) <= 1e-14 * scale, key
