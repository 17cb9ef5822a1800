"""Quadrature rules and the linear element."""
import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

import pointwise_oracle as oracle
from afem.elements import (_GAUSS, REF_GRADS, QuadratureRule, default_rule, face_rule,
                           fine_rule)

REF_VOLUME = {2: 0.5, 3: 1.0 / 6.0}


def monomial_integral_2d(a, b):
    # int over reference triangle of x^a y^b = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def monomial_integral_3d(a, b, c):
    return (math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 3))


def rule_integrates(rule, dim, powers):
    q = rule.points
    val = float(rule.weights @ np.prod(q ** np.array(powers), axis=1))
    exact = monomial_integral_2d(*powers) if dim == 2 else monomial_integral_3d(*powers)
    return abs(val - exact)


def test_default_rule_weights_sum_to_volume():
    for dim in (2, 3):
        r = default_rule(dim)
        assert abs(r.weights.sum() - REF_VOLUME[dim]) < 1e-14
        assert r.barycentric.min() >= 0.0


def test_default_rule_degree_two():
    for dim in (2, 3):
        r = default_rule(dim)
        for powers in np.ndindex(*(3,) * dim):
            if sum(powers) <= 2:
                assert rule_integrates(r, dim, powers) < 1e-14, powers


def test_fine_rule_degree():
    # conical product with n points per axis integrates degree 2n-1 exactly
    for dim in (2, 3):
        for n in (2, 4):
            r = fine_rule(dim, n)
            deg = 2 * n - 1
            for powers in np.ndindex(*(deg + 1,) * dim):
                if sum(powers) <= deg:
                    assert rule_integrates(r, dim, powers) < 1e-12, (n, powers)


def test_fine_rule_positive_interior():
    for dim in (2, 3):
        r = fine_rule(dim, 4)
        assert (r.weights > 0).all()
        assert r.barycentric.min() > 0.0


def test_face_rule_measures():
    # faces are (dim-1)-simplices: the segment rule sums to 1, the triangle
    # rule (used for tetrahedron faces) sums to the reference area 1/2
    assert abs(face_rule(2).weights.sum() - 1.0) < 1e-14
    assert abs(face_rule(3).weights.sum() - 0.5) < 1e-14


def test_face_rule_gauss_exactness():
    r = face_rule(2, 3)
    for p in range(6):  # degree 2n-1 = 5 on the segment
        val = float(r.weights @ (r.points[:, 0] ** p))
        assert abs(val - 1.0 / (p + 1)) < 1e-14


@pytest.mark.parametrize("alpha, n", [(a, n) for a in (0, 1, 2) for n in (2, 3, 4)])
def test_gauss_tables_are_bitwise_scipy(alpha, n):
    # the literal tables are the repr of what scipy computes
    x, w = roots_legendre(n) if alpha == 0 else roots_jacobi(n, alpha, 0.0)
    tx, tw = (np.array(v) for v in _GAUSS[alpha, n])
    assert tx.tobytes() == x.tobytes() and tw.tobytes() == w.tobytes()


def test_gauss_tables_hold_exactly_the_tabulated_rules():
    assert sorted(_GAUSS) == [(a, n) for a in (0, 1, 2) for n in (2, 3, 4)]


@pytest.mark.parametrize("rule, args", [(fine_rule, (2, 5)), (fine_rule, (3, 1)),
                                        (face_rule, (2, 7))])
def test_untabulated_gauss_rule_is_a_named_error(rule, args):
    n = args[1]
    with pytest.raises(ValueError, match=f"^no Gauss rule with n = {n} points; "
                                         r"the tables hold n = 2, 3, 4$"):
        rule(*args)


@pytest.mark.parametrize("rule, args", [(default_rule, (2,)), (fine_rule, (3,)),
                                        (fine_rule, (2, 3)), (face_rule, (2,)),
                                        (face_rule, (3, 2))])
def test_rules_are_built_once_and_read_only(rule, args):
    r = rule(*args)
    assert rule(*args) is r
    for arr in (r.points, r.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_linear_element_basis_partition():
    for dim in (2, 3):
        pts = np.vstack([np.zeros(dim), np.eye(dim)])
        vals = default_rule(dim).barycentric
        assert np.allclose(vals.sum(axis=1), 1.0)
        nodal = QuadratureRule(pts, np.ones(dim + 1)).barycentric
        assert np.allclose(nodal, np.eye(dim + 1))  # basis i is 1 at vertex i
        assert REF_GRADS[dim].sum(axis=0) == pytest.approx(np.zeros(dim).tolist())
        with pytest.raises(ValueError, match="read-only"):
            REF_GRADS[dim][0, 0] = 0.0


def test_geometry_affine_map():
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 2.0]])
    geo = oracle.ElementGeometry.of(pts)
    assert abs(geo.volume() - 1.0) < 1e-14
    assert np.allclose(geo.to_physical(np.array([[0.0, 0.0]])), [[1.0, 1.0]])
    assert np.allclose(geo.to_physical(np.array([[1.0, 0.0]])), [[3.0, 1.0]])
    # physical gradient of basis 1 (x-direction vertex): 1/2 in x
    g = REF_GRADS[2] @ geo.inv_t.T
    assert np.allclose(g[1], [0.5, 0.0])


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        default_rule(1)
