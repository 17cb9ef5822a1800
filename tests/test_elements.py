"""Quadrature rules and the linear element."""
import math

import numpy as np
import pytest

from afem.elements import (ElementGeometry, QuadratureRule, default_rule, face_rule, fine_rule,
                           linear_element)

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


def test_linear_element_basis_partition():
    for dim in (2, 3):
        el = linear_element(dim)
        pts = np.vstack([np.zeros(dim), np.eye(dim)])
        vals = el.rule.barycentric
        assert np.allclose(vals.sum(axis=1), 1.0)
        nodal = QuadratureRule(pts, np.ones(dim + 1)).barycentric
        assert np.allclose(nodal, np.eye(dim + 1))  # basis i is 1 at vertex i
        assert el.grad_ref().sum(axis=0) == pytest.approx(np.zeros(dim).tolist())


def test_geometry_affine_map():
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 2.0]])
    geo = ElementGeometry.of(pts)
    assert abs(geo.volume() - 1.0) < 1e-14
    assert np.allclose(geo.to_physical(np.array([[0.0, 0.0]])), [[1.0, 1.0]])
    assert np.allclose(geo.to_physical(np.array([[1.0, 0.0]])), [[3.0, 1.0]])
    # physical gradient of basis 1 (x-direction vertex): 1/2 in x
    g = linear_element(2).grad_ref() @ geo.inv_t.T
    assert np.allclose(g[1], [0.5, 0.0])


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        linear_element(4)
    with pytest.raises(ValueError):
        default_rule(1)
