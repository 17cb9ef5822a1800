"""Reference elements and quadrature rules on simplices.

Points live in reference coordinates (vertices at the origin and the unit
axis points); barycentric coordinates are (1 - sum, xi_1, ..., xi_d).  Weights
always sum to the reference simplex volume (1/2 in 2D, 1/6 in 3D), so physical
integrals scale by |det J| alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, d) reference coordinates
    weights: np.ndarray  # (nq,)

    @property
    def barycentric(self) -> np.ndarray:
        lam0 = 1.0 - self.points.sum(axis=1, keepdims=True)
        return np.hstack([lam0, self.points])


def default_rule(dim: int) -> QuadratureRule:
    """Degree-2 exact rules: 3 edge midpoints in 2D, the 4 symmetric interior
    points in 3D.  This is the element default for residuals and Jacobians.
    """
    if dim == 2:
        pts = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        w = np.full(3, 1.0 / 6.0)
    elif dim == 3:
        a = (5.0 - math.sqrt(5.0)) / 20.0
        b = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
        pts = np.array([
            [a, a, a],
            [b, a, a],
            [a, b, a],
            [a, a, b],
        ])
        w = np.full(4, 1.0 / 24.0)
    else:
        raise ValueError(f"no rule for dimension {dim}")
    return QuadratureRule(pts, w)


def _gauss01(n: int):
    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(n: int, alpha: int):
    # integrates f(u) (1-u)^alpha on [0,1] exactly for f up to degree 2n-1
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def fine_rule(dim: int, n: int = 4) -> QuadratureRule:
    """Conical-product Gauss rule, exact to degree 2n-1 (default 7).

    Used for error measurement and goal functionals, where the element default
    would pollute observed convergence rates.
    """
    if dim == 2:
        u1, w1 = _jacobi01(n, 1)
        u2, w2 = _gauss01(n)
        pts, ws = [], []
        for a, wa in zip(u1, w1):
            for b, wb in zip(u2, w2):
                pts.append((a, b * (1.0 - a)))
                ws.append(wa * wb)
        return QuadratureRule(np.array(pts), np.array(ws))
    if dim == 3:
        u1, w1 = _jacobi01(n, 2)
        u2, w2 = _jacobi01(n, 1)
        u3, w3 = _gauss01(n)
        pts, ws = [], []
        for a, wa in zip(u1, w1):
            for b, wb in zip(u2, w2):
                for c, wc in zip(u3, w3):
                    pts.append((a, b * (1.0 - a), c * (1.0 - a) * (1.0 - b)))
                    ws.append(wa * wb * wc)
        return QuadratureRule(np.array(pts), np.array(ws))
    raise ValueError(f"no rule for dimension {dim}")


def face_rule(dim: int, n: int = 3) -> QuadratureRule:
    """Rule on a reference face (segment in 2D, triangle in 3D); weights sum to
    the reference face volume (1 for the segment, 1/2 for the triangle)."""
    if dim == 2:
        u, w = _gauss01(n)
        return QuadratureRule(u.reshape(-1, 1), w)
    if dim == 3:
        return fine_rule(2, n)
    raise ValueError(f"no face rule for dimension {dim}")


@dataclass(frozen=True)
class ElementDef:
    """Linear nodal simplex element: its rule, whose barycentric coordinates
    are the basis values at the rule points, and the basis gradients in
    reference coordinates."""

    dim: int
    rule: QuadratureRule

    def grad_ref(self) -> np.ndarray:
        """(d+1, dim) constant reference gradients of the linear basis."""
        g = np.zeros((self.dim + 1, self.dim))
        g[0, :] = -1.0
        g[1:, :] = np.eye(self.dim)
        return g


def linear_element(dim: int) -> ElementDef:
    """The default element: linear nodal basis with the degree-2 rule."""
    if dim not in (2, 3):
        raise ValueError(f"no element for dimension {dim}")
    return ElementDef(dim, default_rule(dim))


@dataclass
class ElementGeometry:
    """Affine map of one simplex: x = p0 + J xi."""

    pts: np.ndarray
    jac: np.ndarray
    det: float
    inv_t: np.ndarray  # J^{-T}, pushes reference gradients forward

    @classmethod
    def of(cls, pts: np.ndarray) -> "ElementGeometry":
        pts = np.asarray(pts, dtype=float)
        jac = (pts[1:] - pts[0]).T
        det = float(np.linalg.det(jac))
        inv_t = np.linalg.inv(jac).T
        return cls(pts, jac, det, inv_t)

    def to_physical(self, ref_points: np.ndarray) -> np.ndarray:
        return self.pts[0] + np.atleast_2d(ref_points) @ self.jac.T

    def volume(self) -> float:
        d = self.pts.shape[1]
        return self.det / (2.0 if d == 2 else 6.0)
