"""Quadrature rules on simplices and the reference basis gradients.

Points live in reference coordinates (vertices at the origin and the unit
axis points); barycentric coordinates are (1 - sum, xi_1, ..., xi_d).  Weights
always sum to the reference simplex volume (1/2 in 2D, 1/6 in 3D), so physical
integrals scale by |det J| alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray   # (nq, d) reference coordinates
    weights: np.ndarray  # (nq,)

    @property
    def barycentric(self) -> np.ndarray:
        lam0 = 1.0 - self.points.sum(axis=1, keepdims=True)
        return np.hstack([lam0, self.points])


def _shared(pts, w) -> QuadratureRule:
    """A rule that every caller shares: its arrays are read-only, so an
    in-place write fails."""
    rule = QuadratureRule(np.array(pts, dtype=float), np.array(w, dtype=float))
    rule.points.flags.writeable = rule.weights.flags.writeable = False
    return rule


# (d+1, d) reference gradients of the linear nodal basis, whose values at a
# rule's points are its barycentric coordinates; read-only, like the rules.
REF_GRADS = {d: np.vstack([np.full((1, d), -1.0), np.eye(d)]) for d in (2, 3)}
for _g in REF_GRADS.values():
    _g.flags.writeable = False


# Each rule below is built once per argument tuple and shared.

@cache
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
    return _shared(pts, w)


# Gauss nodes and weights on [-1, 1] for the weight (1 - x)^alpha, keyed
# (alpha, n): Gauss-Legendre for alpha = 0, Gauss-Jacobi for alpha = 1, 2.  Each
# float is the repr of scipy.special's roots_legendre(n) or roots_jacobi(n, alpha, 0).
_GAUSS = {
    (0, 2): ([-0.5773502691896257, 0.5773502691896257], [1.0, 1.0]),
    (0, 3): ([-0.7745966692414834, 0.0, 0.7745966692414834],
             [0.5555555555555558, 0.8888888888888883, 0.5555555555555558]),
    (0, 4): ([-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526],
             [0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538]),
    (1, 2): ([-0.6898979485566357, 0.2898979485566358], [1.2721655269759087, 0.7278344730240913]),
    (1, 3): ([-0.8228240809745921, -0.1810662711185305, 0.5753189235216941],
             [0.8037276549558384, 0.9169644254383448, 0.2793079196058167]),
    (1, 4): ([-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389],
             [0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234]),
    (2, 2): ([-0.754970354689117, 0.08830368802245062], [1.860379610028064, 0.8062870566386026]),
    (2, 3): ([-0.8540119518537006, -0.30599246792329643, 0.41000441977699675],
             [1.2570908885190917, 1.169970154078929, 0.23960562406864572]),
    (2, 4): ([-0.9029989011060054, -0.5227985248962753, 0.03409459020873491, 0.5917028357935458],
             [0.8871073248902219, 1.1476703183937156, 0.5490710973833848, 0.08281792599934465]),
}


def _jacobi01(n: int, alpha: int):
    # integrates f(u) (1-u)^alpha on [0,1] exactly for f up to degree 2n-1
    if (alpha, n) not in _GAUSS:
        raise ValueError(f"no Gauss rule with n = {n} points; the tables hold n = 2, 3, 4")
    x, w = (np.array(v) for v in _GAUSS[alpha, n])
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def _gauss01(n: int):
    return _jacobi01(n, 0)


@cache
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
        return _shared(pts, ws)
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
        return _shared(pts, ws)
    raise ValueError(f"no rule for dimension {dim}")


@cache
def face_rule(dim: int, n: int = 3) -> QuadratureRule:
    """Rule on a reference face (segment in 2D, triangle in 3D); weights sum to
    the reference face volume (1 for the segment, 1/2 for the triangle)."""
    if dim == 2:
        u, w = _gauss01(n)
        return _shared(u.reshape(-1, 1), w)
    if dim == 3:
        return fine_rule(2, n)
    raise ValueError(f"no face rule for dimension {dim}")
