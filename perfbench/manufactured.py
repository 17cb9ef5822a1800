"""Manufactured solution of the coupled (phi, W) constraint system on the annulus.

The data are derived symbolically so that a chosen smooth pair (phi*, W*) is
the exact solution of the system `afem.problems.coupled_forms` discretises:

    -lap phi + (1/8) Rhat phi + (1/12) trK^2 phi^5 - (1/8) |LW|^2 phi^-7 = 0
    -div LW + (2/3) phi^6 grad trK + 8 pi jhat                           = 0

with LW = 2 sym(grad W) - (2/3) (div W) I (the operator the library uses in
every dimension), rho = 0 and Ahat = 0.  Rhat and jhat absorb the defect.
The inner circle (r = 0.5) is Dirichlet with data (phi*, W*); the outer
circle (r = 1) is Robin, grad phi . n + phi - z = 0 and LW n + W - Z = 0,
with z and Z built from the normal of the polygon chord the point lies on,
so the pair is exact on the discrete (polygonal) domain as well.

    phi*(x) = 1.4 + 0.3 sin(2 xi) cos(1.5 eta)
    W*(x)   = R(alpha) (0.2 sin(2 eta), 0.2 cos(1.5 xi))
    trK(x)  = 1 + 0.5 xi

where (xi, eta) = R(alpha)^T x.  The rotation angle alpha is the one free
parameter; the seed chooses it.  phi* stays in [1.1, 1.7], well above the
positivity floor, LW* and grad trK are nonzero, so both cross blocks of the
Jacobian are active.

Nothing here imports afem: the checker uses `exact` and `exact_grad` as the
independent reference, and `coefficients` hands the same data to the library.
"""

from __future__ import annotations

import math
import random

import numpy as np

R_INNER = 0.5
R_OUTER = 1.0
N_R = 2          # initial annulus: radial cells
N_T = 12         # initial annulus: sectors (the outer polygon has N_T chords)


def rotation_angle(seed: int) -> float:
    return 2.0 * math.pi * random.Random(seed).random()


def chord_normal(x, y):
    """Outward unit normal of the outer-polygon chord through (x, y)."""
    th = math.atan2(y, x) % (2.0 * math.pi)
    j = min(int(th * N_T / (2.0 * math.pi)), N_T - 1)
    mid = (j + 0.5) * 2.0 * math.pi / N_T
    return math.cos(mid), math.sin(mid)


class Manufactured:
    """Symbolic derivation for one rotation angle; all outputs are callables
    of a point x = (x, y) built with sympy.lambdify on the math module."""

    def __init__(self, alpha: float):
        import sympy as S

        self.alpha = alpha
        x, y = S.symbols("x y", real=True)
        c, s = S.Float(math.cos(alpha)), S.Float(math.sin(alpha))
        xi, eta = c * x + s * y, -s * x + c * y
        phi = S.Float(1.4) + S.Float(0.3) * S.sin(2 * xi) * S.cos(S.Float(1.5) * eta)
        w0 = (S.Float(0.2) * S.sin(2 * eta), S.Float(0.2) * S.cos(S.Float(1.5) * xi))
        W = (c * w0[0] - s * w0[1], s * w0[0] + c * w0[1])
        trk = 1 + S.Float(0.5) * xi
        X = (x, y)

        grad_w = [[S.diff(W[a], X[b]) for b in range(2)] for a in range(2)]
        div_w = grad_w[0][0] + grad_w[1][1]
        lw = [[grad_w[a][b] + grad_w[b][a] - S.Rational(2, 3) * div_w * int(a == b)
               for b in range(2)] for a in range(2)]
        lw_sq = sum(lw[a][b] ** 2 for a in range(2) for b in range(2))
        lap_phi = S.diff(phi, x, 2) + S.diff(phi, y, 2)
        rhat = 8 * lap_phi / phi - S.Rational(2, 3) * trk ** 2 * phi ** 4 + lw_sq * phi ** -8
        grad_trk = [S.diff(trk, v) for v in X]
        div_lw = [S.diff(lw[a][0], x) + S.diff(lw[a][1], y) for a in range(2)]
        jhat = [(div_lw[a] - S.Rational(2, 3) * phi ** 6 * grad_trk[a]) / (8 * S.pi)
                for a in range(2)]

        def fn(expr):
            return S.lambdify((x, y), expr, modules="math")

        self._phi = fn(phi)
        self._w = fn(list(W))
        self._grad = fn([[S.diff(phi, x), S.diff(phi, y)]]
                        + [[grad_w[a][0], grad_w[a][1]] for a in range(2)])
        self._lw = fn(lw)
        self._rhat = fn(rhat)
        self._trk = fn(trk)
        self._grad_trk = fn(grad_trk)
        self._jhat = fn(jhat)

    # -- reference solution (used by the checker)

    def exact(self, x):
        return np.array([self._phi(x[0], x[1]), *self._w(x[0], x[1])])

    def exact_grad(self, x):
        return np.array(self._grad(x[0], x[1]))

    # -- problem data (handed to afem.problems.ConstraintCoefficients)

    def robin_z(self, x):
        nx, ny = chord_normal(x[0], x[1])
        g = self._grad(x[0], x[1])[0]
        return g[0] * nx + g[1] * ny + self._phi(x[0], x[1])

    def robin_Z(self, x):
        nx, ny = chord_normal(x[0], x[1])
        lw = self._lw(x[0], x[1])
        w = self._w(x[0], x[1])
        return np.array([w[a] + lw[a][0] * nx + lw[a][1] * ny for a in range(2)])

    def coefficients(self):
        """Keyword arguments for ConstraintCoefficients(dim=2, ...)."""
        return dict(
            Rhat=lambda x: self._rhat(x[0], x[1]),
            trK=lambda x: self._trk(x[0], x[1]),
            trK_grad=lambda x: np.array(self._grad_trk(x[0], x[1]), dtype=float),
            jhat=lambda x: np.array(self._jhat(x[0], x[1]), dtype=float),
            rho=0.0,
            robin_c=1.0, robin_z=self.robin_z,
            robin_C=np.eye(2), robin_Z=self.robin_Z,
            dirichlet_f=lambda x: self._phi(x[0], x[1]),
            dirichlet_F=lambda x: np.array(self._w(x[0], x[1]), dtype=float),
        )
