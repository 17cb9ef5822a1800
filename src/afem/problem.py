"""Problem definitions: the pointwise template and fields.

A problem poses -div A(u) + B(u) = 0 in the domain with the flux condition
A(u).n + C(u) = 0 on flagged boundary faces, through two callbacks evaluated
one quadrature point at a time, plus dirichlet data:

    Ft(t, x, n, u, gu)    F = [A.ravel(), B], length nc (d+1)
    DFt(t, x, n, u, gu)   K = dF/dz, (nc (d+1), nc (d+1)), z = [gu.ravel(), u]

t selects the term: at t=0 (elements, n is None) A is the (nc, d) flux and B
the source; at t=1 (flagged boundary faces, n the outward unit normal) the A
slots are zero and B holds C.  u is the component vector, gu its gradient
(rows = components).  The weak residual against a test function v is
F . [gv.ravel(), v], its linearization in direction w is
[gv.ravel(), v] . K . [gw.ravel(), w].  Problem data enters through the
callbacks' closures.  `ProblemDefinition.SFt` derives the strong-form pieces
the indicators integrate.  Dot products are Euclidean: the constraint system
of `problems.py` is posed in the flat chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SolutionField:
    """Vertex-valued coefficients of a piecewise linear field, (nv, nc)."""

    mesh: object
    n_components: int
    values: np.ndarray

    @classmethod
    def zeros(cls, mesh, n_components: int = 1) -> "SolutionField":
        return cls(mesh, n_components, np.zeros((mesh.n_vertices, n_components)))

    @classmethod
    def from_flat(cls, mesh, n_components: int, flat: np.ndarray) -> "SolutionField":
        return cls(mesh, n_components, flat.reshape(mesh.n_vertices, n_components).copy())

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def copy(self) -> "SolutionField":
        return SolutionField(self.mesh, self.n_components, self.values.copy())

    def eval_in(self, sid: int, bary: np.ndarray) -> np.ndarray:
        verts = self.mesh.sverts[sid]
        return np.tensordot(bary, self.values[verts], axes=(0, 0))


@dataclass
class ProblemDefinition:
    """Everything assembly needs: callbacks and boundary data, plus what the
    driver reads when present: an exact solution, a default mesh, a constant
    initial iterate and the constraint data whose clamp counter it reports."""

    name: str
    n_components: int
    Ft: callable
    DFt: callable
    dirichlet: callable
    exact: callable = None
    exact_grad: callable = None
    mesh_factory: callable = None
    initial_value: np.ndarray = None
    constraint_coefficients: object = None

    def dirichlet_vec(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.dirichlet(x), dtype=float))

    def SFt(self, t, x, n, u, gu) -> np.ndarray:
        """Strong-form pieces, one value per component: the source B at t=0,
        the flux residual C + A.n at t=1 and the flux A.n at t=2 (interior
        faces, whose jumps feed the indicator).  div A vanishes elementwise
        for linear elements."""
        f = self.Ft(0, x, n, u, gu)
        m = gu.size
        if t == 0:
            return f[m:]
        flux = f[:m].reshape(self.n_components, -1) @ n
        if t == 2:
            return flux
        return self.Ft(1, x, n, u, gu)[m:] + flux
