"""Problem definitions: the batched template, pointwise data, and fields.

A problem poses -div A(u) + B(u) = 0 in the domain with the flux condition
A(u).n + C(u) = 0 on flagged boundary faces, through two callbacks evaluated
at all quadrature points of a block at once, plus dirichlet data:

    Ft(t, x, n, u, gu)    F = [A.ravel(), B], (N, nc (d+1))
    DFt(t, x, n, u, gu)   K = dF/dz, (N, nc (d+1), nc (d+1)), z = [gu.ravel(), u]

The arguments carry a leading point axis: x (N, d) the points, n (N, d) the
outward unit normals or None, u (N, nc) the component values and gu
(N, nc, d) their gradients (rows = components).  t selects the term: at t=0
(elements, n is None) A is the (nc, d) flux and B the source; at t=1 (flagged
boundary faces) the A slots are zero and B holds C.  The weak residual
against a test function v is F . [gv.ravel(), v], its linearization in
direction w is [gv.ravel(), v] . K . [gw.ravel(), w].  Problem data enters
through the callbacks' closures.  `ProblemDefinition.SFt` derives the
strong-form pieces the indicators integrate.  Dot products are Euclidean:
the constraint system of `problems.py` is posed in the flat chart.

Data callables stay pointwise: dirichlet data, exact solutions, functional
densities and coefficients take one point x (d,) and are read through
`sample`, which calls them once per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sample(v, x, shape=()):
    """Values (N,) + shape of the data v at the points x (N, d): zero when v
    is None, a constant broadcast to every point, or a callable of one point,
    called once per point.  Values broadcast to shape."""
    n = len(x)
    if v is None:
        return np.zeros((n,) + shape)
    if not callable(v):
        return np.broadcast_to(np.asarray(v, dtype=float), (n,) + shape)
    out = np.empty((n,) + shape)
    for i, p in enumerate(x):
        out[i] = v(p)
    return out


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

    def SFt(self, t, x, n, u, gu) -> np.ndarray:
        """Strong-form pieces (N, nc), one value per component and point: the
        source B at t=0, the flux residual C + A.n at t=1 and the flux A.n at
        t=2 (interior faces, whose jumps feed the indicator).  div A vanishes
        elementwise for linear elements."""
        f = self.Ft(0, x, n, u, gu)
        m = f.shape[1] - u.shape[1]
        if t == 0:
            return f[:, m:]
        flux = (f[:, :m].reshape(gu.shape) @ n[:, :, None])[..., 0]
        if t == 2:
            return flux
        return self.Ft(1, x, n, u, gu)[:, m:] + flux
