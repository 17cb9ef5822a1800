"""Problem definitions: the batched template, pointwise data, and fields.

A problem poses -div A(u) + B(u) = 0 in the domain with the flux condition
A(u).n + C(u) = 0 on flagged boundary faces.  It states each piece once, as a
callback evaluated at all quadrature points of a block at once:

    flux(x, u, gu)        A, (N, nc, d)
    source(x, u, gu)      B, (N, nc)
    face_term(x, u)       C, (N, nc); None means zero
    DFt(t, x, n, u, gu)   K = dF/dz, (N, nc (d+1), nc (d+1)), z = [gu.ravel(), u]

The arguments carry a leading point axis: x (N, d) the points, n (N, d) the
outward unit normals or None, u (N, nc) the component values and gu
(N, nc, d) their gradients (rows = components).  `ProblemDefinition.Ft`
packs F = [A.ravel(), B] on elements (t=0) and [0, C] on flagged boundary
faces (t=1), (N, nc (d+1)); DFt is its derivative.  The weak residual
against a test function v is F . [gv.ravel(), v], its linearization in
direction w is [gv.ravel(), v] . K . [gw.ravel(), w].  `ProblemDefinition.SFt`
gives the strong-form pieces the indicators integrate, each from only the
pieces it needs.  Problem data enters through the callbacks' closures.  Dot
products are Euclidean: `problems.py` poses its constraint system in the
flat chart.

Data (dirichlet data, exact solutions, functional densities, coefficients)
is None, a constant or a callable, read through `sample`.  A callable
declared with `batched` takes the points x (N, d) and returns (N,) + shape
values; `sample` calls it once per block and checks the shape.  Any other
callable is taken to be a function of one point x (d,) and is called once per
point, which is slower: the library cannot tell the two kinds apart by
calling them.  Every datum of the built-in problems is declared.  Exact
solutions are sampled once per simplex row in the mesh's life, through
`Mesh.sample_rows`.  Constraint coefficients are functions of the points
alone: `ConstraintCoefficients.at` samples them again only when those change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProblemError(Exception):
    pass


def batched(fn):
    """Declare fn a batched datum: fn(x) takes the points x (N, d) and returns
    their values (N,) + shape.  Returns fn itself."""
    fn.batched = True
    return fn


def sample(v, x, shape=()):
    """Values (N,) + shape of the data v at the points x (N, d): zero when v
    is None, a constant broadcast to every point, one call on all the points
    when v is declared `batched`, whose result must have exactly that shape,
    or else one call per point, each value broadcast to shape.  No points make
    no call."""
    n = len(x)
    if v is None or n == 0:
        return np.zeros((n,) + shape)
    if not callable(v):
        return np.broadcast_to(np.asarray(v, dtype=float), (n,) + shape)
    if getattr(v, "batched", False) is True:
        out = np.asarray(v(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (n,) + shape:
            name = getattr(v, "__qualname__", None) or repr(v)
            raise ProblemError(f"batched datum {name} returned shape {out.shape} for "
                               f"{n} points, expected {(n,) + shape}")
        return out
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
    """Everything assembly needs: the template's pieces and boundary data, plus
    what the driver reads when present: an exact solution, a default mesh, a
    constant initial iterate and the constraint data whose clamp counter it
    reports.  dim is the dimension the problem is posed in, None when it runs
    in either.  dirichlet, exact and exact_grad are data read through `sample`.
    floor, None or (column, value), states the admissible set: the column's
    vertex values above value, which `newton.newton_solve` checks."""

    n_components: int
    flux: callable
    source: callable
    DFt: callable
    dirichlet: callable
    face_term: callable = None
    exact: callable = None
    exact_grad: callable = None
    dim: int = None
    mesh_factory: callable = None
    initial_value: np.ndarray = None
    constraint_coefficients: object = None
    floor: tuple = None

    def _face(self, x, u):
        return np.zeros(u.shape) if self.face_term is None else self.face_term(x, u)

    def Ft(self, t, x, n, u, gu) -> np.ndarray:
        """The packed F (N, nc (d+1)): [A.ravel(), B] at t=0 (elements) and
        [0, C] at t=1 (flagged boundary faces)."""
        if t == 0:
            return np.column_stack((self.flux(x, u, gu).reshape(len(x), -1),
                                    self.source(x, u, gu)))
        return np.column_stack((np.zeros((len(x), u.shape[1] * x.shape[1])), self._face(x, u)))

    def SFt(self, t, x, n, u, gu) -> np.ndarray:
        """Strong-form pieces (N, nc), one value per component and point: the
        source B at t=0, the flux residual C + A.n at t=1 and the flux A.n at
        t=2 (interior faces, whose jumps feed the indicator).  div A vanishes
        elementwise for linear elements."""
        if t == 0:
            return self.source(x, u, gu)
        flux = (self.flux(x, u, gu) @ n[:, :, None])[..., 0]
        return flux if t == 2 else self._face(x, u) + flux
