"""Problem definitions: pointwise integrand callbacks and fields.

A problem is posed through three integrand callbacks evaluated one quadrature
point at a time, plus dirichlet data:

    Ft(t, x, n, u, gu, v, gv)           weak residual integrand
    DFt(t, x, n, u, gu, w, gw, v, gv)   its linearization in direction w
    SFt(t, x, n, u, gu)                 strong-form pieces for error indication

t selects the term: 0 integrates over elements (n is None), 1 over flagged
boundary faces (n is the outward unit normal).  SFt additionally accepts t=2,
the interior flux whose jumps feed the face indicator.  u, w, v are component
vectors; gu, gw, gv their gradients (rows = components).  Problem data
enters through the callbacks' closures.  SFt returns one value per solution
component.  Dot products are Euclidean: the constraint system of
`problems.py` is posed in the flat chart.
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
    SFt: callable
    dirichlet: callable
    exact: callable = None
    exact_grad: callable = None
    mesh_factory: callable = None
    initial_value: np.ndarray = None
    constraint_coefficients: object = None

    def dirichlet_vec(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.dirichlet(x), dtype=float))
