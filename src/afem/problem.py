"""Problem definitions: pointwise integrand callbacks, coefficients, fields.

A problem is posed through three integrand callbacks evaluated one quadrature
point at a time, plus dirichlet data:

    Ft(t, x, n, u, gu, v, gv, c)        weak residual integrand
    DFt(t, x, n, u, gu, w, gw, v, gv, c)  its linearization in direction w
    SFt(t, x, n, u, gu, c)              strong-form pieces for error indication

t selects the term: 0 integrates over elements (n is None), 1 over flagged
boundary faces (n is the outward unit normal).  SFt additionally accepts t=2,
the interior flux whose jumps feed the face indicator.  u, w, v are component
vectors; gu, gw, gv their gradients (rows = components).  c is a dict of
coefficient values at x (gradients under "<name>.grad" when registered).
SFt returns one value per solution component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CoefficientField:
    """A named scalar or small-tensor field: constant, callable, or per-vertex.

    Per-vertex arrays are interpolated linearly inside elements, so evaluation
    needs the element context assembly provides.  Gradients are exposed when a
    grad callable is given (analytic) or the field is per-vertex (elementwise
    linear); constants report zero gradient.
    """

    def __init__(self, value, grad=None, want_grad: bool = False):
        self.value = value
        self.grad = grad
        self.want_grad = want_grad or grad is not None

    def eval(self, x, mesh=None, sid=None, bary=None):
        if callable(self.value):
            return self.value(x)
        if isinstance(self.value, np.ndarray) and self.value.ndim >= 1 \
                and mesh is not None and self.value.shape[0] == mesh.n_vertices:
            if bary is None:
                bary = mesh.barycentric(sid, x)
            verts = mesh.sverts[sid]
            return np.tensordot(bary, self.value[verts], axes=(0, 0))
        return self.value

    def eval_grad(self, x, mesh=None, sid=None, grads=None):
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        if isinstance(self.value, np.ndarray) and self.value.ndim >= 1 \
                and mesh is not None and self.value.shape[0] == mesh.n_vertices:
            verts = mesh.sverts[sid]
            return np.tensordot(self.value[verts], grads, axes=(0, 0))
        if callable(self.value):
            raise ValueError("coefficient gradient requested but the field is "
                             "a callable without an analytic grad; supply one "
                             "or use per-vertex values")
        d = mesh.dim if mesh is not None else len(x)
        return np.zeros(d)


class Coefficients:
    """Named coefficient fields evaluated together at quadrature points."""

    def __init__(self, fields: dict | None = None):
        self.fields: dict[str, CoefficientField] = {}
        for name, f in (fields or {}).items():
            self.add(name, f)

    def add(self, name: str, f):
        if not isinstance(f, CoefficientField):
            f = CoefficientField(f)
        self.fields[name] = f
        return f

    def at(self, x, mesh=None, sid=None, bary=None, grads=None) -> dict:
        out = {}
        for name, f in self.fields.items():
            out[name] = f.eval(x, mesh, sid, bary)
            if f.want_grad:
                out[name + ".grad"] = f.eval_grad(x, mesh, sid, grads)
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

    def copy(self) -> "SolutionField":
        return SolutionField(self.mesh, self.n_components, self.values.copy())

    def eval_in(self, sid: int, bary: np.ndarray) -> np.ndarray:
        verts = self.mesh.sverts[sid]
        return np.tensordot(bary, self.values[verts], axes=(0, 0))


@dataclass
class ProblemDefinition:
    """Everything assembly needs: callbacks, coefficients, boundary data."""

    name: str
    n_components: int
    Ft: callable
    DFt: callable
    SFt: callable
    dirichlet: callable
    coefficients: Coefficients = field(default_factory=Coefficients)
    exact: callable = None
    exact_grad: callable = None

    def dirichlet_vec(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.dirichlet(x), dtype=float))
