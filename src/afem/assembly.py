"""Residual, Jacobian, and functional assembly over simplex meshes.

Assembly, error measurement and both indicators integrate over one of two
walks:

- `elements(mesh, rule, u)` visits the live simplices in id order.  Each
  visit gives the simplex's affine geometry, the physical gradients of the
  linear basis, its vertex ids, the values `uloc` of a field u at them and
  the constant gradient `gu`, and the points of `rule` mapped into it.
- `faces(mesh, rule)` visits the faces that carry an integral: flux
  (NEUMANN) faces, with neighbour -1, and interior faces, each once, from the
  lower of its two simplex ids.  Dirichlet faces are skipped.  Each visit
  gives the owner and the face's local index in it, the neighbour, the face
  vertex ids, the outward unit normal of the owner and the face measure, and
  the points and weights of `rule` mapped onto the face.

Callers bring their own rule and point loop; residual and Jacobian evaluate
the problem's callbacks once per point, pair them with all test (and trial)
functions through the local basis matrix, and scatter into global vectors
and matrices.  Dofs are interleaved per vertex: the dof of component c at
vertex v is v * n_components + c.  Dirichlet vertices get identity rows and
columns in Jacobians and zeroed residual entries; solution fields are
expected to carry the dirichlet values themselves.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .elements import ElementGeometry, QuadratureRule, face_rule, fine_rule, linear_element
from .mesh import DIRICHLET, NEUMANN
from .problem import ProblemDefinition, SolutionField

_INTERIOR_T = 0
_BOUNDARY_T = 1
_GRAD_REF = {d: linear_element(d).grad_ref() for d in (2, 3)}


class Element(NamedTuple):
    s: int
    geom: ElementGeometry
    grads: np.ndarray            # (d+1, d) physical gradients of the linear basis
    verts: np.ndarray            # (d+1,) vertex ids
    uloc: Optional[np.ndarray]   # (d+1, nc) field values at verts
    gu: Optional[np.ndarray]     # (nc, d) field gradient, constant on the simplex
    xq: Optional[np.ndarray]     # rule points mapped into the simplex


class Face(NamedTuple):
    s: int                       # owner
    i: int                       # local index in s: the face opposite vertex i
    t: int                       # neighbour across the face, -1 on a flux face
    verts: list                  # face vertex ids, in the local order of s
    normal: np.ndarray           # unit normal pointing out of s
    measure: float
    xq: np.ndarray               # rule points mapped onto the face
    wq: np.ndarray               # rule weights scaled to the face measure


def element_at(mesh, s: int, u: SolutionField = None,
               rule: QuadratureRule = None) -> Element:
    """Geometry of simplex s, with u's local data and rule's points if given."""
    verts = mesh.sverts[s]
    geom = ElementGeometry.of(mesh.coords[verts])
    grads = _GRAD_REF[mesh.dim] @ geom.inv_t.T
    uloc = gu = xq = None
    if u is not None:
        uloc = u.values[verts]
        gu = uloc.T @ grads
    if rule is not None:
        xq = geom.to_physical(rule.points)
    return Element(s, geom, grads, verts, uloc, gu, xq)


def elements(mesh, rule: QuadratureRule, u: SolutionField = None):
    """The element walk: one Element per live simplex, in id order."""
    for s in mesh.live_simplices():
        yield element_at(mesh, int(s), u, rule)


def faces(mesh, rule: QuadratureRule, interior: bool = True):
    """The face walk: one Face per flux face and, unless interior is False,
    per interior face, in (owner id, local index) order.  The neighbour and
    the face normal are looked up once per visited face; the second side of
    an interior face is recognised by its vertex set."""
    d = mesh.dim
    ref = np.atleast_2d(rule.points)
    ref_measure = 1.0 if d == 2 else 0.5
    yielded = set()
    for s in mesh.live_simplices():
        s = int(s)
        flags = mesh.sflags[s]
        for i in range(d + 1):
            fl = int(flags[i])
            if fl == DIRICHLET or (fl != NEUMANN and not interior):
                continue
            fverts = [int(v) for k, v in enumerate(mesh.sverts[s]) if k != i]
            if fl == NEUMANN:
                t = -1
            else:
                key = tuple(sorted(fverts))
                if key in yielded:
                    yielded.remove(key)   # visited from the lower id
                    continue
                t = mesh.neighbor(s, i)
                if t < s:
                    continue   # on the boundary after all, or visited from t
                yielded.add(key)
            pts = mesh.coords[fverts]
            n, meas = mesh.face_normal(s, i)
            yield Face(s, i, t, fverts, n, meas, pts[0] + ref @ (pts[1:] - pts[0]),
                       rule.weights * (meas / ref_measure))


def free_dof_mask(problem: ProblemDefinition, mesh) -> np.ndarray:
    """True where a dof is unconstrained (vertex not dirichlet)."""
    free_v = mesh.vclass != DIRICHLET
    return np.repeat(free_v, problem.n_components)


def apply_dirichlet(problem: ProblemDefinition, u: SolutionField) -> SolutionField:
    """Overwrite u's values at dirichlet vertices with the boundary data."""
    mesh = u.mesh
    for v in np.flatnonzero(mesh.vclass == DIRICHLET):
        u.values[v] = problem.dirichlet_vec(mesh.coords[v])
    return u


def dirichlet_start(problem: ProblemDefinition, mesh) -> SolutionField:
    """Zero field lifted by the dirichlet data, the standard initial iterate."""
    return apply_dirichlet(problem, SolutionField.zeros(mesh, problem.n_components))


def interpolate(mesh, fn, n_components: int = 1) -> SolutionField:
    u = SolutionField.zeros(mesh, n_components)
    for v in range(mesh.n_vertices):
        u.values[v] = np.atleast_1d(fn(mesh.coords[v]))
    return u


def _face_basis(rule: QuadratureRule, dim: int) -> list:
    """Element basis values at a face rule's points, one (nq, d+1) array per
    local face index; the basis of the vertex opposite the face vanishes."""
    out = []
    for i in range(dim + 1):
        bas = np.zeros((len(rule.weights), dim + 1))
        bas[:, [k for k in range(dim + 1) if k != i]] = rule.barycentric
        out.append(bas)
    return out


def _dofs(verts, nc: int) -> np.ndarray:
    return (np.asarray(verts)[:, None] * nc + np.arange(nc)).ravel()


def _basis_matrix(bas: np.ndarray, grads: np.ndarray, nc: int) -> np.ndarray:
    """The local basis matrix Phi at each point, (nq, nb nc, nc (d+1)): row
    (i, c) is [gv.ravel(), v] of the test function basis i times e_c, with
    grads[i] in the gradient slots of component c and bas[q, i] in its value
    slot."""
    (nq, nb), eye = bas.shape, np.eye(nc)
    grad = np.einsum("ik,ce->icek", grads, eye).reshape(nb * nc, -1)
    value = np.einsum("qi,ce->qice", bas, eye).reshape(nq, nb * nc, nc)
    return np.concatenate((np.broadcast_to(grad, (nq,) + grad.shape), value), axis=2)


def _add_residual(r, problem, e: Element, t, n, xq, wq, bas):
    """Add the points of one simplex (t = 0, n None) or flux face (t = 1) to
    r, point by point: w Phi F, whose row for the test function basis i times
    e_c is the flux part A[c] . grads[i] plus the source part B[c] bas[i]."""
    nc = problem.n_components
    f = np.array([problem.Ft(t, xq[q], n, bas[q] @ e.uloc, e.gu) for q in range(len(wq))])
    (nq, width), (nb, d) = f.shape, e.grads.shape
    m = width - nc
    flux = (f[:, :m].reshape(nq * nc, d) @ e.grads.T).reshape(nq, nc, nb).transpose(0, 2, 1)
    point = wq[:, None, None] * (flux + bas[:, :, None] * f[:, None, m:])
    dofs = _dofs(e.verts, nc)
    for q in range(nq):
        r[dofs] += point[q].ravel()


def assemble_residual(problem: ProblemDefinition, u: SolutionField) -> np.ndarray:
    mesh = u.mesh
    rule = linear_element(mesh.dim).rule
    bas = rule.barycentric
    r = np.zeros(mesh.n_vertices * problem.n_components)
    for e in elements(mesh, rule, u):
        _add_residual(r, problem, e, _INTERIOR_T, None, e.xq,
                      rule.weights * abs(e.geom.det), bas)
    frule = face_rule(mesh.dim, 3)
    fbas = _face_basis(frule, mesh.dim)
    for f in faces(mesh, frule, interior=False):
        _add_residual(r, problem, element_at(mesh, f.s, u), _BOUNDARY_T,
                      f.normal, f.xq, f.wq, fbas[f.i])
    r[~free_dof_mask(problem, mesh)] = 0.0
    return r


def _jacobian_points(problem, e: Element, t, n, xq, wq, bas) -> np.ndarray:
    """(nq, m, m) point contributions w Phi K Phi^T to the local matrix of one
    simplex or flux face, m = (d+1) nc; rows are test, columns trial
    functions."""
    k = np.array([problem.DFt(t, xq[q], n, bas[q] @ e.uloc, e.gu) for q in range(len(wq))])
    phi = _basis_matrix(bas, e.grads, problem.n_components)
    return wq[:, None, None] * (phi @ (k @ phi.transpose(0, 2, 1)))


def assemble_jacobian(problem: ProblemDefinition, u: SolutionField) -> sp.csr_matrix:
    mesh = u.mesh
    nc = problem.n_components
    rule = linear_element(mesh.dim).rule
    bas = rule.barycentric
    rows, cols, vals = [], [], []

    def scatter(verts, local, nonzero_only=False):
        dofs = _dofs(verts, nc)
        r, c, v = np.repeat(dofs, len(dofs)), np.tile(dofs, len(dofs)), local.ravel()
        keep = v != 0.0 if nonzero_only else slice(None)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])

    # an element enters summed over its points; a flux face point by point
    for e in elements(mesh, rule, u):
        scatter(e.verts, _jacobian_points(problem, e, _INTERIOR_T, None, e.xq,
                                          rule.weights * abs(e.geom.det), bas).sum(axis=0))
    frule = face_rule(mesh.dim, 3)
    fbas = _face_basis(frule, mesh.dim)
    for f in faces(mesh, frule, interior=False):
        e = element_at(mesh, f.s, u)
        for local in _jacobian_points(problem, e, _BOUNDARY_T, f.normal,
                                      f.xq, f.wq, fbas[f.i]):
            scatter(e.verts, local, nonzero_only=True)

    n = mesh.n_vertices * nc
    a = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    free = free_dof_mask(problem, mesh).astype(float)
    df = sp.diags(free)
    dd = sp.diags(1.0 - free)
    a = (df @ a @ df + dd).tocsr()
    a.sort_indices()
    return a


def evaluate_functional(mesh, u, psi, n_components: int = None) -> float:
    """Integral of u . psi over the mesh; u is a SolutionField or a callable.

    It walks the mesh on its own, apart from `elements`: tests take it as the
    independent reference for the dual estimate."""
    rule = fine_rule(mesh.dim)
    lam = rule.barycentric
    total = 0.0
    for s in mesh.live_simplices():
        s = int(s)
        geom = ElementGeometry.of(mesh.coords[mesh.sverts[s]])
        xq = geom.to_physical(rule.points)
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(geom.det)
            if isinstance(u, SolutionField):
                uq = u.eval_in(s, lam[q])
            else:
                uq = np.atleast_1d(u(xq[q]))
            pq = np.atleast_1d(psi(xq[q]))
            total += w * float(uq @ pq)
    return total


def measure_error(mesh, u: SolutionField, exact, exact_grad=None):
    """L2 and H1 errors of u against callbacks, by high-order quadrature.

    Returns (l2, h1) with h1 the full norm; h1 is NaN when exact_grad is
    missing.  The measurement rule is deliberately finer than the assembly
    rule so observed convergence rates are not quadrature artifacts.
    """
    rule = fine_rule(mesh.dim)
    bas = rule.barycentric
    l2sq = 0.0
    h1sq = 0.0
    for e in elements(mesh, rule, u):
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(e.geom.det)
            diff = bas[q] @ e.uloc - np.atleast_1d(exact(e.xq[q]))
            l2sq += w * float(diff @ diff)
            if exact_grad is not None:
                gdiff = e.gu - np.atleast_2d(exact_grad(e.xq[q]))
                h1sq += w * float((gdiff * gdiff).sum())
    l2 = np.sqrt(l2sq)
    h1 = np.sqrt(l2sq + h1sq) if exact_grad is not None else float("nan")
    return l2, h1
