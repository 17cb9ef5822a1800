"""Residual, Jacobian, and functional assembly over simplex meshes.

Assembly, error measurement and both indicators integrate over the element
and face rows of the mesh's `MeshTables` (`Mesh.tables()`, built once per
mesh state): the live simplices in id order, then each flux face and each
interior face once; Dirichlet faces carry no integral.  A caller gathers a
field's vertex values `uloc` and constant gradients `gu` on every simplex and
maps its rule onto every simplex or face, one array operation each, then
loops over the rows and their points.  Residual and Jacobian evaluate the
problem's callbacks once per point, pair them with all test (and trial)
functions through the local basis matrix, and scatter into global vectors
and matrices.  Dofs are interleaved per vertex: the dof of component c at
vertex v is v * n_components + c.  Dirichlet vertices get identity rows and
columns in Jacobians and zeroed residual entries; solution fields are
expected to carry the dirichlet values themselves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .elements import ElementGeometry, QuadratureRule, face_rule, fine_rule, linear_element
from .mesh import DIRICHLET, LOCAL_FACES, NEUMANN
from .problem import ProblemDefinition, SolutionField

_INTERIOR_T = 0
_BOUNDARY_T = 1


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


def _face_basis(rule: QuadratureRule, dim: int) -> np.ndarray:
    """Element basis values at a face rule's points, (d+1, nq, d+1) by local
    face index; the basis of the vertex opposite the face vanishes."""
    bas = np.zeros((dim + 1, len(rule.weights), dim + 1))
    for i, face in enumerate(LOCAL_FACES[dim]):
        bas[i][:, face] = rule.barycentric
    return bas


def _dofs(verts: np.ndarray, nc: int) -> np.ndarray:
    """Dof ids (..., nb nc) of the vertex ids verts (..., nb)."""
    return (verts[..., None] * nc + np.arange(nc)).reshape(verts.shape[:-1] + (-1,))


def _basis_matrix(bas: np.ndarray, grads: np.ndarray, nc: int) -> np.ndarray:
    """The local basis matrix Phi at each point, (nq, nb nc, nc (d+1)): row
    (i, c) is [gv.ravel(), v] of the test function basis i times e_c, with
    grads[i] in the gradient slots of component c and bas[q, i] in its value
    slot."""
    (nq, nb), eye = bas.shape, np.eye(nc)
    grad = np.einsum("ik,ce->icek", grads, eye).reshape(nb * nc, -1)
    value = np.einsum("qi,ce->qice", bas, eye).reshape(nq, nb * nc, nc)
    return np.concatenate((np.broadcast_to(grad, (nq,) + grad.shape), value), axis=2)


def _integrals(tab, dim: int):
    """The assembly quadrature: (element row, t, normal, points, weights, basis
    values) on every simplex (t = 0), then on every flux face (t = 1)."""
    rule = linear_element(dim).rule
    bas = rule.barycentric
    wq = rule.weights * np.abs(tab.det)[:, None]
    for k, xq in enumerate(tab.element_points(rule.points)):
        yield k, _INTERIOR_T, None, xq, wq[k], bas
    frule = face_rule(dim, 3)
    fbas = _face_basis(frule, dim)
    fxq, fwq = tab.face_quadrature(frule)
    for j in np.flatnonzero(tab.flag == NEUMANN):
        yield tab.owner[j], _BOUNDARY_T, tab.normal[j], fxq[j], fwq[j], fbas[tab.local[j]]


def assemble_residual(problem: ProblemDefinition, u: SolutionField) -> np.ndarray:
    """The residual vector of u, summed point by point as w Phi F: its entry
    for the test function basis i times e_c is the flux part A[c] . grads[i]
    plus the source part B[c] bas[i]."""
    mesh = u.mesh
    nc = problem.n_components
    tab = mesh.tables()
    dofs = _dofs(tab.verts, nc)
    uloc, gu = tab.gather(u.values)
    r = np.zeros(mesh.n_vertices * nc)
    for k, t, n, xq, wq, bas in _integrals(tab, mesh.dim):
        grads = tab.grads[k]
        f = np.array([problem.Ft(t, xq[q], n, bas[q] @ uloc[k], gu[k])
                      for q in range(len(wq))])
        (nq, width), (nb, d) = f.shape, grads.shape
        m = width - nc
        flux = (f[:, :m].reshape(nq * nc, d) @ grads.T).reshape(nq, nc, nb).transpose(0, 2, 1)
        point = wq[:, None, None] * (flux + bas[:, :, None] * f[:, None, m:])
        for q in range(nq):
            r[dofs[k]] += point[q].ravel()
    r[~free_dof_mask(problem, mesh)] = 0.0
    return r


def assemble_jacobian(problem: ProblemDefinition, u: SolutionField) -> sp.csr_matrix:
    """The Jacobian of the residual at u, summed point by point as
    w Phi K Phi^T; rows are test, columns trial functions."""
    mesh = u.mesh
    nc = problem.n_components
    tab = mesh.tables()
    dofs = _dofs(tab.verts, nc)
    uloc, gu = tab.gather(u.values)
    rows, cols, vals = [], [], []

    def scatter(ids, local, nonzero_only=False):
        r, c, v = np.repeat(ids, len(ids)), np.tile(ids, len(ids)), local.ravel()
        keep = v != 0.0 if nonzero_only else slice(None)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(v[keep])

    for k, t, n, xq, wq, bas in _integrals(tab, mesh.dim):
        kq = np.array([problem.DFt(t, xq[q], n, bas[q] @ uloc[k], gu[k])
                       for q in range(len(wq))])
        phi = _basis_matrix(bas, tab.grads[k], nc)
        local = wq[:, None, None] * (phi @ (kq @ phi.transpose(0, 2, 1)))
        # an element enters summed over its points; a flux face point by point
        if t == _INTERIOR_T:
            scatter(dofs[k], local.sum(axis=0))
        else:
            for point in local:
                scatter(dofs[k], point, nonzero_only=True)

    ndof = mesh.n_vertices * nc
    a = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    free = free_dof_mask(problem, mesh).astype(float)
    df = sp.diags(free)
    dd = sp.diags(1.0 - free)
    a = (df @ a @ df + dd).tocsr()
    a.sort_indices()
    return a


def evaluate_functional(mesh, u, psi, n_components: int = None) -> float:
    """Integral of u . psi over the mesh; u is a SolutionField or a callable.

    It walks the mesh on its own, apart from the mesh's tables: tests take it
    as the independent reference for the dual estimate."""
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
    tab = mesh.tables()
    uloc, gu = tab.gather(u.values)
    l2sq = 0.0
    h1sq = 0.0
    for k, xq in enumerate(tab.element_points(rule.points)):
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(tab.det[k])
            diff = bas[q] @ uloc[k] - np.atleast_1d(exact(xq[q]))
            l2sq += w * float(diff @ diff)
            if exact_grad is not None:
                gdiff = gu[k] - np.atleast_2d(exact_grad(xq[q]))
                h1sq += w * float((gdiff * gdiff).sum())
    l2 = np.sqrt(l2sq)
    h1 = np.sqrt(l2sq + h1sq) if exact_grad is not None else float("nan")
    return l2, h1
