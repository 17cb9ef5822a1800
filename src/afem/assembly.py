"""Residual, Jacobian, and error measurement over simplex meshes.

Assembly, error measurement and both indicators integrate over the element
and face rows of the mesh's `MeshTables` (`Mesh.tables()`, built once per
mesh state): the live simplices in id order, then each flux face and each
interior face once; Dirichlet faces carry no integral.  Residual and Jacobian
run one block for the simplices (t = 0) and one for the flux faces (t = 1);
an empty block is skipped.  A block maps its rule onto every row, evaluates
the problem's batched `Ft` or `DFt` once at all its points, pairs the values
with every test (and trial) function through the local basis matrix, and
scatters them into the global vector or matrix in row-then-point order, so
each entry sums its terms in the order a loop over the rows would.  Dofs are
interleaved per vertex: the dof of component c at vertex v is
v * n_components + c.  Dirichlet vertices get identity rows and columns in
Jacobians and zeroed residual entries; solution fields are expected to carry
the dirichlet values themselves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .elements import face_rule, fine_rule, linear_element
from .mesh import DIRICHLET, LOCAL_FACES, NEUMANN
from .problem import ProblemDefinition, SolutionField, sample


def free_dof_mask(problem: ProblemDefinition, mesh) -> np.ndarray:
    """True where a dof is unconstrained (vertex not dirichlet)."""
    free_v = mesh.vclass != DIRICHLET
    return np.repeat(free_v, problem.n_components)


def apply_dirichlet(problem: ProblemDefinition, u: SolutionField) -> SolutionField:
    """Overwrite u's values at dirichlet vertices with the boundary data."""
    mesh = u.mesh
    fixed = mesh.vclass == DIRICHLET
    u.values[fixed] = sample(problem.dirichlet, mesh.coords[fixed], (u.n_components,))
    return u


def dirichlet_start(problem: ProblemDefinition, mesh) -> SolutionField:
    """Zero field lifted by the dirichlet data, the standard initial iterate."""
    return apply_dirichlet(problem, SolutionField.zeros(mesh, problem.n_components))


def _dofs(verts: np.ndarray, nc: int) -> np.ndarray:
    """Dof ids (..., nb nc) of the vertex ids verts (..., nb)."""
    return (verts[..., None] * nc + np.arange(nc)).reshape(verts.shape[:-1] + (-1,))


def _point_values(bas: np.ndarray, loc: np.ndarray) -> np.ndarray:
    """Values (n nq, nc), one row per point, at the rule points of the vertex
    values loc (n, nb, nc), with basis values bas (nq, nb), or (n, nq, nb) per
    row.  Each point is its own vector-matrix product, summed as at one point."""
    return (bas[..., None, :] @ loc[:, None]).reshape(-1, loc.shape[2])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of a and b (..., nc), each summed as at one point."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_sums(v: np.ndarray) -> np.ndarray:
    """Sums over the last axis of v (n, nq), added one term after another
    from 0.0."""
    n, nq = v.shape
    return np.bincount(np.repeat(np.arange(n), nq), weights=v.ravel(), minlength=n)


def _basis_matrix(bas: np.ndarray, grads: np.ndarray, nc: int) -> np.ndarray:
    """The local basis matrix Phi at each point, (n, nq, nb nc, nc (d+1)):
    row (i, c) is [gv.ravel(), v] of the test function basis i times e_c, with
    grads[k, i] in the gradient slots of component c and bas[..., q, i] in its
    value slot.  bas is (nq, nb) or (n, nq, nb), grads (n, nb, d)."""
    (n, nb, d), nq, eye = grads.shape, bas.shape[-2], np.eye(nc)
    grad = np.einsum("rik,ce->ricek", grads, eye).reshape(n, 1, nb * nc, nc * d)
    value = np.einsum("...qi,ce->...qice", bas, eye).reshape(bas.shape[:-1] + (nb * nc, nc))
    return np.concatenate((np.broadcast_to(grad, (n, nq, nb * nc, nc * d)),
                           np.broadcast_to(value, (n, nq, nb * nc, nc))), axis=3)


def _blocks(tab, values: np.ndarray):
    """The assembly quadrature of the field `values`, one block of points
    after another: every simplex (t = 0), then every flux face (t = 1), when
    there is one.  A block is (t, rows, weights (n, nq), basis values, args):
    rows are element rows, basis values (nq, nb) on simplices and (n, nq, nb)
    on faces, where the basis of the vertex opposite the face vanishes, and
    args = (x, n, u, gu) the callback arguments, one row per point."""
    dim = tab.coords.shape[1]
    uloc, gu = tab.gather(values)
    rule = linear_element(dim).rule
    blocks = [(0, np.arange(len(tab.ids)), None, tab.element_points(rule.points),
               rule.weights * np.abs(tab.det)[:, None], rule.barycentric)]
    flux = np.flatnonzero(tab.flag == NEUMANN)
    if flux.size:
        frule = face_rule(dim, 3)
        fbas = np.zeros((dim + 1, len(frule.weights), dim + 1))
        for i, face in enumerate(LOCAL_FACES[dim]):
            fbas[i][:, face] = frule.barycentric
        fxq, fwq = tab.face_quadrature(frule)
        blocks.append((1, tab.owner[flux], tab.normal[flux], fxq[flux], fwq[flux],
                       fbas[tab.local[flux]]))
    for t, rows, n, xq, wq, bas in blocks:
        nq = wq.shape[1]
        normals = None if n is None else np.repeat(n, nq, axis=0)
        yield t, rows, wq, bas, (xq.reshape(-1, dim), normals, _point_values(bas, uloc[rows]),
                                 np.repeat(gu[rows], nq, axis=0))


def assemble_residual(problem: ProblemDefinition, u: SolutionField) -> np.ndarray:
    """The residual vector of u, summed as w Phi F: its entry for the test
    function basis i times e_c is the flux part A[c] . grads[i] plus the
    source part B[c] bas[i]."""
    mesh = u.mesh
    nc = problem.n_components
    tab = mesh.tables()
    r = np.zeros(mesh.n_vertices * nc)
    for t, rows, wq, bas, args in _blocks(tab, u.values):
        (nr, nq), grads = wq.shape, tab.grads[rows]
        f = problem.Ft(t, *args).reshape(nr, nq, -1)
        nb, d = grads.shape[1:]
        m = f.shape[2] - nc
        flux = (f[..., :m].reshape(nr, nq * nc, d) @ grads.transpose(0, 2, 1))
        flux = flux.reshape(nr, nq, nc, nb).transpose(0, 1, 3, 2)
        point = wq[..., None, None] * (flux + bas[..., :, None] * f[..., None, m:])
        dofs = np.broadcast_to(_dofs(tab.verts[rows], nc)[:, None], (nr, nq, nb * nc))
        np.add.at(r, dofs, point.reshape(nr, nq, nb * nc))
    r[~free_dof_mask(problem, mesh)] = 0.0
    return r


def assemble_jacobian(problem: ProblemDefinition, u: SolutionField) -> sp.csr_matrix:
    """The Jacobian of the residual at u, summed as w Phi K Phi^T; rows are
    test, columns trial functions.  A simplex enters summed over its points,
    a flux face point by point with its nonzero entries only."""
    mesh = u.mesh
    nc = problem.n_components
    tab = mesh.tables()
    rows, cols, vals = [], [], []
    for t, el, wq, bas, args in _blocks(tab, u.values):
        nr, nq = wq.shape
        kq = problem.DFt(t, *args)
        kq = kq.reshape((nr, nq) + kq.shape[1:])
        phi = _basis_matrix(bas, tab.grads[el], nc)
        local = wq[..., None, None] * (phi @ (kq @ np.swapaxes(phi, 2, 3)))
        ids = _dofs(tab.verts[el], nc)
        if t == 0:
            local = local.sum(axis=1)
            r, c = ids[:, :, None], ids[:, None, :]
        else:
            r, c = ids[:, None, :, None], ids[:, None, None, :]
        r, c = np.broadcast_to(r, local.shape), np.broadcast_to(c, local.shape)
        keep = (local != 0.0) | (t == 0)
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(local[keep])

    ndof = mesh.n_vertices * nc
    a = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    free = free_dof_mask(problem, mesh).astype(float)
    df = sp.diags(free)
    dd = sp.diags(1.0 - free)
    a = (df @ a @ df + dd).tocsr()
    a.sort_indices()
    return a


def measure_error(mesh, u: SolutionField, exact, exact_grad=None):
    """L2 and H1 errors of u against callbacks, by high-order quadrature.

    Returns (l2, h1) with h1 the full norm; h1 is NaN when exact_grad is
    missing.  The measurement rule is deliberately finer than the assembly
    rule so observed convergence rates are not quadrature artifacts.  exact
    and exact_grad are functions of one point, read through `sample`.
    """
    rule = fine_rule(mesh.dim)
    tab = mesh.tables()
    uloc, gu = tab.gather(u.values)
    nq, (n, nc, d) = len(rule.weights), gu.shape
    xq = tab.element_points(rule.points).reshape(-1, d)
    w = (rule.weights * np.abs(tab.det)[:, None]).reshape(1, -1)
    diff = _point_values(rule.barycentric, uloc) - sample(exact, xq, (nc,))
    l2sq = _row_sums(w * _dot(diff, diff))[0]
    if exact_grad is None:
        return np.sqrt(l2sq), float("nan")
    gdiff = np.repeat(gu, nq, axis=0) - sample(exact_grad, xq, (nc, d))
    h1sq = _row_sums(w * (gdiff * gdiff).reshape(n * nq, -1).sum(axis=1))[0]
    return np.sqrt(l2sq), np.sqrt(l2sq + h1sq)
