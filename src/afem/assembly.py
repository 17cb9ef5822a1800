"""Residual, Jacobian, and error measurement over simplex meshes.

Assembly, error measurement and both indicators integrate over the element and
face rows of the mesh's `MeshTables` (`Mesh.tables()`, built once per mesh
state): the live simplices in id order, then each flux face and each interior
face once; Dirichlet faces carry no integral.  Residual and Jacobian run one
block for the simplices (t = 0) and one for the flux faces (t = 1), when there
are any, each with one `Ft` or `DFt` call at all its points: a simplex on its
d+1 vertices, a flux face on its own d (`MeshTables.fverts`) with its owner's
basis gradients there.  An `AssemblyPlan`, kept in the tables for each
component count until refinement drops them, holds what depends on the mesh
alone: each block's points, weights, basis values (one rule's for all its
rows) and dof ids, and the Jacobian's CSR pattern with the slot of each local
entry; the basis matrix is built per call.  A residual adds its terms in row,
point, dof order, as a loop over the rows would.  A Jacobian adds each
simplex's entries, summed over its points, then each flux-face point's
entries, in the order scipy's COO to CSR conversion sums duplicates (rows
bucketed stably, each row sorted by `std::sort`), replayed once per plan.
Dofs are interleaved per vertex: the dof of component c at vertex v is
v * n_components + c.  Dirichlet vertices get identity rows and columns in
Jacobians and zeroed residual entries; solution fields are expected to carry
the dirichlet values themselves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .elements import default_rule, face_rule, fine_rule
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
    """The standard initial iterate: the problem's `initial_value` at every
    vertex (zero when it sets none), lifted by the dirichlet data."""
    u = SolutionField.zeros(mesh, problem.n_components)
    if problem.initial_value is not None:
        u.values[:] = np.asarray(problem.initial_value, dtype=float)
    return apply_dirichlet(problem, u)


def _dofs(verts: np.ndarray, nc: int) -> np.ndarray:
    """Dof ids (..., nb nc) of the vertex ids verts (..., nb)."""
    return (verts[..., None] * nc + np.arange(nc)).reshape(verts.shape[:-1] + (-1,))


def _point_values(bas: np.ndarray, loc: np.ndarray) -> np.ndarray:
    """Values (n nq, nc), one row per point, at the rule points of the vertex
    values loc (n, nb, nc), with basis values bas (nq, nb).  Each point is its
    own vector-matrix product, summed as at one point."""
    return (bas[:, None, :] @ loc[:, None]).reshape(-1, loc.shape[2])


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
    value slot.  bas is (nq, nb), grads (n, nb, d)."""
    (n, nb, d), nq, eye = grads.shape, len(bas), np.eye(nc)
    grad = np.einsum("rik,ce->ricek", grads, eye).reshape(n, 1, nb * nc, nc * d)
    value = np.einsum("qi,ce->qice", bas, eye).reshape(nq, nb * nc, nc)
    return np.concatenate((np.broadcast_to(grad, (n, nq, nb * nc, nc * d)),
                           np.broadcast_to(value, (n, nq, nb * nc, nc))), axis=3)


class AssemblyPlan:
    """The blocks and scatter of nc-component assembly on one mesh state (see
    the module docstring), built by `assembly_plan` on first use.  A block is
    (t, owner rows, vertex ids (nr, nb), their basis gradients (nr, nb, d),
    points and unit normals (nr nq, d) or None, weights (nr, nq), bas (nq, nb))."""

    def __init__(self, tab, nc: int, free: np.ndarray):
        dim, ndof = tab.coords.shape[1], len(free)
        rule = default_rule(dim)
        self.blocks = [(0, np.arange(len(tab.ids)), tab.verts, tab.grads,
                        tab.element_points(rule.points).reshape(-1, dim), None,
                        rule.weights * np.abs(tab.det)[:, None], rule.barycentric)]
        flux = np.flatnonzero(tab.flag == NEUMANN)
        if flux.size:
            frule, owner = face_rule(dim, 3), tab.owner[flux]
            fxq, fwq = tab.face_quadrature(frule)
            self.blocks.append((1, owner, tab.fverts[flux],
                                tab.grads[owner[:, None], LOCAL_FACES[dim][tab.local[flux]]],
                                fxq[flux].reshape(-1, dim),
                                np.repeat(tab.normal[flux], len(frule.weights), axis=0),
                                fwq[flux], frule.barycentric))
        rdofs, keys = [], []
        for t, _, verts, _, _, _, wq, _ in self.blocks:
            ids, nq = _dofs(verts, nc), wq.shape[1]
            rdofs.append(np.repeat(ids, nq, axis=0).ravel())
            pairs = ids[:, :, None] * ndof + ids[:, None]
            keys.append(np.repeat(pairs, nq if t else 1, axis=0).ravel())
        self.rdofs, keys = np.concatenate(rdofs), np.concatenate(keys)
        # scipy's COO to CSR order: rows bucketed stably, then sort_indices
        bucket = np.argsort(keys // ndof, kind="stable")
        row, col = np.divmod(keys[bucket], ndof)
        indptr = np.searchsorted(row, np.arange(ndof + 1))
        replay = sp.csr_matrix((bucket.astype(float), col, indptr), shape=(ndof, ndof))
        replay.sort_indices()
        self.order = replay.data.astype(np.intp)
        keys = keys[self.order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        self.slot = np.cumsum(first) - 1
        row, self.indices = np.divmod(keys[first], ndof)
        self.indptr = np.searchsorted(row, np.arange(ndof + 1))
        self.fixed = ~free[row] | ~free[self.indices]
        self.diag = self.fixed & (row == self.indices)

    def point_args(self, tab, values: np.ndarray):
        """Each block with its callback arguments (x, n, u, gu) at the field
        `values`, one row per point."""
        gu = tab.gather(values)[1]
        for block in self.blocks:
            _, rows, verts, _, x, normals, wq, bas = block
            yield block, (x, normals, _point_values(bas, values[verts]),
                          np.repeat(gu[rows], wq.shape[1], axis=0))


def assembly_plan(mesh, nc: int) -> AssemblyPlan:
    """The assembly plan of the mesh's current state for nc components."""
    tab = mesh.tables()
    if nc not in tab.plans:
        tab.plans[nc] = AssemblyPlan(tab, nc, np.repeat(mesh.vclass != DIRICHLET, nc))
    return tab.plans[nc]


def assemble_residual(problem: ProblemDefinition, u: SolutionField) -> np.ndarray:
    """The residual vector of u, summed as w Phi F: its entry for the test
    function basis i times e_c is the flux part A[c] . grads[i] plus the
    source part B[c] bas[i]."""
    mesh, nc = u.mesh, problem.n_components
    plan = assembly_plan(mesh, nc)
    terms = []
    for (t, _, _, grads, _, _, wq, bas), args in plan.point_args(mesh.tables(), u.values):
        (nr, nq), (nb, d) = wq.shape, grads.shape[1:]
        f = problem.Ft(t, *args).reshape(nr, nq, -1)
        m = f.shape[2] - nc
        flux = (f[..., :m].reshape(nr, nq * nc, d) @ grads.transpose(0, 2, 1))
        flux = flux.reshape(nr, nq, nc, nb).transpose(0, 1, 3, 2)
        terms.append((wq[..., None, None] * (flux + bas[..., :, None] * f[..., None, m:])).ravel())
    r = np.bincount(plan.rdofs, weights=np.concatenate(terms), minlength=mesh.n_vertices * nc)
    r[~free_dof_mask(problem, mesh)] = 0.0
    return r


def assemble_jacobian(problem: ProblemDefinition, u: SolutionField) -> sp.csr_matrix:
    """The Jacobian of the residual at u, summed as w Phi K Phi^T; rows are
    test, columns trial functions.  Entries that sum to zero are not stored."""
    mesh, nc = u.mesh, problem.n_components
    plan = assembly_plan(mesh, nc)
    entries = []
    for (t, _, _, grads, _, _, wq, bas), args in plan.point_args(mesh.tables(), u.values):
        kq = problem.DFt(t, *args)
        kq = kq.reshape(wq.shape + kq.shape[1:])
        phi = _basis_matrix(bas, grads, nc)
        local = wq[..., None, None] * (phi @ (kq @ np.swapaxes(phi, 2, 3)))
        entries.append((local if t else local.sum(axis=1)).ravel())
    data = np.bincount(plan.slot, weights=np.concatenate(entries)[plan.order])
    data[plan.fixed] = 0.0
    data[plan.diag] = 1.0
    # eliminate_zeros edits the pattern in place, so it gets copies
    ndof = mesh.n_vertices * nc
    a = sp.csr_matrix((data, plan.indices.copy(), plan.indptr.copy()), shape=(ndof, ndof))
    a.eliminate_zeros()
    return a


def measure_error(mesh, u: SolutionField, exact, exact_grad=None):
    """L2 and H1 errors of u against callbacks, by high-order quadrature.

    Returns (l2, h1) with h1 the full norm; h1 is NaN when exact_grad is
    missing.  The measurement rule is deliberately finer than the assembly
    rule so observed convergence rates are not quadrature artifacts.  exact
    and exact_grad are data read through `sample` (declared `batched`, or
    functions of one point), sampled once per simplex row in the mesh's life
    through `Mesh.sample_rows`.
    """
    rule = fine_rule(mesh.dim)
    tab = mesh.tables()
    uloc, gu = tab.gather(u.values)
    nq, (n, nc, d) = len(rule.weights), gu.shape
    w = (rule.weights * np.abs(tab.det)[:, None]).reshape(1, -1)
    diff = (_point_values(rule.barycentric, uloc)
            - mesh.sample_rows(exact, rule.points, (nc,)).reshape(-1, nc))
    l2sq = _row_sums(w * _dot(diff, diff))[0]
    if exact_grad is None:
        return np.sqrt(l2sq), float("nan")
    gdiff = (np.repeat(gu, nq, axis=0)
             - mesh.sample_rows(exact_grad, rule.points, (nc, d)).reshape(-1, nc, d))
    h1sq = _row_sums(w * (gdiff * gdiff).reshape(n * nq, -1).sum(axis=1))[0]
    return np.sqrt(l2sq), np.sqrt(l2sq + h1sq)
