"""The flux-face block on the face's own vertices against the padded one.

Assembly evaluates a flux face on its own d vertices.  The reference below is
the earlier layout: every face on all d+1 vertices of its owner, with the
face rule's basis values padded by a zero column for the vertex opposite the
face, and a Jacobian that keeps only the entries between the face's own
vertices.  Its Jacobian goes through scipy's COO to CSR conversion, whose
order the library replays, so in 2D residual and Jacobian are bitwise equal.
In 3D a face's field value at a point sums three terms instead of four with a
zero, which numpy's matmul may add in another order: there the residual is
compared to 1e-14 relative, and the Jacobian, whose Robin face block does
not read the field, bitwise.  Each case runs after random markings.
"""
import numpy as np
import pytest
import scipy.sparse as sp

import pointwise_oracle as oracle
from afem.assembly import _dofs, assemble_jacobian, assemble_residual, free_dof_mask
from afem.elements import default_rule, face_rule
from afem.mesh import LOCAL_FACES, NEUMANN
from test_walk_oracle import CASES, _field


def _padded_assembly(problem, u):
    """Residual and Jacobian of u with the flux faces on their owners' d+1
    vertices."""
    mesh, nc, dim = u.mesh, problem.n_components, u.mesh.dim
    tab, ndof = mesh.tables(), mesh.n_vertices * nc
    uloc, gu = tab.gather(u.values)
    rule, frule = default_rule(dim), face_rule(dim, 3)
    n_el = len(tab.ids)
    blocks = [(0, np.arange(n_el), None, tab.element_points(rule.points),
               rule.weights * np.abs(tab.det)[:, None], np.broadcast_to(
                   rule.barycentric, (n_el,) + rule.barycentric.shape))]
    flux = np.flatnonzero(tab.flag == NEUMANN)
    fbas = np.zeros((dim + 1, len(frule.weights), dim + 1))
    for i, face in enumerate(LOCAL_FACES[dim]):
        fbas[i][:, face] = frule.barycentric
    fxq, fwq = tab.face_quadrature(frule)
    blocks.append((1, tab.owner[flux], tab.normal[flux], fxq[flux], fwq[flux],
                   fbas[tab.local[flux]]))
    terms, rdofs, entries, keys = [], [], [], []
    for t, rows, n, xq, wq, bas in blocks:
        (nr, nq), grads = wq.shape, tab.grads[rows]
        nb, ids = grads.shape[1], _dofs(tab.verts[rows], nc)
        args = (xq.reshape(-1, dim), None if n is None else np.repeat(n, nq, axis=0),
                (bas[:, :, None, :] @ uloc[rows][:, None]).reshape(-1, nc),
                np.repeat(gu[rows], nq, axis=0))
        f = problem.Ft(t, *args).reshape(nr, nq, -1)
        m = f.shape[2] - nc
        fl = (f[..., :m].reshape(nr, nq * nc, dim) @ grads.transpose(0, 2, 1))
        fl = fl.reshape(nr, nq, nc, nb).transpose(0, 1, 3, 2)
        terms.append((wq[..., None, None] * (fl + bas[..., :, None] * f[..., None, m:])).ravel())
        rdofs.append(np.broadcast_to(ids[:, None], (nr, nq, ids.shape[1])).ravel())

        kq = problem.DFt(t, *args)
        phi = _basis_matrix_rows(bas, grads, nc)
        local = wq[..., None, None] * (phi @ (kq.reshape(wq.shape + kq.shape[1:])
                                              @ np.swapaxes(phi, 2, 3)))
        pairs = ids[:, :, None] * ndof + ids[:, None]
        if t == 0:
            entries.append(local.sum(axis=1).ravel())
            keys.append(pairs.ravel())
        else:  # a face's own vertices: the basis of the opposite one vanishes
            on = np.repeat(bas[:, 0] != 0.0, nc, axis=1)
            keep = np.broadcast_to((on[:, :, None] & on[:, None, :])[:, None], local.shape)
            entries.append(local[keep])
            keys.append(np.broadcast_to(pairs[:, None], local.shape)[keep])

    free = free_dof_mask(problem, mesh)
    r = np.bincount(np.concatenate(rdofs), weights=np.concatenate(terms), minlength=ndof)
    r[~free] = 0.0
    row, col = np.divmod(np.concatenate(keys), ndof)
    a = sp.coo_matrix((np.concatenate(entries), (row, col)), shape=(ndof, ndof)).tocsr()
    arow = np.repeat(np.arange(ndof), np.diff(a.indptr))
    fixed = ~free[arow] | ~free[a.indices]
    a.data[fixed] = 0.0
    a.data[fixed & (arow == a.indices)] = 1.0
    a.eliminate_zeros()
    return r, a


def _basis_matrix_rows(bas, grads, nc):
    """`_basis_matrix` with basis values (n, nq, nb) per row."""
    (n, nb, d), nq, eye = grads.shape, bas.shape[1], np.eye(nc)
    grad = np.einsum("rik,ce->ricek", grads, eye).reshape(n, 1, nb * nc, nc * d)
    value = np.einsum("rqi,ce->rqice", bas, eye).reshape(n, nq, nb * nc, nc)
    return np.concatenate((np.broadcast_to(grad, (n, nq, nb * nc, nc * d)), value), axis=3)


@pytest.mark.parametrize("name", ["coupled_annulus", "hamiltonian_annulus",
                                  "momentum_annulus", "coupled_cube_robin"])
def test_own_vertex_face_block_matches_the_padded_one(name, rng):
    problem, mesh = CASES[name]()
    nc = problem.n_components
    worst = 0.0
    for _ in range(3):
        live = mesh.live_simplices()
        mesh.refine_marked(sorted(set(rng.choice(live, size=max(1, len(live) // 4)).tolist())))
        assert np.any(mesh.tables().flag == NEUMANN)
        u = oracle.interpolate(mesh, _field(nc), nc)
        r_ref, a_ref = _padded_assembly(problem, u)
        a = assemble_jacobian(problem, u)
        np.testing.assert_array_equal(a.indptr, a_ref.indptr)
        np.testing.assert_array_equal(a.indices, a_ref.indices)
        np.testing.assert_array_equal(a.data, a_ref.data)
        r = assemble_residual(problem, u)
        if mesh.dim == 2:
            np.testing.assert_array_equal(r, r_ref)
        else:
            worst = max(worst, float(np.max(np.abs(r - r_ref)) / np.max(np.abs(r_ref))))
    assert worst <= 1e-14
