"""Reference copies of the per-point assembly and indicator loops.

These are the residual, Jacobian, functional-load, error-measurement and
indicator routines as they stood before assembly and both indicators were
rewritten over the shared element and face walks of `afem.assembly`.  Each
routine walks the mesh itself, builds its own face quadrature and evaluates
the problem callbacks one quadrature point at a time.  They serve only as an
independent oracle for `test_walk_oracle.py`; nothing in `src/` imports them.
The changes from the originals: the mesh's former `boundary_faces` list is
rebuilt here by `_boundary_faces`, since the mesh no longer provides it; the
callbacks are called without the per-point coefficient dict they no longer
take; the loops reach the packed callbacks of `afem.problem` through
`Ft_old` and `DFt_old`, which pair them with one test function (and one trial
function) as the callbacks once did themselves; and every callback, batched
over a leading point axis now, is reached through the one-point adapter
`at_point`.  `inscribed_diameter` is the library's former version, copied so
that the oracle computes element sizes on its own, and `coarse_ancestor`
walks the genealogy one simplex at a time.

`interpolate`, `domain_average` and `evaluate_functional` are the library's
former pointwise helpers; only tests use them.  `evaluate_functional` walks
the mesh on its own and is the independent reference for the dual estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from afem.elements import (ElementGeometry, default_rule, face_rule, fine_rule,
                           linear_element)
from afem.indicators import IndicatorField
from afem.mesh import DIRICHLET, INTERIOR, NEUMANN
from afem.problem import ProblemDefinition, SolutionField

_INTERIOR_T = 0
_BOUNDARY_T = 1


@dataclass
class BoundaryFace:
    simplex: int
    local_index: int
    verts: tuple
    bclass: int
    normal: np.ndarray
    measure: float


def _z(g, v):
    return np.concatenate([g.ravel(), v])


def at_point(cb, t, x, n, u, gu):
    """The batched callback cb (Ft, DFt or SFt) at the single point x."""
    return cb(t, x[None], None if n is None else n[None], u[None], gu[None])[0]


def Ft_old(problem, t, x, n, u, gu, v, gv):
    """F . [gv.ravel(), v]: the flux part, then the source part."""
    f = at_point(problem.Ft, t, x, n, u, gu)
    m = gv.size
    return f[:m] @ gv.ravel() + f[m:] @ v


def DFt_old(problem, t, x, n, u, gu, w, gw, v, gv):
    """[gv.ravel(), v] . K . [gw.ravel(), w]: the derivative of F in the
    direction w, one row of K at a time, tested with v."""
    k = at_point(problem.DFt, t, x, n, u, gu)
    zw = _z(gw, w)
    return _z(gv, v) @ np.array([row @ zw for row in k])


def _boundary_faces(mesh) -> list:
    out = []
    for s in mesh.live_simplices():
        s = int(s)
        verts = mesh.sverts[s]
        for i in range(mesh.dim + 1):
            fl = int(mesh.sflags[s, i])
            if fl == INTERIOR:
                continue
            fverts = tuple(int(v) for k, v in enumerate(verts[:mesh.dim + 1]) if k != i)
            n, meas = mesh.face_normal(s, i)
            out.append(BoundaryFace(s, i, fverts, fl, n, meas))
    return out


def _test_grads(grads: np.ndarray, nc: int) -> np.ndarray:
    """(n_basis, nc, nc, d) test gradients matching _test_values."""
    nb, d = grads.shape
    out = np.zeros((nb, nc, nc, d))
    for i in range(nb):
        for c in range(nc):
            out[i, c, c] = grads[i]
    return out


def free_dof_mask(problem: ProblemDefinition, mesh) -> np.ndarray:
    """True where a dof is unconstrained (vertex not dirichlet)."""
    free_v = mesh.vclass != DIRICHLET
    return np.repeat(free_v, problem.n_components)


def _element_data(mesh, sid, element):
    geom = ElementGeometry.of(mesh.coords[mesh.sverts[sid]])
    grads = element.grad_ref() @ geom.inv_t.T
    return geom, grads


def assemble_residual(problem: ProblemDefinition, u: SolutionField) -> np.ndarray:
    mesh = u.mesh
    nc = problem.n_components
    el = linear_element(mesh.dim)
    rule = el.rule
    bas = rule.barycentric
    bary = rule.barycentric
    r = np.zeros(mesh.n_vertices * nc)

    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s, el)
        verts = mesh.sverts[s]
        uloc = u.values[verts]
        gu = uloc.T @ grads  # (nc, d), constant on the element
        xq = geom.to_physical(rule.points)
        gvals = _test_grads(grads, nc)
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(geom.det)
            x = xq[q]
            uq = bas[q] @ uloc
            for i in range(mesh.dim + 1):
                phi = bas[q, i]
                for comp in range(nc):
                    v = np.zeros(nc)
                    v[comp] = phi
                    r[int(verts[i]) * nc + comp] += w * Ft_old(problem,
                        _INTERIOR_T, x, None, uq, gu, v, gvals[i, comp])

    _boundary_residual(problem, u, r)
    r[~free_dof_mask(problem, mesh)] = 0.0
    return r


def _face_frame(mesh, bf, n_points: int = 3):
    """Quadrature points, weights, and basis values on a boundary face."""
    rule = face_rule(mesh.dim, n_points)
    verts = mesh.sverts[bf.simplex]
    flocal = [k for k in range(mesh.dim + 1) if k != bf.local_index]
    fpts = mesh.coords[[int(verts[k]) for k in flocal]]
    ref = rule.points
    xq = fpts[0] + np.atleast_2d(ref) @ (fpts[1:] - fpts[0])
    ref_vol = 1.0 if mesh.dim == 2 else 0.5
    wq = rule.weights * (bf.measure / ref_vol)
    # face barycentric -> element basis: the opposite vertex's basis vanishes
    nb = mesh.dim + 1
    bas = np.zeros((len(wq), nb))
    mu0 = 1.0 - np.atleast_2d(ref).sum(axis=1)
    for k, lf in enumerate(flocal):
        bas[:, lf] = mu0 if k == 0 else ref[:, k - 1]
    return xq, wq, bas


def _boundary_residual(problem, u, r):
    mesh = u.mesh
    nc = problem.n_components
    el = linear_element(mesh.dim)
    for bf in _boundary_faces(mesh):
        if bf.bclass != NEUMANN:
            continue
        s = bf.simplex
        geom, grads = _element_data(mesh, s, el)
        verts = mesh.sverts[s]
        uloc = u.values[verts]
        gu = uloc.T @ grads
        xq, wq, bas = _face_frame(mesh, bf)
        gvals = _test_grads(grads, nc)
        for q in range(len(wq)):
            x = xq[q]
            uq = bas[q] @ uloc
            for i in range(mesh.dim + 1):
                phi = bas[q, i]
                for comp in range(nc):
                    v = np.zeros(nc)
                    v[comp] = phi
                    r[int(verts[i]) * nc + comp] += wq[q] * Ft_old(problem,
                        _BOUNDARY_T, x, bf.normal, uq, gu, v, gvals[i, comp])


def assemble_jacobian(problem: ProblemDefinition, u: SolutionField) -> sp.csr_matrix:
    mesh = u.mesh
    nc = problem.n_components
    el = linear_element(mesh.dim)
    rule = el.rule
    bas = rule.barycentric
    bary = rule.barycentric
    rows, cols, vals = [], [], []

    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s, el)
        verts = [int(v) for v in mesh.sverts[s]]
        uloc = u.values[verts]
        gu = uloc.T @ grads
        xq = geom.to_physical(rule.points)
        gvals = _test_grads(grads, nc)
        nb = mesh.dim + 1
        local = np.zeros((nb * nc, nb * nc))
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(geom.det)
            x = xq[q]
            uq = bas[q] @ uloc
            for i in range(nb):
                for ci in range(nc):
                    v = np.zeros(nc)
                    v[ci] = bas[q, i]
                    gv = gvals[i, ci]
                    for j in range(nb):
                        for cj in range(nc):
                            wdir = np.zeros(nc)
                            wdir[cj] = bas[q, j]
                            local[i * nc + ci, j * nc + cj] += w * DFt_old(problem,
                                _INTERIOR_T, x, None, uq, gu, wdir, gvals[j, cj], v, gv)
        for i in range(nb):
            for ci in range(nc):
                for j in range(nb):
                    for cj in range(nc):
                        rows.append(verts[i] * nc + ci)
                        cols.append(verts[j] * nc + cj)
                        vals.append(local[i * nc + ci, j * nc + cj])

    _boundary_jacobian(problem, u, rows, cols, vals)

    n = mesh.n_vertices * nc
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    free = free_dof_mask(problem, mesh).astype(float)
    df = sp.diags(free)
    dd = sp.diags(1.0 - free)
    a = (df @ a @ df + dd).tocsr()
    a.sort_indices()
    return a


def _boundary_jacobian(problem, u, rows, cols, vals):
    mesh = u.mesh
    nc = problem.n_components
    el = linear_element(mesh.dim)
    for bf in _boundary_faces(mesh):
        if bf.bclass != NEUMANN:
            continue
        s = bf.simplex
        geom, grads = _element_data(mesh, s, el)
        verts = [int(v) for v in mesh.sverts[s]]
        uloc = u.values[verts]
        gu = uloc.T @ grads
        xq, wq, bas = _face_frame(mesh, bf)
        gvals = _test_grads(grads, nc)
        nb = mesh.dim + 1
        for q in range(len(wq)):
            x = xq[q]
            uq = bas[q] @ uloc
            for i in range(nb):
                for ci in range(nc):
                    v = np.zeros(nc)
                    v[ci] = bas[q, i]
                    for j in range(nb):
                        for cj in range(nc):
                            wdir = np.zeros(nc)
                            wdir[cj] = bas[q, j]
                            contrib = wq[q] * DFt_old(problem,
                                _BOUNDARY_T, x, bf.normal, uq, gu,
                                wdir, gvals[j, cj], v, gvals[i, ci])
                            if contrib != 0.0:
                                rows.append(verts[i] * nc + ci)
                                cols.append(verts[j] * nc + cj)
                                vals.append(contrib)


def measure_error(mesh, u: SolutionField, exact, exact_grad=None):
    """L2 and H1 errors of u against callbacks, by high-order quadrature.

    Returns (l2, h1) with h1 the full norm; h1 is NaN when exact_grad is
    missing.  The measurement rule is deliberately finer than the assembly
    rule so observed convergence rates are not quadrature artifacts.
    """
    el = linear_element(mesh.dim)
    rule = fine_rule(mesh.dim)
    bas = rule.barycentric
    l2sq = 0.0
    h1sq = 0.0
    for s in mesh.live_simplices():
        s = int(s)
        geom = ElementGeometry.of(mesh.coords[mesh.sverts[s]])
        grads = el.grad_ref() @ geom.inv_t.T
        verts = mesh.sverts[s]
        uloc = u.values[verts]
        gu = uloc.T @ grads
        xq = geom.to_physical(rule.points)
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(geom.det)
            diff = bas[q] @ uloc - np.atleast_1d(exact(xq[q]))
            l2sq += w * float(diff @ diff)
            if exact_grad is not None:
                gdiff = gu - np.atleast_2d(exact_grad(xq[q]))
                h1sq += w * float((gdiff * gdiff).sum())
    l2 = np.sqrt(l2sq)
    h1 = np.sqrt(l2sq + h1sq) if exact_grad is not None else float("nan")
    return l2, h1


def coarse_ancestor(mesh, sid: int, coarse_live) -> int:
    """The ancestor of sid (or sid itself) in coarse_live."""
    s = int(sid)
    while s not in coarse_live:
        s = int(mesh.sparent[s])
    return s


def inscribed_diameter(mesh, sid: int) -> float:
    """Diameter of the inscribed sphere: 2 d |s| / (sum of face measures)."""
    d = mesh.dim
    vol = abs(mesh.signed_volume(sid))
    face_sum = sum(mesh.face_normal(sid, i)[1] for i in range(d + 1))
    return 2.0 * d * vol / face_sum


def _face_diameter(mesh, fverts) -> float:
    pts = mesh.coords[list(fverts)]
    if mesh.dim == 2:
        return float(np.linalg.norm(pts[1] - pts[0]))
    a = float(np.linalg.norm(pts[1] - pts[0]))
    b = float(np.linalg.norm(pts[2] - pts[1]))
    c = float(np.linalg.norm(pts[0] - pts[2]))
    area = 0.5 * float(np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])))
    return 4.0 * area / (a + b + c)


def _face_quadrature(mesh, sid: int, local: int):
    """Physical points, weights, and face vertex ids for face `local` of sid.

    2-point Gauss on edges, 3-point (edge midpoint) rule on triangle faces.
    """
    verts = mesh.sverts[sid]
    fverts = [int(v) for k, v in enumerate(verts[: mesh.dim + 1]) if k != local]
    pts = mesh.coords[fverts]
    _, meas = mesh.face_normal(sid, local)
    if mesh.dim == 2:
        rule = face_rule(2, 2)
        ref = np.atleast_2d(rule.points)
        ref_vol = 1.0
    else:
        rule = default_rule(2)
        ref = rule.points
        ref_vol = 0.5
    xq = pts[0] + ref @ (pts[1:] - pts[0])
    wq = rule.weights * (meas / ref_vol)
    # barycentric values of the face vertices at each point
    bary = np.column_stack([1.0 - ref.sum(axis=1), ref])
    return xq, wq, fverts, bary


def residual_indicator(problem: ProblemDefinition, u: SolutionField,
                       p: float = 2.0) -> IndicatorField:
    """Residual-based indicator; eta_s^p collects the volume residual with
    weight h_s^p, half the flux-jump terms of interior faces with weight h_f,
    and neumann-face residuals with weight h_f."""

    mesh = u.mesh
    el = linear_element(mesh.dim)
    rule = default_rule(mesh.dim)
    acc = {}
    side_cache = {}
    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s, el)
        uloc = u.values[mesh.sverts[s]]
        gu = uloc.T @ grads
        side_cache[s] = (uloc, gu, grads)
        vol = abs(geom.volume())
        ref_vol = 0.5 if mesh.dim == 2 else 1.0 / 6.0
        xq = geom.to_physical(rule.points)
        wq = rule.weights * (vol / ref_vol)
        bary = rule.barycentric
        term = 0.0
        for q in range(len(wq)):
            x = xq[q]
            uq = bary[q] @ uloc
            r0 = np.asarray(at_point(problem.SFt, 0, x, None, uq, gu), dtype=float)
            term += wq[q] * float(np.sum(np.abs(r0) ** p))
        acc[s] = inscribed_diameter(mesh, s) ** p * term

    for s in mesh.live_simplices():
        s = int(s)
        uloc_s, gu_s, grads_s = side_cache[s]
        for i in range(mesh.dim + 1):
            fl = int(mesh.sflags[s, i])
            if fl == DIRICHLET:
                continue
            xq, wq, fverts, bary = _face_quadrature(mesh, s, i)
            n, _ = mesh.face_normal(s, i)
            hf = _face_diameter(mesh, fverts)
            if fl == NEUMANN:
                term = 0.0
                for q in range(len(wq)):
                    uq = bary[q] @ u.values[fverts]
                    r1 = np.asarray(at_point(problem.SFt, 1, xq[q], n, uq, gu_s), dtype=float)
                    term += wq[q] * float(np.sum(np.abs(r1) ** p))
                acc[s] += hf * term
                continue
            t = mesh.neighbor(s, i)
            if t < 0 or t < s:
                continue   # interior face handled from the lower-id side
            uloc_t, gu_t, grads_t = side_cache[t]
            term = 0.0
            for q in range(len(wq)):
                uq = bary[q] @ u.values[fverts]
                flux_s = np.asarray(at_point(problem.SFt, 2, xq[q], n, uq, gu_s), dtype=float)
                flux_t = np.asarray(at_point(problem.SFt, 2, xq[q], n, uq, gu_t), dtype=float)
                term += wq[q] * float(np.sum(np.abs(flux_s - flux_t) ** p))
            half = 0.5 * hf * term
            acc[s] += half
            acc[t] += half

    eta = {s: v ** (1.0 / p) for s, v in acc.items()}
    return IndicatorField(mesh, eta, p)


def functional_load(mesh, psi, nc: int) -> np.ndarray:
    """Vector of <psi, basis_i> integrals, with the assembly quadrature rule
    (so a self-adjoint problem with psi = its own load reproduces the primal
    system exactly)."""
    rule = default_rule(mesh.dim)
    b = np.zeros(mesh.n_vertices * nc)
    ref_vol = 0.5 if mesh.dim == 2 else 1.0 / 6.0
    el = linear_element(mesh.dim)
    bary = rule.barycentric
    for s in mesh.live_simplices():
        s = int(s)
        geom, _ = _element_data(mesh, s, el)
        xq = geom.to_physical(rule.points)
        wq = rule.weights * (abs(geom.volume()) / ref_vol)
        verts = mesh.sverts[s]
        for q in range(len(wq)):
            pv = np.asarray(psi(xq[q]), dtype=float)
            for j, vj in enumerate(verts):
                b[vj * nc:(vj + 1) * nc] += wq[q] * bary[q, j] * pv
    return b


def dual_indicator(problem: ProblemDefinition, u: SolutionField, weights):
    """Error-representation indicator.

    Evaluates <residual(u), w> with w = phi - (nodal interpolant of phi on u's
    space), elementwise over the dual mesh, and aggregates each contribution
    to the primal ancestor element (interior-face terms split half/half).
    Returns (IndicatorField on u's mesh, signed estimate of <error, psi>).
    """
    mesh = weights.fine_mesh
    nc = problem.n_components
    ncv = weights.n_coarse_vertices
    if weights.same_space:
        w_flat = np.zeros(mesh.n_vertices * nc)
        u_fine = u
    else:
        coarse_part = weights.phi.values[:ncv].ravel()
        w_flat = weights.phi.flat - weights.prolongation @ coarse_part
        u_fine = SolutionField.from_flat(mesh, nc, weights.prolongation @ u.flat)
    w = SolutionField.from_flat(mesh, nc, w_flat)

    el = linear_element(mesh.dim)
    rule = fine_rule(mesh.dim, 3)
    ref_vol = 0.5 if mesh.dim == 2 else 1.0 / 6.0
    bary = rule.barycentric
    contrib = {s: 0.0 for s in weights.coarse_live}
    side_cache = {}
    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s, el)
        uloc = u_fine.values[mesh.sverts[s]]
        gu = uloc.T @ grads
        side_cache[s] = (uloc, gu, grads)
        xq = geom.to_physical(rule.points)
        wq = rule.weights * (abs(geom.volume()) / ref_vol)
        wloc = w.values[mesh.sverts[s]]
        term = 0.0
        for q in range(len(wq)):
            x = xq[q]
            uq = bary[q] @ uloc
            wv = bary[q] @ wloc
            r0 = np.asarray(at_point(problem.SFt, 0, x, None, uq, gu), dtype=float)
            term += wq[q] * float(r0 @ wv)
        contrib[coarse_ancestor(mesh, s, weights.coarse_live)] += term

    for s in mesh.live_simplices():
        s = int(s)
        uloc_s, gu_s, grads_s = side_cache[s]
        for i in range(mesh.dim + 1):
            fl = int(mesh.sflags[s, i])
            if fl == DIRICHLET:
                continue
            if fl == NEUMANN:
                xq, wq, fverts, fb = _face_quadrature(mesh, s, i)
                n, _ = mesh.face_normal(s, i)
                term = 0.0
                for q in range(len(wq)):
                    uq = fb[q] @ u_fine.values[fverts]
                    wv = fb[q] @ w.values[fverts]
                    r1 = np.asarray(at_point(problem.SFt, 1, xq[q], n, uq, gu_s), dtype=float)
                    term += wq[q] * float(r1 @ wv)
                contrib[coarse_ancestor(mesh, s, weights.coarse_live)] += term
                continue
            t = mesh.neighbor(s, i)
            if t < 0 or t < s:
                continue
            uloc_t, gu_t, grads_t = side_cache[t]
            xq, wq, fverts, fb = _face_quadrature(mesh, s, i)
            # n leaves s; the jump is (value on the side n leaves) - (value it enters)
            n, _ = mesh.face_normal(s, i)
            term = 0.0
            for q in range(len(wq)):
                uq = fb[q] @ u_fine.values[fverts]
                wv = fb[q] @ w.values[fverts]
                flux_s = np.asarray(at_point(problem.SFt, 2, xq[q], n, uq, gu_s), dtype=float)
                flux_t = np.asarray(at_point(problem.SFt, 2, xq[q], n, uq, gu_t), dtype=float)
                term += wq[q] * float((flux_s - flux_t) @ wv)
            half = 0.5 * term
            contrib[coarse_ancestor(mesh, s, weights.coarse_live)] += half
            contrib[coarse_ancestor(mesh, t, weights.coarse_live)] += half

    # <e, psi> = -<F(u_h), phi - P_h phi>: the linearization satisfies
    # A(u - u_h) = F(u) - F(u_h) = -F(u_h) at the exact solution
    estimate = -float(sum(contrib.values()))
    eta = {s: abs(v) for s, v in contrib.items()}
    return IndicatorField(u.mesh, eta, 2.0), estimate


def interpolate(mesh, fn, n_components: int = 1) -> SolutionField:
    u = SolutionField.zeros(mesh, n_components)
    for v in range(mesh.n_vertices):
        u.values[v] = np.atleast_1d(fn(mesh.coords[v]))
    return u


def domain_average(mesh, n_components: int = 1):
    """psi for the mean-error functional: constant 1/|domain| per component."""
    vol = sum(abs(mesh.signed_volume(int(s))) for s in mesh.live_simplices())
    w = 1.0 / vol

    def psi(x):
        return np.full(n_components, w)

    return psi


def evaluate_functional(mesh, u, psi, n_components: int = None) -> float:
    """Integral of u . psi over the mesh; u is a SolutionField or a callable."""
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
                uq = np.tensordot(lam[q], u.values[mesh.sverts[s]], axes=(0, 0))
            else:
                uq = np.atleast_1d(u(xq[q]))
            pq = np.atleast_1d(psi(xq[q]))
            total += w * float(uq @ pq)
    return total
