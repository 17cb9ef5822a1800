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
`at_point`, and every datum declared `batched` through `data_at`.
`inscribed_diameter` is the library's former version, copied so
that the oracle computes element sizes on its own, and `coarse_ancestor`
walks the genealogy one simplex at a time.

`sampled_measure_error` is the library's error measurement as it stood
before `Mesh.sample_rows` kept each simplex row's samples of the exact
solution: it reads `exact` and `exact_grad` through `sample` at every
fine-rule point on every call.  It is the reference for the cache in
`test_sample_rows.py`.

`interpolate`, `domain_average` and `evaluate_functional` are the library's
former pointwise helpers; only tests use them.  `evaluate_functional` walks
the mesh on its own and is the independent reference for the dual estimate.

`IndicatorField`, `mark`, `Decomposition`, `decompose`, `taper_weights` and
`partition_of_unity` (with `_vertex_incidence` and `_grow_rings`) are the
library's former dict- and set-keyed versions, copied unchanged: the
indicators above return this `IndicatorField`, whose `eta` maps simplex id to
value, and they are the reference for the array versions of `afem.indicators`
and `afem.ppum` in `test_ppum_oracle.py`.  The changes since: `mark`'s
equidistribution cut carries the same rounding margin as the library's, so a
field of equal values marks nothing in both, and the exponent p, which was
never anything but 2, is written as 2 here (and in `residual_indicator`) as
in the library.

`build_blend_mesh` and `blend` are the library's former blend stage, copied
with the one-point `barycentric`, `root_ancestor` and `locate` the mesh used
to provide (now functions of the mesh): the blend mesh replays each owner's
refinement by matching (coarse ancestor, child-index path) keys, and `blend`
locates one vertex in one local mesh at a time.  They are the reference for
the array versions in `test_ppum_oracle.py`.

`refine_marked` is the library's former bisection, one simplex at a time,
with `_bisect_one`, `_child_flags`, `_midpoint_class`, `refinement_edge` and
the 3D `initial_order`, copied as functions of the mesh: the vertex rings the
mesh used to keep are built from the live simplices on entry and kept by the
oracle alone.  `neighbor` finds the simplex across a face by a search of the
live simplices, apart from the mesh's face tables.  They are the reference
for the array passes of `Mesh.refine_marked` in `test_mesh_tables.py`.

The mesh construction that `Mesh.from_arrays` replaced is kept last: the
loop generators `unit_square`, `l_shape`, `unit_cube`, `sphere_in_box` and
`annulus`, one vertex and one simplex at a time through `add_vertex` and
`add_simplex` (both write one row to every column of `Mesh._columns`, as
`_push_simplex` does), then `_drop_isolated` and `finalize`, whose 3D order
comes from `initial_order`.  The vertex classes that `finalize` (one simplex
at a time) and `_midpoint_class` compute are kept by the oracle alone and
read through `vclass`, apart from the library's derived `Mesh.vclass`.  With
them are the per-simplex volume and shape measures (`signed_volume_of_points`,
`shape_of_points` and their per-id forms) and the per-row text writer
`dumps_rows`.  They are the reference for
the generators in `test_mesh.py`, for `signed_volumes`/`shapes` and for
`mesh_io`'s block writer in `test_mesh_io.py`.

Last come the built-in problems' data as functions of one point x (d,), as
they stood before `afem.problems` and the config's `gaussian:` spec wrote
them as `batched` numpy expressions over blocks of points: the exact
solutions and gradients, `momentum_manufactured`'s jhat, the demo rho, the
gaussian, `ConstraintCoefficients.dirichlet_vector` and the three constraint
forms' dirichlet data (`forms_dirichlet`).  They are the reference for
`test_batched_data.py`.

`hamiltonian_forms` and `momentum_forms` are the scalar and vector
constraint problems as they stood before `afem.problems` posed them as
restrictions of the coupled forms: closed-form flux and source, their own
Robin face terms (`_robin`) and Jacobians (`_scalar_jacobian`), the scalar
one taking the source that `hamiltonian_manufactured_source` gives.  They
are the reference for the restriction in `test_problems.py`.
`packed_SFt` is `ProblemDefinition.SFt` as it stood when every problem gave
one packed `Ft`: it reads the source, the flux and the face term back out of
`Ft(0)` and `Ft(1)`.  With `packed_Ft`, which lays the pieces out in that
packing on its own, it is the reference for the template's `Ft` and `SFt` in
`test_problems.py`.

`prolongation_from_refinement` is the library's former transfer operator: it
builds each row with a dict, one vertex at a time in id order, from the rows
of the vertex's parents.  `export_vtk` is the former VTK writer, one line per
vertex, simplex and value.  They are the reference for the sparse fixed point
of `afem.multilevel` in `test_multilevel.py` and for the block writer of
`afem.vtk` in `test_vtk_cli.py`.

`ElementGeometry` is the affine map of one simplex, which the per-point
loops read; it is also the per-simplex reference for the `det` and `grads`
columns of `Mesh.tables()`.  `demo_constraint_coefficients` is the desk-scale
constraint data, batched, that the constraint-form tests share.

`gauss_seidel` is the smoother written as the textbook sequential update, one
unknown at a time over the matrix rows, each new value used at once.  It is
the reference for `MultilevelHierarchy.sweep`'s cached triangular factors in
`test_multilevel.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse as sp

from afem.elements import REF_GRADS, default_rule, face_rule, fine_rule
from afem.mesh import (DIRICHLET, INTERIOR, LOCAL_FACES, MAX_CLOSURE_PASSES, NEUMANN, Mesh,
                       MeshError, _across)
from afem.multilevel import MultilevelError
from afem.ppum import PartitionOfUnity, PpumError
from afem.assembly import _dot, _point_values, _row_sums
from afem.problem import ProblemDefinition, ProblemError, SolutionField, batched, sample
from afem.problems import (PHI_FLOOR, ConstraintCoefficients, _dot2, _lw, _lw_matrix,
                           _momentum_source, hamiltonian_Pprime, hamiltonian_Pprime_slope)

_INTERIOR_T = 0
_BOUNDARY_T = 1


@dataclass
class ElementGeometry:
    """Affine map of one simplex: x = p0 + J xi."""

    pts: np.ndarray
    jac: np.ndarray
    det: float
    inv_t: np.ndarray  # J^{-T}, pushes reference gradients forward

    @classmethod
    def of(cls, pts: np.ndarray) -> "ElementGeometry":
        pts = np.asarray(pts, dtype=float)
        jac = (pts[1:] - pts[0]).T
        det = float(np.linalg.det(jac))
        inv_t = np.linalg.inv(jac).T
        return cls(pts, jac, det, inv_t)

    def to_physical(self, ref_points: np.ndarray) -> np.ndarray:
        return self.pts[0] + np.atleast_2d(ref_points) @ self.jac.T

    def volume(self) -> float:
        d = self.pts.shape[1]
        return self.det / (2.0 if d == 2 else 6.0)


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


def data_at(v, x):
    """The datum v at the single point x; a `batched` datum is called on the
    block of that one point."""
    return v(x[None])[0] if getattr(v, "batched", False) is True else v(x)


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


def _element_data(mesh, sid):
    geom = ElementGeometry.of(mesh.coords[mesh.sverts[sid]])
    grads = REF_GRADS[mesh.dim] @ geom.inv_t.T
    return geom, grads


def assemble_residual(problem: ProblemDefinition, u: SolutionField) -> np.ndarray:
    mesh = u.mesh
    nc = problem.n_components
    rule = default_rule(mesh.dim)
    bas = rule.barycentric
    bary = rule.barycentric
    r = np.zeros(mesh.n_vertices * nc)

    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s)
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
    for bf in _boundary_faces(mesh):
        if bf.bclass != NEUMANN:
            continue
        s = bf.simplex
        geom, grads = _element_data(mesh, s)
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
    rule = default_rule(mesh.dim)
    bas = rule.barycentric
    bary = rule.barycentric
    rows, cols, vals = [], [], []

    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s)
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
    for bf in _boundary_faces(mesh):
        if bf.bclass != NEUMANN:
            continue
        s = bf.simplex
        geom, grads = _element_data(mesh, s)
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
    rule = fine_rule(mesh.dim)
    bas = rule.barycentric
    l2sq = 0.0
    h1sq = 0.0
    for s in mesh.live_simplices():
        s = int(s)
        geom = ElementGeometry.of(mesh.coords[mesh.sverts[s]])
        grads = REF_GRADS[mesh.dim] @ geom.inv_t.T
        verts = mesh.sverts[s]
        uloc = u.values[verts]
        gu = uloc.T @ grads
        xq = geom.to_physical(rule.points)
        for q in range(len(rule.weights)):
            w = rule.weights[q] * abs(geom.det)
            diff = bas[q] @ uloc - np.atleast_1d(data_at(exact, xq[q]))
            l2sq += w * float(diff @ diff)
            if exact_grad is not None:
                gdiff = gu - np.atleast_2d(data_at(exact_grad, xq[q]))
                h1sq += w * float((gdiff * gdiff).sum())
    l2 = np.sqrt(l2sq)
    h1 = np.sqrt(l2sq + h1sq) if exact_grad is not None else float("nan")
    return l2, h1


def sampled_measure_error(mesh, u: SolutionField, exact, exact_grad=None):
    """`afem.assembly.measure_error` as it stood before `Mesh.sample_rows`:
    the same array pass over the element rows of `mesh.tables()`, with exact
    and exact_grad read through `sample` at every fine-rule point of every
    live simplex on each call."""
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


def coarse_ancestor(mesh, sid: int, coarse_live) -> int:
    """The ancestor of sid (or sid itself) in coarse_live."""
    s = int(sid)
    while s not in coarse_live:
        s = int(mesh.sparent[s])
    return s


def inscribed_diameter(mesh, sid: int) -> float:
    """Diameter of the inscribed sphere: 2 d |s| / (sum of face measures)."""
    d = mesh.dim
    vol = abs(signed_volume(mesh, sid))
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


def residual_indicator(problem: ProblemDefinition, u: SolutionField) -> IndicatorField:
    """Residual-based indicator; eta_s^2 collects the volume residual with
    weight h_s^2, half the flux-jump terms of interior faces with weight h_f,
    and neumann-face residuals with weight h_f."""

    mesh = u.mesh
    rule = default_rule(mesh.dim)
    acc = {}
    side_cache = {}
    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s)
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
            term += wq[q] * float(np.sum(np.abs(r0) ** 2))
        acc[s] = inscribed_diameter(mesh, s) ** 2 * term

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
                    term += wq[q] * float(np.sum(np.abs(r1) ** 2))
                acc[s] += hf * term
                continue
            t = neighbor(mesh, s, i)
            if t < 0 or t < s:
                continue   # interior face handled from the lower-id side
            uloc_t, gu_t, grads_t = side_cache[t]
            term = 0.0
            for q in range(len(wq)):
                uq = bary[q] @ u.values[fverts]
                flux_s = np.asarray(at_point(problem.SFt, 2, xq[q], n, uq, gu_s), dtype=float)
                flux_t = np.asarray(at_point(problem.SFt, 2, xq[q], n, uq, gu_t), dtype=float)
                term += wq[q] * float(np.sum(np.abs(flux_s - flux_t) ** 2))
            half = 0.5 * hf * term
            acc[s] += half
            acc[t] += half

    eta = {s: v ** 0.5 for s, v in acc.items()}
    return IndicatorField(mesh, eta)


def functional_load(mesh, psi, nc: int) -> np.ndarray:
    """Vector of <psi, basis_i> integrals, with the assembly quadrature rule:
    with psi a problem's source at u = 0 it is that residual, bitwise in 2D;
    in 3D the weights |det/6| / (1/6) round apart from |det|."""
    rule = default_rule(mesh.dim)
    b = np.zeros(mesh.n_vertices * nc)
    ref_vol = 0.5 if mesh.dim == 2 else 1.0 / 6.0
    bary = rule.barycentric
    for s in mesh.live_simplices():
        s = int(s)
        geom, _ = _element_data(mesh, s)
        xq = geom.to_physical(rule.points)
        wq = rule.weights * (abs(geom.volume()) / ref_vol)
        verts = mesh.sverts[s]
        for q in range(len(wq)):
            pv = np.asarray(data_at(psi, xq[q]), dtype=float)
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
    mesh = weights.phi.mesh
    nc = problem.n_components
    ncv = u.mesh.n_vertices
    coarse_part = weights.phi.values[:ncv].ravel()
    w_flat = weights.phi.flat - weights.prolongation @ coarse_part
    u_fine = SolutionField.from_flat(mesh, nc, weights.prolongation @ u.flat)
    w = SolutionField.from_flat(mesh, nc, w_flat)

    rule = fine_rule(mesh.dim, 3)
    ref_vol = 0.5 if mesh.dim == 2 else 1.0 / 6.0
    bary = rule.barycentric
    contrib = {int(s): 0.0 for s in u.mesh.live_simplices()}
    coarse_live = set(contrib)
    side_cache = {}
    for s in mesh.live_simplices():
        s = int(s)
        geom, grads = _element_data(mesh, s)
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
        contrib[coarse_ancestor(mesh, s, coarse_live)] += term

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
                contrib[coarse_ancestor(mesh, s, coarse_live)] += term
                continue
            t = neighbor(mesh, s, i)
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
            contrib[coarse_ancestor(mesh, s, coarse_live)] += half
            contrib[coarse_ancestor(mesh, t, coarse_live)] += half

    # <e, psi> = -<F(u_h), phi - P_h phi>: the linearization satisfies
    # A(u - u_h) = F(u) - F(u_h) = -F(u_h) at the exact solution
    estimate = -float(sum(contrib.values()))
    eta = {s: abs(v) for s, v in contrib.items()}
    return IndicatorField(u.mesh, eta), estimate


def interpolate(mesh, fn, n_components: int = 1) -> SolutionField:
    u = SolutionField.zeros(mesh, n_components)
    for v in range(mesh.n_vertices):
        u.values[v] = np.atleast_1d(data_at(fn, mesh.coords[v]))
    return u


def domain_average(mesh, n_components: int = 1):
    """psi for the mean-error functional: constant 1/|domain| per component."""
    vol = sum(abs(signed_volume(mesh, int(s))) for s in mesh.live_simplices())
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
                uq = np.atleast_1d(data_at(u, xq[q]))
            pq = np.atleast_1d(data_at(psi, xq[q]))
            total += w * float(uq @ pq)
    return total


# ------------------------------------------- marking and decomposition, by id

@dataclass
class IndicatorField:
    """Per-simplex nonnegative error indicator values."""

    mesh: Mesh
    eta: dict          # live simplex id -> eta_s >= 0
    marked: set = dfield(default_factory=set)

    def total(self) -> float:
        return float(sum(v ** 2 for v in self.eta.values()) ** 0.5)

    def max(self) -> float:
        return max(self.eta.values()) if self.eta else 0.0


def mark(field: IndicatorField, strategy: str = "hybrid", theta: float = None):
    """Choose simplices to refine; returns a sorted id list and records it on
    the field.

    equidistribution: eta_s^2 > theta^2 * total^2 / N   (strict)
    maximum:          eta_s  >= theta * max eta
    hybrid:           largest values until they carry >= theta of total^2
    """
    items = sorted(field.eta.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    if strategy == "equidistribution":
        theta = 1.0 if theta is None else theta
        n = len(field.eta)
        if n:
            mean = sum(v ** 2 for v in field.eta.values()) / n
            # the rounding bound of the summed mean, so equal values mark nothing
            cut = theta ** 2 * mean * (1.0 + (n + 1) * np.finfo(float).eps)
            out = [s for s, v in items if v ** 2 > cut]
    elif strategy == "maximum":
        theta = 0.5 if theta is None else theta
        top = field.max()
        if top > 0.0:
            out = [s for s, v in items if v >= theta * top]
    elif strategy == "hybrid":
        theta = 0.5 if theta is None else theta
        total_sq = sum(v ** 2 for v in field.eta.values())
        if total_sq > 0.0:
            run = 0.0
            for s, v in items:
                if run >= theta * total_sq:
                    break
                out.append(s)
                run += v ** 2
    else:
        raise ValueError(f"unknown marking strategy {strategy!r}")
    if not (theta > 0.0 and theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    out = sorted(out)
    field.marked = set(out)
    return out


@dataclass
class Decomposition:
    """Owner labels and overlap regions over the coarse mesh's live simplices.

    owner maps every live simplex to exactly one subdomain; overlap[i] is the
    owned set grown by `layers` rings of vertex-adjacent simplices.  max_cover
    is the largest number of overlap regions any one simplex belongs to.
    """

    n_subdomains: int
    owner: dict
    overlap: list
    layers: int
    max_cover: int

    def owned(self, i: int) -> set:
        return {s for s, o in self.owner.items() if o == i}


def _vertex_incidence(mesh: Mesh, live) -> dict:
    inc = {}
    for s in live:
        for v in mesh.sverts[s]:
            inc.setdefault(int(v), []).append(int(s))
    return inc


def _grow_rings(mesh: Mesh, seed: set, live: set, layers: int, inc: dict):
    """Region rings 0..layers: ring 0 is the seed, ring k adds every live
    simplex sharing a vertex with the region so far."""
    rings = [set(seed)]
    region = set(seed)
    for _ in range(layers):
        verts = {int(v) for s in region for v in mesh.sverts[s]}
        ring = {s for v in verts for s in inc.get(v, ()) if s in live} - region
        rings.append(ring)
        region |= ring
    return rings


def decompose(mesh: Mesh, indicators: IndicatorField, n_parts: int,
              layers: int = 2) -> Decomposition:
    """Error-weighted recursive coordinate bisection of the live simplices.

    Each cut splits the current set at the weighted median of the barycenter
    coordinate with the largest extent, so both sides carry (as nearly as one
    simplex allows) proportional shares of the total indicator mass.  A zero
    field falls back to counting simplices.  Deterministic: ties break on
    simplex id.
    """
    live = [int(s) for s in mesh.live_simplices()]
    if n_parts < 1:
        raise PpumError("subdomain count must be at least 1")
    if n_parts > len(live):
        raise PpumError(
            f"cannot split {len(live)} simplices into {n_parts} subdomains")
    if layers < 1:
        raise PpumError("overlap must be at least one simplex layer")

    weight = {s: indicators.eta.get(s, 0.0) ** 2 for s in live}
    if sum(weight.values()) <= 0.0:
        weight = {s: 1.0 for s in live}
    bary = {s: mesh.coords[mesh.sverts[s]].mean(axis=0) for s in live}

    owner = {}

    def split(ids, parts, label):
        if parts == 1:
            for s in ids:
                owner[s] = label
            return
        lo = parts // 2
        pts = np.array([bary[s] for s in ids])
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = sorted(ids, key=lambda s: (bary[s][axis], s))
        total = sum(weight[s] for s in order)
        target = total * lo / parts
        run, cut, best = 0.0, 1, None
        for k, s in enumerate(order[:-1], start=1):
            run += weight[s]
            gap = abs(run - target)
            if best is None or gap < best:
                best, cut = gap, k
        # both sides must stay splittable
        cut = max(lo, min(cut, len(order) - (parts - lo)))
        split(order[:cut], lo, label)
        split(order[cut:], parts - lo, label + lo)

    split(sorted(live), n_parts, 0)

    live_set = set(live)
    inc = _vertex_incidence(mesh, live)
    overlap = []
    for i in range(n_parts):
        seed = {s for s, o in owner.items() if o == i}
        rings = _grow_rings(mesh, seed, live_set, layers, inc)
        overlap.append(frozenset().union(*rings))
    cover = {s: sum(1 for reg in overlap if s in reg) for s in live}
    return Decomposition(n_parts, owner, overlap, layers, max(cover.values()))


def taper_weights(mesh: Mesh, dec: Decomposition) -> np.ndarray:
    """Raw (un-normalized) coarse-vertex taper per subdomain.

    Weight 1 on vertices of owned simplices, decreasing linearly per overlap
    ring, exactly 0 on the outermost ring's new vertices; every simplex
    touching a vertex with positive weight lies inside the overlap region, so
    the interpolated weight is supported there.
    """
    live = {int(s) for s in mesh.live_simplices()}
    inc = _vertex_incidence(mesh, sorted(live))
    nv = mesh.n_vertices
    w = np.zeros((nv, dec.n_subdomains))
    for i in range(dec.n_subdomains):
        seed = dec.owned(i)
        rings = _grow_rings(mesh, seed, live, dec.layers, inc)
        dist = {}
        for k, ring in enumerate(rings):
            for s in ring:
                for v in mesh.sverts[s]:
                    dist.setdefault(int(v), k)
        for v, d in dist.items():
            w[v, i] = max(0.0, (dec.layers - d) / dec.layers)
    if np.any(w.sum(axis=1)[list({v for s in live for v in mesh.sverts[s]})] <= 0.0):
        raise PpumError("taper left a vertex with no supporting subdomain")
    return w


def partition_of_unity(blend_mesh: Mesh, n_coarse_vertices: int,
                       coarse_weights: np.ndarray) -> PartitionOfUnity:
    """Propagate coarse taper weights through the vertex genealogy (midpoint
    averaging keeps them piecewise linear), then normalize rows to sum to 1."""
    nv = blend_mesh.n_vertices
    w = np.zeros((nv, coarse_weights.shape[1]))
    w[:n_coarse_vertices] = coarse_weights
    vp = blend_mesh.vparents
    for v in range(n_coarse_vertices, nv):
        a, b = int(vp[v, 0]), int(vp[v, 1])
        if a < 0 or b < 0:
            raise PpumError(f"blend vertex {v} has no genealogy parents")
        w[v] = 0.5 * (w[a] + w[b])
    total = w.sum(axis=1)
    if np.any(total <= 0.0):
        raise PpumError("partition of unity is zero at some vertex")
    return PartitionOfUnity(blend_mesh, w / total[:, None])


# ---------------------------------------------------------------- blend stage

def barycentric(mesh: Mesh, sid: int, x) -> np.ndarray:
    pts = mesh.coords[mesh.sverts[sid]]
    t = (pts[1:] - pts[0]).T
    lam = np.linalg.solve(t, np.asarray(x, dtype=float) - pts[0])
    return np.concatenate([[1.0 - lam.sum()], lam])


def root_ancestor(mesh: Mesh, sid: int) -> int:
    s = int(sid)
    while mesh.sparent[s] >= 0:
        s = int(mesh.sparent[s])
    return s


def locate(mesh: Mesh, x, root: int) -> int:
    """Live descendant of root containing point x, found by genealogy descent."""
    s = int(root)
    while mesh.schildren[s, 0] >= 0:
        c0, c1 = (int(c) for c in mesh.schildren[s])
        b0 = barycentric(mesh, c0, x).min()
        b1 = barycentric(mesh, c1, x).min()
        # descend into the child holding x most interiorly; ties take child0
        s = c0 if b0 >= b1 else c1
    if barycentric(mesh, s, x).min() < -1e-9:
        raise MeshError(f"point {np.asarray(x)} escaped genealogy descent at simplex {s}")
    return s


def _child_path(mesh: Mesh, sid: int, coarse_live: set):
    """(coarse ancestor, tuple of 0/1 child picks) identifying sid's position
    in the refinement tree under the coarse level."""
    s = int(sid)
    path = []
    while s not in coarse_live:
        parent = int(mesh.sparent[s])
        if parent < 0:
            raise PpumError(f"simplex {sid} has no ancestor on the coarse level")
        path.append(0 if int(mesh.schildren[parent, 0]) == s else 1)
        s = parent
    return s, tuple(reversed(path))


def _refined_paths(mesh: Mesh, coarse_live: set) -> set:
    """All (root, path) keys whose simplex was bisected in this mesh."""
    out = set()
    for r in sorted(coarse_live):
        stack = [(int(r), ())]
        while stack:
            s, path = stack.pop()
            c0 = int(mesh.schildren[s, 0])
            if c0 >= 0:
                out.add((r, path))
                stack.append((c0, path + (0,)))
                stack.append((int(mesh.schildren[s, 1]), path + (1,)))
    return out


def build_blend_mesh(coarse: Mesh, dec, local_meshes) -> Mesh:
    """Union-refinement output mesh: replay, inside each owned region, the
    owning subdomain's refinement pattern, then let conformity closure stitch
    region boundaries.  Bisection is deterministic, so identical tree paths
    produce identical simplices.  dec is an `afem.ppum.Decomposition`.
    """
    coarse_live = {int(s) for s in coarse.live_simplices()}
    refined = [_refined_paths(m, coarse_live) for m in local_meshes]
    bm = coarse.copy()
    while True:
        marks = []
        for s in bm.live_simplices():
            root, path = _child_path(bm, int(s), coarse_live)
            if (root, path) in refined[dec.owner[np.searchsorted(dec.ids, root)]]:
                marks.append(int(s))
        if not marks:
            return bm
        bm.refine_marked(marks)


def blend(dec, pou: PartitionOfUnity, local_fields) -> SolutionField:
    """Weighted combination u(v) = sum_i phi_i(v) u_i(v) at blend-mesh
    vertices, each u_i evaluated by genealogy descent on its own mesh."""
    bm = pou.mesh
    nc = local_fields[0].n_components
    # a containing initial simplex per vertex, taken from the blend mesh's own
    # live incidence (any one works; locate tolerates faces)
    root_of = np.full(bm.n_vertices, -1, dtype=np.int64)
    for s in bm.live_simplices():
        r0 = root_ancestor(bm, int(s))
        for v in bm.sverts[s]:
            if root_of[v] < 0:
                root_of[v] = r0
    out = np.zeros((bm.n_vertices, nc))
    for v in range(bm.n_vertices):
        x = bm.coords[v]
        row = pou.weights[v]
        acc = np.zeros(nc)
        for i in np.flatnonzero(row):
            fld = local_fields[i]
            try:
                s = locate(fld.mesh, x, int(root_of[v]))
            except MeshError as exc:
                raise PpumError(f"point location failed at blend vertex {v} "
                                f"on subdomain {i}: {exc}") from exc
            bar = np.clip(barycentric(fld.mesh, s, x), 0.0, None)
            bar /= bar.sum()
            acc += row[i] * (bar @ fld.values[fld.mesh.sverts[s]])
        out[v] = acc
    return SolutionField(bm, nc, out)


# ---------------------------------------------------------------- refinement

def neighbor(mesh: Mesh, sid: int, i: int) -> int:
    """Live simplex across face i of sid, or -1 on the boundary, found by a
    search of every live simplex for the face's vertices."""
    face = np.delete(mesh.sverts[sid], i)
    live = mesh.live_simplices()
    shared = live[(np.isin(mesh.sverts[live], face).sum(axis=1) == mesh.dim) & (live != sid)]
    if len(shared) > 1:
        raise MeshError(f"face {i} of simplex {sid} is shared by {len(shared) + 1} simplices")
    return int(shared[0]) if len(shared) else -1


def _longest_edge(mesh: Mesh, verts):
    # longest edge, ties broken on the (min id, max id) pair
    best = None
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            a, b = int(verts[i]), int(verts[j])
            e = mesh.coords[b] - mesh.coords[a]
            key = (-float(e @ e), min(a, b), max(a, b))
            if best is None or key < best[0]:
                best = (key, (min(a, b), max(a, b)))
    return best[1]


def initial_order(mesh: Mesh, sid: int):
    """The 3D bisection order of a new tetrahedron: its longest edge (a, b)
    with the other two vertices, ascending, between them."""
    a, b = _longest_edge(mesh, mesh.sverts[sid])
    mids = sorted(int(v) for v in mesh.sverts[sid] if v not in (a, b))
    return (a, mids[0], mids[1], b)


def refinement_edge(mesh: Mesh, sid: int):
    """Vertex id pair of the edge the next bisection of sid will split."""
    if mesh.dim == 3:
        return int(mesh._sorder[sid, 0]), int(mesh._sorder[sid, 3])
    return _longest_edge(mesh, mesh.sverts[sid])


def refine_marked(mesh: Mesh, marked):
    """Bisect every marked simplex one at a time, then close until the mesh
    conforms again; returns the (parent, child0, child1, midpoint) list and
    the number of passes.

    Each vertex's ring (the set of live simplices touching it), built from
    the live simplices on entry and kept up to date, answers the adjacency
    queries.  Midpoints are deduplicated through a per-call (min vid, max vid)
    map.  Each pass bisects the current queue in ascending order, then
    collects every live simplex still spanning a split edge into the next.
    """
    rings = [set() for _ in range(mesh.n_vertices)]
    for s in mesh.live_simplices():
        for v in mesh.sverts[s]:
            rings[int(v)].add(int(s))
    bisections = []
    edge_map: dict = {}
    queue = sorted(set(int(s) for s in marked))
    for s in queue:
        if s < 0 or s >= mesh.n_slots or mesh.schildren[s, 0] >= 0:
            raise MeshError(f"cannot refine simplex {s}: not a live simplex")
    passes = 0
    while queue:
        passes += 1
        if passes > MAX_CLOSURE_PASSES:
            raise MeshError(
                f"conformity closure exceeded {MAX_CLOSURE_PASSES} passes; "
                f"simplex {queue[0]} still hangs (inconsistent marking?)")
        for s in queue:
            if mesh.schildren[s, 0] < 0:
                _bisect_one(mesh, rings, s, edge_map, bisections)
        nxt = set()
        for (va, vb) in edge_map:
            nxt.update(rings[va] & rings[vb])
        queue = sorted(nxt)
    return bisections, passes


def _midpoint_class(mesh: Mesh, rings, a: int, b: int) -> int:
    # the midpoint is on the boundary iff edge (a,b) lies inside a flagged face
    cls = INTERIOR
    for s in sorted(rings[a] & rings[b]):
        verts = mesh.sverts[s]
        for i in range(mesh.dim + 1):
            fl = int(mesh.sflags[s, i])
            if fl == INTERIOR:
                continue
            fv = set(int(v) for k, v in enumerate(verts) if k != i)
            if a in fv and b in fv:
                if fl == DIRICHLET:
                    return DIRICHLET
                cls = NEUMANN
    return cls


def _child_flags(mesh: Mesh, parent: int, child_verts, a: int, b: int, z: int):
    pverts = [int(v) for v in mesh.sverts[parent]]
    pset = set(pverts)
    flags = []
    for i in range(mesh.dim + 1):
        fset = set(child_verts) - {child_verts[i]}
        if z not in fset:
            j = pverts.index((pset - fset).pop())
            flags.append(int(mesh.sflags[parent, j]))
            continue
        fp = (fset - {z}) | {a, b}
        if len(fp) == mesh.dim + 1:
            flags.append(INTERIOR)  # the cut face is always interior
        else:
            j = pverts.index((pset - fp).pop())
            flags.append(int(mesh.sflags[parent, j]))
    return flags


def _push_simplex(mesh: Mesh, rings, verts, flags, parent, order, tag) -> int:
    sid = _push(mesh, "_ns", _sverts=verts, _sflags=flags, _sparent=parent,
                _schildren=(-1, -1), _sorder=order, _stag=tag)
    for v in verts:
        rings[v].add(sid)
    return sid


def _bisect_one(mesh: Mesh, rings, sid: int, edge_map: dict, bisections: list):
    a, b = refinement_edge(mesh, sid)
    key = (min(a, b), max(a, b))
    z = edge_map.get(key)
    if z is None:
        mid = 0.5 * (mesh.coords[a] + mesh.coords[b])
        z = add_vertex(mesh, mid, bclass=_midpoint_class(mesh, rings, a, b), parents=key)
        rings.append(set())
        edge_map[key] = z
    pverts = [int(v) for v in mesh.sverts[sid]]
    verts0 = [z if v == b else v for v in pverts]  # child containing a
    verts1 = [z if v == a else v for v in pverts]  # child containing b
    flags0 = _child_flags(mesh, sid, verts0, a, b, z)
    flags1 = _child_flags(mesh, sid, verts1, a, b, z)
    if mesh.dim == 3:
        m1, m2 = int(mesh._sorder[sid, 1]), int(mesh._sorder[sid, 2])
        t = int(mesh._stag[sid])
        nt = (t + 1) % 3
        order0 = (a, z, m1, m2)
        order1 = (b, z, m2, m1) if t == 0 else (b, z, m1, m2)
        c0 = _push_simplex(mesh, rings, verts0, flags0, sid, order0, nt)
        c1 = _push_simplex(mesh, rings, verts1, flags1, sid, order1, nt)
    else:
        c0 = _push_simplex(mesh, rings, verts0, flags0, sid, (-1, -1, -1, -1), 0)
        c1 = _push_simplex(mesh, rings, verts1, flags1, sid, (-1, -1, -1, -1), 0)
    mesh._schildren[sid] = (c0, c1)
    for v in pverts:
        rings[v].discard(sid)
    bisections.append((sid, c0, c1, z))


# ------------------------------------------------------------------ construction


def _push(mesh: Mesh, count: str, **row) -> int:
    """Write one row to every vertex (count "_nv") or simplex ("_ns") column."""
    k = getattr(mesh, count)
    for name, (c, _, _) in Mesh._columns(mesh.dim).items():
        if c == count:
            arr = Mesh._grow(getattr(mesh, name), k + 1)
            arr[k] = row[name]
            setattr(mesh, name, arr)
    setattr(mesh, count, k + 1)
    mesh._tables = None
    return k


def vclass(mesh: Mesh) -> np.ndarray:
    """The oracle's vertex classes of mesh, kept on it as `oracle_vclass`,
    apart from the library's derived `Mesh.vclass`: those `finalize` and
    `add_vertex` set or, on a mesh whose vertices they did not all set, the
    live face flags' classes, one simplex at a time."""
    classes = getattr(mesh, "oracle_vclass", None)
    if classes is None or len(classes) != mesh.n_vertices:
        classes = mesh.oracle_vclass = _face_classes(mesh)
    return classes


def _face_classes(mesh: Mesh) -> np.ndarray:
    classes = np.zeros(mesh.n_vertices, np.int8)
    for s in mesh.live_simplices():
        for i in range(mesh.dim + 1):
            fl = mesh.sflags[s, i]
            for v in np.delete(mesh.sverts[s], i):
                if fl == DIRICHLET or (fl != INTERIOR and classes[v] == INTERIOR):
                    classes[v] = DIRICHLET if fl == DIRICHLET else NEUMANN
    return classes


def add_vertex(mesh: Mesh, x, bclass: int = INTERIOR, parents=(-1, -1)) -> int:
    classes = vclass(mesh)
    v = _push(mesh, "_nv", _coords=x, _vparents=parents)
    mesh.oracle_vclass = np.append(classes, np.int8(bclass))
    return v


def add_simplex(mesh: Mesh, verts, flags=None) -> int:
    verts = tuple(int(v) for v in verts)
    if len(verts) != mesh.dim + 1:
        raise MeshError(f"simplex needs {mesh.dim + 1} vertices, got {len(verts)}")
    if len(set(verts)) != len(verts):
        raise MeshError(f"repeated vertex in simplex {verts}")
    if any(v < 0 or v >= mesh.n_vertices for v in verts):
        raise MeshError(f"simplex {verts} references a missing vertex")
    if flags is None:
        flags = (INTERIOR,) * (mesh.dim + 1)
    return _push(mesh, "_ns", _sverts=verts, _sflags=flags, _sparent=-1,
                 _schildren=(-1, -1), _sorder=(-1,) * 4, _stag=0)


def finalize(mesh: Mesh, boundary=None) -> Mesh:
    """Orient the simplices, flag the boundary faces, derive the vertex
    classes and set the 3D bisection order, one simplex at a time."""
    for s in range(mesh.n_slots):
        vol = signed_volume(mesh, s)
        if vol < 0:
            for col in (mesh.sverts, mesh.sflags):
                col[s, [-2, -1]] = col[s, [-1, -2]]
        elif vol == 0:
            raise MeshError(f"simplex {s} is degenerate")
    if boundary is not None:
        across = _across(mesh.sverts, mesh.dim)
        mesh.sflags[across >= 0] = INTERIOR
        for s, i in zip(*np.nonzero(across < 0)):
            if callable(boundary):
                fverts = mesh.sverts[s, LOCAL_FACES[mesh.dim][i]]
                mesh.sflags[s, i] = boundary(mesh.coords[fverts].mean(axis=0))
            else:
                mesh.sflags[s, i] = boundary
    mesh.oracle_vclass = _face_classes(mesh)
    if mesh.dim == 3:
        for s in range(mesh.n_slots):
            mesh._sorder[s] = initial_order(mesh, s)
            mesh._stag[s] = 0
    mesh.check_conformity()
    return mesh


def _drop_isolated(mesh: Mesh):
    # grid builders allocate the full vertex lattice; a cut-out domain leaves
    # vertices no simplex holds
    used = np.unique(mesh.sverts)
    for name in ("_coords", "_vparents"):
        setattr(mesh, name, getattr(mesh, name)[used])
    mesh._nv = len(used)
    mesh.sverts[:] = np.searchsorted(used, mesh.sverts)


def unit_square(n: int = 1, boundary=DIRICHLET) -> Mesh:
    return _grid2(n, n, lambda i, j: True, lambda i, j: (i / n, j / n), boundary)


def l_shape(n: int = 1, boundary=DIRICHLET) -> Mesh:
    def keep(i, j):
        return not (i >= n and j <= n - 1)

    return _grid2(2 * n, 2 * n, keep, lambda i, j: (i / n - 1.0, j / n - 1.0), boundary)


def _grid2(nx, ny, keep, corner, boundary) -> Mesh:
    mesh = Mesh(2)
    vid = {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            vid[(i, j)] = add_vertex(mesh, corner(i, j))
    for j in range(ny):
        for i in range(nx):
            if not keep(i, j):
                continue
            v00, v10 = vid[(i, j)], vid[(i + 1, j)]
            v01, v11 = vid[(i, j + 1)], vid[(i + 1, j + 1)]
            add_simplex(mesh, (v00, v10, v11))
            add_simplex(mesh, (v00, v11, v01))
    _drop_isolated(mesh)
    return finalize(mesh, boundary=boundary)


def unit_cube(n: int = 1, boundary=DIRICHLET) -> Mesh:
    return _grid3(n, lambda i, j, k: True, lambda i, j, k: (i / n, j / n, k / n), boundary)


def _grid3(n, keep, corner, boundary) -> Mesh:
    mesh = Mesh(3)
    vid = {}
    for k in range(n + 1):
        for j in range(n + 1):
            for i in range(n + 1):
                vid[(i, j, k)] = add_vertex(mesh, corner(i, j, k))
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for k in range(n):
        for j in range(n):
            for i in range(n):
                if not keep(i, j, k):
                    continue
                base = np.array([i, j, k])
                for p in perms:
                    path = [base.copy()]
                    for axis in p:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    add_simplex(mesh, tuple(vid[tuple(q)] for q in path))
    _drop_isolated(mesh)
    return finalize(mesh, boundary=boundary)


def annulus(n_r: int = 2, n_t: int = 8, r_inner: float = 0.5, r_outer: float = 1.0,
            boundary=DIRICHLET) -> Mesh:
    mesh = Mesh(2)
    vid = {}
    for i in range(n_r + 1):
        r = r_inner + (r_outer - r_inner) * i / n_r
        for j in range(n_t):
            th = 2.0 * math.pi * j / n_t
            vid[(i, j)] = add_vertex(mesh, (r * math.cos(th), r * math.sin(th)))
    for i in range(n_r):
        for j in range(n_t):
            jn = (j + 1) % n_t
            v00, v10 = vid[(i, j)], vid[(i + 1, j)]
            v01, v11 = vid[(i, jn)], vid[(i + 1, jn)]
            add_simplex(mesh, (v00, v10, v11))
            add_simplex(mesh, (v00, v11, v01))
    return finalize(mesh, boundary=boundary)


def sphere_in_box(n: int, radius: float = 0.4, half_width: float = 1.0,
                  boundary=DIRICHLET) -> Mesh:
    h = 2.0 * half_width / n

    def keep(i, j, k):
        center = np.array([(i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h]) - half_width
        return float(np.linalg.norm(center)) > radius

    return _grid3(n, keep,
                  lambda i, j, k: (i * h - half_width, j * h - half_width, k * h - half_width),
                  boundary)


def signed_volume_of_points(pts: np.ndarray) -> float:
    d = pts.shape[1]
    if d == 2:
        a = pts[1] - pts[0]
        b = pts[2] - pts[0]
        return 0.5 * float(a[0] * b[1] - a[1] * b[0])
    m = np.stack([pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0]])
    return float(np.linalg.det(m)) / 6.0


def shape_of_points(pts: np.ndarray) -> float:
    """Shape measure of the simplex with vertex coordinates pts ((d+1, d) array)."""
    pts = np.asarray(pts, dtype=float)
    d = pts.shape[1]
    vol = signed_volume_of_points(pts)
    ss = 0.0
    for i, j in zip(*np.triu_indices(d + 1, 1)):
        e = pts[j] - pts[i]
        ss += float(e @ e)
    if ss == 0.0 or vol == 0.0:
        return 0.0
    c = 2.0 ** (2.0 * (1.0 - 1.0 / d)) * 3.0 ** ((d - 1) / 2.0)
    return c * math.copysign(abs(vol) ** (2.0 / d), vol) / ss


def signed_volume(mesh: Mesh, sid: int) -> float:
    return signed_volume_of_points(mesh.coords[mesh.sverts[sid]])


def shape_measure(mesh: Mesh, sid: int) -> float:
    return shape_of_points(mesh.coords[mesh.sverts[sid]])


def dumps_rows(mesh: Mesh) -> str:
    """The mesh as `mesh_io` text, written one line at a time."""
    out = ["AFEM-MESH 1\n", f"dim {mesh.dim}\n", f"vertices {mesh.n_vertices}\n"]
    classes = vclass(mesh)
    for v in range(mesh.n_vertices):
        xs = " ".join(repr(float(c)) for c in mesh.coords[v])
        out.append(f"{v} {xs} {int(classes[v])}\n")
    live = mesh.live_simplices()
    out.append(f"simplices {len(live)}\n")
    for k, s in enumerate(live):
        vs = " ".join(str(int(v)) for v in mesh.sverts[s])
        fs = " ".join(str(int(fl)) for fl in mesh.sflags[s])
        out.append(f"{k} {vs} {fs}\n")
    return "".join(out)


# ------------------------------------------------ problem data, one point each

def poisson_data(variant: str):
    """exact and exact_grad of `benchmark_poisson(variant)`; its dirichlet data
    was exact itself."""
    if variant == "square_sine":
        def exact(x):
            return np.array([math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])])

        def exact_grad(x):
            sx, cx = math.sin(math.pi * x[0]), math.cos(math.pi * x[0])
            sy, cy = math.sin(math.pi * x[1]), math.cos(math.pi * x[1])
            return np.array([[math.pi * cx * sy, math.pi * sx * cy]])

        return exact, exact_grad
    if variant == "cube_sine":
        def exact(x):
            return np.array([math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
                             * math.sin(math.pi * x[2])])

        def exact_grad(x):
            s = [math.sin(math.pi * xi) for xi in x]
            cgrad = [math.pi * math.cos(math.pi * x[i]) * s[(i + 1) % 3] * s[(i + 2) % 3]
                     for i in range(3)]
            return np.array([cgrad])

        return exact, exact_grad

    def _polar(x):
        r = math.hypot(x[0], x[1])
        th = math.atan2(x[1], x[0])
        if th < 0.0:
            th += 2.0 * math.pi
        return r, th

    def exact(x):
        r, th = _polar(x)
        return np.array([r ** (2.0 / 3.0) * math.sin(2.0 * th / 3.0)])

    def exact_grad(x):
        r, th = _polar(x)
        if r == 0.0:
            return np.array([[0.0, 0.0]])  # measure-zero; the limit is unbounded
        dr = (2.0 / 3.0) * r ** (-1.0 / 3.0) * math.sin(2.0 * th / 3.0)
        dt = (2.0 / 3.0) * r ** (-1.0 / 3.0) * math.cos(2.0 * th / 3.0)
        ct, st = math.cos(th), math.sin(th)
        return np.array([[dr * ct - dt * st, dr * st + dt * ct]])

    return exact, exact_grad


def bratu_dirichlet(x):
    return np.array([0.0])


def trivial_data(dim: int, coupled: bool):
    """exact and exact_grad of `hamiltonian_trivial` or `coupled_trivial`."""
    if coupled:
        return (lambda x: np.concatenate([[1.0], np.zeros(dim)]),
                lambda x: np.zeros((dim + 1, dim)))
    return lambda x: np.array([1.0]), lambda x: np.zeros((1, dim))


def hamiltonian_manufactured_data():
    """exact and exact_grad of `hamiltonian_manufactured`."""
    def exact(x):
        return np.array([1.0 + 0.25 * (np.sin(math.pi * x[0]) * np.sin(math.pi * x[1]))])

    def exact_grad(x):
        gx = 0.25 * math.pi * math.cos(math.pi * x[0]) * math.sin(math.pi * x[1])
        gy = 0.25 * math.pi * math.sin(math.pi * x[0]) * math.cos(math.pi * x[1])
        return np.array([[gx, gy]])

    return exact, exact_grad


def momentum_manufactured_data():
    """exact, exact_grad and jhat of `momentum_manufactured`."""
    pi = math.pi

    def g_of(x):
        return math.sin(pi * x[0]) * math.sin(pi * x[1]) * math.sin(pi * x[2])

    def dg(x, a):
        t = [math.sin(pi * x[i]) for i in range(3)]
        t[a] = math.cos(pi * x[a])
        return pi * t[0] * t[1] * t[2]

    def d2g(x, a, b):
        if a == b:
            return -pi ** 2 * g_of(x)
        t = [math.sin(pi * x[i]) for i in range(3)]
        t[a] = math.cos(pi * x[a])
        t[b] = math.cos(pi * x[b])
        return pi ** 2 * t[0] * t[1] * t[2]

    def jhat(x):
        # div(LW*)^a = lap W*^a + (1/3) d_a div W*
        lap = -3.0 * pi ** 2 * g_of(x)
        out = np.empty(3)
        for a in range(3):
            ddiv = sum(d2g(x, a, b) for b in range(3))
            out[a] = lap + ddiv / 3.0
        return out / (8.0 * pi)

    return (lambda x: np.full(3, g_of(x)),
            lambda x: np.tile([dg(x, b) for b in range(3)], (3, 1)), jhat)


def gaussian(amp: float, width: float, center):
    """The config's `gaussian:amp=,width=,center=` coefficient."""
    center = np.asarray(center, dtype=float)

    def gauss(x):
        r2 = float(np.sum((np.asarray(x) - center) ** 2))
        return amp * math.exp(-r2 / width)

    return gauss


def demo_constraint_coefficients(dim: int = 2) -> ConstraintCoefficients:
    """Desk-scale excised-region data: constant trace, Gaussian energy density,
    Robin far-field data pulling phi toward 1."""
    center = np.full(dim, 0.0)

    @batched
    def rho(x):
        r2 = np.sum((x - center) ** 2, axis=1)
        return 0.05 * np.exp(-r2 / 0.5)

    return ConstraintCoefficients(
        dim=dim, trK=0.2, rho=rho, robin_c=1.0, robin_z=1.0, dirichlet_f=1.0)


def demo_rho(dim: int):
    """rho of `demo_constraint_coefficients(dim)`."""
    center = np.full(dim, 0.0)

    def rho(x):
        r2 = float(np.sum((np.asarray(x) - center) ** 2))
        return 0.05 * math.exp(-r2 / 0.5)

    return rho


def dirichlet_vector(coeffs, x):
    """`ConstraintCoefficients.dirichlet_vector`: (f, F^1..F^d) at one point."""
    f = float(sample(coeffs.dirichlet_f, [x])[0])
    if not f > PHI_FLOOR:  # NaN too
        what = f"must lie above the phi floor {PHI_FLOOR}" if f > 0.0 else "must be positive"
        raise ProblemError(f"dirichlet_f {what}, got {f} at {tuple(x)}")
    return np.concatenate([[f], sample(coeffs.dirichlet_F, [x], (coeffs.dim,))[0]])


def forms_dirichlet(problem: ProblemDefinition):
    """The dirichlet data of a problem built by `hamiltonian_forms`,
    `momentum_forms` or `coupled_forms`, told apart by its components."""
    coeffs = problem.constraint_coefficients
    if problem.n_components == 1:
        return lambda x: dirichlet_vector(coeffs, x)[:1]
    if problem.n_components == coeffs.dim:
        return lambda x: sample(coeffs.dirichlet_F, [x], (coeffs.dim,))[0]
    return lambda x: dirichlet_vector(coeffs, x)



# ------------------------------------- the scalar and vector forms, closed form

def _scalar_jacobian(n, d, a_gu, b_u):
    """dF/dz (n, d+1, d+1) at n points of a scalar problem with flux
    A = a_gu grad u and a source (or boundary term) of slope b_u in u."""
    k = np.repeat((a_gu * np.eye(d + 1))[None], n, axis=0)
    k[:, d, d] = b_u
    return k


def _robin(coeffs, x, phi=None, w=None):
    """The face term on flux faces: the Robin terms c phi - z (when phi is
    given) and C W - Z (when W is) at the points x."""
    d = coeffs.dim
    cols = []
    if phi is not None:
        cols.append(coeffs.at("robin_c", x) * phi - coeffs.at("robin_z", x))
    if w is not None:
        c = coeffs.at("robin_C", x, (d, d))
        cols.append((c @ w[:, :, None])[:, :, 0] - coeffs.at("robin_Z", x, (d,)))
    return np.column_stack(cols)


def hamiltonian_forms(coeffs, source=None) -> ProblemDefinition:
    """Scalar problem for the conformal factor with W = 0, so (Ahat + LW)^2
    is Ahat^2.  source, when given, is a function of the points x (N, d)
    subtracted from the interior residual (used by the manufactured benchmark
    below).
    """
    d = coeffs.dim

    def potential(fn, x, u):
        # each callback counts its clamped points once, as the coupled forms do
        coeffs.clamps.bump(np.count_nonzero(u[:, 0] < PHI_FLOOR))
        a = coeffs.at("Ahat", x, (d, d))
        return fn(u[:, 0], coeffs.interior_at(x), _dot2(a, a))

    def interior(x, u, gu):
        pp = potential(hamiltonian_Pprime, x, u)
        if source is not None:
            pp = pp - source(x)
        return pp[:, None]

    def DFt(t, x, n, u, gu):
        if t == 1:
            return _scalar_jacobian(len(x), d, 0.0, coeffs.at("robin_c", x))
        return _scalar_jacobian(len(x), d, 1.0, potential(hamiltonian_Pprime_slope, x, u))

    return ProblemDefinition(
        n_components=1, flux=lambda x, u, gu: gu, source=interior,
        face_term=lambda x, u: _robin(coeffs, x, phi=u[:, 0]), DFt=DFt,
        dirichlet=batched(lambda x: coeffs.dirichlet_vector(x)[:, :1]),
        initial_value=np.array([1.0]), constraint_coefficients=coeffs)


def momentum_forms(coeffs) -> ProblemDefinition:
    """Linear vector problem for W with the conformal factor frozen at
    phi = 1, so the phi^6 weight of the trK source is 1."""
    d = coeffs.dim
    m = d * d
    lw_map = _lw_matrix(d)

    def DFt(t, x, n, u, gu):
        k = np.zeros((len(x), m + d, m + d))
        if t == 1:
            k[:, m:, m:] = coeffs.at("robin_C", x, (d, d))
        else:
            k[:, :m, :m] = lw_map
        return k

    return ProblemDefinition(
        n_components=d, flux=lambda x, u, gu: _lw(gu, d),
        source=lambda x, u, gu: _momentum_source(coeffs, x, 1.0),
        face_term=lambda x, u: _robin(coeffs, x, w=u), DFt=DFt,
        dirichlet=batched(lambda x: coeffs.at("dirichlet_F", x, (d,))),
        initial_value=np.zeros(d), constraint_coefficients=coeffs)


def hamiltonian_manufactured_source(x):
    """The source `hamiltonian_manufactured` subtracts, at the points x (N, 2):
    -lap(phi*) + P'(phi*) with lap(phi*) = -(pi^2/2) sin sin."""
    s = np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])
    p = 1.0 + 0.25 * s
    return 0.5 * math.pi ** 2 * s + p + p ** 5 - p ** -3


def packed_Ft(problem, t, x, n, u, gu):
    """The packed F of a problem's pieces, laid out here on its own:
    [A.ravel(), B] at t=0 and [0, C] at t=1, C zero when the face term is
    None."""
    npts, nc, d = gu.shape
    f = np.zeros((npts, nc * (d + 1)))
    if t == 0:
        f[:, :nc * d] = problem.flux(x, u, gu).reshape(npts, nc * d)
        f[:, nc * d:] = problem.source(x, u, gu)
    elif problem.face_term is not None:
        f[:, nc * d:] = problem.face_term(x, u)
    return f


def packed_SFt(problem, t, x, n, u, gu):
    """`ProblemDefinition.SFt` as it stood when a problem gave one packed Ft:
    the source and the flux read from Ft(0), the face term from Ft(1)."""
    f = problem.Ft(0, x, n, u, gu)
    m = f.shape[1] - u.shape[1]
    if t == 0:
        return f[:, m:]
    flux = (f[:, :m].reshape(gu.shape) @ n[:, :, None])[..., 0]
    if t == 2:
        return flux
    return problem.Ft(1, x, n, u, gu)[:, m:] + flux

# ------------------------------------------- field transfer and output, per row

def prolongation_from_refinement(n_coarse_vertices: int, mesh,
                                 n_components: int = 1) -> sp.csr_matrix:
    """Linear interpolation operator from the first n_coarse_vertices onto all
    of mesh's vertices, expanded through the vertex-parent genealogy.

    Surviving coarse vertices map by identity; a midpoint averages its parents,
    recursively resolved when a parent is itself newer than the coarse level.
    """
    nv = mesh.n_vertices
    if n_coarse_vertices > nv:
        raise MultilevelError("coarse level has more vertices than the mesh")
    rows_data = {}
    indptr = [0]
    indices = []
    data = []
    for v in range(nv):
        if v < n_coarse_vertices:
            row = ((v, 1.0),)
        else:
            pa, pb = (int(p) for p in mesh.vparents[v])
            if pa < 0 or pb < 0:
                raise MultilevelError(f"vertex {v} has no parent edge; cannot prolongate")
            acc = {}
            for p in (pa, pb):
                if p < n_coarse_vertices:
                    acc[p] = acc.get(p, 0.0) + 0.5
                else:
                    for col, wt in rows_data[p]:
                        acc[col] = acc.get(col, 0.0) + 0.5 * wt
            row = tuple(sorted(acc.items()))
        rows_data[v] = row
        for col, wt in row:
            indices.append(col)
            data.append(wt)
        indptr.append(len(indices))
    p = sp.csr_matrix((data, indices, indptr), shape=(nv, n_coarse_vertices))
    if n_components > 1:
        p = sp.kron(p, sp.eye(n_components), format="csr")
    p.sort_indices()
    return p


def gauss_seidel(a, x, b, direction: str = "forward") -> np.ndarray:
    """One Gauss-Seidel sweep on a x = b from x, "forward" (first unknown to
    last) or "backward", each unknown solved from its own row in turn."""
    a = sp.csr_matrix(a)
    x = np.array(x, dtype=float)
    order = range(len(x)) if direction == "forward" else range(len(x) - 1, -1, -1)
    for i in order:
        diag, acc = 0.0, b[i]
        for k in range(a.indptr[i], a.indptr[i + 1]):
            j = a.indices[k]
            if j == i:
                diag += a.data[k]
            else:
                acc -= a.data[k] * x[j]
        x[i] = acc / diag
    return x


def _g(v: float) -> str:
    return repr(float(v))


def export_vtk(mesh, fields=None, indicators=None, path=None):
    """Write mesh geometry plus optional point/cell data to a .vtk text file.

    fields: dict of name -> SolutionField, (nv,) array, or (nv, nc) array.
    indicators: IndicatorField over the mesh's live simplices.
    """
    if path is None:
        raise ValueError("export_vtk needs an output path")
    live = mesh.live_simplices()
    if indicators is not None and not np.array_equal(indicators.ids, live):
        raise ValueError("indicator field does not cover the mesh's live simplices")
    npts = mesh.n_vertices
    d = mesh.dim
    ctype = 5 if d == 2 else 10

    lines = ["# vtk DataFile Version 3.0", "afem output", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {npts} double"]
    for v in range(npts):
        x = mesh.coords[v]
        xs = [_g(x[i]) for i in range(d)] + ["0.0"] * (3 - d)
        lines.append(" ".join(xs))
    lines.append(f"CELLS {len(live)} {len(live) * (d + 2)}")
    for s in live:
        lines.append(" ".join([str(d + 1)] + [str(int(v)) for v in mesh.sverts[s]]))
    lines.append(f"CELL_TYPES {len(live)}")
    lines.extend([str(ctype)] * len(live))

    arrays = []
    for name, fld in (fields or {}).items():
        vals = np.asarray(getattr(fld, "values", fld), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != npts:
            raise ValueError(f"field {name!r} has {vals.shape[0]} rows for "
                             f"{npts} vertices")
        for c in range(vals.shape[1]):
            label = name if vals.shape[1] == 1 else f"{name}_{c}"
            arrays.append((label, vals[:, c]))
    if arrays:
        lines.append(f"POINT_DATA {npts}")
        for label, col in arrays:
            lines.append(f"SCALARS {label} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_g(v) for v in col)

    if indicators is not None:
        lines.append(f"CELL_DATA {len(live)}")
        lines.append("SCALARS eta double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_g(v) for v in indicators.eta)

    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path
