"""A posteriori error indicators and marking.

Two indicator families are provided.  The residual indicator bounds the error
by element-local norms of the strong residual plus flux jumps across interior
faces.  The dual-weighted indicator solves a linearized adjoint problem for a
user-chosen error functional and distributes the resulting error
representation over elements; it needs the dual solved in a richer space than
the primal (a same-space dual is identically zero by Galerkin orthogonality),
so by default it works on one uniform refinement of the current mesh.

Element and face sizes h_s, h_f are inscribed-sphere diameters.  Interior face
terms carry a factor 1/2 so a face shared by two elements is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse.linalg as spla

from .mesh import Mesh, DIRICHLET, NEUMANN
from .elements import linear_element, default_rule, fine_rule, face_rule
from .problem import ProblemDefinition, SolutionField
from .assembly import _element_data
from .multilevel import prolongation_from_refinement


class IndicatorError(Exception):
    pass


@dataclass
class IndicatorField:
    """Per-simplex nonnegative error indicator values."""

    mesh: Mesh
    eta: dict          # live simplex id -> eta_s >= 0
    p: float = 2.0
    marked: set = dfield(default_factory=set)

    def total(self) -> float:
        return float(sum(v ** self.p for v in self.eta.values()) ** (1.0 / self.p))

    def max(self) -> float:
        return max(self.eta.values()) if self.eta else 0.0


def inscribed_diameter(mesh: Mesh, sid: int) -> float:
    """Diameter of the inscribed sphere: 2 d |s| / (sum of face measures)."""
    d = mesh.dim
    vol = abs(mesh.signed_volume(sid))
    faces = sum(mesh.face_normal(sid, i)[1] for i in range(d + 1))
    return 2.0 * d * vol / faces


def _face_diameter(mesh: Mesh, fverts) -> float:
    pts = mesh.coords[list(fverts)]
    if mesh.dim == 2:
        return float(np.linalg.norm(pts[1] - pts[0]))
    a = float(np.linalg.norm(pts[1] - pts[0]))
    b = float(np.linalg.norm(pts[2] - pts[1]))
    c = float(np.linalg.norm(pts[0] - pts[2]))
    area = 0.5 * float(np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])))
    return 4.0 * area / (a + b + c)


def _face_quadrature(mesh: Mesh, sid: int, local: int):
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


def _require_sft(problem):
    if problem.SFt is None:
        raise IndicatorError(
            "problem has no strong-form callback SFt; indicators need "
            "t=0 (interior residual), t=1 (neumann residual) and "
            "t=2 (flux for interior jumps)")


def residual_indicator(problem: ProblemDefinition, u: SolutionField,
                       p: float = 2.0) -> IndicatorField:
    """Residual-based indicator; eta_s^p collects the volume residual with
    weight h_s^p, half the flux-jump terms of interior faces with weight h_f,
    and neumann-face residuals with weight h_f."""

    _require_sft(problem)
    mesh = u.mesh
    nc = problem.n_components
    el = linear_element(mesh.dim)
    rule = default_rule(mesh.dim)
    coeffs = problem.coefficients
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
            c = coeffs.at(x, mesh, s, None, grads)
            r0 = np.asarray(problem.SFt(0, x, None, uq, gu, c), dtype=float)
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
                    c = coeffs.at(xq[q], mesh, s, None, grads_s)
                    r1 = np.asarray(problem.SFt(1, xq[q], n, uq, gu_s, c), dtype=float)
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
                cs = coeffs.at(xq[q], mesh, s, None, grads_s)
                ct = coeffs.at(xq[q], mesh, t, None, grads_t)
                flux_s = np.asarray(problem.SFt(2, xq[q], n, uq, gu_s, cs), dtype=float)
                flux_t = np.asarray(problem.SFt(2, xq[q], n, uq, gu_t, ct), dtype=float)
                term += wq[q] * float(np.sum(np.abs(flux_s - flux_t) ** p))
            half = 0.5 * hf * term
            acc[s] += half
            acc[t] += half

    eta = {s: v ** (1.0 / p) for s, v in acc.items()}
    return IndicatorField(mesh, eta, p)


def mark(field: IndicatorField, strategy: str = "hybrid", theta: float = None):
    """Choose simplices to refine; returns a sorted id list and records it on
    the field.

    equidistribution: eta_s^p > theta^p * total^p / N   (strict)
    maximum:          eta_s  >= theta * max eta
    hybrid:           largest values until they carry >= theta of total^p
    """
    p = field.p
    items = sorted(field.eta.items(), key=lambda kv: (-kv[1], kv[0]))
    out = []
    if strategy == "equidistribution":
        theta = 1.0 if theta is None else theta
        n = len(field.eta)
        if n:
            mean = sum(v ** p for v in field.eta.values()) / n
            cut = theta ** p * mean
            out = [s for s, v in items if v ** p > cut]
    elif strategy == "maximum":
        theta = 0.5 if theta is None else theta
        top = field.max()
        if top > 0.0:
            out = [s for s, v in items if v >= theta * top]
    elif strategy == "hybrid":
        theta = 0.5 if theta is None else theta
        total_p = sum(v ** p for v in field.eta.values())
        if total_p > 0.0:
            run = 0.0
            for s, v in items:
                if run >= theta * total_p:
                    break
                out.append(s)
                run += v ** p
    else:
        raise ValueError(f"unknown marking strategy {strategy!r}")
    if not (theta > 0.0 and theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    out = sorted(out)
    field.marked = set(out)
    return out


@dataclass
class DualWeights:
    """Discrete dual solution and the bookkeeping to use it as error weights."""

    phi: SolutionField          # dual solution on the (usually refined) mesh
    psi: object                 # functional density, callable x -> (nc,)
    fine_mesh: Mesh
    coarse_live: set            # live simplex ids of the primal mesh
    n_coarse_vertices: int
    prolongation: object        # maps primal dofs into the dual mesh space
    same_space: bool = False


def domain_average(mesh: Mesh, n_components: int = 1):
    """psi for the mean-error functional: constant 1/|domain| per component."""
    vol = sum(abs(mesh.signed_volume(int(s))) for s in mesh.live_simplices())
    w = 1.0 / vol

    def psi(x):
        return np.full(n_components, w)

    return psi


def _functional_load(mesh: Mesh, psi, nc: int) -> np.ndarray:
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


def solve_dual(problem: ProblemDefinition, u: SolutionField, psi,
               same_space: bool = False) -> DualWeights:
    """Solve the adjoint of the Jacobian at u for the functional density psi.

    The dual lives on one uniform refinement of u's mesh unless same_space is
    set (useful only for orthogonality checks; the resulting indicator is 0).
    """
    from .assembly import assemble_jacobian

    if problem.DFt is None:
        raise IndicatorError("dual solve needs the linearization callback DFt")
    mesh = u.mesh
    nc = problem.n_components
    coarse_live = {int(s) for s in mesh.live_simplices()}
    ncv = mesh.n_vertices
    if same_space:
        fine = mesh
        prol = None
        u_fine = u
    else:
        fine = mesh.copy()
        fine.uniform_refine()
        prol = prolongation_from_refinement(ncv, fine, nc)
        u_fine = SolutionField.from_flat(fine, nc, prol @ u.flat)
    a = assemble_jacobian(problem, u_fine)
    b = _functional_load(fine, psi, nc)
    free = np.repeat(np.array([k != DIRICHLET for k in fine.vclass]), nc)
    b[~free] = 0.0
    at = a.T.tocsc()
    try:
        phi_flat = spla.spsolve(at, b)
    except Exception as exc:
        raise IndicatorError(f"adjoint system solve failed: {exc}") from exc
    if not np.all(np.isfinite(phi_flat)):
        raise IndicatorError("adjoint system is singular; the functional is "
                             "not estimable at this state")
    phi = SolutionField.from_flat(fine, nc, phi_flat)
    return DualWeights(phi, psi, fine, coarse_live, ncv, prol, same_space)


def dual_indicator(problem: ProblemDefinition, u: SolutionField,
                   weights: DualWeights):
    """Error-representation indicator.

    Evaluates <residual(u), w> with w = phi - (nodal interpolant of phi on u's
    space), elementwise over the dual mesh, and aggregates each contribution
    to the primal ancestor element (interior-face terms split half/half).
    Returns (IndicatorField on u's mesh, signed estimate of <error, psi>).
    """
    _require_sft(problem)
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
    coeffs = problem.coefficients
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
            c = coeffs.at(x, mesh, s, None, grads)
            r0 = np.asarray(problem.SFt(0, x, None, uq, gu, c), dtype=float)
            term += wq[q] * float(r0 @ wv)
        contrib[mesh.coarse_ancestor(s, weights.coarse_live)] += term

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
                    c = coeffs.at(xq[q], mesh, s, None, grads_s)
                    r1 = np.asarray(problem.SFt(1, xq[q], n, uq, gu_s, c), dtype=float)
                    term += wq[q] * float(r1 @ wv)
                contrib[mesh.coarse_ancestor(s, weights.coarse_live)] += term
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
                cs = coeffs.at(xq[q], mesh, s, None, grads_s)
                ct = coeffs.at(xq[q], mesh, t, None, grads_t)
                flux_s = np.asarray(problem.SFt(2, xq[q], n, uq, gu_s, cs), dtype=float)
                flux_t = np.asarray(problem.SFt(2, xq[q], n, uq, gu_t, ct), dtype=float)
                term += wq[q] * float((flux_s - flux_t) @ wv)
            half = 0.5 * term
            contrib[mesh.coarse_ancestor(s, weights.coarse_live)] += half
            contrib[mesh.coarse_ancestor(t, weights.coarse_live)] += half

    # <e, psi> = -<F(u_h), phi - P_h phi>: the linearization satisfies
    # A(u - u_h) = F(u) - F(u_h) = -F(u_h) at the exact solution
    estimate = -float(sum(contrib.values()))
    eta = {s: abs(v) for s, v in contrib.items()}
    return IndicatorField(u.mesh, eta, 2.0), estimate
