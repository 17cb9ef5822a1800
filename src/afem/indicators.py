"""A posteriori error indicators and marking.

Two indicator families are provided.  The residual indicator bounds the error
by element-local norms of the strong residual plus flux jumps across interior
faces.  The dual-weighted indicator solves a linearized adjoint problem for a
user-chosen error functional and distributes the resulting error
representation over elements; it needs the dual solved in a richer space than
the primal (a same-space dual is identically zero by Galerkin orthogonality),
so by default it works on one uniform refinement of the current mesh.

Both integrate the same strong-form pieces, `_residual_terms`, over the
element and face rows of the mesh's `MeshTables`: the residual SFt(0) on each
simplex, SFt(1) on each flux face, and the jump of the flux SFt(2) on each
interior face, visited once.  SFt is derived from the problem's Ft (see
`ProblemDefinition.SFt`): the source B, the flux residual C + A.n and the
flux A.n.  The indicators differ only in how a residual value is weighed at
a point and where the integral is credited.

Element and face sizes h_s, h_f are inscribed-sphere diameters, read from the
tables' `h` and `hf` columns.  Interior face terms carry a factor 1/2 so a
face shared by two elements is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .elements import default_rule, fine_rule, face_rule
from .problem import ProblemDefinition, SolutionField
from .assembly import free_dof_mask
from .multilevel import prolongation_from_refinement

_REF_VOLUME = {2: 0.5, 3: 1.0 / 6.0}


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


def _volume_weights(tab, rule):
    """Rule weights scaled to every simplex, by |volume| / reference volume."""
    d = tab.coords.shape[1]
    volume = tab.det / (2.0 if d == 2 else 6.0)
    return rule.weights * (np.abs(volume) / _REF_VOLUME[d])[:, None]


def _residual_terms(problem: ProblemDefinition, u: SolutionField, w, rule, pair):
    """Integrals of the strong residual r of u, weighed at each point by
    pair(r, value of the field w there, or None when w is None).

    Returns the terms of the element rows of the mesh's tables, with
    r = SFt(0) and `rule`, and of its face rows, with r = SFt(1) on a flux
    face and the jump of SFt(2) across an interior face.  Faces use the
    2-point Gauss rule on edges, the 3-point edge-midpoint rule on triangles.
    """
    mesh = u.mesh
    tab = mesh.tables()
    uloc, gu = tab.gather(u.values)
    wloc = None if w is None else w.values[tab.verts]
    bary = rule.barycentric
    xq = tab.element_points(rule.points)
    wq = _volume_weights(tab, rule)
    terms = np.zeros(len(tab.ids))
    for k in range(len(terms)):
        term = 0.0
        for q in range(len(bary)):
            wv = None if w is None else bary[q] @ wloc[k]
            r0 = np.asarray(problem.SFt(0, xq[k, q], None, bary[q] @ uloc[k], gu[k]),
                            dtype=float)
            term += wq[k, q] * pair(r0, wv)
        terms[k] = term

    frule = face_rule(2, 2) if mesh.dim == 2 else default_rule(2)
    fbary = frule.barycentric
    fxq, fwq = tab.face_quadrature(frule)
    uf = u.values[tab.fverts]
    wf = None if w is None else w.values[tab.fverts]
    face_terms = np.zeros(len(tab.owner))
    for j, (s, t, n) in enumerate(zip(tab.owner, tab.neighbor, tab.normal)):
        term = 0.0
        for q in range(len(fbary)):
            x = fxq[j, q]
            uq = fbary[q] @ uf[j]
            wv = None if w is None else fbary[q] @ wf[j]
            if t < 0:
                r = np.asarray(problem.SFt(1, x, n, uq, gu[s]), dtype=float)
            else:
                # the normal leaves s: the jump is (flux in s) - (flux in t)
                flux_s = np.asarray(problem.SFt(2, x, n, uq, gu[s]), dtype=float)
                flux_t = np.asarray(problem.SFt(2, x, n, uq, gu[t]), dtype=float)
                r = flux_s - flux_t
            term += fwq[j, q] * pair(r, wv)
        face_terms[j] = term
    return terms, face_terms


def residual_indicator(problem: ProblemDefinition, u: SolutionField,
                       p: float = 2.0) -> IndicatorField:
    """Residual-based indicator; eta_s^p collects the volume residual with
    weight h_s^p, half the flux-jump terms of interior faces with weight h_f,
    and neumann-face residuals with weight h_f."""

    mesh = u.mesh
    tab = mesh.tables()
    terms, face_terms = _residual_terms(problem, u, None, default_rule(mesh.dim),
                                        lambda r, _: float(np.sum(np.abs(r) ** p)))
    acc = [float(h) ** p * term for h, term in zip(tab.h, terms)]
    for s, t, hf, term in zip(tab.owner, tab.neighbor, tab.hf, face_terms):
        if t < 0:
            acc[s] += hf * term
        else:
            half = 0.5 * hf * term
            acc[s] += half
            acc[t] += half

    eta = {int(s): v ** (1.0 / p) for s, v in zip(tab.ids, acc)}
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
    tab = mesh.tables()
    b = np.zeros(mesh.n_vertices * nc)
    bary = rule.barycentric
    wq = _volume_weights(tab, rule)
    for k, xq in enumerate(tab.element_points(rule.points)):
        for q in range(len(bary)):
            pv = np.asarray(psi(xq[q]), dtype=float)
            for j, vj in enumerate(tab.verts[k]):
                b[vj * nc:(vj + 1) * nc] += wq[k, q] * bary[q, j] * pv
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
    b[~free_dof_mask(problem, fine)] = 0.0
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

    tab = mesh.tables()
    terms, face_terms = _residual_terms(problem, u_fine, w, fine_rule(mesh.dim, 3),
                                        lambda r, wv: float(r @ wv))
    coarse = [mesh.coarse_ancestor(int(s), weights.coarse_live) for s in tab.ids]
    contrib = {s: 0.0 for s in weights.coarse_live}
    for c, term in zip(coarse, terms):
        contrib[c] += term
    for s, t, term in zip(tab.owner, tab.neighbor, face_terms):
        if t < 0:
            contrib[coarse[s]] += term
        else:
            half = 0.5 * term
            contrib[coarse[s]] += half
            contrib[coarse[t]] += half

    # <e, psi> = -<F(u_h), phi - P_h phi>: the linearization satisfies
    # A(u - u_h) = F(u) - F(u_h) = -F(u_h) at the exact solution
    estimate = -float(sum(contrib.values()))
    eta = {s: abs(v) for s, v in contrib.items()}
    return IndicatorField(u.mesh, eta, 2.0), estimate
