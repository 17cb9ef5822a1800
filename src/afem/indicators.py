"""A posteriori error indicators and marking.

Two indicator families are provided.  The residual indicator bounds the error
by element-local norms of the strong residual plus flux jumps across interior
faces.  The dual-weighted indicator solves a linearized adjoint problem for a
user-chosen error functional and distributes the resulting error
representation over elements; it needs the dual solved in a richer space than
the primal (a same-space dual is identically zero by Galerkin orthogonality),
so it works on one uniform refinement of the current mesh.

Both integrate the same strong-form pieces, `_residual_terms`, over the
element and face rows of the mesh's `MeshTables`: the residual SFt(0) on each
simplex, SFt(1) on each flux face, and the jump of the flux SFt(2) on each
interior face, visited once.  SFt is derived from the problem's batched Ft
(see `ProblemDefinition.SFt`): the source B, the flux residual C + A.n and
the flux A.n.  Each is one call over all points of its block: simplices,
flux faces, and both sides of the interior faces at once.  The indicators
differ only in how a residual value is weighed at a point and where the
integral is credited; `_credit` books the face terms for both.  The dual's
functional density psi is a constant or a callable read through `sample`
(declared `batched`, or a function of one point).

Element and face sizes h_s, h_f are inscribed-sphere diameters, read from the
tables' `h` and `hf` columns.  Interior face terms carry a factor 1/2 so a
face shared by two elements is counted once.

An indicator is one value per live simplex, kept as arrays over the element
rows of the mesh's `MeshTables`: `IndicatorField.ids` (ascending) and the
matching `eta`; the dual indicator credits each term to the row of its coarse
ancestor.  `mark` chooses simplices with array expressions over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .elements import default_rule, fine_rule, face_rule
from .problem import ProblemDefinition, SolutionField, sample
from .assembly import _dot, _point_values, _row_sums, assembly_plan, free_dof_mask
from .multilevel import prolongation_from_refinement

_REF_VOLUME = {2: 0.5, 3: 1.0 / 6.0}


class IndicatorError(Exception):
    pass


@dataclass
class IndicatorField:
    """Per-simplex nonnegative error indicator values: eta[k] >= 0 belongs to
    the live simplex ids[k], ids ascending (the element rows of the mesh's
    tables)."""

    mesh: Mesh
    ids: np.ndarray
    eta: np.ndarray

    def total(self) -> float:
        return float(_row_sums(self.eta[None] ** 2)[0]) ** 0.5


def _volume_weights(tab, rule):
    """Rule weights scaled to every simplex, by |volume| / reference volume."""
    d = tab.coords.shape[1]
    volume = tab.det / (2.0 if d == 2 else 6.0)
    return rule.weights * (np.abs(volume) / _REF_VOLUME[d])[:, None]


def _residual_terms(problem: ProblemDefinition, u: SolutionField, w, rule, pair):
    """Integrals of the strong residual r of u, weighed at each point by
    pair(r, value of the field w there, or None when w is None), both (P, nc)
    over P points.

    Returns the terms of the element rows of the mesh's tables, with
    r = SFt(0) and `rule`, and of its face rows, with r = SFt(1) on a flux
    face and the jump of SFt(2) across an interior face.  Faces use the
    2-point Gauss rule on edges, the 3-point edge-midpoint rule on triangles.
    Each term adds its points one after another, and each block of points is
    one SFt call; an empty block is skipped.
    """
    mesh = u.mesh
    tab = mesh.tables()
    uloc, gu = tab.gather(u.values)
    bary = rule.barycentric
    nq = len(bary)
    wv = None if w is None else _point_values(bary, w.values[tab.verts])
    r0 = problem.SFt(0, tab.element_points(rule.points).reshape(-1, mesh.dim), None,
                     _point_values(bary, uloc), np.repeat(gu, nq, axis=0))
    terms = _row_sums(_volume_weights(tab, rule) * pair(r0, wv).reshape(-1, nq))

    frule = face_rule(2, 2) if mesh.dim == 2 else default_rule(2)
    fbary = frule.barycentric
    fxq, fwq = tab.face_quadrature(frule)
    fq = len(fbary)
    x = fxq.reshape(-1, mesh.dim)
    n = np.repeat(tab.normal, fq, axis=0)
    uq = _point_values(fbary, u.values[tab.fverts])
    wv = None if w is None else _point_values(fbary, w.values[tab.fverts])
    owner, neighbor = np.repeat(tab.owner, fq), np.repeat(tab.neighbor, fq)
    r = np.empty_like(uq)
    flux, inner = np.flatnonzero(neighbor < 0), np.flatnonzero(neighbor >= 0)
    if flux.size:
        r[flux] = problem.SFt(1, x[flux], n[flux], uq[flux], gu[owner[flux]])
    if inner.size:
        # the normal leaves the owner: the jump is (flux in owner) - (flux in
        # neighbour), both sides in one call
        both = np.concatenate((inner, inner))
        sides = problem.SFt(2, x[both], n[both], uq[both],
                            gu[np.concatenate((owner[inner], neighbor[inner]))])
        r[inner] = sides[:inner.size] - sides[inner.size:]
    return terms, _row_sums(fwq * pair(r, wv).reshape(-1, fq))


def _credit(acc, pos, tab, terms):
    """Add each face's term to acc[pos[owner]], or half of it to
    acc[pos[owner]] and half to acc[pos[neighbor]] across an interior face,
    one face after another."""
    inner = tab.neighbor >= 0
    val = np.where(inner, 0.5 * terms, terms)
    keep = np.column_stack((np.ones_like(inner), inner))
    np.add.at(acc, np.column_stack((pos[tab.owner], pos[tab.neighbor]))[keep],
              np.column_stack((val, val))[keep])


def residual_indicator(problem: ProblemDefinition, u: SolutionField) -> IndicatorField:
    """Residual-based indicator; eta_s^2 collects the volume residual with
    weight h_s^2, half the flux-jump terms of interior faces with weight h_f,
    and neumann-face residuals with weight h_f."""

    mesh = u.mesh
    tab = mesh.tables()
    terms, face_terms = _residual_terms(problem, u, None, default_rule(mesh.dim),
                                        lambda r, _: (r * r).sum(axis=1))
    acc = tab.h ** 2 * terms
    _credit(acc, np.arange(len(acc)), tab, tab.hf * face_terms)
    return IndicatorField(mesh, tab.ids, np.sqrt(acc))


_DEFAULT_THETA = {"equidistribution": 1.0, "maximum": 0.5, "hybrid": 0.5}


def mark(field: IndicatorField, strategy: str = "hybrid", theta: float = None):
    """Choose simplices to refine; returns their ids as an ascending list.

    equidistribution: eta_s^2 > theta^2 * total^2 / N, beyond rounding
    maximum:          eta_s  >= theta * max eta
    hybrid:           largest values (ties: lower id first) until they carry
                      >= theta of total^2
    """
    if strategy not in _DEFAULT_THETA:
        raise ValueError(f"unknown marking strategy {strategy!r}")
    theta = _DEFAULT_THETA[strategy] if theta is None else theta
    if not (theta > 0.0 and theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    ids, eta = field.ids, field.eta
    if not len(ids):
        return []
    if strategy == "maximum":
        top = eta.max()
        keep = (eta >= theta * top) & (top > 0.0)
    else:
        mass = eta * eta
        total_sq = _row_sums(mass[None])[0]
        if strategy == "equidistribution":
            # the cut carries the rounding bound of the summed mean, so a
            # field of equal values marks nothing
            n = len(ids)
            keep = mass > theta ** 2 * (total_sq / n) * (1.0 + (n + 1) * np.finfo(float).eps)
        else:
            # the mass marked before each entry, summed in marking order
            order = np.lexsort((ids, -eta))
            before = np.cumsum(np.concatenate(([0.0], mass[order][:-1])))
            keep = np.zeros(len(ids), dtype=bool)
            keep[order] = (before < theta * total_sq) & (total_sq > 0.0)
    return ids[keep].tolist()


@dataclass
class DualWeights:
    """Discrete dual solution and the bookkeeping to use it as error weights."""

    phi: SolutionField          # dual solution on the refined mesh, phi.mesh
    prolongation: object        # maps primal dofs into the dual mesh space


def _functional_load(mesh: Mesh, psi, nc: int) -> np.ndarray:
    """Vector of <psi, basis_i> integrals at the element block of the mesh's
    `AssemblyPlan`, summed in row, point, dof order as `assemble_residual` sums:
    with psi a problem's source at u = 0 it is that residual, bitwise in 2D;
    in 3D the weights |det/6| / (1/6) round apart from the plan's |det| (about
    1e-15 relative).  psi is a constant or a callable read through `sample`."""
    plan = assembly_plan(mesh, nc)
    _, _, _, _, x, _, wq, bas = plan.blocks[0]
    vals = (_volume_weights(mesh.tables(), default_rule(mesh.dim))[:, :, None, None]
            * bas[:, :, None] * sample(psi, x, (nc,)).reshape(wq.shape + (1, nc))).ravel()
    return np.bincount(plan.rdofs[:vals.size], weights=vals, minlength=mesh.n_vertices * nc)


def solve_dual(problem: ProblemDefinition, u: SolutionField, psi) -> DualWeights:
    """Solve the adjoint of the Jacobian at u for the functional density psi,
    a constant or a callable read through `sample` (declared `batched`, or a
    function of one point), on one uniform refinement of u's mesh.
    """
    from .assembly import assemble_jacobian

    if problem.DFt is None:
        raise IndicatorError("dual solve needs the linearization callback DFt")
    mesh = u.mesh
    nc = problem.n_components
    fine = mesh.copy()
    fine.uniform_refine()
    prol = prolongation_from_refinement(mesh.n_vertices, fine, nc)
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
    return DualWeights(phi, prol)


def dual_indicator(problem: ProblemDefinition, u: SolutionField,
                   weights: DualWeights):
    """Error-representation indicator; weights is what `solve_dual` returned for u.

    Evaluates <residual(u), w> with w = phi - (nodal interpolant of phi on u's
    space), elementwise over the dual mesh, and aggregates each contribution
    to the primal ancestor element (interior-face terms split half/half).
    Returns (IndicatorField on u's mesh, signed estimate of <error, psi>).
    """
    mesh = weights.phi.mesh
    nc = problem.n_components
    coarse_part = weights.phi.values[:u.mesh.n_vertices].ravel()
    w = SolutionField.from_flat(mesh, nc, weights.phi.flat - weights.prolongation @ coarse_part)
    u_fine = SolutionField.from_flat(mesh, nc, weights.prolongation @ u.flat)

    tab = mesh.tables()
    terms, face_terms = _residual_terms(problem, u_fine, w, fine_rule(mesh.dim, 3), _dot)
    coarse = u.mesh.live_simplices()
    pos = np.zeros(len(mesh.sparent), dtype=np.int64)
    pos[coarse] = np.arange(len(coarse))
    rows = pos[mesh.coarse_ancestors(tab.ids, u.mesh.n_slots)]
    contrib = np.zeros(len(coarse))
    np.add.at(contrib, rows, terms)
    _credit(contrib, rows, tab, face_terms)

    # <e, psi> = -<F(u_h), phi - P_h phi>: the linearization satisfies
    # A(u - u_h) = F(u) - F(u_h) = -F(u_h) at the exact solution; the terms
    # are summed in id order, one after another
    estimate = -float(_row_sums(contrib[None])[0])
    return IndicatorField(u.mesh, coarse, np.abs(contrib)), estimate
