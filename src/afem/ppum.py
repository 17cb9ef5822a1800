"""Partition-of-unity solver pipeline.

The pipeline splits a coarse mesh into error-balanced subdomains, runs a
completely independent adaptive solve per subdomain (refinement restricted to
that subdomain's overlap region), and blends the local solutions with a
Lipschitz partition of unity on a union-refinement mesh.  The adaptive loop,
`adaptive_rounds`, is the one `driver.run_adaptive` runs on the whole mesh;
a subdomain run adds a mark filter and a vertex budget.

The decomposition is kept as arrays over the element rows of the coarse
mesh's `MeshTables`: an owner per row and, per subdomain, each row's overlap
ring, grown once in `decompose` through a sparse vertex-simplex incidence
matrix.  The taper reads its vertex distances from those ring indices, and the
partition of unity carries the taper onto the blend mesh with the
refinement's prolongation.

Subdomain runs share only immutable inputs and each owns a private mesh
copy, so the runs are independent: `driver.run_ppum` runs them one after
another, and any other schedule gives bit-identical results.  The blend
stage is made of array passes: the blend mesh replays each owner's
refinement through a map from blend simplices to their twins in the local
meshes, and `blend` locates all blend vertices of one subdomain in one
batched genealogy descent (`Mesh.locate`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import apply_dirichlet
from .indicators import IndicatorField, mark, residual_indicator
from .mesh import Mesh
from .multilevel import MultilevelError, prolongation_from_refinement
from .newton import NewtonConfig, newton_solve
from .problem import SolutionField


class PpumError(Exception):
    pass


# ------------------------------------------------------------- decomposition

@dataclass
class Decomposition:
    """Owner labels and overlap ring indices over the coarse mesh's element rows.

    ids are the live simplex ids, ascending (the rows of `Mesh.tables()`);
    owner[k] is the one subdomain that owns row k.  ring[i, k] is row k's
    ring index for subdomain i: 0 when owned, j <= layers when the owned
    region grown j times by vertex-adjacent simplices first reaches it,
    layers + 1 outside subdomain i's overlap region.
    """

    ids: np.ndarray
    owner: np.ndarray
    ring: np.ndarray
    layers: int

    @property
    def n_subdomains(self) -> int:
        return len(self.ring)

    @property
    def max_cover(self) -> int:
        """The largest number of overlap regions any one simplex belongs to."""
        return int((self.ring <= self.layers).sum(axis=0).max())

    def overlap(self, i: int) -> np.ndarray:
        """Ids of subdomain i's overlap region, ascending."""
        return self.ids[self.ring[i] <= self.layers]


def decompose(mesh: Mesh, indicators: IndicatorField, n_parts: int,
              layers: int = 2) -> Decomposition:
    """Error-weighted recursive coordinate bisection of the live simplices.

    Each cut splits the current set at the weighted median of the barycenter
    coordinate with the largest extent, so both sides carry (as nearly as one
    simplex allows) proportional shares of the total indicator mass.  A zero
    field falls back to counting simplices.  Deterministic: ties break on
    simplex id.
    """
    tab = mesh.tables()
    n = len(tab.ids)
    if n_parts < 1:
        raise PpumError("subdomain count must be at least 1")
    if n_parts > n:
        raise PpumError(f"cannot split {n} simplices into {n_parts} subdomains")
    if layers < 1:
        raise PpumError("overlap must be at least one simplex layer")
    if not np.array_equal(indicators.ids, tab.ids):
        raise PpumError("indicator field does not cover the mesh's live simplices")

    weight = indicators.eta * indicators.eta
    if weight.sum() <= 0.0:
        weight = np.ones(n)
    bary = tab.coords[tab.verts].mean(axis=1)
    owner = np.empty(n, dtype=np.int64)

    def split(rows, parts, label):
        if parts == 1:
            owner[rows] = label
            return
        lo = parts // 2
        pts = bary[rows]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        rows = rows[np.lexsort((rows, pts[:, axis]))]
        run = np.cumsum(weight[rows])
        target = run[-1] * lo / parts
        cut = int(np.argmin(np.abs(run[:-1] - target))) + 1
        # both sides must stay splittable
        cut = max(lo, min(cut, len(rows) - (parts - lo)))
        split(rows[:cut], lo, label)
        split(rows[cut:], parts - lo, label + lo)

    split(np.arange(n), n_parts, 0)

    # vertex-simplex incidence; each step adds the simplices that share a
    # vertex with the region so far
    inc = sp.csr_matrix((np.ones(tab.verts.size), tab.verts.ravel(),
                         np.arange(0, tab.verts.size + 1, tab.verts.shape[1])),
                        shape=(n, mesh.n_vertices))
    ring = np.full((n_parts, n), layers + 1)
    for i in range(n_parts):
        region = owner == i
        ring[i, region] = 0
        for k in range(1, layers + 1):
            grown = inc @ (inc.T @ region) > 0
            ring[i, grown & ~region] = k
            region = grown
    return Decomposition(tab.ids, owner, ring, layers)


# --------------------------------------------------------- partition of unity

@dataclass
class PartitionOfUnity:
    """Per-subdomain piecewise linear weights on the blend mesh.

    weights[v, i] is subdomain i's weight at vertex v; rows sum to 1 and each
    weight vanishes outside its subdomain's overlap region.
    """

    mesh: Mesh
    weights: np.ndarray

    def sum_deviation(self) -> float:
        return float(np.max(np.abs(self.weights.sum(axis=1) - 1.0)))


def taper_weights(mesh: Mesh, dec: Decomposition) -> np.ndarray:
    """Raw (un-normalized) coarse-vertex taper per subdomain.

    Weight 1 on vertices of owned simplices, decreasing linearly per overlap
    ring, exactly 0 on the outermost ring's new vertices; every simplex
    touching a vertex with positive weight lies inside the overlap region, so
    the interpolated weight is supported there.
    """
    verts = mesh.tables().verts
    # the lowest ring index among the simplices around each vertex
    dist = np.full((mesh.n_vertices, dec.n_subdomains), dec.layers + 1)
    np.minimum.at(dist, (verts[None], np.arange(dec.n_subdomains)[:, None, None]),
                  dec.ring[:, :, None])
    w = np.maximum(0.0, (dec.layers - dist) / dec.layers)
    if np.any(w.sum(axis=1)[verts] <= 0.0):
        raise PpumError("taper left a vertex with no supporting subdomain")
    return w


def partition_of_unity(blend_mesh: Mesh, n_coarse_vertices: int,
                       coarse_weights: np.ndarray) -> PartitionOfUnity:
    """Interpolate coarse taper weights onto the blend mesh through the vertex
    genealogy (midpoint averaging keeps them piecewise linear), then normalize
    rows to sum to 1."""
    try:
        w = prolongation_from_refinement(n_coarse_vertices, blend_mesh) @ coarse_weights
    except MultilevelError as exc:
        raise PpumError(f"blend mesh: {exc}") from exc
    total = w.sum(axis=1)
    if np.any(total <= 0.0):
        raise PpumError("partition of unity is zero at some vertex")
    return PartitionOfUnity(blend_mesh, w / total[:, None])


# ------------------------------------------------------------ adaptive rounds

@dataclass
class RoundRecord:
    """One round: its field's mesh size and indicator total, the Newton history
    that produced the field (None for the starting field) and the refinement
    that ends the round (None on the last)."""

    n_vertices: int
    n_simplices: int
    eta_total: float
    newton: dict = None
    refinement: dict = None

    @classmethod
    def of(cls, u: SolutionField, fld: IndicatorField, nrep=None):
        return cls(u.mesh.n_vertices, len(u.mesh.live_simplices()), fld.total(),
                   asdict(nrep) if nrep else None)


def adaptive_rounds(problem, u: SolutionField, nrep, newton_config: NewtonConfig, indicate,
                    strategy: str, theta: float, budget: int, target_eta: float = 0.0,
                    keep=None, linear_solver=None, on_round=None, record=RoundRecord):
    """Adaptive rounds from the solved field u (nrep: its Newton report, or
    None), refining u's mesh.  Each round indicates u, hands
    `record.of(u, field, nrep)` to `on_round(rec, u, field)` and stops at a
    positive target_eta, at the vertex budget or when nothing in `keep(field)`
    (default: all) is marked; else it refines, sets rec.refinement,
    prolongates u, lifts the Dirichlet data and Newton-solves with
    `linear_solver(prolongations so far)`, direct when None.  Returns
    (u, "target_met" | "vertex_cap" | "no_marks")."""
    mesh, nc, prols = u.mesh, u.n_components, []
    while True:
        fld = indicate(u)
        rec = record.of(u, fld, nrep)
        if on_round is not None:
            on_round(rec, u, fld)
        if target_eta > 0.0 and rec.eta_total <= target_eta:
            return u, "target_met"
        if mesh.n_vertices >= budget:
            return u, "vertex_cap"
        marks = mark(fld if keep is None else keep(fld), strategy, theta)
        if not marks:
            return u, "no_marks"
        old_nv = mesh.n_vertices
        ref = mesh.refine_marked(marks)
        rec.refinement = {"bisections": len(ref.bisections), "closure_passes": ref.passes}
        prols.append(prolongation_from_refinement(old_nv, mesh, nc))
        u = apply_dirichlet(problem, SolutionField.from_flat(mesh, nc, prols[-1] @ u.flat))
        u, nrep = newton_solve(problem, u, newton_config,
                               linear_solver(prols) if linear_solver else None)


def local_solve(problem, coarse: Mesh, u_coarse: SolutionField, dec: Decomposition, i: int,
                budget: int, strategy: str = "hybrid", theta: float = None,
                newton_config: NewtonConfig = None, on_round=None):
    """Subdomain i's `adaptive_rounds` on a private copy of the coarse mesh and
    field, marking only where the coarse ancestor lies in its overlap region,
    up to the vertex budget; on_round as there.  Returns the global field."""
    def keep(fld):
        kept = np.isin(fld.mesh.coarse_ancestors(fld.ids, coarse.n_slots), dec.overlap(i))
        return IndicatorField(fld.mesh, fld.ids[kept], fld.eta[kept])

    u = SolutionField(coarse.copy(), u_coarse.n_components, u_coarse.values.copy())
    try:
        return adaptive_rounds(problem, u, None, newton_config,
                               lambda v: residual_indicator(problem, v), strategy, theta,
                               budget, keep=keep, on_round=on_round)[0]
    except Exception as exc:
        raise PpumError(f"subdomain {i}: {exc}") from exc


# ---------------------------------------------------------------- blend stage

def build_blend_mesh(coarse: Mesh, dec: Decomposition, local_meshes) -> Mesh:
    """Union-refinement output mesh: replay, inside each owned region, the
    owning subdomain's refinement pattern, then let conformity closure stitch
    region boundaries.  Bisection is deterministic, so identical tree paths
    produce identical simplices.  A blend simplex's twin is the simplex at its
    tree path in its owner's mesh (an id into the local meshes' stacked slots)
    or -1: coarse simplices are their own twins, child k inherits child k of
    its parent's twin, and a pass bisects the live simplices whose twin was.
    """
    offset = np.cumsum([0] + [m.n_slots for m in local_meshes])
    children = np.concatenate([np.where(m.schildren >= 0, m.schildren + off, -1)
                               for m, off in zip(local_meshes, offset)])
    bm = coarse.copy()
    twin = np.full(bm.n_slots, -1)
    twin[dec.ids] = dec.ids + offset[dec.owner]
    while True:
        live = bm.live_simplices()
        t = twin[live]
        marks = live[(t >= 0) & (children[t, 0] >= 0)]
        if not marks.size:
            return bm
        start = bm.n_slots
        bm.refine_marked(marks)
        new = np.arange(start, bm.n_slots)
        parent = bm.sparent[new]
        k = (bm.schildren[parent, 1] == new).astype(np.int64)
        twin = np.concatenate([twin, np.full(len(new), -1)])
        # closure may bisect a new child again; repeat until every generation
        # has read its parent's twin
        while True:
            tp = twin[parent]
            inherit = np.where(tp >= 0, children[tp, k], -1)
            if np.array_equal(inherit, twin[new]):
                break
            twin[new] = inherit


def blend(pou: PartitionOfUnity, local_fields) -> SolutionField:
    """Weighted combination u(v) = sum_i phi_i(v) u_i(v) at blend-mesh
    vertices, summed over subdomains in ascending order.  Each u_i is read at
    the vertices where phi_i is nonzero, located in one batched genealogy
    descent on subdomain i's mesh."""
    bm = pou.mesh
    nc = local_fields[0].n_components
    # descents start at the root ancestor of the first live simplex, by id,
    # that holds the vertex
    live = bm.live_simplices()
    roots = bm.coarse_ancestors(live, np.count_nonzero(bm.sparent < 0))
    verts, first = np.unique(bm.sverts[live], return_index=True)
    start = np.full(bm.n_vertices, -1)
    start[verts] = roots[first // (bm.dim + 1)]
    out = np.zeros((bm.n_vertices, nc))
    for i, fld in enumerate(local_fields):
        at = np.flatnonzero(pou.weights[:, i])
        s, bar = fld.mesh.locate(bm.coords[at], start[at])
        if (s < 0).any():
            v = at[np.argmax(s < 0)]
            raise PpumError(f"point location failed at blend vertex {v} on subdomain "
                            f"{i}: {bm.coords[v]} lies outside its local mesh")
        bar = np.clip(bar, 0.0, None)
        bar /= bar.sum(axis=1, keepdims=True)
        vals = (bar[:, None] @ fld.values[fld.mesh.sverts[s]])[:, 0]
        out[at] += pou.weights[at, i, None] * vals
    return SolutionField(bm, nc, out)
