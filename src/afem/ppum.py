"""Parallel partition-of-unity solver pipeline.

The pipeline splits a coarse mesh into error-balanced subdomains, runs a
completely independent adaptive solve per subdomain (refinement restricted to
that subdomain's overlap region), and blends the local solutions with a
Lipschitz partition of unity on a union-refinement mesh.

Subdomain runs share only immutable inputs; each owns a private mesh copy.
The blend step is single threaded, so results are bit-identical regardless
of how the local runs were scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import apply_dirichlet
from .indicators import IndicatorField, mark, residual_indicator
from .mesh import Mesh, MeshError
from .multilevel import prolongation_from_refinement
from .newton import NewtonConfig, newton_solve
from .problem import SolutionField


class PpumError(Exception):
    pass


# ------------------------------------------------------------- decomposition

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

    p = indicators.p
    weight = {s: indicators.eta.get(s, 0.0) ** p for s in live}
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


# ----------------------------------------------------------------- local runs

def local_solve(problem, coarse: Mesh, u_coarse: SolutionField,
                dec: Decomposition, i: int, budget: int,
                strategy: str = "hybrid", theta: float = None,
                newton_config: NewtonConfig = None, max_rounds: int = 100):
    """Independent adaptive run for subdomain i on a private copy of the full
    mesh.  Marking is restricted to simplices whose coarse ancestor lies in
    the subdomain's overlap region; the loop stops at the vertex budget or
    when nothing in the region is marked.  Returns the global field.
    """
    region = dec.overlap[i]
    coarse_live = {int(s) for s in coarse.live_simplices()}
    mesh = coarse.copy()
    u = SolutionField(mesh, u_coarse.n_components, u_coarse.values.copy())
    nc = u.n_components

    try:
        for _ in range(max_rounds):
            if mesh.n_vertices >= budget:
                break
            field = residual_indicator(problem, u)
            local_eta = {s: v for s, v in field.eta.items()
                         if mesh.coarse_ancestor(s, coarse_live) in region}
            marks = mark(IndicatorField(mesh, local_eta, p=field.p), strategy, theta)
            if not marks:
                break
            old_nv = mesh.n_vertices
            mesh.refine_marked(marks)
            pr = prolongation_from_refinement(old_nv, mesh, nc)
            u = apply_dirichlet(problem, SolutionField.from_flat(
                mesh, nc, pr @ u.flat))
            u, _ = newton_solve(problem, u, newton_config)
    except Exception as exc:
        raise PpumError(f"subdomain {i}: {exc}") from exc
    return u


# ---------------------------------------------------------------- blend stage

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


def build_blend_mesh(coarse: Mesh, dec: Decomposition, local_meshes) -> Mesh:
    """Union-refinement output mesh: replay, inside each owned region, the
    owning subdomain's refinement pattern, then let conformity closure stitch
    region boundaries.  Bisection is deterministic, so identical tree paths
    produce identical simplices.
    """
    coarse_live = {int(s) for s in coarse.live_simplices()}
    refined = [_refined_paths(m, coarse_live) for m in local_meshes]
    bm = coarse.copy()
    while True:
        marks = []
        for s in bm.live_simplices():
            root, path = _child_path(bm, int(s), coarse_live)
            if (root, path) in refined[dec.owner[root]]:
                marks.append(int(s))
        if not marks:
            return bm
        bm.refine_marked(marks)


def blend(dec: Decomposition, pou: PartitionOfUnity, local_fields) -> SolutionField:
    """Weighted combination u(v) = sum_i phi_i(v) u_i(v) at blend-mesh
    vertices, each u_i evaluated by genealogy descent on its own mesh."""
    bm = pou.mesh
    nc = local_fields[0].n_components
    # a containing initial simplex per vertex, taken from the blend mesh's own
    # live incidence (any one works; locate tolerates faces)
    root_of = np.full(bm.n_vertices, -1, dtype=np.int64)
    for s in bm.live_simplices():
        r0 = bm.root_ancestor(int(s))
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
                s = fld.mesh.locate(x, int(root_of[v]))
            except MeshError as exc:
                raise PpumError(f"point location failed at blend vertex {v} "
                                f"on subdomain {i}: {exc}") from exc
            bar = np.clip(fld.mesh.barycentric(s, x), 0.0, None)
            bar /= bar.sum()
            acc += row[i] * (bar @ fld.values[fld.mesh.sverts[s]])
        out[v] = acc
    return SolutionField(bm, nc, out)
