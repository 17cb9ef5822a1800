"""Simplicial meshes with vertex rings, bisection refinement, and conformity closure.

The mesh stores vertices and d-simplices only.  Each vertex keeps a ring (the
set of live simplices touching it), which answers the adjacency queries of
bisection.  Everything assembly and the indicators integrate over comes from
`Mesh.tables()`: a `MeshTables` value of element geometry and face incidence
as arrays, built with a few numpy operations on first use and kept until the
mesh's simplices change.  Simplex records are append-only: a bisected parent
stays as a dead record so refinement genealogy (parent/children links, vertex
parent edges) survives for transfer operators and point location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elements import linear_element

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

_EDGES = {
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}
# local vertex indices of face i, the face opposite vertex i
LOCAL_FACES = {d: np.array([[k for k in range(d + 1) if k != i] for i in range(d + 1)])
          for d in (2, 3)}
MAX_CLOSURE_PASSES = 100


class MeshError(Exception):
    """Raised for structural mesh failures (nonconformity, inversion, bad input)."""


@dataclass
class RefinementReport:
    """What one refine_marked (or bisect) call did to the mesh."""

    created_vertices: list = field(default_factory=list)
    bisections: list = field(default_factory=list)  # (parent, child0, child1, midpoint)
    passes: int = 0

    @property
    def destroyed_simplices(self):
        return [b[0] for b in self.bisections]

    @property
    def created_simplices(self):
        out = []
        for _, c0, c1, _ in self.bisections:
            out.append(c0)
            out.append(c1)
        return out


def shape_of_points(pts: np.ndarray) -> float:
    """Shape measure of the simplex with vertex coordinates pts ((d+1, d) array).

    Scale invariant; 0 for degenerate simplices, negative for inverted ones.
    The unit right triangle scores sqrt(3)/4, the equilateral triangle 1/2.
    """
    pts = np.asarray(pts, dtype=float)
    d = pts.shape[1]
    vol = signed_volume_of_points(pts)
    ss = 0.0
    for i, j in _EDGES[d]:
        e = pts[j] - pts[i]
        ss += float(e @ e)
    if ss == 0.0 or vol == 0.0:
        return 0.0
    c = 2.0 ** (2.0 * (1.0 - 1.0 / d)) * 3.0 ** ((d - 1) / 2.0)
    return c * math.copysign(abs(vol) ** (2.0 / d), vol) / ss


def signed_volume_of_points(pts: np.ndarray) -> float:
    d = pts.shape[1]
    if d == 2:
        a = pts[1] - pts[0]
        b = pts[2] - pts[0]
        return 0.5 * float(a[0] * b[1] - a[1] * b[0])
    m = np.stack([pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0]])
    return float(np.linalg.det(m)) / 6.0


def _norm(v: np.ndarray) -> np.ndarray:
    # the dot product np.linalg.norm takes, so lengths agree with face_normal's
    return np.sqrt(np.vecdot(v, v))


def _across(verts: np.ndarray, d: int) -> np.ndarray:
    """(n, d+1): for face i of each simplex (row) of verts, the row of the
    other simplex sharing it, or -1."""
    keys = np.sort(verts[:, LOCAL_FACES[d]], axis=2).reshape(-1, d)
    order = np.lexsort(keys.T)
    twin = np.all(keys[order[1:]] == keys[order[:-1]], axis=1)
    if np.any(twin[1:] & twin[:-1]):
        raise MeshError("a face is shared by more than two simplices")
    a, b = order[:-1][twin], order[1:][twin]
    across = np.full(len(keys), -1)
    across[a], across[b] = b // (d + 1), a // (d + 1)
    return across.reshape(-1, d + 1)


class MeshTables:
    """Element geometry and face incidence of one mesh state, as arrays (the
    element and edge arrays of Funken, Praetorius & Wissgott, CMAM 11, 2011).

    Element rows are the live simplices in id order: `ids`, vertex ids `verts`
    (n, d+1), the determinant `det` of the map x = p0 + J xi, the gradients
    `grads` (n, d+1, d) of the linear basis and the inscribed diameter `h`.
    Face rows are the faces that carry an integral, in (owner id, local index)
    order: flux (NEUMANN) faces, and interior faces once, from the lower id.
    `owner` and `neighbor` are element rows (-1: flux face), `local` the index
    of the owner's vertex opposite the face, `flag` its class, `fverts` (m, d)
    its vertex ids in the owner's order, `normal` the unit normal out of the
    owner, `measure` its length or area and `hf` its inscribed diameter.  The
    arithmetic is that of `ElementGeometry.of`, `Mesh.face_normal` and
    `signed_volume_of_points`, so each value is bitwise theirs.
    """

    def __init__(self, mesh: "Mesh"):
        d = mesh.dim
        self.coords = mesh.coords
        self.ids = mesh.live_simplices()
        self.verts = verts = mesh.sverts[self.ids]
        pts = self.coords[verts]
        edges = pts[:, 1:] - pts[:, :1]
        jac = edges.transpose(0, 2, 1)
        self.det = np.linalg.det(jac)
        self.grads = linear_element(d).grad_ref() @ np.linalg.inv(jac)

        # the d+1 faces of every simplex, face i opposite vertex i
        fpts = pts[:, LOCAL_FACES[d]]
        t = fpts[..., 1, :] - fpts[..., 0, :]
        if d == 2:
            measure = _norm(t)
            normal = np.stack([t[..., 1], -t[..., 0]], axis=-1) / measure[..., None]
            vol = 0.5 * (edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0])
        else:
            c = np.cross(t, fpts[..., 2, :] - fpts[..., 0, :])
            area2 = _norm(c)
            measure = 0.5 * area2
            normal = c / area2[..., None]
            vol = np.linalg.det(edges) / 6.0
        inward = np.vecdot(normal, fpts.mean(axis=-2) - pts) < 0
        normal = np.where(inward[..., None], -normal, normal)
        self.h = 2.0 * d * np.abs(vol) / measure.sum(axis=1)

        flags = mesh.sflags[self.ids]
        across = _across(verts, d)
        rows = np.arange(len(verts))[:, None]
        face = np.nonzero((flags == NEUMANN) | ((flags == INTERIOR) & (across > rows)))
        self.owner, self.local = face
        self.flag = flags[face]
        self.neighbor = np.where(self.flag == NEUMANN, -1, across[face])
        self.fverts = verts[self.owner[:, None], LOCAL_FACES[d][self.local]]
        self.normal, self.measure, self.hf = normal[face], measure[face], measure[face]
        if d == 3:
            p = fpts[face]
            perimeter = (_norm(p[:, 1] - p[:, 0]) + _norm(p[:, 2] - p[:, 1])
                         + _norm(p[:, 0] - p[:, 2]))
            self.hf = 4.0 * self.measure / perimeter

    def gather(self, values: np.ndarray):
        """A vertex field's values (n, d+1, nc) at each simplex's vertices and
        its constant gradient (n, nc, d) on each simplex."""
        uloc = values[self.verts]
        return uloc, uloc.transpose(0, 2, 1) @ self.grads

    def element_points(self, ref: np.ndarray) -> np.ndarray:
        """Reference points (nq, d) mapped into every simplex: (n, nq, d)."""
        return _affine(self.coords[self.verts], ref)

    def face_quadrature(self, rule):
        """Points (m, nq, d) and weights (m, nq) of a rule on the reference
        face, its weights summing to the face's measure, on every face row."""
        ref_measure = 1.0 if self.coords.shape[1] == 2 else 0.5
        return (_affine(self.coords[self.fverts], rule.points),
                rule.weights * (self.measure / ref_measure)[:, None])


def _affine(pts: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # x = p0 + ref @ (p_k - p0) for each vertex set pts (n, k + 1, d)
    return pts[:, None, 0] + np.atleast_2d(ref) @ (pts[:, 1:] - pts[:, :1])


class Mesh:
    """Conforming simplex mesh of dimension 2 or 3 with bisection refinement."""

    def __init__(self, dim: int):
        if dim not in (2, 3):
            raise MeshError(f"unsupported dimension {dim}")
        self.dim = dim
        self._nv = 0
        self._ns = 0
        cap = 16
        self._coords = np.zeros((cap, dim), dtype=float)
        self._vclass = np.zeros(cap, dtype=np.int8)
        self._vparents = np.full((cap, 2), -1, dtype=np.int64)
        self.rings: list[set] = []
        self._sverts = np.zeros((cap, dim + 1), dtype=np.int64)
        self._sflags = np.zeros((cap, dim + 1), dtype=np.int8)
        self._salive = np.zeros(cap, dtype=bool)
        self._sparent = np.full(cap, -1, dtype=np.int64)
        self._schildren = np.full((cap, 2), -1, dtype=np.int64)
        # 3D bisection bookkeeping: vertex ids in bisection order plus a type tag
        self._sorder = np.full((cap, 4), -1, dtype=np.int64)
        self._stag = np.zeros(cap, dtype=np.int8)
        self._finalized = False
        self._tables = None

    # ------------------------------------------------------------------ storage

    @staticmethod
    def _grow(arr: np.ndarray, need: int) -> np.ndarray:
        cap = len(arr)
        if need <= cap:
            return arr
        new_cap = max(need, 2 * cap)
        shape = (new_cap,) + arr.shape[1:]
        out = np.zeros(shape, dtype=arr.dtype)
        if arr.dtype == np.int64:
            out.fill(-1)
        out[:cap] = arr
        return out

    @property
    def coords(self) -> np.ndarray:
        return self._coords[:self._nv]

    @property
    def vclass(self) -> np.ndarray:
        return self._vclass[:self._nv]

    @property
    def vparents(self) -> np.ndarray:
        return self._vparents[:self._nv]

    @property
    def sverts(self) -> np.ndarray:
        return self._sverts[:self._ns]

    @property
    def sflags(self) -> np.ndarray:
        return self._sflags[:self._ns]

    @property
    def salive(self) -> np.ndarray:
        return self._salive[:self._ns]

    @property
    def sparent(self) -> np.ndarray:
        return self._sparent[:self._ns]

    @property
    def schildren(self) -> np.ndarray:
        return self._schildren[:self._ns]

    # ------------------------------------------------------------------ build

    def add_vertex(self, x, bclass: int = INTERIOR, parents=(-1, -1)) -> int:
        vid = self._nv
        self._coords = self._grow(self._coords, vid + 1)
        self._vclass = self._grow(self._vclass, vid + 1)
        self._vparents = self._grow(self._vparents, vid + 1)
        self._coords[vid] = x
        self._vclass[vid] = bclass
        self._vparents[vid] = parents
        self.rings.append(set())
        self._nv += 1
        return vid

    def _push_simplex(self, verts, flags, parent, order, tag) -> int:
        sid = self._ns
        self._sverts = self._grow(self._sverts, sid + 1)
        self._sflags = self._grow(self._sflags, sid + 1)
        self._salive = self._grow(self._salive, sid + 1)
        self._sparent = self._grow(self._sparent, sid + 1)
        self._schildren = self._grow(self._schildren, sid + 1)
        self._sorder = self._grow(self._sorder, sid + 1)
        self._stag = self._grow(self._stag, sid + 1)
        self._sverts[sid] = verts
        self._sflags[sid] = flags
        self._salive[sid] = True
        self._sparent[sid] = parent
        self._schildren[sid] = (-1, -1)
        self._sorder[sid] = order
        self._stag[sid] = tag
        self._ns += 1
        self._tables = None
        for v in verts:
            self.rings[v].add(sid)
        return sid

    def add_simplex(self, verts, flags=None) -> int:
        verts = tuple(int(v) for v in verts)
        if len(verts) != self.dim + 1:
            raise MeshError(f"simplex needs {self.dim + 1} vertices, got {len(verts)}")
        if len(set(verts)) != len(verts):
            raise MeshError(f"repeated vertex in simplex {verts}")
        if any(v < 0 or v >= self._nv for v in verts):
            raise MeshError(f"simplex {verts} references a missing vertex")
        if flags is None:
            flags = (INTERIOR,) * (self.dim + 1)
        return self._push_simplex(verts, flags, -1, (-1, -1, -1, -1), 0)

    def finalize(self, boundary=None, fix_orientation: bool = True):
        """Close construction: orient simplices, flag boundary faces, derive vertex classes.

        boundary: None keeps the flags handed to add_simplex; an int flags every
        face not shared by two simplices with that class; a callable is evaluated
        at the face centroid and must return a class code.
        """
        for s in range(self._ns):
            vol = self.signed_volume(s)
            if vol < 0:
                if not fix_orientation:
                    raise MeshError(f"simplex {s} has negative volume {vol}")
                row = self._sverts[s].copy()
                row[-1], row[-2] = row[-2], row[-1]
                self._sverts[s] = row
                fl = self._sflags[s].copy()
                fl[-1], fl[-2] = fl[-2], fl[-1]
                self._sflags[s] = fl
            elif vol == 0:
                raise MeshError(f"simplex {s} is degenerate")
        if boundary is not None:
            across = _across(self.sverts, self.dim)
            self.sflags[across >= 0] = INTERIOR
            for s, i in zip(*np.nonzero(across < 0)):
                if callable(boundary):
                    fverts = self._sverts[s, LOCAL_FACES[self.dim][i]]
                    c = boundary(self.coords[fverts].mean(axis=0))
                else:
                    c = boundary
                self._sflags[s, i] = c
        self._derive_vertex_classes()
        if self.dim == 3:
            for s in range(self._ns):
                if self._sorder[s, 0] < 0:
                    self._assign_initial_mark(s)
        self._finalized = True
        self._tables = None
        self.check_conformity()
        return self

    def _derive_vertex_classes(self):
        live = self.live_simplices()
        fverts = self.sverts[live][:, LOCAL_FACES[self.dim]]
        flags = self.sflags[live]
        self.vclass[:] = INTERIOR
        self.vclass[fverts[(flags != INTERIOR) & (flags != DIRICHLET)]] = NEUMANN
        # dirichlet wins where both kinds of face meet at a vertex
        self.vclass[fverts[flags == DIRICHLET]] = DIRICHLET

    def _assign_initial_mark(self, s: int):
        # refinement edge = longest edge, ties broken on the (min id, max id) pair
        verts = self._sverts[s]
        best = None
        for i, j in _EDGES[3]:
            a, b = int(verts[i]), int(verts[j])
            e = self._coords[b] - self._coords[a]
            l2 = float(e @ e)
            key = (-l2, min(a, b), max(a, b))
            if best is None or key < best[0]:
                best = (key, (min(a, b), max(a, b)))
        a, b = best[1]
        mids = sorted(int(v) for v in verts[:4] if v not in (a, b))
        self._sorder[s] = (a, mids[0], mids[1], b)
        self._stag[s] = 0

    # ------------------------------------------------------------------ queries

    @property
    def n_vertices(self) -> int:
        return self._nv

    @property
    def n_simplices(self) -> int:
        return int(self.salive.sum())

    @property
    def n_slots(self) -> int:
        return self._ns

    def live_simplices(self) -> np.ndarray:
        return np.flatnonzero(self.salive)

    def signed_volume(self, sid: int) -> float:
        return signed_volume_of_points(self._coords[self._sverts[sid]])

    def shape_measure(self, sid: int) -> float:
        return shape_of_points(self._coords[self._sverts[sid]])

    def min_shape(self) -> float:
        return min(self.shape_measure(int(s)) for s in self.live_simplices())

    def bbox(self):
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def tables(self) -> MeshTables:
        """The tables of the current state; a new simplex or finalize drops them."""
        if self._tables is None:
            self._tables = MeshTables(self)
        return self._tables

    def neighbor(self, sid: int, i: int) -> int:
        """Live simplex across face i of sid, or -1 on the boundary."""
        verts = [int(v) for k, v in enumerate(self._sverts[sid, :self.dim + 1]) if k != i]
        shared = set(self.rings[verts[0]])
        for v in verts[1:]:
            shared &= self.rings[v]
        shared.discard(sid)
        if not shared:
            return -1
        if len(shared) > 1:
            raise MeshError(f"face {i} of simplex {sid} is shared by {len(shared) + 1} simplices")
        return shared.pop()

    def refinement_edge(self, sid: int):
        """Vertex id pair of the edge the next bisection of sid will split."""
        if self.dim == 3:
            return int(self._sorder[sid, 0]), int(self._sorder[sid, 3])
        verts = self._sverts[sid]
        best = None
        for i, j in _EDGES[2]:
            a, b = int(verts[i]), int(verts[j])
            e = self._coords[b] - self._coords[a]
            l2 = float(e @ e)
            key = (-l2, min(a, b), max(a, b))
            if best is None or key < best[0]:
                best = (key, (min(a, b), max(a, b)))
        return best[1]

    def barycentric(self, sid: int, x) -> np.ndarray:
        pts = self._coords[self._sverts[sid]]
        t = (pts[1:] - pts[0]).T
        lam = np.linalg.solve(t, np.asarray(x, dtype=float) - pts[0])
        return np.concatenate([[1.0 - lam.sum()], lam])

    def root_ancestor(self, sid: int) -> int:
        s = int(sid)
        while self._sparent[s] >= 0:
            s = int(self._sparent[s])
        return s

    def coarse_ancestors(self, ids, coarse) -> np.ndarray:
        """The ancestor of each simplex in ids (or the simplex itself) that lies
        in coarse, the live simplex ids of an earlier state of this mesh."""
        anc = np.array(ids, dtype=np.int64)
        coarse = np.fromiter(coarse, dtype=np.int64)
        while (up := ~np.isin(anc, coarse)).any():
            anc[up] = self._sparent[anc[up]]
            if (anc < 0).any():
                sid = np.asarray(ids)[np.argmax(anc < 0)]
                raise MeshError(f"simplex {sid} has no ancestor in the coarse live set")
        return anc

    def locate(self, x, root: int) -> int:
        """Live descendant of root containing point x, found by genealogy descent."""
        s = int(root)
        while not self._salive[s]:
            c0, c1 = (int(c) for c in self._schildren[s])
            if c0 < 0:
                raise MeshError(f"simplex {s} is dead but has no children")
            b0 = self.barycentric(c0, x).min()
            b1 = self.barycentric(c1, x).min()
            # descend into the child holding x most interiorly; ties take child0
            s = c0 if b0 >= b1 else c1
        if self.barycentric(s, x).min() < -1e-9:
            raise MeshError(f"point {np.asarray(x)} escaped genealogy descent at simplex {s}")
        return s

    # ------------------------------------------------------------------ refinement

    def bisect(self, sid: int) -> RefinementReport:
        """Bisect one simplex at its refinement edge midpoint, then restore conformity."""
        return self.refine_marked([sid])

    def refine_marked(self, marked) -> RefinementReport:
        """Bisect every marked simplex, then close until the mesh conforms again.

        Midpoints are deduplicated through a per-call (min vid, max vid) hash, so
        neighbors splitting the same edge share the new vertex.  The queue-swap
        loop bisects the current queue, then collects every live simplex still
        spanning a split edge into the next queue.
        """
        report = RefinementReport()
        edge_map: dict = {}
        queue = sorted(set(int(s) for s in marked))
        for s in queue:
            if s < 0 or s >= self._ns or not self._salive[s]:
                raise MeshError(f"cannot refine simplex {s}: not a live simplex")
        passes = 0
        while queue:
            passes += 1
            if passes > MAX_CLOSURE_PASSES:
                raise MeshError(
                    f"conformity closure exceeded {MAX_CLOSURE_PASSES} passes; "
                    f"simplex {queue[0]} still hangs (inconsistent marking?)")
            for s in queue:
                if self._salive[s]:
                    self._bisect_one(s, edge_map, report)
            nxt = set()
            for (va, vb) in edge_map:
                nxt.update(self.rings[va] & self.rings[vb])
            queue = sorted(nxt)
        report.passes = passes
        return report

    def uniform_refine(self) -> RefinementReport:
        return self.refine_marked(self.live_simplices())

    def _midpoint_class(self, a: int, b: int) -> int:
        # the midpoint is on the boundary iff edge (a,b) lies inside a flagged face
        cls = INTERIOR
        for s in sorted(self.rings[a] & self.rings[b]):
            verts = self._sverts[s]
            for i in range(self.dim + 1):
                fl = int(self._sflags[s, i])
                if fl == INTERIOR:
                    continue
                fv = set(int(v) for k, v in enumerate(verts[:self.dim + 1]) if k != i)
                if a in fv and b in fv:
                    if fl == DIRICHLET:
                        return DIRICHLET
                    cls = NEUMANN
        return cls

    def _child_flags(self, parent: int, child_verts, a: int, b: int, z: int):
        pverts = [int(v) for v in self._sverts[parent, :self.dim + 1]]
        pset = set(pverts)
        flags = []
        for i in range(self.dim + 1):
            fset = set(child_verts) - {child_verts[i]}
            if z not in fset:
                j = pverts.index((pset - fset).pop())
                flags.append(int(self._sflags[parent, j]))
                continue
            fp = (fset - {z}) | {a, b}
            if len(fp) == self.dim + 1:
                flags.append(INTERIOR)  # the cut face is always interior
            else:
                j = pverts.index((pset - fp).pop())
                flags.append(int(self._sflags[parent, j]))
        return flags

    def _bisect_one(self, sid: int, edge_map: dict, report: RefinementReport):
        a, b = self.refinement_edge(sid)
        key = (min(a, b), max(a, b))
        z = edge_map.get(key)
        if z is None:
            mid = 0.5 * (self._coords[a] + self._coords[b])
            z = self.add_vertex(mid, bclass=self._midpoint_class(a, b), parents=key)
            edge_map[key] = z
            report.created_vertices.append(z)
        pverts = [int(v) for v in self._sverts[sid, :self.dim + 1]]
        verts0 = [z if v == b else v for v in pverts]  # child containing a
        verts1 = [z if v == a else v for v in pverts]  # child containing b
        flags0 = self._child_flags(sid, verts0, a, b, z)
        flags1 = self._child_flags(sid, verts1, a, b, z)
        if self.dim == 3:
            m1, m2 = int(self._sorder[sid, 1]), int(self._sorder[sid, 2])
            t = int(self._stag[sid])
            nt = (t + 1) % 3
            order0 = (a, z, m1, m2)
            order1 = (b, z, m2, m1) if t == 0 else (b, z, m1, m2)
            c0 = self._push_simplex(verts0, flags0, sid, order0, nt)
            c1 = self._push_simplex(verts1, flags1, sid, order1, nt)
        else:
            c0 = self._push_simplex(verts0, flags0, sid, (-1, -1, -1, -1), 0)
            c1 = self._push_simplex(verts1, flags1, sid, (-1, -1, -1, -1), 0)
        self._salive[sid] = False
        self._schildren[sid] = (c0, c1)
        for v in pverts:
            self.rings[v].discard(sid)
        report.bisections.append((sid, c0, c1, z))

    # ------------------------------------------------------------------ integrity

    def check_conformity(self):
        """Exhaustive face audit: every interior face shared by exactly two live
        simplices flagged interior, every boundary face owned by one simplex with
        a boundary flag, rings consistent, volumes positive.
        """
        live = self.live_simplices()
        for s in live:
            if self.signed_volume(int(s)) <= 0:
                raise MeshError(f"simplex {s} has non-positive volume")
        across = _across(self.sverts[live], self.dim)
        # a face with a neighbour must be flagged interior, one without must not
        for r, i in zip(*np.nonzero((across >= 0) == (self.sflags[live] != INTERIOR))):
            s = int(live[r])
            if across[r, i] >= 0:
                raise MeshError(f"interior face {i} of simplex {s} carries a boundary flag")
            raise MeshError(f"boundary face {i} of simplex {s} is unflagged "
                            "(hanging node or missing boundary data)")
        for v in range(self._nv):
            for s in self.rings[v]:
                if not self._salive[s]:
                    raise MeshError(f"ring of vertex {v} holds dead simplex {s}")
                if v not in self._sverts[s, :self.dim + 1]:
                    raise MeshError(f"ring of vertex {v} holds foreign simplex {s}")

    def face_normal(self, sid: int, i: int):
        """Unit outward normal and measure of face i (the face opposite local vertex i)."""
        verts = self._sverts[sid]
        fpts = self._coords[[int(v) for k, v in enumerate(verts[:self.dim + 1]) if k != i]]
        opp = self._coords[verts[i]]
        if self.dim == 2:
            t = fpts[1] - fpts[0]
            meas = float(np.linalg.norm(t))
            n = np.array([t[1], -t[0]]) / meas
        else:
            c = np.cross(fpts[1] - fpts[0], fpts[2] - fpts[0])
            area2 = float(np.linalg.norm(c))
            meas = 0.5 * area2
            n = c / area2
        if float(n @ (fpts.mean(axis=0) - opp)) < 0:
            n = -n
        return n, meas

    # ------------------------------------------------------------------ copies

    def copy(self) -> "Mesh":
        m = Mesh(self.dim)
        m._nv = self._nv
        m._ns = self._ns
        m._coords = self._coords[:self._nv].copy()
        m._vclass = self._vclass[:self._nv].copy()
        m._vparents = self._vparents[:self._nv].copy()
        m.rings = [set(r) for r in self.rings]
        m._sverts = self._sverts[:self._ns].copy()
        m._sflags = self._sflags[:self._ns].copy()
        m._salive = self._salive[:self._ns].copy()
        m._sparent = self._sparent[:self._ns].copy()
        m._schildren = self._schildren[:self._ns].copy()
        m._sorder = self._sorder[:self._ns].copy()
        m._stag = self._stag[:self._ns].copy()
        m._finalized = self._finalized
        return m
