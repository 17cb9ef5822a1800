"""Simplicial meshes with bisection refinement and conformity closure.

The mesh stores vertices and d-simplices only, each as rows of a few arrays.
Refinement bisects a whole closure pass's queue at once over those rows (the
array form of newest-vertex bisection of Funken, Praetorius & Wissgott, CMAM
11, 2011, and in 3D the tagged bisection of Arnold, Mukherjee & Pouly, SISC
22, 2000).  Everything assembly and the indicators integrate over comes from
`Mesh.tables()`: a `MeshTables` value of element geometry and face incidence
as arrays, built with a few numpy operations on first use and kept until the
mesh's simplices change.  Simplex records are append-only: a bisected parent
stays as a dead record so refinement genealogy (parent/children links, vertex
parent edges) survives for transfer operators and point location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import linear_element

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

# local vertex indices of face i, the face opposite vertex i
LOCAL_FACES = {d: np.array([[k for k in range(d + 1) if k != i] for i in range(d + 1)])
          for d in (2, 3)}
MAX_CLOSURE_PASSES = 100


class MeshError(Exception):
    """Raised for structural mesh failures (nonconformity, inversion, bad input)."""


@dataclass
class RefinementReport:
    """What one refine_marked call did to the mesh: one (parent, child0,
    child1, midpoint) row per bisection, and the closure passes it took."""

    bisections: np.ndarray
    passes: int


def shape_of_points(pts: np.ndarray) -> float:
    """Shape measure of the simplex with vertex coordinates pts ((d+1, d) array).

    Scale invariant; 0 for degenerate simplices, negative for inverted ones.
    The unit right triangle scores sqrt(3)/4, the equilateral triangle 1/2.
    """
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


def _edge_ends(verts: np.ndarray):
    """Vertex ids (lo, hi), lo < hi, of every edge of each row of verts (n, k),
    as two (n, k (k-1) / 2) arrays."""
    i, j = np.triu_indices(verts.shape[1], 1)
    return np.minimum(verts[:, i], verts[:, j]), np.maximum(verts[:, i], verts[:, j])


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
        self._sverts = np.zeros((cap, dim + 1), dtype=np.int64)
        self._sflags = np.zeros((cap, dim + 1), dtype=np.int8)
        self._salive = np.zeros(cap, dtype=bool)
        self._sparent = np.full(cap, -1, dtype=np.int64)
        self._schildren = np.full((cap, 2), -1, dtype=np.int64)
        # 3D bisection bookkeeping: vertex ids in bisection order plus a type tag
        self._sorder = np.full((cap, 4), -1, dtype=np.int64)
        self._stag = np.zeros(cap, dtype=np.int8)
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

    def _append(self, count: str, **columns) -> np.ndarray:
        """Append rows to the vertex (count "_nv") or simplex ("_ns") columns
        and return their ids.  The first column holds one value per new row;
        the others broadcast against it."""
        start = getattr(self, count)
        stop = start + len(next(iter(columns.values())))
        for name, rows in columns.items():
            arr = self._grow(getattr(self, name), stop)
            arr[start:stop] = rows
            setattr(self, name, arr)
        setattr(self, count, stop)
        self._tables = None
        return np.arange(start, stop)

    def add_vertex(self, x, bclass: int = INTERIOR, parents=(-1, -1)) -> int:
        return int(self._append("_nv", _coords=[x], _vclass=bclass, _vparents=parents)[0])

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
        return int(self._append("_ns", _sverts=[verts], _sflags=flags, _salive=True,
                                _sparent=-1, _schildren=-1, _sorder=-1, _stag=0)[0])

    def finalize(self, boundary=None):
        """Close construction: orient simplices, flag boundary faces, derive vertex classes.

        boundary: None keeps the flags handed to add_simplex; an int flags every
        face not shared by two simplices with that class; a callable is evaluated
        at the face centroid and must return a class code.
        """
        for s in range(self._ns):
            vol = self.signed_volume(s)
            if vol < 0:
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
            # a new tetrahedron's order is (a, the other two ascending, b) for
            # its longest edge (a, b), a < b, and its tag 0
            fresh = np.flatnonzero(self._sorder[:self._ns, 0] < 0)
            verts = self._sverts[fresh]
            a, b = self._longest_edges(verts)
            keep = (verts != a[:, None]) & (verts != b[:, None])
            rest = np.sort(verts[keep].reshape(-1, 2), axis=1)
            self._sorder[fresh] = np.column_stack([a, rest, b])
            self._stag[fresh] = 0
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

    def _longest_edges(self, verts: np.ndarray):
        """Vertex ids (a, b), a < b, of the longest edge of each row of verts,
        ties broken on the smallest (a, b)."""
        lo, hi = _edge_ends(verts)
        n, ne = lo.shape
        lo, hi = lo.ravel(), hi.ravel()
        e = self._coords[hi] - self._coords[lo]
        # rows in blocks of ne, each block longest edge first
        first = np.lexsort((hi, lo, -np.vecdot(e, e), np.repeat(np.arange(n), ne)))[::ne]
        return lo[first], hi[first]

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

    def _barycentric(self, sids: np.ndarray, x: np.ndarray) -> np.ndarray:
        # barycentric coordinates (..., d+1) of points x (..., d) in simplices sids
        pts = self._coords[self._sverts[sids]]
        t = np.swapaxes(pts[..., 1:, :] - pts[..., :1, :], -1, -2)
        lam = np.linalg.solve(t, (x - pts[..., 0, :])[..., None])[..., 0]
        return np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)

    def locate(self, x, start):
        """Live descendant of start[k] holding point x[k], for points x (n, d),
        found by genealogy descent, and x's barycentric coordinates in it.

        Each step solves the barycentric systems of both children of every
        point's dead simplex at once and enters the child holding the point
        most interiorly (ties take child 0).  A point more than 1e-9 outside
        the live simplex it ends in gets -1.
        """
        x = np.asarray(x, dtype=float)
        s = np.array(start, dtype=np.int64)
        while (dead := np.flatnonzero(~self._salive[s])).size:
            kids = self._schildren[s[dead]]
            if (kids[:, 0] < 0).any():
                raise MeshError(f"simplex {s[dead][np.argmax(kids[:, 0] < 0)]} "
                                "is dead but has no children")
            low = self._barycentric(kids, x[dead, None]).min(axis=-1)
            s[dead] = np.where(low[:, 0] >= low[:, 1], kids[:, 0], kids[:, 1])
        bar = self._barycentric(s, x)
        return np.where(bar.min(axis=1) < -1e-9, -1, s), bar

    # ------------------------------------------------------------------ refinement

    def refine_marked(self, marked) -> RefinementReport:
        """Bisect every marked simplex, then close until the mesh conforms again.

        Each closure pass bisects its whole queue at once (`_bisect`); the next
        queue is every live simplex, ascending, that spans an edge split in
        this call.  Neighbours splitting the same edge share its midpoint.
        """
        queue = np.unique(np.fromiter(marked, dtype=np.int64))
        bad = (queue < 0) | (queue >= self._ns)
        bad[~bad] = ~self._salive[queue[~bad]]
        if bad.any():
            raise MeshError(f"cannot refine simplex {queue[bad][0]}: not a live simplex")
        nv0 = self._nv
        rows = []
        while queue.size:
            if len(rows) == MAX_CLOSURE_PASSES:
                raise MeshError(
                    f"conformity closure exceeded {MAX_CLOSURE_PASSES} passes; "
                    f"simplex {queue[0]} still hangs (inconsistent marking?)")
            rows.append(self._bisect(queue, nv0))
            n = self._nv
            split = self._vparents[nv0:n]
            live = self.live_simplices()
            lo, hi = _edge_ends(self._sverts[live])
            queue = live[np.isin(lo * n + hi, split[:, 0] * n + split[:, 1]).any(axis=1)]
        return RefinementReport(np.concatenate(rows or [np.empty((0, 4), np.int64)]), len(rows))

    def uniform_refine(self) -> RefinementReport:
        return self.refine_marked(self.live_simplices())

    def _bisect(self, queue: np.ndarray, nv0: int) -> np.ndarray:
        """Bisect the live simplices queue (ascending) at their refinement edges
        (a, b) and return one (parent, child0, child1, midpoint) row each.

        An edge split earlier in this call (its midpoint is a vertex from nv0
        on) keeps its midpoint; the other edges get new vertices in the order
        the queue first needs them.  Child 0 of queue[k] is slot n_slots + 2k
        and keeps a, child 1 keeps b; each copies its parent's face flags but
        for the cut face, opposite the end it keeps, which is interior.
        """
        d, n = self.dim, self._nv
        pv = self._sverts[queue]
        if d == 2:
            a, b = self._longest_edges(pv)
        else:
            a, b = self._sorder[queue, 0], self._sorder[queue, 3]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        old = self._vparents[nv0:n]
        keys, first, inv = np.unique(np.concatenate([old[:, 0] * n + old[:, 1], lo * n + hi]),
                                     return_index=True, return_inverse=True)
        ids = np.empty(len(keys), dtype=np.int64)
        ids[np.argsort(first)] = nv0 + np.arange(len(keys))
        z = ids[inv[len(old):]]
        new = np.sort(first[first >= len(old)]) - len(old)
        self._append("_nv", _coords=0.5 * (self._coords[a[new]] + self._coords[b[new]]),
                     _vclass=self._edge_classes(lo[new], hi[new]),
                     _vparents=np.column_stack([lo[new], hi[new]]))

        is_a, is_b = pv == a[:, None], pv == b[:, None]
        pf = self._sflags[queue]
        zc = z[:, None]
        verts = np.stack([np.where(is_b, zc, pv), np.where(is_a, zc, pv)], axis=1)
        flags = np.stack([np.where(is_a, INTERIOR, pf), np.where(is_b, INTERIOR, pf)], axis=1)
        order, tag = -1, 0
        if d == 3:
            t = self._stag[queue]
            m1, m2 = self._sorder[queue, 1], self._sorder[queue, 2]
            # child 0 is (a, z, m1, m2); child 1 (b, z, m2, m1) after tag 0
            m1b, m2b = np.where(t == 0, m2, m1), np.where(t == 0, m1, m2)
            order = np.stack([a, z, m1, m2, b, z, m1b, m2b], axis=1).reshape(-1, 4)
            tag = np.repeat((t + 1) % 3, 2)
        kids = self._append("_ns", _sverts=verts.reshape(-1, d + 1),
                            _sflags=flags.reshape(-1, d + 1), _salive=True,
                            _sparent=np.repeat(queue, 2), _schildren=-1, _sorder=order,
                            _stag=tag).reshape(-1, 2)
        self._salive[queue] = False
        self._schildren[queue] = kids
        return np.column_stack([queue, kids, z])

    def _edge_classes(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Class of the midpoint of each edge (lo, hi) of the live simplices:
        DIRICHLET if a Dirichlet face of a live simplex holds the edge, else
        NEUMANN if another flagged face does, else INTERIOR."""
        live = self.live_simplices()
        s, i = np.nonzero(self._sflags[live] != INTERIOR)
        s = live[s]
        flo, fhi = _edge_ends(self._sverts[s[:, None], LOCAL_FACES[self.dim][i]])
        # rank 2 for a Dirichlet face, 1 for another flagged face
        face_rank = np.where(self._sflags[s, i] == DIRICHLET, 2, 1)
        n = self._nv
        keys, inv = np.unique(np.concatenate([lo * n + hi, (flo * n + fhi).ravel()]),
                              return_inverse=True)
        rank = np.zeros(len(keys), dtype=np.int8)
        np.maximum.at(rank, inv[len(lo):], np.repeat(face_rank, flo.shape[1]))
        return np.array([INTERIOR, NEUMANN, DIRICHLET], dtype=np.int8)[rank[inv[:len(lo)]]]

    # ------------------------------------------------------------------ integrity

    def check_conformity(self):
        """Exhaustive face audit: every interior face shared by exactly two live
        simplices flagged interior, every boundary face owned by one simplex with
        a boundary flag, volumes positive.
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
        m._sverts = self._sverts[:self._ns].copy()
        m._sflags = self._sflags[:self._ns].copy()
        m._salive = self._salive[:self._ns].copy()
        m._sparent = self._sparent[:self._ns].copy()
        m._schildren = self._schildren[:self._ns].copy()
        m._sorder = self._sorder[:self._ns].copy()
        m._stag = self._stag[:self._ns].copy()
        return m
