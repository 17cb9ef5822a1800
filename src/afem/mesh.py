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
parent edges) survives for transfer operators and point location.  Nothing
the records imply is stored: a slot is live while it has no children, the
vertex classes are derived from the live face flags once per state (with the
tables), and an earlier state of the mesh is a prefix of its slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import REF_GRADS
from .problem import sample

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2

# local vertex indices of face i, the face opposite vertex i
LOCAL_FACES = {d: np.array([[k for k in range(d + 1) if k != i] for i in range(d + 1)])
          for d in (2, 3)}
MAX_CLOSURE_PASSES = 100
# index pairs (i, j), i < j, of k items: the edges of a k-vertex simplex
_PAIRS = {k: np.triu_indices(k, 1) for k in (3, 4)}


class MeshError(Exception):
    """Raised for structural mesh failures (nonconformity, inversion, bad input).

    A failure of one row names it: `vertex` or `simplex` is its index, and the
    message is "vertex <index> <reason>" or "simplex <index> <reason>".
    """

    def __init__(self, reason: str, vertex: int = None, simplex: int = None):
        self.reason, self.vertex, self.simplex = reason, vertex, simplex
        row = "vertex" if vertex is not None else "simplex" if simplex is not None else None
        super().__init__(f"{row} {getattr(self, row)} {reason}" if row else reason)


@dataclass
class RefinementReport:
    """What one refine_marked call did to the mesh: one (parent, child0,
    child1, midpoint) row per bisection, and the closure passes it took."""

    bisections: np.ndarray
    passes: int


def signed_volumes(pts: np.ndarray) -> np.ndarray:
    """Signed volume of each simplex with vertex coordinates pts (..., d+1, d)."""
    e = pts[..., 1:, :] - pts[..., :1, :]
    if pts.shape[-1] == 2:
        return 0.5 * (e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] * e[..., 1, 0])
    return np.linalg.det(e) / 6.0


def shapes(pts: np.ndarray) -> np.ndarray:
    """Shape measure of each simplex with vertex coordinates pts (..., d+1, d).

    Scale invariant; 0 for degenerate simplices, negative for inverted ones.
    The unit right triangle scores sqrt(3)/4, the equilateral triangle 1/2.
    """
    d = pts.shape[-1]
    vol = signed_volumes(pts)
    i, j = _PAIRS[d + 1]
    e = pts[..., j, :] - pts[..., i, :]
    ss = np.vecdot(e, e).sum(axis=-1)
    c = 2.0 ** (2.0 * (1.0 - 1.0 / d)) * 3.0 ** ((d - 1) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = c * np.copysign(np.abs(vol) ** (2.0 / d), vol) / ss
    return np.where((ss == 0.0) | (vol == 0.0), 0.0, q)


def _norm(v: np.ndarray) -> np.ndarray:
    # the dot product np.linalg.norm takes, so lengths agree with face_normal's
    return np.sqrt(np.vecdot(v, v))


def _edge_ends(verts: np.ndarray):
    """Vertex ids (lo, hi), lo < hi, of every edge of each row of verts (n, k),
    as two (n, k (k-1) / 2) arrays."""
    i, j = _PAIRS[verts.shape[1]]
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


def _reject(bad: np.ndarray, row: str, reason: str, ids=None):
    """Raise a MeshError naming the vertex or simplex (row) of the first entry
    where bad holds: its index k, or ids[k]."""
    if bad.any():
        k = int(np.argmax(bad))
        raise MeshError(reason, **{row: k if ids is None else int(ids[k])})


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
    arithmetic is that of `Mesh.face_normal`, `signed_volumes` and the test
    oracle's `ElementGeometry.of`, whose inverse map takes the same
    `elements.REF_GRADS` to `grads`, so each value is bitwise theirs.
    `vclass` (read-only) is each vertex's class: NEUMANN on the vertices of
    NEUMANN faces, then DIRICHLET on those of DIRICHLET faces.
    """

    def __init__(self, mesh: "Mesh"):
        d = mesh.dim
        self.coords = mesh.coords
        self.ids = mesh.live_simplices()
        self.verts = verts = mesh.sverts[self.ids]
        pts = self.coords[verts]
        jac = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)
        self.det = np.linalg.det(jac)
        self.grads = REF_GRADS[d] @ np.linalg.inv(jac)

        # the d+1 faces of every simplex, face i opposite vertex i
        fpts = pts[:, LOCAL_FACES[d]]
        t = fpts[..., 1, :] - fpts[..., 0, :]
        if d == 2:
            measure = _norm(t)
            normal = np.stack([t[..., 1], -t[..., 0]], axis=-1) / measure[..., None]
        else:
            c = np.cross(t, fpts[..., 2, :] - fpts[..., 0, :])
            area2 = _norm(c)
            measure = 0.5 * area2
            normal = c / area2[..., None]
        inward = np.vecdot(normal, fpts.mean(axis=-2) - pts) < 0
        normal = np.where(inward[..., None], -normal, normal)
        self.h = 2.0 * d * np.abs(signed_volumes(pts)) / measure.sum(axis=1)

        flags = mesh.sflags[self.ids]
        fverts = verts[:, LOCAL_FACES[d]]
        self.vclass = np.zeros(mesh.n_vertices, np.int8)
        self.vclass[fverts[flags == NEUMANN]] = NEUMANN
        self.vclass[fverts[flags == DIRICHLET]] = DIRICHLET
        self.vclass.flags.writeable = False
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
        self.plans = {}   # assembly plans by component count (`afem.assembly`)

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
    """Conforming simplex mesh of dimension 2 or 3 with bisection refinement,
    built by `Mesh.from_arrays`; `Mesh(dim)` is the empty mesh."""

    def __init__(self, dim: int):
        if dim not in (2, 3):
            raise MeshError(f"unsupported dimension {dim}")
        self.dim = dim
        self._nv = self._ns = 0
        for name, (_, dtype, shape) in self._columns(dim).items():
            setattr(self, name, self._grow(np.empty((0,) + shape, dtype), 16))
        self._tables = None
        self._samples = {}

    # ------------------------------------------------------------------ storage

    @staticmethod
    def _columns(dim: int) -> dict:
        """Every column of a dim-dimensional mesh: name -> (row count, dtype,
        row shape), vertex columns counting "_nv" rows, simplex columns "_ns"."""
        return {"_coords": ("_nv", float, (dim,)),
                "_vparents": ("_nv", np.int64, (2,)),
                "_sverts": ("_ns", np.int64, (dim + 1,)),
                "_sflags": ("_ns", np.int8, (dim + 1,)),
                "_sparent": ("_ns", np.int64, ()),
                "_schildren": ("_ns", np.int64, (2,)),
                # 3D bisection bookkeeping: vertex ids in bisection order plus a type tag
                "_sorder": ("_ns", np.int64, (4,)),
                "_stag": ("_ns", np.int8, ())}

    @staticmethod
    def _grow(arr: np.ndarray, need: int) -> np.ndarray:
        # spare rows hold -1 in id columns, 0 elsewhere
        if need <= len(arr):
            return arr
        out = np.full((max(need, 2 * len(arr)),) + arr.shape[1:],
                      -1 if arr.dtype == np.int64 else 0, dtype=arr.dtype)
        out[:len(arr)] = arr
        return out

    # the filled rows of each public column
    coords = property(lambda self: self._coords[:self._nv])
    vparents = property(lambda self: self._vparents[:self._nv])
    sverts = property(lambda self: self._sverts[:self._ns])
    sflags = property(lambda self: self._sflags[:self._ns])
    sparent = property(lambda self: self._sparent[:self._ns])
    schildren = property(lambda self: self._schildren[:self._ns])
    # and what they imply: liveness (no children) and the vertex classes
    salive = property(lambda self: self._schildren[:self._ns, 0] < 0)
    vclass = property(lambda self: self.tables().vclass)

    # ------------------------------------------------------------------ build

    def _append(self, count: str, **columns) -> np.ndarray:
        """Append rows to every vertex (count "_nv") or simplex ("_ns") column
        and return their ids.  The first declared column (`_coords`, `_sverts`)
        holds one value per new row; the others broadcast against it."""
        names = [name for name, (c, _, _) in self._columns(self.dim).items() if c == count]
        start = getattr(self, count)
        stop = start + len(columns[names[0]])
        for name in names:
            arr = self._grow(getattr(self, name), stop)
            arr[start:stop] = columns[name]
            setattr(self, name, arr)
        setattr(self, count, stop)
        self._tables = None
        return np.arange(start, stop)

    @classmethod
    def from_arrays(cls, coords, sverts, sflags=None, boundary=None) -> "Mesh":
        """The mesh of the vertices coords (n, d), d = 2 or 3, and the simplices
        sverts (m, d+1) of vertex ids, with face flags sflags (m, d+1), face i
        opposite vertex i (default: all interior).

        A simplex of negative volume gets its last two vertices and their
        faces' flags swapped.  boundary: None keeps sflags; a class code flags
        every face not shared by two simplices with that class; a callable is
        called with each such face's centroid (d,) and returns its class.  With
        a boundary, shared faces are flagged interior.  A non-finite
        coordinate, a vertex no simplex uses, a non-integer vertex id, face flag
        or boundary class, a missing or repeated vertex in a simplex, an unknown
        face class, a degenerate simplex or a nonconforming mesh raise a
        MeshError naming the vertex or simplex row.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] not in (2, 3):
            raise MeshError(f"coords must have shape (n, 2) or (n, 3), not {coords.shape}")
        n, d = coords.shape
        sverts = np.asarray(sverts)
        flags = np.zeros(sverts.shape, np.int8) if sflags is None else np.asarray(sflags)
        if not len(sverts) or sverts.shape[1:] != (d + 1,) or flags.shape != sverts.shape:
            raise MeshError(f"a mesh needs at least one simplex: sverts and sflags of shape "
                            f"(m, {d + 1}), m > 0, not {sverts.shape} and {flags.shape}")
        _reject(~np.all([np.isfinite(a) & (a == np.round(a)) for a in (sverts, flags)],
                        axis=(0, 2)), "simplex", "holds a value that is not a whole number")
        sverts, flags = sverts.astype(np.int64), flags.astype(np.int64)
        _reject(~np.isfinite(coords).all(axis=1), "vertex", "has a non-finite coordinate")
        _reject(((sverts < 0) | (sverts >= n)).any(axis=1), "simplex",
                "references a missing vertex")
        ordered = np.sort(sverts, axis=1)
        _reject((ordered[:, 1:] == ordered[:, :-1]).any(axis=1), "simplex", "repeats a vertex")
        used = np.zeros(n, dtype=bool)
        used[sverts] = True
        _reject(~used, "vertex", "belongs to no simplex")
        vol = signed_volumes(coords[sverts])
        _reject(vol == 0, "simplex", "is degenerate")
        swap = np.r_[:d - 1, d, d - 1]
        sverts[vol < 0] = sverts[vol < 0][:, swap]
        flags[vol < 0] = flags[vol < 0][:, swap]

        if boundary is not None:
            across = _across(sverts, d)
            flags[across >= 0] = INTERIOR
            s, i = np.nonzero(across < 0)
            if callable(boundary):
                centroids = coords[sverts[s[:, None], LOCAL_FACES[d][i]]].mean(axis=1)
                boundary = [boundary(c) for c in centroids]
            classes = np.broadcast_to(np.asarray(boundary, dtype=float), s.shape)
            bad = np.zeros(len(sverts), dtype=bool)
            bad[s[~(np.isfinite(classes) & (classes == np.round(classes)))]] = True
            _reject(bad, "simplex", "holds a value that is not a whole number")
            flags[s, i] = classes
        _reject(~np.isin(flags, (INTERIOR, DIRICHLET, NEUMANN)).all(axis=1), "simplex",
                "has an unknown face class")

        mesh = cls(d)
        mesh._append("_nv", _coords=coords, _vparents=-1)
        order = -1
        if d == 3:
            # a new tetrahedron's order is (a, the other two ascending, b) for
            # its longest edge (a, b), a < b, and its tag 0
            a, b = mesh._longest_edges(sverts)
            rest = sverts[(sverts != a[:, None]) & (sverts != b[:, None])].reshape(-1, 2)
            order = np.column_stack([a, np.sort(rest, axis=1), b])
        mesh._append("_ns", _sverts=sverts, _sflags=flags, _sparent=-1, _schildren=-1,
                     _sorder=order, _stag=0)
        mesh.check_conformity()
        return mesh

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

    def min_shape(self) -> float:
        return float(shapes(self.coords[self.sverts[self.live_simplices()]]).min())

    def bbox(self):
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def tables(self) -> MeshTables:
        """The tables of the current state; new simplices drop them."""
        if self._tables is None:
            self._tables = MeshTables(self)
        return self._tables

    def sample_rows(self, v, ref: np.ndarray, shape=()) -> np.ndarray:
        """Values (n, nq) + shape of the datum v (read by `sample`) at the
        reference points ref (nq, d) mapped into every live simplex, in id
        order.  Rows never move, so each is sampled once per datum: one entry
        per (ref, shape) keeps the last v, its values and a filled mask by slot.
        A call with no new rows calls no datum."""
        key = (ref.tobytes(), ref.shape, shape)
        src, vals, filled = self._samples.get(key, (None, None, None))
        if vals is None or src is not v:
            vals, filled = np.empty((0, len(ref)) + shape), np.zeros(0, bool)
        vals, filled = self._grow(vals, self._ns), self._grow(filled, self._ns)
        live = self.live_simplices()
        new = live[~filled[live]]
        x = _affine(self._coords[self._sverts[new]], ref).reshape(-1, self.dim)
        vals[new] = sample(v, x, shape).reshape((len(new), len(ref)) + shape)
        filled[new] = True
        self._samples[key] = (v, vals, filled)
        return vals[live]

    def coarse_ancestors(self, ids, n: int) -> np.ndarray:
        """The ancestor of each simplex in ids (or the simplex itself) that was
        live in the earlier state of this mesh with n slots.  Slots are only
        appended, so that state is the first n, and a child's id is above its
        parent's: the first ancestor below n is the one."""
        anc = np.array(ids, dtype=np.int64)
        while (up := anc >= n).any():
            anc[up] = self._sparent[anc[up]]
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
        while (dead := np.flatnonzero(self._schildren[s, 0] >= 0)).size:
            kids = self._schildren[s[dead]]
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
        bad[~bad] = self._schildren[queue[~bad], 0] >= 0
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
                            _sflags=flags.reshape(-1, d + 1), _sparent=np.repeat(queue, 2),
                            _schildren=-1, _sorder=order, _stag=tag).reshape(-1, 2)
        self._schildren[queue] = kids
        return np.column_stack([queue, kids, z])

    # ------------------------------------------------------------------ integrity

    def check_conformity(self):
        """Exhaustive face audit: every interior face shared by exactly two live
        simplices flagged interior, every boundary face owned by one simplex with
        a boundary flag, volumes positive.
        """
        live = self.live_simplices()
        verts = self.sverts[live]
        _reject(signed_volumes(self.coords[verts]) <= 0, "simplex", "has non-positive volume",
                live)
        across = _across(verts, self.dim)
        # a face with a neighbour must be flagged interior, one without must not
        r, i = np.nonzero((across >= 0) == (self.sflags[live] != INTERIOR))
        if r.size:
            s, i = int(live[r[0]]), int(i[0])
            if across[r[0], i] >= 0:
                raise MeshError(f"has a boundary flag on interior face {i}", simplex=s)
            raise MeshError(f"has boundary face {i} unflagged "
                            "(hanging node or missing boundary data)", simplex=s)

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
        m._nv, m._ns = self._nv, self._ns
        for name, (count, _, _) in self._columns(self.dim).items():
            setattr(m, name, getattr(self, name)[:getattr(self, count)].copy())
        return m
