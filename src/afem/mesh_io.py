"""Text serialization of simplex meshes.

Format (one record per line, blank lines and # comments ignored):

    AFEM-MESH 1
    dim 2
    vertices <n>
    <id> <x> <y> [<z>] <bclass>     (n lines)
    simplices <m>
    <id> <v0> ... <vd> <f0> ... <fd>  (m lines)

bclass/face codes: 0 interior, 1 dirichlet, 2 neumann.  The reader checks
each line's tokens, then builds the mesh with one `Mesh.from_arrays` call.  It
rejects duplicate ids, dangling vertex references, repeated vertices in a
simplex, vertices no simplex uses, bad class codes, inverted or degenerate
simplices, inconsistent vertex classes, and nonconforming meshes, naming the
offending line wherever one row is at fault.  The writer emits live
simplices only, densely renumbered.
"""

from __future__ import annotations

import numpy as np

from .mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh, MeshError, _reject
from .vtk import _block

MAGIC = "AFEM-MESH"
VERSION = 1
_CLASSES = (INTERIOR, DIRICHLET, NEUMANN)


def write_mesh(mesh: Mesh, path_or_file) -> None:
    if hasattr(path_or_file, "write"):
        _write(mesh, path_or_file)
    else:
        with open(path_or_file, "w") as f:
            _write(mesh, f)


def _write(mesh: Mesh, f) -> None:
    d = mesh.dim
    f.write(f"{MAGIC} {VERSION}\ndim {d}\nvertices {mesh.n_vertices}\n")
    # coordinates as the repr of Python floats, the shortest round-trip form;
    # an object block keeps the ids and classes Python ints
    f.write(_block("{} " + "{!r} " * d + "{}\n", np.column_stack(
        [a.astype(object) for a in (np.arange(mesh.n_vertices), mesh.coords, mesh.vclass)])))
    live = mesh.live_simplices()
    f.write(f"simplices {len(live)}\n")
    f.write(_block(" ".join(["{}"] * (2 * d + 3)) + "\n", np.column_stack(
        [np.arange(len(live)), mesh.sverts[live], mesh.sflags[live]])))


def read_mesh(path_or_file) -> Mesh:
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as f:
            lines = f.read().splitlines()
    return _parse(lines)


class _Cursor:
    def __init__(self, lines):
        self.rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)
                     if ln.strip() and not ln.strip().startswith("#")]
        self.k = 0

    def next(self, what):
        if self.k >= len(self.rows):
            raise MeshError(f"unexpected end of file while reading {what}")
        row = self.rows[self.k]
        self.k += 1
        return row


def _fail(lineno, msg):
    raise MeshError(f"line {lineno}: {msg}")


def _parse(lines) -> Mesh:
    cur = _Cursor(lines)
    lineno, header = cur.next("header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != MAGIC:
        _fail(lineno, f"expected '{MAGIC} <version>' header, got {header!r}")
    if parts[1] != str(VERSION):
        _fail(lineno, f"unsupported format version {parts[1]} (this reader handles {VERSION})")
    lineno, dimline = cur.next("dim")
    parts = dimline.split()
    if len(parts) != 2 or parts[0] != "dim" or parts[1] not in ("2", "3"):
        _fail(lineno, f"expected 'dim 2' or 'dim 3', got {dimline!r}")
    dim = int(parts[1])

    lineno, vcount = cur.next("vertex count")
    parts = vcount.split()
    if len(parts) != 2 or parts[0] != "vertices":
        _fail(lineno, f"expected 'vertices <n>', got {vcount!r}")
    nv = _int(lineno, parts[1], "vertex count")

    raw_vertices = {}
    for _ in range(nv):
        lineno, row = cur.next("vertex")
        parts = row.split()
        if len(parts) != dim + 2:
            _fail(lineno, f"vertex line needs id, {dim} coordinates, class; got {row!r}")
        vid = _int(lineno, parts[0], "vertex id")
        if vid in raw_vertices:
            _fail(lineno, f"duplicate vertex id {vid}")
        try:
            x = [float(p) for p in parts[1:1 + dim]]
        except ValueError:
            _fail(lineno, f"bad coordinate in {row!r}")
        bc = _int(lineno, parts[1 + dim], "vertex class")
        if bc not in _CLASSES:
            _fail(lineno, f"unknown boundary class {bc}")
        raw_vertices[vid] = (x, bc, lineno)

    lineno, scount = cur.next("simplex count")
    parts = scount.split()
    if len(parts) != 2 or parts[0] != "simplices":
        _fail(lineno, f"expected 'simplices <m>', got {scount!r}")
    ns = _int(lineno, parts[1], "simplex count")

    raw_simplices = {}
    for _ in range(ns):
        lineno, row = cur.next("simplex")
        parts = row.split()
        if len(parts) != 2 * (dim + 1) + 1:
            _fail(lineno, f"simplex line needs id, {dim + 1} vertices, {dim + 1} face flags; got {row!r}")
        sid = _int(lineno, parts[0], "simplex id")
        if sid in raw_simplices:
            _fail(lineno, f"duplicate simplex id {sid}")
        verts = [_int(lineno, p, "vertex reference") for p in parts[1:dim + 2]]
        flags = [_int(lineno, p, "face flag") for p in parts[dim + 2:]]
        raw_simplices[sid] = (verts, flags, lineno)

    if cur.k != len(cur.rows):
        extra_lineno, extra = cur.rows[cur.k]
        _fail(extra_lineno, f"trailing content {extra!r}")

    # rows in id order; a reference to an id no vertex line declares is -1
    vids, sids = sorted(raw_vertices), sorted(raw_simplices)
    vrow = {v: k for k, v in enumerate(vids)}
    coords = np.array([raw_vertices[v][0] for v in vids], dtype=float).reshape(-1, dim)
    stated = np.array([raw_vertices[v][1] for v in vids], dtype=np.int8)
    sverts = np.array([[vrow.get(v, -1) for v in raw_simplices[s][0]] for s in sids],
                      dtype=np.int64).reshape(-1, dim + 1)
    sflags = np.array([raw_simplices[s][1] for s in sids], dtype=np.int64).reshape(-1, dim + 1)
    try:
        mesh = Mesh.from_arrays(coords, sverts, sflags)
        # from_arrays turns an inverted simplex around; a file must state it positive
        _reject((mesh.sverts != sverts).any(axis=1), "simplex", "has non-positive volume")
        k = int(np.argmax(mesh.vclass != stated))
        if mesh.vclass[k] != stated[k]:
            raise MeshError(f"states class {stated[k]} but its faces imply {mesh.vclass[k]}",
                            vertex=k)
    except MeshError as e:
        # name the line, and the file's id, of the row at fault
        if e.vertex is not None:
            _fail(raw_vertices[vids[e.vertex]][2], f"vertex {vids[e.vertex]} {e.reason}")
        if e.simplex is not None:
            _fail(raw_simplices[sids[e.simplex]][2], f"simplex {sids[e.simplex]} {e.reason}")
        raise MeshError(f"mesh fails validation: {e}") from e
    return mesh


def _int(lineno, token, what) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(lineno, f"bad {what} {token!r}")
