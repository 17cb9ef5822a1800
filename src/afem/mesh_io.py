"""Text serialization of simplex meshes.

Format (one record per line, blank lines and # comments ignored):

    AFEM-MESH 1
    dim 2
    vertices <n>
    <id> <x> <y> [<z>] <bclass>     (n lines)
    simplices <m>
    <id> <v0> ... <vd> <f0> ... <fd>  (m lines)

bclass/face codes: 0 interior, 1 dirichlet, 2 neumann.  The reader rejects
duplicate ids, dangling vertex references, bad class codes, inverted or
degenerate simplices, inconsistent vertex classes, and nonconforming meshes,
always naming the offending line.  The writer emits live simplices only,
densely renumbered.
"""

from __future__ import annotations

import io

from .mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh, MeshError

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
    f.write(f"{MAGIC} {VERSION}\n")
    f.write(f"dim {mesh.dim}\n")
    f.write(f"vertices {mesh.n_vertices}\n")
    for v in range(mesh.n_vertices):
        xs = " ".join(repr(float(c)) for c in mesh.coords[v])
        f.write(f"{v} {xs} {int(mesh.vclass[v])}\n")
    live = mesh.live_simplices()
    f.write(f"simplices {len(live)}\n")
    for k, s in enumerate(live):
        vs = " ".join(str(int(v)) for v in mesh.sverts[s])
        fs = " ".join(str(int(fl)) for fl in mesh.sflags[s])
        f.write(f"{k} {vs} {fs}\n")


def read_mesh(path_or_file) -> Mesh:
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as f:
            lines = f.read().splitlines()
    return _parse(lines)


def reads_mesh(text: str) -> Mesh:
    return _parse(text.splitlines())


def dumps_mesh(mesh: Mesh) -> str:
    buf = io.StringIO()
    _write(mesh, buf)
    return buf.getvalue()


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
        for v in verts:
            if v not in raw_vertices:
                _fail(lineno, f"simplex {sid} references missing vertex {v}")
        for fl in flags:
            if fl not in _CLASSES:
                _fail(lineno, f"unknown face class {fl}")
        raw_simplices[sid] = (verts, flags, lineno)

    if cur.k != len(cur.rows):
        extra_lineno, extra = cur.rows[cur.k]
        _fail(extra_lineno, f"trailing content {extra!r}")

    mesh = Mesh(dim)
    vmap = {}
    stated = {}
    for vid in sorted(raw_vertices):
        x, bc, _ = raw_vertices[vid]
        vmap[vid] = mesh.add_vertex(x, bclass=bc)
        stated[vmap[vid]] = bc
    for sid in sorted(raw_simplices):
        verts, flags, ln = raw_simplices[sid]
        try:
            mesh.add_simplex([vmap[v] for v in verts], flags)
        except MeshError as e:
            _fail(ln, str(e))
        if mesh.signed_volume(mesh.n_slots - 1) <= 0:
            _fail(ln, f"simplex {sid} has non-positive volume")
    try:
        mesh.finalize(boundary=None)
    except MeshError as e:
        raise MeshError(f"mesh fails validation: {e}") from e
    for v in range(mesh.n_vertices):
        if int(mesh.vclass[v]) != stated[v]:
            raise MeshError(
                f"vertex {v} states class {stated[v]} but its faces imply {int(mesh.vclass[v])}")
    return mesh


def _int(lineno, token, what) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(lineno, f"bad {what} {token!r}")
