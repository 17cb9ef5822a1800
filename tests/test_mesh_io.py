"""Text serialization round trips."""
import io

import numpy as np
import pytest

from afem import generators
from afem.mesh import MeshError
from afem.mesh_io import read_mesh, write_mesh

import pointwise_oracle as oracle


def _text(mesh):
    buf = io.StringIO()
    write_mesh(mesh, buf)
    return buf.getvalue()


def _read(text):
    return read_mesh(io.StringIO(text))


def test_round_trip_2d(tmp_path):
    m = generators.l_shape(2)
    m.refine_marked([0, 3])
    p = tmp_path / "mesh.txt"
    write_mesh(m, p)
    r = read_mesh(p)
    r.check_conformity()
    assert r.dim == 2
    assert np.allclose(r.coords, m.coords[:m.n_vertices])
    assert np.array_equal(r.vclass, m.vclass[:m.n_vertices])
    live_m = {tuple(sorted(int(v) for v in m.sverts[s])) for s in m.live_simplices()}
    live_r = {tuple(sorted(int(v) for v in r.sverts[s])) for s in r.live_simplices()}
    assert live_m == live_r


def test_round_trip_3d_preserves_refinement_state(tmp_path):
    # the serialized mesh must bisect exactly like the original afterwards
    m = generators.unit_cube(1)
    m.refine_marked([0])
    r = _read(_text(m))
    m.refine_marked([int(m.live_simplices()[0])])
    r.refine_marked([int(r.live_simplices()[0])])
    assert m.n_vertices == r.n_vertices
    assert np.allclose(np.sort(m.coords, axis=0), np.sort(r.coords, axis=0))


def test_dumps_reads_identity():
    m = generators.annulus(2, 8)
    text = _text(m)
    assert text == _text(_read(text))


def test_reader_reports_line_numbers():
    m = generators.unit_square(1)
    lines = _text(m).splitlines()
    lines[2] = lines[2] + " extra_token"
    with pytest.raises(MeshError) as err:
        _read("\n".join(lines))
    assert "line 3" in str(err.value)


def test_reader_rejects_bad_header():
    with pytest.raises(MeshError):
        _read("not a mesh file\n")


def test_reader_rejects_inverted_simplex_naming_its_line():
    lines = _text(generators.unit_square(1)).splitlines()
    k = lines.index("simplices 2") + 2
    sid, v0, v1, v2, *flags = lines[k].split()
    # swapping two vertices (and their faces' flags) reverses the orientation
    lines[k] = " ".join([sid, v0, v2, v1, flags[0], flags[2], flags[1]])
    with pytest.raises(MeshError, match=f"line {k + 1}: simplex {sid} has non-positive volume"):
        _read("\n".join(lines))


def _broken(mesh, edit):
    """The mesh's text with edit(lines) applied, and a reader error for it."""
    lines = _text(mesh).splitlines()
    edit(lines)
    with pytest.raises(MeshError) as err:
        _read("\n".join(lines))
    return lines, str(err.value)


def _simplex_line(lines, k=0):
    return lines.index(next(ln for ln in lines if ln.startswith("simplices"))) + 1 + k


def test_reader_names_line_of_repeated_vertex():
    def edit(lines):
        k = _simplex_line(lines, 1)
        sid, v0, v1, v2, *flags = lines[k].split()
        lines[k] = " ".join([sid, v0, v0, v2, *flags])

    lines, msg = _broken(generators.unit_square(1), edit)
    assert msg == f"line {_simplex_line(lines, 1) + 1}: simplex 1 repeats a vertex"


def test_reader_names_line_of_missing_vertex():
    def edit(lines):
        k = _simplex_line(lines)
        sid, v0, *rest = lines[k].split()
        lines[k] = " ".join([sid, "99", *rest])

    lines, msg = _broken(generators.unit_square(1), edit)
    assert msg == f"line {_simplex_line(lines) + 1}: simplex 0 references a missing vertex"


def test_reader_names_line_of_zero_volume_simplex():
    # vertex 3 moved onto the bottom edge makes simplex 0, (0, 1, 3), flat
    m = generators.unit_square(1)
    assert m.sverts[0].tolist() == [0, 1, 3]

    def edit(lines):
        lines[lines.index("vertices 4") + 4] = "3 0.5 0.0 1"

    lines, msg = _broken(m, edit)
    assert msg == f"line {_simplex_line(lines) + 1}: simplex 0 is degenerate"


def test_reader_names_line_of_unused_vertex():
    # a vertex no simplex holds would be a dof no basis function covers: the
    # Jacobian would be singular and Newton would stall
    def edit(lines):
        k = lines.index("vertices 9")
        lines[k] = "vertices 10"
        lines.insert(k + 10, "9 0.3 0.3 0")

    lines, msg = _broken(generators.unit_square(2), edit)
    assert msg == f"line {lines.index('9 0.3 0.3 0') + 1}: vertex 9 belongs to no simplex"


def test_reader_names_line_of_nonconforming_flag():
    # face 1 of simplex 0 is the diagonal the two triangles share
    def edit(lines):
        k = _simplex_line(lines)
        sid, v0, v1, v2, f0, f1, f2 = lines[k].split()
        lines[k] = " ".join([sid, v0, v1, v2, f0, "1", f2])

    lines, msg = _broken(generators.unit_square(1), edit)
    assert msg == (f"line {_simplex_line(lines) + 1}: simplex 0 has a boundary flag "
                   "on interior face 1")


@pytest.mark.parametrize("dim", [2, 3])
def test_block_writer_matches_row_writer(dim, tmp_path):
    m = generators.l_shape(2) if dim == 2 else generators.unit_cube(2)
    m.refine_marked(m.live_simplices()[::3])
    m.refine_marked(m.live_simplices()[::5])
    assert not m.salive.all()  # dead simplices are left out, the rest renumbered
    p = tmp_path / "mesh.txt"
    write_mesh(m, p)
    assert p.read_bytes() == oracle.dumps_rows(m).encode()
    assert _text(m) == oracle.dumps_rows(m)
