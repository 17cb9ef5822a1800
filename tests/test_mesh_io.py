"""Text serialization round trips."""
import numpy as np
import pytest

from afem import generators
from afem.mesh import MeshError
from afem.mesh_io import dumps_mesh, read_mesh, reads_mesh, write_mesh


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
    r = reads_mesh(dumps_mesh(m))
    m.refine_marked([int(m.live_simplices()[0])])
    r.refine_marked([int(r.live_simplices()[0])])
    assert m.n_vertices == r.n_vertices
    assert np.allclose(np.sort(m.coords, axis=0), np.sort(r.coords, axis=0))


def test_dumps_reads_identity():
    m = generators.annulus(2, 8)
    text = dumps_mesh(m)
    assert text == dumps_mesh(reads_mesh(text))


def test_reader_reports_line_numbers():
    m = generators.unit_square(1)
    lines = dumps_mesh(m).splitlines()
    lines[2] = lines[2] + " extra_token"
    with pytest.raises(MeshError) as err:
        reads_mesh("\n".join(lines))
    assert "line 3" in str(err.value)


def test_reader_rejects_bad_header():
    with pytest.raises(MeshError):
        reads_mesh("not a mesh file\n")


def test_reader_rejects_inverted_simplex_naming_its_line():
    lines = dumps_mesh(generators.unit_square(1)).splitlines()
    k = lines.index("simplices 2") + 2
    sid, v0, v1, v2, *flags = lines[k].split()
    # swapping two vertices (and their faces' flags) reverses the orientation
    lines[k] = " ".join([sid, v0, v2, v1, flags[0], flags[2], flags[1]])
    with pytest.raises(MeshError, match=f"line {k + 1}: simplex {sid} has non-positive volume"):
        reads_mesh("\n".join(lines))
