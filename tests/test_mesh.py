"""Mesh core: construction, bisection, conformity, genealogy, quality."""
import math

import numpy as np
import pytest

from afem import generators
from afem.mesh import DIRICHLET, INTERIOR, Mesh, MeshError, shape_of_points

import pointwise_oracle as oracle

KUHN_SHAPE = 0.22894284851066632  # frozen: standard cube-corner tetrahedron


def unit_triangle():
    m = Mesh(2)
    for x in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
        m.add_vertex(x)
    m.add_simplex((0, 1, 2))
    return m.finalize(boundary=DIRICHLET)


# ------------------------------------------------------------- shape measure

def test_shape_measure_right_triangle():
    # unit right triangle: area 1/2, edge lengths 1, 1, sqrt(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert abs(shape_of_points(pts) - math.sqrt(3.0) / 4.0) < 1e-12


def test_shape_measure_equilateral():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    assert abs(shape_of_points(pts) - 0.5) < 1e-12


def test_shape_measure_kuhn_tet():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert abs(shape_of_points(pts) - KUHN_SHAPE) < 1e-12


def test_shape_measure_degenerate_is_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert shape_of_points(pts) == 0.0


# ------------------------------------------------------------- construction

def test_generators_sizes_and_conformity():
    for m, nv in [(generators.unit_square(2), 9),
                  (generators.unit_cube(2), 27),
                  (generators.l_shape(2), 21)]:
        assert m.n_vertices == nv
        m.check_conformity()
        assert all(m.signed_volume(int(s)) > 0.0 for s in m.live_simplices())


def test_annulus_and_cavity_generators():
    a = generators.annulus(2, 8)
    a.check_conformity()
    r = np.linalg.norm(a.coords, axis=1)
    assert r.min() >= 0.5 - 1e-12 and r.max() <= 1.0 + 1e-12
    s = generators.sphere_in_box(3)
    s.check_conformity()
    # the cavity removes cells, so strictly fewer than the full 6 n^3
    assert len(s.live_simplices()) < 6 * 3 ** 3


def test_boundary_classification():
    m = generators.unit_square(2)
    onb = (np.abs(m.coords) < 1e-12) | (np.abs(m.coords - 1.0) < 1e-12)
    for v in range(m.n_vertices):
        expect = DIRICHLET if onb[v].any() else INTERIOR
        assert m.vclass[v] == expect


def test_nonconforming_input_rejected():
    # lower half is one triangle, upper half is split at the diagonal midpoint,
    # so the midpoint hangs on the lower triangle's diagonal edge
    m = Mesh(2)
    for x in [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]:
        m.add_vertex(x)
    m.add_simplex((0, 1, 2))
    m.add_simplex((0, 4, 3))
    m.add_simplex((4, 2, 3))

    def classify(c):
        onb = min(c[0], c[1], 1.0 - c[0], 1.0 - c[1]) < 1e-9
        return DIRICHLET if onb else INTERIOR

    with pytest.raises(MeshError):
        m.finalize(boundary=classify)


# ----------------------------------------------------------------- bisection

def test_bisect_single_triangle():
    m = unit_triangle()
    rep = m.refine_marked([0])
    m.check_conformity()
    assert len(m.live_simplices()) == 2
    # one pass bisects simplex 0 into slots 1 and 2 through the new vertex 3
    np.testing.assert_array_equal(rep.bisections, [[0, 1, 2, 3]])
    assert rep.passes == 1
    parent, c0, c1, z = rep.bisections[0]
    assert not m.salive[parent] and m.salive[[c0, c1]].all()
    # children split the longest (hypotenuse) edge at its midpoint
    np.testing.assert_array_equal(m.coords[z], [0.5, 0.5])


def _state(m):
    return [a.copy() for a in (m.coords, m.vclass, m.vparents, m.sverts, m.sflags,
                               m.salive, m.sparent, m.schildren)]


@pytest.mark.parametrize("marks, named", [
    ([3, 1, 5], 1),          # 0 and 1 are dead
    ([13, 12, 4], 12),       # n_slots is 12
    ([2, -1, -3], -3),
    ([12, 0, -1, 5], -1),
])
def test_refine_rejects_bad_ids_naming_the_smallest(marks, named):
    m = generators.unit_square(2)
    m.refine_marked([0])
    assert m.n_slots == 12 and not m.salive[[0, 1]].any()
    before = _state(m)
    with pytest.raises(MeshError, match=f"cannot refine simplex {named}: not a live simplex"):
        m.refine_marked(marks)
    for a, b in zip(before, _state(m)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("marks", [[], np.array([], dtype=np.int64)])
def test_refine_nothing_marked(marks):
    m = generators.unit_square(2)
    before = _state(m)
    rep = m.refine_marked(marks)
    assert rep.bisections.shape == (0, 4) and rep.passes == 0
    for a, b in zip(before, _state(m)):
        np.testing.assert_array_equal(a, b)


def test_child_volumes_sum_to_parent():
    m = generators.unit_square(2)
    m.refine_marked([int(s) for s in m.live_simplices()[:3]])
    for s in range(m.n_simplices):
        c0, c1 = (int(c) for c in m.schildren[s])
        if c0 >= 0:
            vp = abs(m.signed_volume(s))
            vc = abs(m.signed_volume(c0)) + abs(m.signed_volume(c1))
            assert abs(vp - vc) < 1e-12 * max(1.0, vp)


def test_midpoint_vertex_reused_not_duplicated():
    m = generators.unit_square(1)
    live = [int(s) for s in m.live_simplices()]
    m.refine_marked(live)  # both triangles share the diagonal refinement edge
    coords = {tuple(np.round(m.coords[v], 12)) for v in range(m.n_vertices)}
    assert len(coords) == m.n_vertices


def test_genealogy_links():
    m = generators.unit_square(1)
    m.refine_marked([0])
    for s in range(m.n_simplices):
        p = int(m.sparent[s])
        if p >= 0:
            assert s in {int(c) for c in m.schildren[p]}
    # midpoints record their parent vertices
    for v in range(4, m.n_vertices):
        a, b = (int(t) for t in m.vparents[v])
        assert a >= 0 and b >= 0
        assert np.allclose(m.coords[v], 0.5 * (m.coords[a] + m.coords[b]))


def test_tet_bisection_similarity_classes():
    # marked bisection cycles through finitely many shapes; three uniform
    # halvings of a Kuhn tetrahedron reproduce the original shape set
    m = generators.unit_cube(1)
    shapes = set()
    for _ in range(3):
        m.refine_marked([int(s) for s in m.live_simplices()])
        shapes |= {round(m.shape_measure(int(s)), 10) for s in m.live_simplices()}
    assert len(shapes) <= 3
    m.check_conformity()


def test_random_marked_rounds_keep_quality(rng):
    for mesh, rounds in [(generators.unit_square(2), 10),
                         (generators.unit_cube(1), 10)]:
        floor = 0.2 * mesh.min_shape()
        for _ in range(rounds):
            live = mesh.live_simplices()
            take = rng.choice(live, size=max(1, len(live) // 10), replace=False)
            mesh.refine_marked([int(s) for s in take])
            mesh.check_conformity()
            assert mesh.min_shape() >= floor


def test_refinement_is_deterministic():
    a, b = generators.unit_square(3), generators.unit_square(3)
    marks = [0, 5, 11]
    a.refine_marked(marks)
    b.refine_marked(marks)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.sverts, b.sverts)


def test_initial_tet_order_breaks_ties_on_the_smaller_pair():
    # the opposite edges (0, 3) and (1, 2) tie as longest; (0, 3) is the
    # smaller (min id, max id) pair, so it is the first refinement edge
    m = Mesh(3)
    for x in [(0.0, 0.0, 0.0), (1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.0, 0.0)]:
        m.add_vertex(x)
    m.add_simplex((0, 1, 2, 3))
    m.finalize(boundary=DIRICHLET)
    assert tuple(m._sorder[0]) == (0, 1, 2, 3) == oracle.initial_order(m, 0)
    assert m._stag[0] == 0


def test_uniform_refine_quadruples_2d():
    m = generators.unit_square(2)
    n0 = len(m.live_simplices())
    m.uniform_refine()
    m.uniform_refine()
    assert len(m.live_simplices()) == 4 * n0
    m.check_conformity()


# ------------------------------------------------------------------- queries

def test_neighbor_and_face_normals():
    m = generators.unit_square(1)
    live = [int(s) for s in m.live_simplices()]
    shared = [(s, i) for s in live for i in range(3) if oracle.neighbor(m, s, i) >= 0]
    assert len(shared) == 2  # one interior edge seen from both sides
    (s0, i0), (s1, i1) = shared
    n0, l0 = m.face_normal(s0, i0)
    n1, l1 = m.face_normal(s1, i1)
    assert abs(l0 - math.sqrt(2.0)) < 1e-12 and abs(l1 - l0) < 1e-12
    assert np.allclose(n0, -n1)  # outward normals oppose across the face
    assert abs(np.linalg.norm(n0) - 1.0) < 1e-12


def test_boundary_faces_cover_square():
    m = generators.unit_square(2)
    faces = [(int(s), i) for s in m.live_simplices() for i in range(3)
             if m.sflags[s, i] != INTERIOR]
    total = sum(m.face_normal(s, i)[1] for s, i in faces)
    assert abs(total - 4.0) < 1e-12
    assert all(m.sflags[s, i] == DIRICHLET and oracle.neighbor(m, s, i) < 0 for s, i in faces)


def test_locate_and_root_ancestor():
    m = generators.unit_square(2)
    m.refine_marked([0, 1, 2])
    x = np.array([0.1, 0.2])
    roots = np.flatnonzero(m.sparent < 0)
    # descend from every root: the one holding x finds it, the others miss
    hit, bar = m.locate(np.tile(x, (len(roots), 1)), roots)
    holds = np.array([oracle.barycentric(m, r, x).min() >= -1e-12 for r in roots])
    assert holds.any()
    np.testing.assert_array_equal(hit >= 0, holds)
    hit, bar = hit[holds], bar[holds]
    assert m.salive[hit].all() and (bar.min(axis=1) >= -1e-9).all()
    assert np.allclose(np.einsum("kj,kjd->kd", bar, m.coords[m.sverts[hit]]), x)
    np.testing.assert_array_equal(m.coarse_ancestors(hit, roots), roots[holds])


@pytest.mark.parametrize("dim", [2, 3])
def test_coarse_ancestor_maps_refined_mesh_onto_coarse(dim):
    m = generators.unit_square(2) if dim == 2 else generators.unit_cube(1)
    coarse = {int(s) for s in m.live_simplices()}
    m.refine_marked(sorted(coarse)[:2])
    m.refine_marked([int(s) for s in m.live_simplices()][::3])
    covered = dict.fromkeys(coarse, 0.0)
    live = m.live_simplices()
    for s, a in zip(live, m.coarse_ancestors(live, coarse)):
        a = int(a)
        assert a in coarse
        centroid = m.coords[m.sverts[s]].mean(axis=0)
        assert oracle.barycentric(m, a, centroid).min() >= -1e-12
        covered[a] += m.signed_volume(int(s))
    # the descendants of each coarse simplex tile it exactly
    for a in coarse:
        assert abs(covered[a] - m.signed_volume(a)) < 1e-12


def test_coarse_ancestor_of_coarse_simplex_is_itself():
    m = generators.unit_square(2)
    coarse = {int(s) for s in m.live_simplices()}
    m.refine_marked([0])
    assert not m.salive[0]
    ids = sorted(coarse)
    assert m.coarse_ancestors(ids, coarse).tolist() == ids


def test_coarse_ancestor_missing_raises_naming_simplex():
    m = generators.unit_square(1)
    m.refine_marked([0])
    child = int(m.schildren[0, 0])
    with pytest.raises(MeshError, match=f"simplex {child} has no ancestor"):
        m.coarse_ancestors([1, child], {1})


def test_copy_is_independent():
    m = generators.unit_square(2)
    c = m.copy()
    c.refine_marked([0])
    assert m.n_vertices == 9 and c.n_vertices > 9
    assert np.array_equal(m.coords, generators.unit_square(2).coords)
