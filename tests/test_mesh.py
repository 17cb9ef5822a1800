"""Mesh core: construction, bisection, conformity, genealogy, quality."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afem import generators
from afem.config import ConfigError, RunConfig, build_mesh
from afem.mesh import DIRICHLET, INTERIOR, NEUMANN, Mesh, MeshError, shapes, signed_volumes

import pointwise_oracle as oracle

KUHN_SHAPE = 0.22894284851066632  # frozen: standard cube-corner tetrahedron


def unit_triangle():
    return Mesh.from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                            boundary=DIRICHLET)


def volumes(m, ids=None):
    ids = m.live_simplices() if ids is None else ids
    return signed_volumes(m.coords[m.sverts[ids]])


# ------------------------------------------------------------- shape measure

def test_shape_measure_right_triangle():
    # unit right triangle: area 1/2, edge lengths 1, 1, sqrt(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert abs(shapes(pts) - math.sqrt(3.0) / 4.0) < 1e-12


def test_shape_measure_equilateral():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    assert abs(shapes(pts) - 0.5) < 1e-12


def test_shape_measure_kuhn_tet():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    assert abs(shapes(pts) - KUHN_SHAPE) < 1e-12


def test_shape_measure_degenerate_is_zero():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert shapes(pts) == 0.0
    assert shapes(np.zeros((3, 2))) == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_volumes_and_shapes_match_pointwise_oracle(dim, rng):
    m = generators.l_shape(2) if dim == 2 else generators.unit_cube(1)
    m.refine_marked(m.live_simplices()[::3])
    # inverted copies of every simplex too: a swap of two vertices negates both
    pts = m.coords[m.sverts]
    pts = np.concatenate([pts, pts[:, [*range(dim - 1), dim, dim - 1]]])
    pts += 1e-3 * rng.standard_normal(pts.shape)
    vol, q = signed_volumes(pts), shapes(pts)
    assert (vol[:m.n_slots] > 0).all() and (vol[m.n_slots:] < 0).all()
    np.testing.assert_array_equal(vol, [oracle.signed_volume_of_points(p) for p in pts])
    np.testing.assert_allclose(q, [oracle.shape_of_points(p) for p in pts], rtol=1e-15)
    assert m.min_shape() == pytest.approx(min(oracle.shape_measure(m, s)
                                              for s in m.live_simplices()), rel=1e-15)


# ------------------------------------------------------------- construction

def test_generators_sizes_and_conformity():
    for m, nv in [(generators.unit_square(2), 9),
                  (generators.unit_cube(2), 27),
                  (generators.l_shape(2), 21)]:
        assert m.n_vertices == nv
        m.check_conformity()
        assert (volumes(m) > 0.0).all()


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
    coords = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]

    def classify(c):
        onb = min(c[0], c[1], 1.0 - c[0], 1.0 - c[1]) < 1e-9
        return DIRICHLET if onb else INTERIOR

    with pytest.raises(MeshError, match="simplex 0 has boundary face 1 unflagged") as err:
        Mesh.from_arrays(coords, [(0, 1, 2), (0, 4, 3), (4, 2, 3)], boundary=classify)
    assert err.value.simplex == 0


# every generator mesh the tests, demos and benchmark workloads build
def _split(c):
    return NEUMANN if c[0] > 0.5 else DIRICHLET


def _ring(c):
    return NEUMANN if math.hypot(c[0], c[1]) > 0.75 else DIRICHLET


GENERATED = {
    **{f"unit_square({n})": ("unit_square", (n,), {}) for n in (1, 2, 3, 4, 6, 8, 16)},
    **{f"l_shape({n})": ("l_shape", (n,), {}) for n in (1, 2, 4)},
    **{f"unit_cube({n})": ("unit_cube", (n,), {}) for n in (1, 2)},
    "sphere_in_box(3)": ("sphere_in_box", (3,), {}),
    "sphere_in_box(5)": ("sphere_in_box", (5,), {}),
    "sphere_in_box(6)": ("sphere_in_box", (6,), {}),
    **{f"annulus{a}": ("annulus", a, {}) for a in [(2, 8), (1, 6), (3, 12), (2, 12)]},
    "unit_square(2, split)": ("unit_square", (2,), {"boundary": _split}),
    "unit_cube(1, split)": ("unit_cube", (1,), {"boundary": _split}),
    "sphere_in_box(3, split)": ("sphere_in_box", (3,), {"boundary": _split}),
    "annulus(2, 12, ring)": ("annulus", (2, 12, 0.5, 1.0), {"boundary": _ring}),
    "annulus(3, 12, ring)": ("annulus", (3, 12, 0.5, 1.0), {"boundary": _ring}),
}


@pytest.mark.parametrize("name", GENERATED)
def test_generators_match_loop_construction(name):
    # bitwise, before and after one uniform refinement
    fn, args, kw = GENERATED[name]
    m, ref = getattr(generators, fn)(*args, **kw), getattr(oracle, fn)(*args, **kw)
    for _ in range(2):
        for col in ("coords", "vparents", "sverts", "sflags"):
            a, b = getattr(m, col), getattr(ref, col)
            assert a.dtype == b.dtype and np.array_equal(a, b), col
        a, b = m.vclass, oracle.vclass(ref)
        assert a.dtype == b.dtype and np.array_equal(a, b), "vclass"
        for col in ("_sorder", "_stag"):
            assert np.array_equal(getattr(m, col)[:m.n_slots], getattr(ref, col)[:ref.n_slots])
        m.uniform_refine()
        oracle.refine_marked(ref, ref.live_simplices())


def test_sphere_in_box_default_and_even_n():
    m = generators.sphere_in_box()
    m.check_conformity()
    assert m.n_simplices == 6 * 3 ** 3 - 6  # the centre cell is removed
    with pytest.raises(MeshError, match="no cell centre lies inside the sphere"):
        generators.sphere_in_box(4)


def test_sphere_in_box_config_names_mesh_n():
    with pytest.raises(ConfigError, match="^mesh_n: .*n = 4"):
        build_mesh(RunConfig(mesh="sphere_in_box"))
    # mesh_n 1 to 3 all build the generator's default mesh
    small = build_mesh(RunConfig(mesh="sphere_in_box", mesh_n=1))
    assert np.array_equal(small.sverts, generators.sphere_in_box().sverts)


@pytest.mark.parametrize("coords, sverts, named", [
    ([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2)], "vertex 3 belongs to no simplex"),
    ([(0, 0), (1, 0), (0, 1)], [(0, 1, 1)], "simplex 0 repeats a vertex"),
    ([(0, 0), (1, 0), (0, 1)], [(0, 1, 2), (0, 1, 3)], "simplex 1 references a missing vertex"),
    ([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)], "simplex 0 is degenerate"),
    ([(0, 0), (1, 0), (0, np.nan)], [(0, 1, 2)], "vertex 2 has a non-finite coordinate"),
    ([(0, 0), (1, 0), (0, 1)], [], "at least one simplex"),
])
def test_from_arrays_rejects_naming_the_row(coords, sverts, named):
    with pytest.raises(MeshError, match=named):
        Mesh.from_arrays(coords, np.array(sverts, dtype=np.int64).reshape(-1, 3),
                         boundary=DIRICHLET)


def test_from_arrays_turns_inverted_simplices_around():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    sverts = np.array([(0, 2, 1), (1, 3, 2)])
    flags = np.array([(0, 1, 2), (2, 0, 1)])
    m = Mesh.from_arrays(coords, sverts, flags)
    # the last two vertices and their faces' flags swap; the input is untouched
    np.testing.assert_array_equal(m.sverts, [(0, 1, 2), (1, 3, 2)])
    np.testing.assert_array_equal(m.sflags, [(0, 2, 1), (2, 0, 1)])
    np.testing.assert_array_equal(sverts, [(0, 2, 1), (1, 3, 2)])
    np.testing.assert_array_equal(m.vclass, [DIRICHLET, DIRICHLET, NEUMANN, DIRICHLET])


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
WHOLE = "holds a value that is not a whole number"


@pytest.mark.parametrize("sverts", [[(0, 1, 2), (0, 2, 3.5)], [(0, 1, 2), (0, 2, np.nan)],
                                    [(0, 1, 2), (0, 2, np.inf)]])
def test_from_arrays_rejects_non_integer_vertex_ids(sverts):
    with pytest.raises(MeshError, match=f"simplex 1 {WHOLE}") as err:
        Mesh.from_arrays(SQUARE, sverts, boundary=DIRICHLET)
    assert err.value.simplex == 1
    # a fraction used to be truncated to a vertex id without a word
    with pytest.raises(MeshError, match=f"simplex 0 {WHOLE}"):
        Mesh.from_arrays([(0, 0), (1, 0), (0, 1)], [[0, 1.7, 2]], boundary=1)


def test_from_arrays_rejects_non_integer_face_flags():
    sverts = [(0, 1, 2), (0, 2, 3)]
    with pytest.raises(MeshError, match=f"simplex 1 {WHOLE}") as err:
        Mesh.from_arrays(SQUARE, sverts, [(1, 0, 1), (1.5, 1, 0)])
    assert err.value.simplex == 1
    # the first row holding a fraction is named, in sverts or in sflags
    with pytest.raises(MeshError, match=f"simplex 0 {WHOLE}"):
        Mesh.from_arrays(SQUARE, [(0, 1, 2), (0, 2, 3.2)], [(1, 0, 0.5), (1, 1, 0)])


def test_from_arrays_takes_whole_valued_floats():
    ints = Mesh.from_arrays(SQUARE, [(0, 1, 2), (0, 2, 3)], [(1, 0, 1), (1, 1, 0)])
    floats = Mesh.from_arrays(SQUARE, np.array([(0, 1, 2), (0, 2, 3)], dtype=float),
                              np.array([(1, 0, 1), (1, 1, 0)], dtype=float))
    for a, b in zip(_state(ints), _state(floats)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("boundary", [2.7, lambda c: 1.5])
def test_from_arrays_rejects_fractional_boundary_classes(boundary):
    # 2.7 used to flag every face NEUMANN and 1.5 every face DIRICHLET
    with pytest.raises(MeshError, match=f"simplex 0 {WHOLE}"):
        Mesh.from_arrays([(0, 0), (1, 0), (0, 1)], [[0, 1, 2]], boundary=boundary)


def test_from_arrays_takes_whole_valued_boundary_classes():
    ints = Mesh.from_arrays(SQUARE, [(0, 1, 2), (0, 2, 3)], boundary=NEUMANN)
    for boundary in (2.0, lambda c: 2.0):
        floats = Mesh.from_arrays(SQUARE, [(0, 1, 2), (0, 2, 3)], boundary=boundary)
        for a, b in zip(_state(ints), _state(floats)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


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
            vp, v0, v1 = np.abs(volumes(m, [s, c0, c1]))
            vc = v0 + v1
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
    found = set()
    for _ in range(3):
        m.refine_marked([int(s) for s in m.live_simplices()])
        found |= set(np.round(shapes(m.coords[m.sverts[m.live_simplices()]]), 10))
    assert len(found) <= 3
    m.check_conformity()


# rounded shape classes: 1 on the 2D lattices, at most 3 on the Kuhn cubes
SHAPE_CLASSES = {"unit_square": (lambda: generators.unit_square(2), 1),
                 "l_shape": (lambda: generators.l_shape(1), 1),
                 "unit_cube(1)": (lambda: generators.unit_cube(1), 3),
                 "unit_cube(2)": (lambda: generators.unit_cube(2), 3)}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(list(SHAPE_CLASSES)), seed=st.integers(0, 2 ** 32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_shape_classes_stay_bounded_under_random_marking(name, seed, fractions):
    build, bound = SHAPE_CLASSES[name]
    m = build()
    rng = np.random.default_rng(seed)
    found = set()
    for f in fractions:
        live = m.live_simplices()
        m.refine_marked(rng.choice(live, size=max(1, round(f * len(live))), replace=False))
        m.check_conformity()
        found |= set(np.round(shapes(m.coords[m.sverts[m.live_simplices()]]), 10))
    assert len(found) <= bound, sorted(found)


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
    m = Mesh.from_arrays([(0.0, 0.0, 0.0), (1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.0, 0.0)],
                         [(0, 1, 2, 3)], boundary=DIRICHLET)
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
    np.testing.assert_array_equal(m.coarse_ancestors(hit, len(roots)), roots[holds])


@pytest.mark.parametrize("dim", [2, 3])
def test_coarse_ancestor_maps_refined_mesh_onto_coarse(dim):
    m = generators.unit_square(2) if dim == 2 else generators.unit_cube(1)
    coarse, n = {int(s) for s in m.live_simplices()}, m.n_slots
    m.refine_marked(sorted(coarse)[:2])
    m.refine_marked([int(s) for s in m.live_simplices()][::3])
    covered = dict.fromkeys(coarse, 0.0)
    live = m.live_simplices()
    for s, a, vol in zip(live, m.coarse_ancestors(live, n), volumes(m)):
        a = int(a)
        assert a in coarse
        centroid = m.coords[m.sverts[s]].mean(axis=0)
        assert oracle.barycentric(m, a, centroid).min() >= -1e-12
        covered[a] += vol
    # the descendants of each coarse simplex tile it exactly
    for a in coarse:
        assert abs(covered[a] - volumes(m, [a])[0]) < 1e-12


def test_coarse_ancestor_of_coarse_simplex_is_itself():
    m = generators.unit_square(2)
    ids, n = m.live_simplices().tolist(), m.n_slots
    m.refine_marked([0])
    assert not m.salive[0]
    assert m.coarse_ancestors(ids, n).tolist() == ids


def test_liveness_and_vertex_classes_are_derived():
    # neither is a stored column: a slot is live while it has no children, and
    # the classes come from the live face flags once per mesh state, read-only
    assert not {"_salive", "_vclass"} & set(Mesh._columns(2))
    m = generators.unit_square(2, boundary=lambda c: NEUMANN if c[0] > 0.5 else DIRICHLET)
    m.refine_marked([0, 5])
    np.testing.assert_array_equal(m.salive, m.schildren[:, 0] < 0)
    classes = m.vclass
    assert m.vclass is classes and len(classes) == m.n_vertices
    assert set(classes.tolist()) == {INTERIOR, DIRICHLET, NEUMANN}
    with pytest.raises(ValueError):
        classes[0] = INTERIOR
    m.refine_marked(m.live_simplices()[:1])
    assert m.vclass is not classes and len(m.vclass) == m.n_vertices


def test_copy_is_independent():
    # every column, vparents, _sorder and _stag included, is equal after the
    # copy, and refining the copy leaves the original as it was
    for m in (generators.unit_square(2), generators.unit_cube(1)):
        m.refine_marked([0])
        c = m.copy()
        columns = Mesh._columns(m.dim)
        assert {"_vparents", "_sorder", "_stag"} <= set(columns)
        before = {}
        for name, (count, _, _) in columns.items():
            n = getattr(m, count)
            a, b = getattr(m, name)[:n], getattr(c, name)[:n]
            assert getattr(c, count) == n and a.dtype == b.dtype and np.array_equal(a, b), name
            assert not np.shares_memory(a, b), name
            before[name] = a.copy()
        c.refine_marked(c.live_simplices())
        assert c.n_vertices > m.n_vertices
        for name, (count, _, _) in columns.items():
            assert np.array_equal(getattr(m, name)[:getattr(m, count)], before[name]), name
