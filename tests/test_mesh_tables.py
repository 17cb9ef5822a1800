"""The mesh's refinement and its element and face tables against
per-simplex references.

After random marking sequences on 2D and 3D generator meshes, every column of
`Mesh.tables()` must equal, bitwise, what the per-simplex routines compute:
`Mesh.face_normal`, and the oracle's `ElementGeometry.of`, `neighbor` and
copies of the former size helpers in `pointwise_oracle.py`; and every mesh
array `refine_marked` writes must equal, bitwise, what the oracle's
one-simplex-at-a-time bisection writes.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
from afem import generators
from afem.elements import REF_GRADS, fine_rule
from afem.mesh import DIRICHLET, NEUMANN


def _split(axis, cut):
    """Boundary classes: flux faces where the centroid's coordinate `axis`
    exceeds `cut`, Dirichlet elsewhere."""
    return lambda c: NEUMANN if c[axis] > cut else DIRICHLET


MESHES = {
    "unit_square": lambda: generators.unit_square(2, boundary=_split(0, 0.5)),
    "l_shape": lambda: generators.l_shape(1, boundary=_split(1, 0.0)),
    "annulus": lambda: generators.annulus(1, 6, boundary=lambda c: (
        NEUMANN if np.hypot(c[0], c[1]) > 0.75 else DIRICHLET)),
    "unit_cube": lambda: generators.unit_cube(1, boundary=_split(2, 0.5)),
    "sphere_in_box": lambda: generators.sphere_in_box(3, boundary=lambda c: (
        NEUMANN if np.linalg.norm(c) < 0.9 else DIRICHLET)),
}

MARKINGS = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
                    min_size=1, max_size=3)


def _face_keys(mesh, s, i):
    return tuple(sorted(int(v) for k, v in enumerate(mesh.sverts[s]) if k != i))


def _check_tables(mesh):
    tab = mesh.tables()
    d = mesh.dim
    np.testing.assert_array_equal(tab.ids, mesh.live_simplices())
    np.testing.assert_array_equal(tab.verts, mesh.sverts[tab.ids])
    rule = fine_rule(d)
    xq = tab.element_points(rule.points)
    values = np.sin(np.arange(2 * mesh.n_vertices, dtype=float)).reshape(-1, 2)
    uloc, gu = tab.gather(values)
    for k, s in enumerate(tab.ids):
        geom = oracle.ElementGeometry.of(mesh.coords[mesh.sverts[s]])
        grads = REF_GRADS[d] @ geom.inv_t.T
        assert tab.det[k] == geom.det
        np.testing.assert_array_equal(tab.grads[k], grads)
        assert tab.h[k] == oracle.inscribed_diameter(mesh, int(s))
        np.testing.assert_array_equal(xq[k], geom.to_physical(rule.points))
        np.testing.assert_array_equal(gu[k], uloc[k].T @ grads)

    # every face that carries an integral appears exactly once
    expected = set()
    for s in tab.ids:
        for i in range(d + 1):
            fl = int(mesh.sflags[s, i])
            if fl != DIRICHLET and (fl == NEUMANN or oracle.neighbor(mesh, int(s), i) >= 0):
                expected.add(_face_keys(mesh, s, i))
    seen = [_face_keys(mesh, tab.ids[o], i) for o, i in zip(tab.owner, tab.local)]
    assert len(seen) == len(set(seen)) == len(expected)
    assert set(seen) == expected

    assert list(zip(tab.owner, tab.local)) == sorted(zip(tab.owner, tab.local))
    for j, (o, i) in enumerate(zip(tab.owner, tab.local)):
        s, i = int(tab.ids[o]), int(i)
        fverts = [int(v) for k, v in enumerate(mesh.sverts[s]) if k != i]
        assert tab.flag[j] == mesh.sflags[s, i]
        np.testing.assert_array_equal(tab.fverts[j], fverts)
        t = oracle.neighbor(mesh, s, i)
        if tab.flag[j] == NEUMANN:
            assert tab.neighbor[j] == -1 and t == -1
        else:
            assert tab.ids[tab.neighbor[j]] == t and t > s
        n, meas = mesh.face_normal(s, i)
        np.testing.assert_array_equal(tab.normal[j], n)
        assert tab.measure[j] == meas
        assert tab.hf[j] == oracle._face_diameter(mesh, fverts)


def _refine_and_check(name, marking):
    mesh = MESHES[name]()
    _check_tables(mesh)
    for picks in marking:
        live = mesh.live_simplices()
        before = mesh.tables()
        assert mesh.tables() is before
        mesh.refine_marked(sorted({int(live[p % len(live)]) for p in picks}))
        assert mesh.tables() is not before
        _check_tables(mesh)
    copy = mesh.copy()
    assert copy.tables() is not mesh.tables()
    np.testing.assert_array_equal(copy.tables().hf, mesh.tables().hf)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["unit_square", "l_shape", "annulus"]), marking=MARKINGS)
def test_tables_match_references_2d(name, marking):
    _refine_and_check(name, marking)


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["unit_cube", "sphere_in_box"]), marking=MARKINGS)
def test_tables_match_references_3d(name, marking):
    _refine_and_check(name, marking)


# a round marks up to four picks, or every live simplex (None)
REFINEMENTS = st.lists(st.one_of(st.none(), st.lists(st.integers(0, 10 ** 6), min_size=1,
                                                     max_size=4)),
                       min_size=1, max_size=4)


def _assert_bitwise(a, b):
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _marks(live, picks):
    return live if picks is None else sorted({int(live[p % len(live)]) for p in picks})


def _refine_like_oracle(name, rounds):
    mesh = MESHES[name]()
    if mesh.dim == 3:
        for s in mesh.live_simplices():
            assert tuple(mesh._sorder[s]) == oracle.initial_order(mesh, int(s))
            assert mesh._stag[s] == 0
    twin = mesh.copy()
    for picks in rounds:
        marks = _marks(mesh.live_simplices(), picks)
        rep = mesh.refine_marked(marks)
        bisections, passes = oracle.refine_marked(twin, marks)
        for col in ("coords", "vparents", "sverts", "sflags", "salive", "sparent", "schildren"):
            _assert_bitwise(getattr(mesh, col), getattr(twin, col))
        # the classes the oracle gives each midpoint as it bisects, against
        # the library's, derived from the live face flags
        _assert_bitwise(mesh.vclass, oracle.vclass(twin))
        for col in ("_sorder", "_stag"):
            _assert_bitwise(getattr(mesh, col)[:mesh.n_slots], getattr(twin, col)[:twin.n_slots])
        _assert_bitwise(rep.bisections, np.array(bisections, dtype=np.int64).reshape(-1, 4))
        assert rep.passes == passes
    mesh.check_conformity()


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(list(MESHES)), rounds=REFINEMENTS)
def test_refinement_matches_oracle(name, rounds):
    _refine_like_oracle(name, rounds)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(list(MESHES)), rounds=REFINEMENTS)
def test_coarse_ancestors_match_oracle(name, rounds):
    # every earlier state, as a slot count, against its live set
    mesh = MESHES[name]()
    states = []
    for picks in rounds:
        live = mesh.live_simplices()
        states.append((mesh.n_slots, set(live.tolist())))
        mesh.refine_marked(_marks(live, picks))
    live = mesh.live_simplices()
    for n, coarse in states:
        expect = [oracle.coarse_ancestor(mesh, s, coarse) for s in live]
        assert mesh.coarse_ancestors(live, n).tolist() == expect
