"""Marking and the partition-of-unity pipeline against the dict-keyed oracle.

`pointwise_oracle.py` keeps the former `mark`, `decompose`, `taper_weights`
and `partition_of_unity`, which keyed every per-simplex value by simplex id.
The library computes them as arrays over the element rows of
`Mesh.tables()`.  After a random marking sequence on a 2D or 3D generator
mesh, with random indicator values (ties included), p in {1, 2, 3}, 1 to 6
subdomains and 1 to 3 overlap layers, both must choose the same simplices,
owners, overlap regions and cover, bitwise equal taper weights, and
partition-of-unity weights within 1e-15.  The library's weights must also
be a partition of unity: rows summing to 1, and exactly 0 on every blend
simplex whose coarse ancestor lies outside the subdomain's overlap region.

Indicator values are drawn from a palette of at most six values on the grid
k/16, 0 <= k <= 160, so ties are common and eta^p is exact.  numpy's
vectorised power and the scalar libm `pow` of the oracle's `**` round
differently in the last bit on 0.1% (p = 2) to 5% (p = 3) of general inputs,
and at an exact tie of masses (say, every eta equal, against their mean) one
bit decides a strict comparison; on exact powers both sides compare the same
numbers.

The blend stage is checked the same way against the former per-vertex blend
and path-keyed blend mesh: after random refinements of the coarse mesh and
of every subdomain's local mesh, the blend meshes must agree bitwise
(coordinates, simplex vertices, live set), and so must the blended values of
random local fields.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
from afem import generators, ppum
from afem.indicators import IndicatorField, mark
from afem.problem import SolutionField

MESHES = {
    "unit_square": lambda: generators.unit_square(2),
    "l_shape": lambda: generators.l_shape(1),
    "unit_cube": lambda: generators.unit_cube(1),
}

MARKINGS = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
                    min_size=1, max_size=3)
# deeper refinement for the local meshes of the blend stage
LOCAL_MARKINGS = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
                          min_size=1, max_size=5)


def _refine(mesh, marking):
    for picks in marking:
        live = mesh.live_simplices()
        mesh.refine_marked(sorted({int(live[p % len(live)]) for p in picks}))
    return mesh


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), marking=MARKINGS, blend_marking=MARKINGS,
       data=st.data())
def test_marking_and_decomposition_match_oracle(name, marking, blend_marking, data):
    mesh = _refine(MESHES[name](), marking)
    live = mesh.live_simplices()
    n = len(live)
    palette = data.draw(st.lists(st.integers(0, 160), min_size=1, max_size=6))
    eta = np.array(data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))) / 16.0
    field = IndicatorField(mesh, live, eta)
    ref = oracle.IndicatorField(mesh, dict(zip(live.tolist(), eta.tolist())))

    for strategy in ("equidistribution", "maximum", "hybrid"):
        theta = data.draw(st.sampled_from([None, 0.1, 0.3, 0.5, 0.75, 1.0]))
        assert mark(field, strategy, theta) == oracle.mark(ref, strategy, theta)

    n_parts = data.draw(st.integers(1, min(6, n)))
    layers = data.draw(st.integers(1, 3))
    dec = ppum.decompose(mesh, field, n_parts, layers)
    odec = oracle.decompose(mesh, ref, n_parts, layers)
    assert dec.n_subdomains == odec.n_subdomains
    assert dict(zip(dec.ids.tolist(), dec.owner.tolist())) == odec.owner
    assert [set(dec.overlap(i).tolist()) for i in range(n_parts)] == odec.overlap
    assert dec.max_cover == odec.max_cover

    w = ppum.taper_weights(mesh, dec)
    np.testing.assert_array_equal(w, oracle.taper_weights(mesh, odec))

    bm = _refine(mesh.copy(), blend_marking)
    pou = ppum.partition_of_unity(bm, mesh.n_vertices, w)
    ref_pou = oracle.partition_of_unity(bm, mesh.n_vertices, w)
    assert np.max(np.abs(pou.weights - ref_pou.weights)) <= 1e-15
    assert pou.sum_deviation() <= 1e-12
    blive = bm.live_simplices()
    roots = bm.coarse_ancestors(blive, mesh.n_slots)
    for i in range(n_parts):
        outside = blive[~np.isin(roots, dec.overlap(i))]
        assert np.all(pou.weights[bm.sverts[outside], i] == 0.0)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)),
       coarse_marking=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3),
                               max_size=2),
       data=st.data())
def test_blend_stage_matches_oracle(name, coarse_marking, data):
    coarse = _refine(MESHES[name](), coarse_marking)
    live = coarse.live_simplices()
    eta = np.array(data.draw(st.lists(st.integers(0, 16), min_size=len(live),
                                      max_size=len(live)))) / 16.0
    n_parts = data.draw(st.integers(1, min(4, len(live))))
    dec = ppum.decompose(coarse, IndicatorField(coarse, live, eta), n_parts,
                         data.draw(st.integers(1, 2)))
    meshes = [_refine(coarse.copy(), data.draw(LOCAL_MARKINGS)) for _ in range(n_parts)]

    bm = ppum.build_blend_mesh(coarse, dec, meshes)
    ref = oracle.build_blend_mesh(coarse, dec, meshes)
    assert bm.coords.tobytes() == ref.coords.tobytes()
    np.testing.assert_array_equal(bm.sverts, ref.sverts)
    np.testing.assert_array_equal(bm.live_simplices(), ref.live_simplices())

    nc = data.draw(st.integers(1, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    fields = [SolutionField(m, nc, rng.standard_normal((m.n_vertices, nc))) for m in meshes]
    pou = ppum.partition_of_unity(bm, coarse.n_vertices, ppum.taper_weights(coarse, dec))
    got = ppum.blend(pou, fields).values
    assert got.tobytes() == oracle.blend(dec, pou, fields).values.tobytes()
