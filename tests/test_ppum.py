"""Overlapping-subdomain pipeline: decompose, taper, blend, determinism."""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from afem import generators, ppum, problems
from afem.assembly import apply_dirichlet, dirichlet_start, measure_error
from afem.indicators import IndicatorField, mark, residual_indicator
from afem.multilevel import prolongation_from_refinement
from afem.newton import newton_solve
from afem.problem import SolutionField

import pointwise_oracle as oracle


def uniform_field(mesh):
    live = mesh.live_simplices()
    return IndicatorField(mesh, live, np.ones(len(live)))


# ------------------------------------------------------------- decomposition

def test_uniform_split_is_balanced():
    mesh = generators.unit_square(4)
    dec = ppum.decompose(mesh, uniform_field(mesh), 2)
    sizes = [np.count_nonzero(dec.owner == i) for i in range(2)]
    assert abs(sizes[0] - sizes[1]) <= 1
    # every live simplex has exactly one owner
    np.testing.assert_array_equal(dec.ids, mesh.live_simplices())
    assert dec.owner.shape == dec.ids.shape and set(dec.owner.tolist()) == {0, 1}
    assert all(np.isin(dec.ids[dec.owner == i], dec.overlap(i)).all() for i in range(2))


def test_weighted_split_balances_error_mass():
    # indicators concentrated in one corner: the squared-error mass is split
    # evenly, so the hot subdomain owns far fewer simplices
    mesh = generators.unit_square(4)
    live = mesh.live_simplices()

    def hot(s):
        c = mesh.coords[mesh.sverts[s]].mean(axis=0)
        return c[0] < 0.25 and c[1] < 0.25

    conc = IndicatorField(mesh, live, np.array([10.0 if hot(s) else 0.01 for s in live]))
    dec = ppum.decompose(mesh, conc, 2)
    wsums = [float(np.sum(conc.eta[dec.owner == i] ** 2)) for i in range(2)]
    wmax = float(np.max(conc.eta ** 2))
    assert abs(wsums[0] - sum(wsums) / 2.0) <= wmax  # within one simplex's mass
    sizes = [np.count_nonzero(dec.owner == i) for i in range(2)]
    small = min(range(2), key=lambda i: sizes[i])
    assert sizes[small] < sizes[1 - small]


def test_single_subdomain_covers_everything():
    mesh = generators.unit_square(4)
    dec = ppum.decompose(mesh, uniform_field(mesh), 1)
    w = ppum.taper_weights(mesh, dec)
    pou = ppum.partition_of_unity(mesh.copy(), mesh.n_vertices, w)
    assert np.all(pou.weights == 1.0)


def test_decompose_validates_inputs():
    mesh = generators.unit_square(4)
    n_live = len(mesh.live_simplices())
    with pytest.raises(ppum.PpumError):
        ppum.decompose(mesh, uniform_field(mesh), n_live + 1)
    with pytest.raises(ppum.PpumError):
        ppum.decompose(mesh, uniform_field(mesh), 0)
    with pytest.raises(ppum.PpumError):
        ppum.decompose(mesh, uniform_field(mesh), 2, layers=0)


def test_decompose_rejects_a_field_of_another_mesh_state():
    # a field of the mesh before a refinement misses the new simplices; they
    # must not silently weigh 0
    mesh = generators.unit_square(4)
    old = uniform_field(mesh)
    mesh.refine_marked([int(mesh.live_simplices()[0])])
    with pytest.raises(ppum.PpumError, match="does not cover"):
        ppum.decompose(mesh, old, 2)


def test_decomposition_deterministic():
    mesh = generators.unit_square(4)
    a = ppum.decompose(mesh, uniform_field(mesh), 4)
    b = ppum.decompose(mesh, uniform_field(mesh), 4)
    assert np.array_equal(a.owner, b.owner) and np.array_equal(a.ring, b.ring)


# ------------------------------------------------------- partition of unity

def refined_copy(mesh, rounds=3, seed=3):
    out = mesh.copy()
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        live = out.live_simplices()
        take = rng.choice(live, size=max(1, len(live) // 5), replace=False)
        out.refine_marked([int(s) for s in take])
    return out


def test_pou_sums_to_one_and_stays_in_range():
    mesh = generators.unit_square(4)
    dec = ppum.decompose(mesh, uniform_field(mesh), 4)
    w = ppum.taper_weights(mesh, dec)
    bm = refined_copy(mesh)
    pou = ppum.partition_of_unity(bm, mesh.n_vertices, w)
    assert pou.sum_deviation() <= 1e-12
    assert pou.weights.min() >= 0.0
    assert pou.weights.max() <= 1.0 + 1e-15


def test_pou_wraps_a_broken_genealogy_as_blend_mesh_error():
    # a coarse count one below the blend mesh's root vertices leaves the last
    # root vertex, which has no parent edge, to be interpolated
    mesh = generators.unit_square(4)
    w = ppum.taper_weights(mesh, ppum.decompose(mesh, uniform_field(mesh), 4))
    bm = refined_copy(mesh)
    nv0 = mesh.n_vertices
    with pytest.raises(ppum.PpumError,
                       match=rf"^blend mesh: vertex {nv0 - 1} has no parent edge"):
        ppum.partition_of_unity(bm, nv0 - 1, w[:nv0 - 1])


def test_pou_vanishes_outside_overlap():
    # phi_i must be exactly zero on every simplex whose coarse ancestor lies
    # outside subdomain i's overlap region, or local fields would leak
    mesh = generators.unit_square(4)
    dec = ppum.decompose(mesh, uniform_field(mesh), 4)
    w = ppum.taper_weights(mesh, dec)
    bm = refined_copy(mesh)
    pou = ppum.partition_of_unity(bm, mesh.n_vertices, w)
    live = bm.live_simplices()
    for s, root in zip(live, bm.coarse_ancestors(live, mesh.n_slots)):
        for i in range(dec.n_subdomains):
            if root not in dec.overlap(i):
                assert np.all(pou.weights[bm.sverts[s], i] == 0.0)


def test_taper_decreases_toward_region_edge():
    mesh = generators.unit_square(4)
    dec = ppum.decompose(mesh, uniform_field(mesh), 2, layers=2)
    w = ppum.taper_weights(mesh, dec)
    # every subdomain has full weight somewhere and zero weight somewhere
    for i in range(2):
        assert w[:, i].max() == 1.0
        assert w[:, i].min() == 0.0


# ----------------------------------------------------- local solve and blend

def corner_problem():
    prob = problems.benchmark_poisson("corner_singularity")
    coarse = prob.mesh_factory(2)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    return prob, coarse, u0


def test_local_solve_budget_floor():
    prob, coarse, u0 = corner_problem()
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), 2)
    same = ppum.local_solve(prob, coarse, u0, dec, 0, coarse.n_vertices)
    assert same.mesh.n_vertices == coarse.n_vertices
    assert np.array_equal(same.values, u0.values)


def test_local_solve_refines_inside_its_region():
    prob, coarse, u0 = corner_problem()
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), 2)
    corner_sub = next(i for i in range(2) for s in dec.ids[dec.owner == i]
                      if np.any(np.all(np.abs(coarse.coords[coarse.sverts[s]]) < 1e-12,
                                       axis=1)))
    ul = ppum.local_solve(prob, coarse, u0, dec, corner_sub, coarse.n_vertices + 120)
    assert ul.mesh.n_vertices > coarse.n_vertices
    live = ul.mesh.live_simplices()
    roots = ul.mesh.coarse_ancestors(live, coarse.n_slots)
    inside = 0
    new_verts = range(coarse.n_vertices, ul.mesh.n_vertices)
    for v in new_verts:
        hit = False
        for s, root in zip(live, roots):
            if v in ul.mesh.sverts[s]:
                if root in dec.overlap(corner_sub):
                    hit = True
                    break
        inside += hit
    # conformity closure may spill a few vertices past the region edge
    assert inside / len(list(new_verts)) >= 0.9


def ppum_pipeline(prob, coarse, u0, n_parts, budget):
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), n_parts)
    locs = [ppum.local_solve(prob, coarse, u0, dec, i, budget) for i in range(n_parts)]
    bmesh = ppum.build_blend_mesh(coarse, dec, [f.mesh for f in locs])
    pou = ppum.partition_of_unity(bmesh, coarse.n_vertices,
                                  ppum.taper_weights(coarse, dec))
    return dec, locs, bmesh, pou


def test_blend_lives_on_union_mesh():
    prob = problems.benchmark_poisson("square_sine")
    coarse = prob.mesh_factory(4)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    dec, locs, bmesh, pou = ppum_pipeline(prob, coarse, u0, 2, coarse.n_vertices + 60)
    assert pou.sum_deviation() <= 1e-12
    u = ppum.blend(pou, locs)
    assert u.mesh.n_vertices == bmesh.n_vertices


def test_blend_of_identical_fields_is_exact():
    # partition-of-unity consistency: if all subdomains carry the same field,
    # blending must reproduce it bit for bit
    prob = problems.benchmark_poisson("square_sine")
    coarse = prob.mesh_factory(4)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), 2)
    loc = ppum.local_solve(prob, coarse, u0, dec, 0, coarse.n_vertices + 60)
    twin = SolutionField(loc.mesh, 1, loc.values.copy())
    bmesh = ppum.build_blend_mesh(coarse, dec, [loc.mesh, twin.mesh])
    pou = ppum.partition_of_unity(bmesh, coarse.n_vertices,
                                  ppum.taper_weights(coarse, dec))
    a = ppum.blend(pou, [loc, twin])
    b = ppum.blend(pou, [loc, loc])
    assert np.array_equal(a.values, b.values)


def test_blend_point_outside_local_mesh_names_vertex_and_subdomain():
    coarse = generators.unit_square(4)
    dec = ppum.decompose(coarse, uniform_field(coarse), 2)
    meshes = [refined_copy(coarse, seed=i) for i in range(2)]
    pou = ppum.partition_of_unity(ppum.build_blend_mesh(coarse, dec, meshes),
                                  coarse.n_vertices, ppum.taper_weights(coarse, dec))
    fields = [SolutionField(m, 1, np.zeros((m.n_vertices, 1))) for m in meshes]
    # move subdomain 1's mesh off the unit square: its first blend vertex
    # with a nonzero weight lies outside it
    meshes[1].coords[:, 0] += 2.0
    v = np.flatnonzero(pou.weights[:, 1])[0]
    with pytest.raises(ppum.PpumError, match=rf"blend vertex {v} on subdomain 1\b"):
        ppum.blend(pou, fields)
    with pytest.raises(ppum.PpumError, match=rf"blend vertex {v} on subdomain 1\b"):
        oracle.blend(dec, pou, fields)


def global_adaptive(prob, mesh, budget):
    u, _ = newton_solve(prob, dirichlet_start(prob, mesh))
    while mesh.n_vertices < budget:
        marks = mark(residual_indicator(prob, u), "hybrid")
        if not marks:
            break
        old = mesh.n_vertices
        mesh.refine_marked(marks)
        u = apply_dirichlet(prob, SolutionField.from_flat(
            mesh, 1, prolongation_from_refinement(old, mesh, 1) @ u.flat))
        u, _ = newton_solve(prob, u)
    return u


def test_blended_error_competitive_with_global():
    prob = problems.benchmark_poisson("square_sine")
    gm = prob.mesh_factory(4)
    ug = global_adaptive(prob, gm, 900)
    _, h1_global = measure_error(gm, ug, prob.exact, prob.exact_grad)

    coarse = prob.mesh_factory(4)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    dec, locs, bmesh, pou = ppum_pipeline(prob, coarse, u0, 4, gm.n_vertices)
    u = ppum.blend(pou, locs)
    _, h1_ppum = measure_error(bmesh, u, prob.exact, prob.exact_grad)
    assert h1_ppum <= 2.0 * h1_global


def test_thread_pool_bit_identical():
    prob = problems.benchmark_poisson("square_sine")
    coarse = prob.mesh_factory(4)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), 4)
    budget = coarse.n_vertices + 100

    serial = [ppum.local_solve(prob, coarse, u0, dec, i, budget) for i in range(4)]
    with ThreadPoolExecutor(max_workers=4) as ex:
        pooled = list(ex.map(lambda i: ppum.local_solve(prob, coarse, u0, dec, i, budget),
                             range(4)))

    bm_s = ppum.build_blend_mesh(coarse, dec, [f.mesh for f in serial])
    bm_p = ppum.build_blend_mesh(coarse, dec, [f.mesh for f in pooled])
    pou_s = ppum.partition_of_unity(bm_s, coarse.n_vertices, ppum.taper_weights(coarse, dec))
    pou_p = ppum.partition_of_unity(bm_p, coarse.n_vertices, ppum.taper_weights(coarse, dec))
    u_s = ppum.blend(pou_s, serial)
    u_p = ppum.blend(pou_p, pooled)
    assert np.array_equal(u_s.mesh.coords, u_p.mesh.coords)
    assert np.array_equal(u_s.values, u_p.values)
