"""Acceptance gate: ten numbered criteria, each printing one PASS/FAIL line.

Every criterion states its tolerance inline and owns a wall-clock budget.
Expensive runs are shared through module-scoped fixtures; the elapsed time of
a shared run is charged to every criterion that consumes it.
"""
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from afem import generators, ppum
from afem import problems as P
from afem.assembly import (apply_dirichlet, assemble_jacobian, assemble_residual,
                           dirichlet_start, free_dof_mask, measure_error)
from afem.indicators import dual_indicator, mark, residual_indicator, solve_dual
from afem.mesh import Mesh, NEUMANN, DIRICHLET, shapes, signed_volumes
from afem.multilevel import build_hierarchy, prolongation_from_refinement
from afem.newton import NewtonConfig, newton_solve
from afem.problem import ProblemDefinition, SolutionField
from afem.problems import benchmark_poisson

from pointwise_oracle import evaluate_functional, poisson_data


def verdict(num, ok, detail, elapsed, budget):
    line = (f"criterion {num:02d}: {'PASS' if ok and elapsed < budget else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


# ----------------------------------------------------- shared uniform run 1+2

@pytest.fixture(scope="module")
def uniform_square_sine():
    """5 uniform levels of square_sine: (n_vertices, l2, h1, eta) per level."""
    t0 = time.perf_counter()
    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(4)
    rows = []
    for level in range(5):
        if level > 0:
            # one level halves the mesh size: two single-bisection passes
            mesh.uniform_refine()
            mesh.uniform_refine()
        u, _ = newton_solve(prob, dirichlet_start(prob, mesh),
                            NewtonConfig(tolerance=1e-12))
        l2, h1 = measure_error(mesh, u, prob.exact, prob.exact_grad)
        eta = residual_indicator(prob, u).total()
        rows.append((mesh.n_vertices, l2, h1, eta))
    return rows, time.perf_counter() - t0


def test_criterion_01_quasi_optimal_rates(uniform_square_sine):
    rows, elapsed = uniform_square_sine
    h1_rates = [math.log2(a[2] / b[2]) for a, b in zip(rows, rows[1:])]
    l2_rates = [math.log2(a[1] / b[1]) for a, b in zip(rows, rows[1:])]
    ok = (all(abs(r - 1.0) <= 0.15 for r in h1_rates)
          and all(abs(r - 2.0) <= 0.2 for r in l2_rates))
    verdict(1, ok,
            f"H1 rates {['%.3f' % r for r in h1_rates]}, "
            f"L2 rates {['%.3f' % r for r in l2_rates]}", elapsed, 60.0)


def test_criterion_02_residual_effectivity_band(uniform_square_sine):
    rows, elapsed = uniform_square_sine
    effs = [eta / h1 for (_, _, h1, eta) in rows[1:5]]  # levels 2..5
    band = max(effs) / min(effs)
    verdict(2, band <= 3.0,
            f"effectivity {['%.2f' % e for e in effs]}, band ratio {band:.3f}",
            elapsed, 60.0)


# ------------------------------------------------------------------- dual 3

def test_criterion_03_dual_error_representation():
    t0 = time.perf_counter()
    prob = benchmark_poisson("square_sine")
    psi = lambda x: np.ones(1)
    ratios = []
    for n in (4, 8, 16):
        mesh = prob.mesh_factory(n)
        u, _ = newton_solve(prob, dirichlet_start(prob, mesh),
                            NewtonConfig(tolerance=1e-12))
        w = solve_dual(prob, u, psi)  # dual lives on a once-refined copy
        _, est = dual_indicator(prob, u, w)
        true_err = (evaluate_functional(mesh, poisson_data("square_sine")[0], psi, 1)
                    - evaluate_functional(mesh, u, psi, 1))
        ratios.append(est / true_err)
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    verdict(3, ok, f"effectivity on 3 levels {['%.3f' % r for r in ratios]}",
            time.perf_counter() - t0, 60.0)


# -------------------------------------------------------------- adaptivity 4

def test_criterion_04_adaptivity_beats_uniform():
    t0 = time.perf_counter()
    prob = benchmark_poisson("corner_singularity")

    uni = prob.mesh_factory(2)
    for _ in range(3):  # three halvings of the mesh size, two passes each
        uni.uniform_refine()
        uni.uniform_refine()
    uu, _ = newton_solve(prob, dirichlet_start(prob, uni))
    _, h1_uniform = measure_error(uni, uu, prob.exact, prob.exact_grad)
    target = uni.n_vertices

    ada = prob.mesh_factory(2)
    ua, _ = newton_solve(prob, dirichlet_start(prob, ada))
    history = [(ada.n_vertices, measure_error(ada, ua, prob.exact, prob.exact_grad)[1])]
    while ada.n_vertices < 0.9 * target:
        marks = mark(residual_indicator(prob, ua), "maximum", 0.3)
        if not marks:
            break
        old = ada.n_vertices
        ada.refine_marked(marks)
        ua = apply_dirichlet(prob, SolutionField.from_flat(
            ada, 1, prolongation_from_refinement(old, ada, 1) @ ua.flat))
        ua, _ = newton_solve(prob, ua)
        history.append((ada.n_vertices,
                        measure_error(ada, ua, prob.exact, prob.exact_grad)[1]))

    matched = [(nv, h1) for nv, h1 in history
               if 0.9 * target <= nv <= 1.1 * target]
    ok = bool(matched)
    detail = f"no adaptive level within +-10% of {target} vertices"
    if matched:
        nv, h1_adaptive = matched[-1]
        ok = h1_adaptive <= 0.7 * h1_uniform
        detail = (f"uniform {target} verts H1 {h1_uniform:.4f}, "
                  f"adaptive {nv} verts H1 {h1_adaptive:.4f}, "
                  f"ratio {h1_adaptive / h1_uniform:.3f}")
    verdict(4, ok, detail, time.perf_counter() - t0, 120.0)


# ------------------------------------------------------------------ newton 5

def test_criterion_05_newton_behavior():
    t0 = time.perf_counter()
    triv = P.hamiltonian_trivial(dim=2)
    mesh = triv.mesh_factory(4)
    # from phi = 0: the initial value phi = 1 is already the discrete solution
    u0 = apply_dirichlet(triv, SolutionField.zeros(mesh, triv.n_components))
    _, rep_triv = newton_solve(triv, u0, NewtonConfig(tolerance=1e-10))
    triv_ok = rep_triv.converged and 1 <= rep_triv.iterations <= 2

    man = P.hamiltonian_manufactured()
    mesh = man.mesh_factory(8)
    u0 = apply_dirichlet(man, SolutionField(mesh, 1, np.ones((mesh.n_vertices, 1))))
    _, rep = newton_solve(man, u0, NewtonConfig(tolerance=1e-12, max_iterations=12))
    man_ok = rep.converged and rep.iterations <= 8
    r = rep.residuals
    # superlinear tail over the last 3 steps, modest constant C = 10
    tail = [r[k + 1] / r[k] ** 1.5 for k in range(max(0, len(r) - 4), len(r) - 1)]
    tail_ok = all(c <= 10.0 for c in tail)
    verdict(5, triv_ok and man_ok and tail_ok,
            f"trivial {rep_triv.iterations} its to {rep_triv.residuals[-1]:.1e}, "
            f"manufactured {rep.iterations} its, tail C max "
            f"{max(tail):.3f} <= 10", time.perf_counter() - t0, 60.0)


# -------------------------------------------------------------- multilevel 6

def poisson_chain(levels, n0=2):
    prob = benchmark_poisson("square_sine")
    mesh = prob.mesh_factory(n0)
    prolongs = []
    for _ in range(levels - 1):
        nv = mesh.n_vertices
        mesh.uniform_refine()
        prolongs.append(prolongation_from_refinement(nv, mesh, 1))
    u = SolutionField.zeros(mesh)
    a = assemble_jacobian(prob, u)
    b = -assemble_residual(prob, u)
    return a, b, prolongs


def test_criterion_06_multilevel_near_optimality():
    t0 = time.perf_counter()
    iters = {}
    for levels in (3, 6):
        a, b, prolongs = poisson_chain(levels)
        hier = build_hierarchy(a, prolongs)
        _, rep = hier.solve(b, tol=1e-8)
        assert rep.converged and rep.method == "cg"
        iters[levels] = rep.iterations
    count_ok = iters[6] <= 2 * iters[3]

    a3, _, pr3 = poisson_chain(3)
    hier3 = build_hierarchy(a3, pr3)
    gap = 0.0
    for k in range(hier3.n_levels - 1):
        p = hier3.prolongations[k]
        dense = p.T.toarray() @ hier3.matrices[k].toarray() @ p.toarray()
        gap = max(gap, float(np.abs(hier3.matrices[k + 1].toarray() - dense).max()))
    verdict(6, count_ok and gap < 1e-13,
            f"PCG iterations 3 levels {iters[3]}, 6 levels {iters[6]}; "
            f"coarse-operator identity gap {gap:.2e}",
            time.perf_counter() - t0, 120.0)


# -------------------------------------------------------------------- ppum 7

def test_criterion_07_ppum_quality():
    t0 = time.perf_counter()
    prob = benchmark_poisson("square_sine")

    gm = prob.mesh_factory(4)
    ug, _ = newton_solve(prob, dirichlet_start(prob, gm))
    while gm.n_vertices < 900:
        marks = mark(residual_indicator(prob, ug), "hybrid")
        if not marks:
            break
        old = gm.n_vertices
        gm.refine_marked(marks)
        ug = apply_dirichlet(prob, SolutionField.from_flat(
            gm, 1, prolongation_from_refinement(old, gm, 1) @ ug.flat))
        ug, _ = newton_solve(prob, ug)
    _, h1_global = measure_error(gm, ug, prob.exact, prob.exact_grad)
    budget = gm.n_vertices

    coarse = prob.mesh_factory(4)
    u0, _ = newton_solve(prob, dirichlet_start(prob, coarse))
    dec = ppum.decompose(coarse, residual_indicator(prob, u0), 4)

    def pipeline(threads):
        if threads == 1:
            locs = [ppum.local_solve(prob, coarse, u0, dec, i, budget)
                    for i in range(4)]
        else:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                locs = list(ex.map(
                    lambda i: ppum.local_solve(prob, coarse, u0, dec, i, budget),
                    range(4)))
        bmesh = ppum.build_blend_mesh(coarse, dec, [f.mesh for f in locs])
        pou = ppum.partition_of_unity(bmesh, coarse.n_vertices,
                                      ppum.taper_weights(coarse, dec))
        return bmesh, pou, ppum.blend(pou, locs)

    bmesh, pou, u1 = pipeline(1)
    _, _, u4 = pipeline(4)

    # partition of unity sampled at every vertex and at interior points
    dev = pou.sum_deviation()
    rng = np.random.default_rng(11)
    live = bmesh.live_simplices()
    for s in rng.choice(live, size=200):
        lam = rng.dirichlet(np.ones(3))
        verts = bmesh.sverts[int(s)]
        dev = max(dev, abs(float(lam @ pou.weights[verts].sum(axis=1)) - 1.0))

    _, h1_blend = measure_error(bmesh, u1, prob.exact, prob.exact_grad)
    identical = (np.array_equal(u1.values, u4.values)
                 and np.array_equal(u1.mesh.coords, u4.mesh.coords))
    ok = dev <= 1e-12 and h1_blend <= 2.0 * h1_global and identical
    verdict(7, ok,
            f"pou deviation {dev:.1e}, blended/global H1 "
            f"{h1_blend / h1_global:.3f} <= 2, threads bit-identical {identical}",
            time.perf_counter() - t0, 180.0)


# -------------------------------------------------------------- constraint 8

def test_criterion_08_constraint_system():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)

    triv = P.coupled_trivial(dim=2)
    mesh = triv.mesh_factory(4)
    # from (phi, W) = 0: the initial value (1, 0) is already the discrete solution
    u0 = apply_dirichlet(triv, SolutionField.zeros(mesh, triv.n_components))
    u, _ = newton_solve(triv, u0, NewtonConfig(tolerance=1e-11))
    triv_gap = max(float(np.abs(u.values[:, 0] - 1.0).max()),
                   float(np.abs(u.values[:, 1:]).max()))

    coeffs = P.ConstraintCoefficients(
        dim=2, Rhat=2.0, trK=lambda x: 1.0 + 0.5 * x[0],
        trK_grad=lambda x: np.array([0.5, 0.0]),
        Ahat=np.array([[0.3, 0.1], [0.1, -0.3]]), rho=0.02,
        jhat=np.array([0.01, -0.02]), dirichlet_f=1.0)
    prob = P.coupled_forms(coeffs)
    fdmesh = generators.unit_square(3)
    free = free_dof_mask(prob, fdmesh)
    nv = fdmesh.n_vertices
    fd_ok = True
    for _ in range(5):
        vals = np.ones((nv, 3))
        vals[:, 0] = np.clip(1.0 + 0.1 * rng.standard_normal(nv), 0.5, 2.0)
        vals[:, 1:] = 0.1 * rng.standard_normal((nv, 2))
        state = SolutionField(fdmesh, 3, vals)
        f0 = assemble_residual(prob, state)
        jmat = assemble_jacobian(prob, state)
        d = rng.standard_normal(nv * 3)
        d[~free] = 0.0
        d /= np.linalg.norm(d)
        jd = jmat @ d
        errs = []
        for eps in (1e-4, 5e-5, 2.5e-5):  # halve epsilon twice
            up = SolutionField.from_flat(fdmesh, 3, state.flat + eps * d)
            fd = (assemble_residual(prob, up) - f0) / eps
            errs.append(np.linalg.norm((fd - jd)[free]) / np.linalg.norm(jd))
        fd_ok &= all(b < 0.75 * a or b < 1e-7 for a, b in zip(errs, errs[1:]))

    momentum = P.momentum_forms(P.ConstraintCoefficients(dim=3))
    cube = generators.unit_cube(2)
    a = assemble_jacobian(momentum, dirichlet_start(momentum, cube)).toarray()
    spd_ok = np.abs(a - a.T).max() < 1e-12
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        spd_ok = False

    ok = triv_gap < 1e-10 and fd_ok and spd_ok
    verdict(8, ok,
            f"trivial (phi,W) gap {triv_gap:.1e} < 1e-10, "
            f"FD consistency over 5 states {fd_ok}, momentum SPD {spd_ok}",
            time.perf_counter() - t0, 120.0)


# ------------------------------------------------------------------- mesh 9

def test_criterion_09_mesh_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_shape_frac, worst_volume_gap = np.inf, 0.0
    for mesh in (generators.unit_square(2), generators.unit_cube(1)):
        initial = mesh.min_shape()
        for _ in range(10):
            live = mesh.live_simplices()
            take = rng.choice(live, size=max(1, len(live) // 10), replace=False)
            mesh.refine_marked([int(s) for s in take])
            mesh.check_conformity()  # raises on any violation
            worst_shape_frac = min(worst_shape_frac, mesh.min_shape() / initial)
        vol = np.abs(signed_volumes(mesh.coords[mesh.sverts]))
        for s in range(mesh.n_simplices):
            c0, c1 = (int(c) for c in mesh.schildren[s])
            if c0 >= 0:
                gap = abs(vol[s] - vol[c0] - vol[c1])
                worst_volume_gap = max(worst_volume_gap, gap)
    ok = worst_shape_frac >= 0.2 and worst_volume_gap < 1e-12
    verdict(9, ok,
            f"10 rounds conforming, min shape {worst_shape_frac:.3f}x initial "
            f">= 0.2, child volume gap {worst_volume_gap:.1e}",
            time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------- oracles 10

def test_criterion_10_hand_computed_oracles():
    t0 = time.perf_counter()

    tri = Mesh.from_arrays([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], boundary=NEUMANN)

    def DFt(t, x, n, u, gu):
        return np.tile(np.diag([1.0, 1.0, 0.0] if t == 0 else [0.0] * 3), (len(x), 1, 1))

    lap = ProblemDefinition(1, flux=lambda x, u, gu: gu,
                            source=lambda x, u, gu: np.zeros((len(x), 1)), DFt=DFt,
                            dirichlet=lambda x: np.zeros(1))
    a = assemble_jacobian(lap, SolutionField.zeros(tri)).toarray()
    oracle = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    stiff_gap = float(np.abs(a - oracle).max())

    right, equi = shapes(np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                   [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]]))
    shape_gap = max(abs(right - math.sqrt(3.0) / 4.0), abs(equi - 0.5))

    one_level = build_hierarchy(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), [])
    gs = one_level.sweep(0, np.zeros(2), np.array([3.0, 3.0]), "forward")
    gs_exact = bool(gs[0] == 1.5 and gs[1] == 0.75)

    ok = stiff_gap < 1e-14 and shape_gap < 1e-12 and gs_exact
    verdict(10, ok,
            f"stiffness gap {stiff_gap:.1e} < 1e-14, shape gap {shape_gap:.1e} "
            f"< 1e-12, Gauss-Seidel sweep exact {gs_exact}",
            time.perf_counter() - t0, 60.0)
