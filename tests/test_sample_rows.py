"""The per-row sample cache of `Mesh.sample_rows` and the error measurement
that reads the exact solution through it.

A simplex row's points never move: refinement kills the parent row and
appends its children.  So the cache samples a datum at the rows that are new
since its last call and at no other.  These tests pin that contract (call
counts, copies, a changed datum, the mapped points) and check
`measure_error` bitwise against `pointwise_oracle.sampled_measure_error`,
which samples every point of every live simplex on each call.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pointwise_oracle as oracle
from afem import driver, generators
from afem.assembly import measure_error
from afem.config import RunConfig, build_problem
from afem.elements import fine_rule
from afem.mesh import _affine
from afem.problem import SolutionField, batched, sample
from afem.problems import benchmark_poisson


class Counting:
    """A datum that counts its calls and the points of each, declared
    `batched` when fn is."""

    def __init__(self, fn):
        self.fn, self.calls, self.points = fn, 0, []
        if getattr(fn, "batched", False) is True:
            self.batched = True

    def __call__(self, x):
        self.calls += 1
        self.points.append(len(x))
        return self.fn(x)


def _wave(x):
    return np.sin(3.0 * x[0]) + x[-1] ** 2


@batched
def _wave_block(x):
    return np.sin(3.0 * x[:, 0]) + x[:, -1] ** 2


MESHES = {"l_shape": lambda: generators.l_shape(1), "unit_cube": lambda: generators.unit_cube(1)}


def _refine_some(mesh, step=3):
    live = mesh.live_simplices()
    mesh.refine_marked(live[::step])


@pytest.mark.parametrize("name", sorted(MESHES))
def test_each_row_is_sampled_once(name):
    _sample_three_states(name, declared=False)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_declared_datum_is_called_once_per_block(name):
    _sample_three_states(name, declared=True)


def _sample_three_states(name, declared):
    mesh = MESHES[name]()
    rule = fine_rule(mesh.dim)
    nq = len(rule.weights)
    f = Counting(_wave_block if declared else _wave)
    seen = set()
    for _ in range(3):
        live = set(mesh.live_simplices().tolist())
        calls = f.calls
        vals = mesh.sample_rows(f, rule.points)
        # a declared datum is called once on the points of the new rows
        points = nq * len(live - seen)
        assert f.calls - calls == (1 if declared else points)
        if declared:
            assert f.points[-1] == points
        seen |= live
        assert vals.shape == (len(live), nq)
        xq = mesh.tables().element_points(rule.points).reshape(-1, mesh.dim)
        np.testing.assert_array_equal(vals.ravel(), sample(_wave, xq))
        # a repeat call on the same state calls nothing
        calls = f.calls
        np.testing.assert_array_equal(mesh.sample_rows(f, rule.points), vals)
        assert f.calls == calls
        _refine_some(mesh)


def test_copy_leaves_the_original_cache_untouched():
    mesh = generators.l_shape(1)
    rule = fine_rule(2)
    nq, n = len(rule.weights), len(mesh.live_simplices())
    f = Counting(_wave)
    vals = mesh.sample_rows(f, rule.points)
    entries = {k: (e[0], e[1].copy(), e[2].copy()) for k, e in mesh._samples.items()}

    twin = mesh.copy()
    calls = f.calls
    # the copy starts empty: sampling it calls f at every row again
    np.testing.assert_array_equal(twin.sample_rows(f, rule.points), vals)
    assert f.calls - calls == nq * n
    _refine_some(twin)
    twin.sample_rows(f, rule.points)
    twin.sample_rows(Counting(_wave), rule.points, (1,))

    assert mesh._samples.keys() == entries.keys()
    for key, (src, vals0, filled0) in entries.items():
        assert mesh._samples[key][0] is src
        np.testing.assert_array_equal(mesh._samples[key][1], vals0)
        np.testing.assert_array_equal(mesh._samples[key][2], filled0)
    calls = f.calls
    np.testing.assert_array_equal(mesh.sample_rows(f, rule.points), vals)
    assert f.calls == calls


def test_another_datum_replaces_the_entry():
    mesh = generators.unit_cube(1)
    rule = fine_rule(3)
    nq, n = len(rule.weights), len(mesh.live_simplices())
    xq = mesh.tables().element_points(rule.points).reshape(-1, 3)
    f, g = Counting(_wave), Counting(lambda x: x[0] - 2.0 * x[1])
    mesh.sample_rows(f, rule.points)
    np.testing.assert_array_equal(mesh.sample_rows(g, rule.points).ravel(), sample(g.fn, xq))
    assert g.calls == nq * n
    assert len(mesh._samples) == 1
    # the same points under another shape are another entry
    h = Counting(lambda x: np.array([x[0], -x[1]]))
    np.testing.assert_array_equal(mesh.sample_rows(h, rule.points, (2,)).reshape(-1, 2),
                                  sample(h.fn, xq, (2,)))
    assert len(mesh._samples) == 2
    # swapping f back in samples every live row again, never stale values
    _refine_some(mesh)
    calls = f.calls
    back = mesh.sample_rows(f, rule.points)
    assert f.calls - calls == nq * len(mesh.live_simplices())
    xq = mesh.tables().element_points(rule.points).reshape(-1, 3)
    np.testing.assert_array_equal(back.ravel(), sample(_wave, xq))
    assert len(mesh._samples) == 2


def _identity(x):
    return x


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), data=st.data())
def test_mapped_rows_match_element_points(name, data):
    # the cache maps only the rows it has not seen, so any subset of rows must
    # map bitwise as in the tables' pass over all of them
    mesh = MESHES[name]()
    _refine_some(mesh, 2)
    rule = fine_rule(mesh.dim)
    tab = mesh.tables()
    rows = np.array(data.draw(st.lists(st.integers(0, len(tab.ids) - 1), min_size=1,
                                       unique=True)))
    np.testing.assert_array_equal(_affine(mesh.coords[tab.verts[rows]], rule.points),
                                  tab.element_points(rule.points)[rows])


CORNER = {"l_shape": "corner_singularity", "unit_cube": "cube_sine"}
MARKINGS = st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4),
                    min_size=1, max_size=4)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(MESHES)), marking=MARKINGS, seed=st.integers(0, 2 ** 16))
def test_random_refinements_match_sampled_oracle(name, marking, seed):
    # the cache carries across mesh states: measure after every refinement
    mesh, problem = MESHES[name](), benchmark_poisson(CORNER[name])
    rng = np.random.default_rng(seed)
    for picks in [[]] + marking:
        if picks:
            live = mesh.live_simplices()
            mesh.refine_marked(sorted({int(live[p % len(live)]) for p in picks}))
        u = SolutionField(mesh, 1, rng.standard_normal((mesh.n_vertices, 1)))
        got = measure_error(mesh, u, problem.exact, problem.exact_grad)
        ref = oracle.sampled_measure_error(mesh, u, problem.exact, problem.exact_grad)
        np.testing.assert_array_equal(got, ref)
        rule = fine_rule(mesh.dim)
        np.testing.assert_array_equal(
            mesh.sample_rows(_identity, rule.points, (mesh.dim,)),
            mesh.tables().element_points(rule.points))


def _corner2d(out):
    """The corner2d benchmark settings: corner singularity on the L-shape,
    residual indicator, maximum marking, theta 0.3, direct solver, cap 250."""
    return RunConfig(problem="corner_singularity", indicator="residual", strategy="maximum",
                     theta=0.3, linear="direct", max_vertices=250, out=str(out))


def test_adaptive_run_samples_each_row_once(tmp_path, monkeypatch):
    # the built-in exact solution is declared batched: one call per level, on
    # the fine-rule points of the rows that are new at that level
    problem = build_problem(_corner2d(""))
    exact, exact_grad = Counting(problem.exact), Counting(problem.exact_grad)
    assert exact.batched and exact_grad.batched
    problem.exact, problem.exact_grad = exact, exact_grad
    monkeypatch.setattr(driver, "build_problem", lambda cfg: problem)
    seen, new = set(), []

    def measured(mesh, u, *args):
        live = set(mesh.live_simplices().tolist())
        new.append(len(live - seen))
        seen.update(live)
        return measure_error(mesh, u, *args)

    monkeypatch.setattr(driver, "measure_error", measured)
    report = driver.run_adaptive(_corner2d(tmp_path / "cached"))
    nq = len(fine_rule(2).weights)
    assert len(report.levels) > 2
    assert len(new) == len(report.levels) and min(new) > 0
    assert exact.points == exact_grad.points == [nq * n for n in new]

    monkeypatch.setattr(driver, "measure_error", oracle.sampled_measure_error)
    driver.run_adaptive(_corner2d(tmp_path / "oracle"))
    assert ((tmp_path / "cached" / "levels.csv").read_bytes()
            == (tmp_path / "oracle" / "levels.csv").read_bytes())


def test_repeat_measurement_calls_no_datum():
    mesh, problem = generators.l_shape(2), benchmark_poisson("corner_singularity")
    exact, exact_grad = Counting(problem.exact), Counting(problem.exact_grad)
    u = SolutionField.zeros(mesh)
    first = measure_error(mesh, u, exact, exact_grad)
    assert exact.calls == exact_grad.calls == 1
    assert measure_error(mesh, u, exact, exact_grad) == first
    assert exact.calls == exact_grad.calls == 1
