"""`ConstraintCoefficients.at`: each coefficient is sampled once per block of
points, and its values are the values a plain `sample` gives."""
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import afem.driver as driver
from afem import generators
from afem.assembly import assemble_jacobian, assemble_residual, dirichlet_start
from afem.config import RunConfig
from afem.elements import default_rule, face_rule
from afem.indicators import residual_indicator
from afem.mesh import DIRICHLET, NEUMANN
from afem.newton import NewtonConfig, newton_solve
from afem.problem import SolutionField, batched, sample
from afem.problems import ConstraintCoefficients, coupled_forms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the coefficients the element terms read, and those the Robin faces read
INTERIOR = ("Rhat", "trK", "trK_grad", "Ahat", "rho", "jhat")
ROBIN = ("robin_c", "robin_z", "robin_C", "robin_Z")
DIRICHLET_DATA = ("dirichlet_f", "dirichlet_F")


def _data():
    """One-point callables for every coefficient of the 2D system."""
    return dict(
        Rhat=lambda x: 0.3 + 0.1 * x[0],
        trK=lambda x: 0.2 + 0.1 * x[0] * x[1],
        trK_grad=lambda x: np.array([0.1 * x[1], 0.1 * x[0]]),
        Ahat=lambda x: np.array([[0.1 * x[0], 0.05], [0.05, -0.1 * x[0]]]),
        rho=lambda x: 0.4 + 0.1 * x[1] ** 2,
        jhat=lambda x: np.array([0.01 * x[1], -0.02]),
        robin_c=lambda x: 0.7 + 0.1 * x[0],
        robin_z=lambda x: 0.5 + 0.1 * x[1],
        robin_C=lambda x: np.array([[0.7, 0.1 * x[0]], [0.1 * x[0], 0.5]]),
        robin_Z=lambda x: np.array([0.2, -0.1 * x[0]]),
        dirichlet_f=lambda x: 1.0 + 0.1 * x[0] ** 2,
        dirichlet_F=lambda x: np.array([0.1 * x[1], 0.0]),
    )


class Plain(ConstraintCoefficients):
    """Reference: every read samples again through `sample`."""

    def at(self, name, x, shape=()):
        return sample(getattr(self, name), x, shape)


class Recorded:
    """A one-point datum that keeps every point it is called at."""

    def __init__(self, fn):
        self.fn, self.points = fn, []

    def __call__(self, x):
        self.points.append(np.array(x))
        return self.fn(x)


def _record(coeffs, names):
    rec = {name: Recorded(getattr(coeffs, name)) for name in names
           if callable(getattr(coeffs, name))}
    for name, r in rec.items():
        setattr(coeffs, name, r)
    return rec


def _annulus():
    """coupled2d's layout: inner circle Dirichlet, outer circle Robin."""
    def classify(c):
        return NEUMANN if math.hypot(c[0], c[1]) > 0.75 else DIRICHLET

    return generators.annulus(2, 8, boundary=classify)


def _state(mesh):
    x = mesh.coords
    u = SolutionField.zeros(mesh, 3)
    u.values[:, 0] = 1.2 + 0.1 * np.sin(2.0 * x[:, 0] + x[:, 1])
    u.values[:, 1] = 0.05 * np.cos(x[:, 1])
    u.values[:, 2] = 0.03 * x[:, 0] * x[:, 1]
    return u


def _values(out):
    if sp.issparse(out):
        return out.toarray()
    return getattr(out, "eta", out)


def _blocks(mesh):
    """The element and flux-face points assembly evaluates, in its order."""
    tab = mesh.tables()
    elem = tab.element_points(default_rule(mesh.dim).points).reshape(-1, mesh.dim)
    flux = tab.face_quadrature(face_rule(mesh.dim, 3))[0][tab.flag == NEUMANN]
    return elem, flux.reshape(-1, mesh.dim)


def test_repeated_reads_match_plain_sampling_bitwise():
    mesh = _annulus()
    u = _state(mesh)
    prob = coupled_forms(ConstraintCoefficients(dim=2, **_data()))
    ref = coupled_forms(Plain(dim=2, **_data()))
    for _ in range(2):
        for step in (assemble_residual, assemble_jacobian, residual_indicator):
            assert np.array_equal(_values(step(prob, u)), _values(step(ref, u))), step


def test_each_callable_is_called_once_per_point_of_a_block():
    mesh = _annulus()
    coeffs = ConstraintCoefficients(dim=2, **_data())
    rec = _record(coeffs, INTERIOR + ROBIN)
    prob = coupled_forms(coeffs)
    for _ in range(3):
        assemble_residual(prob, _state(mesh))
        assemble_jacobian(prob, _state(mesh))
    elem, flux = _blocks(mesh)
    assert len(elem) and len(flux)
    for names, block in ((INTERIOR, elem), (ROBIN, flux)):
        for name in names:
            assert np.array_equal(np.array(rec[name].points), block), name

    # new points sample again, once per point of the new block
    mesh.refine_marked(mesh.live_simplices()[:3])
    assemble_residual(prob, _state(mesh))
    assemble_jacobian(prob, _state(mesh))
    elem2, flux2 = _blocks(mesh)
    for names, old, new in ((INTERIOR, elem, elem2), (ROBIN, flux, flux2)):
        for name in names:
            assert np.array_equal(np.array(rec[name].points), np.concatenate((old, new)))


def test_same_points_hit_and_other_points_miss():
    coeffs = ConstraintCoefficients(dim=2, **_data())
    rec = _record(coeffs, ("Rhat",))["Rhat"]
    x = np.array([[0.6, 0.1], [0.2, 0.7], [0.5, 0.5]])
    first = coeffs.at("Rhat", x)
    assert coeffs.at("Rhat", x.copy()) is first and len(rec.points) == 3
    coeffs.at("Rhat", x[:2])
    coeffs.at("Rhat", x)
    assert coeffs.at("Rhat", x, (1,)).shape == (3, 1)
    assert len(rec.points) == 3 + 2 + 3 + 3


def test_reassigned_coefficients_take_effect_at_once():
    mesh = _annulus()
    u = _state(mesh)
    coeffs = ConstraintCoefficients(dim=2, **_data())
    prob = coupled_forms(coeffs)
    before = assemble_residual(prob, u), assemble_jacobian(prob, u).toarray()
    new = dict(trK=lambda x: 0.5 - 0.1 * x[1], trK_grad=lambda x: np.array([0.0, -0.1]))
    coeffs.trK, coeffs.trK_grad = new["trK"], new["trK_grad"]
    ref = coupled_forms(Plain(dim=2, **{**_data(), **new}))
    after = assemble_residual(prob, u), assemble_jacobian(prob, u).toarray()
    assert not np.array_equal(after[0], before[0])
    assert not np.array_equal(after[1], before[1])
    assert np.array_equal(after[0], assemble_residual(ref, u))
    assert np.array_equal(after[1], assemble_jacobian(ref, u).toarray())


def test_returned_samples_are_read_only():
    coeffs = ConstraintCoefficients(dim=2, **_data())
    x = np.array([[0.6, 0.1], [0.2, 0.7]])
    for name, shape in (("Rhat", ()), ("robin_C", (2, 2))):
        out = coeffs.at(name, x, shape)
        with pytest.raises(ValueError):
            out[0] = 0.0
    with pytest.raises(ValueError):
        coeffs.interior_at(x)["Rhat"][0] = 0.0


def test_batched_datum_keeps_its_own_writeable_flag():
    values = np.array([0.3, 0.4])
    coeffs = ConstraintCoefficients(dim=2, Rhat=batched(lambda x: values))
    out = coeffs.at("Rhat", np.array([[0.6, 0.1], [0.2, 0.7]]))
    assert np.shares_memory(out, values) and not out.flags.writeable
    assert values.flags.writeable
    values[0] = 0.5


def test_ppum_coupled_run_repeats_byte_identically(tmp_path, monkeypatch):
    # the four subdomain runs share one coefficients object and its sample cache
    for run in ("a", "b"):
        prob, mesh = coupled_forms(ConstraintCoefficients(dim=2, **_data())), _annulus()
        monkeypatch.setattr(driver, "build_problem", lambda cfg: prob)
        monkeypatch.setattr(driver, "build_mesh", lambda cfg, problem=None: mesh)
        cfg = RunConfig(problem="coupled", dim=2, mesh="annulus", ppum_subdomains=4,
                        max_vertices=50, out=str(tmp_path / run))
        assert driver.run_ppum(cfg).status == "blended"
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                   if p.is_file() and p.name != "report.json")
    assert {"levels.csv", "blend.vtk"} <= {str(p) for p in files}
    assert sum(p.parts[0].startswith("sub") for p in files) == 8
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_coupled2d_newton_solve_samples_each_point_once(monkeypatch):
    # the benchmark's coupled2d problem and mesh, built by its own workload code
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    problem, mesh = workloads.coupled_problem(0), workloads.coupled_mesh()
    rec = _record(problem.constraint_coefficients, INTERIOR + ROBIN + DIRICHLET_DATA)
    assert rec.keys() >= {"Rhat", "trK", "trK_grad", "jhat", "robin_z", "robin_Z"}
    _, rep = newton_solve(problem, dirichlet_start(problem, mesh), NewtonConfig())
    assert rep.converged and rep.iterations >= 2
    elem, flux = _blocks(mesh)
    size = {"elem": len(elem), "flux": len(flux),
            "dirichlet": int(np.count_nonzero(mesh.vclass == DIRICHLET))}
    for name, r in rec.items():
        kind = "elem" if name in INTERIOR else "flux" if name in ROBIN else "dirichlet"
        assert len(r.points) == size[kind], name


def test_face_pieces_sample_only_what_they_need():
    # SFt(2) reads the flux alone, which holds no coefficient; SFt(1) adds the
    # Robin face term; only SFt(0), the source, reads the interior data and
    # counts a clamped phi.  Each call gets points of its own, so no cached
    # sample hides a read.
    coeffs = ConstraintCoefficients(dim=2, **_data())
    rec = _record(coeffs, INTERIOR + ROBIN + DIRICHLET_DATA)
    prob = coupled_forms(coeffs)
    rng = np.random.default_rng(3)
    npts = 5
    u = np.column_stack((np.linspace(-0.5, 1.5, npts), rng.standard_normal((npts, 2))))
    assert np.count_nonzero(u[:, 0] < 1e-6) == 2
    gu = rng.standard_normal((npts, 3, 2))
    n = rng.standard_normal((npts, 2))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    reads = {t: set() for t in (0, 1, 2)}
    for t in (2, 1, 0):
        coeffs.clamps.reset()
        before = {name: len(r.points) for name, r in rec.items()}
        prob.SFt(t, rng.random((npts, 2)), n, u, gu)
        for name, r in rec.items():
            assert len(r.points) - before[name] in (0, npts), name
            if len(r.points) > before[name]:
                reads[t].add(name)
        assert coeffs.clamps.count == (2 if t == 0 else 0), t
    assert reads == {2: set(), 1: set(ROBIN), 0: set(INTERIOR)}


def test_coupled2d_run_samples_no_coefficient_on_interior_faces(tmp_path, monkeypatch):
    # the benchmark's coupled2d run, seed 0: with the interior-face flux
    # free of coefficients, the whole run makes at most 2100 one-point
    # coefficient calls (4374 when every face piece evaluated the full F)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    cfg = workloads.run_config("coupled2d", str(tmp_path), {})
    problem, mesh = workloads.coupled_problem(0), workloads.coupled_mesh()
    rec = _record(problem.constraint_coefficients, INTERIOR + ROBIN + DIRICHLET_DATA)
    sft, inside = problem.SFt, {}

    def counted_sft(t, *args):
        before = sum(len(r.points) for r in rec.values())
        out = sft(t, *args)
        inside[t] = inside.get(t, 0) + sum(len(r.points) for r in rec.values()) - before
        return out

    problem.SFt = counted_sft
    monkeypatch.setattr(driver, "build_problem", lambda cfg: problem)
    monkeypatch.setattr(driver, "build_mesh", lambda cfg, problem=None: mesh)
    driver.run_adaptive(cfg)
    assert inside[2] == 0 and inside[1] > 0
    assert sum(len(r.points) for r in rec.values()) <= 2100
