"""Output checks computed apart from the program.

Everything here reads the files a run wrote (legacy VTK, levels.csv,
report.json) and recomputes errors with its own closed-form solutions and its
own quadrature: collapsed (Duffy) Gauss-Legendre rules, a different family
from the library's conical Gauss-Jacobi rule.  Nothing imports afem.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

RULE_A = 6   # points per direction of the reference rule (degree 10 in 2D, 9 in 3D)
RULE_B = 3   # coarser rule (degree 4 in 2D, 3 in 3D); |A - B| bounds the quadrature error

CUBE_INTEGRAL = (2.0 / math.pi) ** 3      # integral of cube_sine's u over the unit cube

# Constants of the a priori checks (see README.md, "Output checks").
GALERKIN_SLACK = {"corner2d": 1e-3, "cube3d": 0.05}
COUPLED_QUASI_OPT = 2.0
PPUM_QUASI_OPT = 1.5
CORNER_RATE = (-0.75, -0.40)
POU_TOL = 1e-12


class CheckError(Exception):
    pass


# --------------------------------------------------------------- reading

def read_vtk(path):
    """(points (n, d), cells (m, d+1), point fields {name: (n,)})."""
    with open(path) as f:
        lines = f.read().split("\n")
    pts = cells = None
    ctype = None
    fields = {}
    i = 0
    while i < len(lines):
        tok = lines[i].split()
        if not tok:
            i += 1
            continue
        if tok[0] == "POINTS":
            n = int(tok[1])
            pts = np.array([[float(v) for v in ln.split()] for ln in lines[i + 1:i + 1 + n]])
            i += n + 1
        elif tok[0] == "CELLS":
            m = int(tok[1])
            cells = np.array([[int(v) for v in ln.split()[1:]] for ln in lines[i + 1:i + 1 + m]],
                             dtype=np.int64)
            i += m + 1
        elif tok[0] == "CELL_TYPES":
            m = int(tok[1])
            ctype = int(lines[i + 1])
            i += m + 1
        elif tok[0] == "POINT_DATA":
            n = int(tok[1])
            i += 1
            while i < len(lines) and lines[i].startswith("SCALARS"):
                name = lines[i].split()[1]
                fields[name] = np.array([float(v) for v in lines[i + 2:i + 2 + n]])
                i += n + 2
        else:
            i += 1
    if pts is None or cells is None or ctype not in (5, 10):
        raise CheckError(f"{path}: not a triangle/tetrahedron unstructured grid")
    d = 2 if ctype == 5 else 3
    return pts[:, :d], cells, fields


def solution_values(fields, prefix="u"):
    """(n, nc) array from the scalar arrays u or u_0, u_1, ..."""
    if prefix in fields:
        return fields[prefix][:, None]
    cols = []
    while f"{prefix}_{len(cols)}" in fields:
        cols.append(fields[f"{prefix}_{len(cols)}"])
    if not cols:
        raise CheckError(f"no field {prefix!r} in the VTK file")
    return np.column_stack(cols)


def read_levels(path):
    with open(path) as f:
        return list(csv.DictReader(io.StringIO(f.read())))


def read_report(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------- quadrature

def duffy_rule(dim: int, n: int):
    """(points (q, dim), weights (q,)) on the reference simplex, collapsed
    tensor Gauss-Legendre; weights sum to the simplex volume."""
    g, w = np.polynomial.legendre.leggauss(n)
    g, w = (g + 1.0) / 2.0, w / 2.0
    if dim == 2:
        u, v = np.meshgrid(g, g, indexing="ij")
        wu, wv = np.meshgrid(w, w, indexing="ij")
        pts = np.column_stack([u.ravel(), (v * (1 - u)).ravel()])
        wts = (wu * wv * (1 - u)).ravel()
        return pts, wts
    u, v, t = np.meshgrid(g, g, g, indexing="ij")
    wu, wv, wt = np.meshgrid(w, w, w, indexing="ij")
    pts = np.column_stack([u.ravel(), (v * (1 - u)).ravel(),
                           (t * (1 - u) * (1 - v)).ravel()])
    wts = (wu * wv * wt * (1 - u) ** 2 * (1 - v)).ravel()
    return pts, wts


def _geometry(pts, cells):
    """Per cell: vertex coords (m, d+1, d), |det J| (m,), basis gradients (m, d+1, d)."""
    xv = pts[cells]
    jac = (xv[:, 1:, :] - xv[:, :1, :]).transpose(0, 2, 1)       # columns P_i - P_0
    det = np.linalg.det(jac)
    if np.any(det == 0.0):
        raise CheckError("degenerate cell in the output mesh")
    d = pts.shape[1]
    ref = np.vstack([-np.ones((1, d)), np.eye(d)])                # (d+1, d)
    grads = ref @ np.linalg.inv(jac)                               # (m, d+1, d)
    return xv, np.abs(det), grads


def errors(pts, cells, values, exact, exact_grad, n=RULE_A):
    """(l2^2, semi^2) of the P1 field `values` (nv, nc) against vectorised
    exact(X) -> (q, nc) and exact_grad(X) -> (q, nc, d)."""
    xv, det, grads = _geometry(pts, cells)
    d = pts.shape[1]
    ref, wts = duffy_rule(d, n)
    bary = np.column_stack([1.0 - ref.sum(axis=1), ref])          # (q, d+1)
    xq = np.einsum("qk,mkd->mqd", bary, xv)                       # (m, q, d)
    uloc = values[cells]                                           # (m, d+1, nc)
    uq = np.einsum("qk,mkc->mqc", bary, uloc)
    gu = np.einsum("mkc,mkd->mcd", uloc, grads)                    # (m, nc, d)
    m, q = xq.shape[:2]
    ex = exact(xq.reshape(-1, d)).reshape(m, q, -1)
    eg = exact_grad(xq.reshape(-1, d)).reshape(m, q, values.shape[1], d)
    w = det[:, None] * wts[None, :]
    l2sq = float(np.sum(w * np.sum((uq - ex) ** 2, axis=2)))
    semisq = float(np.sum(w * np.sum((gu[:, None] - eg) ** 2, axis=(2, 3))))
    return l2sq, semisq


def h1_with_spread(pts, cells, values, exact, exact_grad):
    """Full H1 error by rule A and the quadrature uncertainty |A - B|."""
    a = math.sqrt(sum(errors(pts, cells, values, exact, exact_grad, RULE_A)))
    b = math.sqrt(sum(errors(pts, cells, values, exact, exact_grad, RULE_B)))
    return a, abs(a - b)


def integral_p1(pts, cells, values):
    """Exact integral of a scalar P1 field."""
    _, det, _ = _geometry(pts, cells)
    d = pts.shape[1]
    vol = det / math.factorial(d)
    return float(np.sum(vol * values[cells].mean(axis=1)))


# --------------------------------------------------------------- exact solutions

def corner_exact(x):
    r = np.hypot(x[:, 0], x[:, 1])
    th = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * math.pi)
    return (r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0))[:, None]


def corner_grad(x):
    r = np.hypot(x[:, 0], x[:, 1])
    th = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * math.pi)
    dr = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.sin(2.0 * th / 3.0)
    dt = (2.0 / 3.0) * r ** (-1.0 / 3.0) * np.cos(2.0 * th / 3.0)
    c, s = np.cos(th), np.sin(th)
    return np.stack([dr * c - dt * s, dr * s + dt * c], axis=1)[:, None, :]


def sine_exact(x):
    return np.prod(np.sin(math.pi * x), axis=1)[:, None]


def sine_grad(x):
    s, c = np.sin(math.pi * x), np.cos(math.pi * x)
    d = x.shape[1]
    cols = [math.pi * c[:, k] * np.prod(np.delete(s, k, axis=1), axis=1) for k in range(d)]
    return np.stack(cols, axis=1)[:, None, :]


def _pointwise(fn, shape_tail):
    def vec(x):
        return np.array([fn(p) for p in x]).reshape((len(x),) + shape_tail)
    return vec


# --------------------------------------------------------------- checks

def _need(cond, msg, failures):
    if not cond:
        failures.append(msg)


def _agreement(name, h1, spread, csv_h1, failures):
    tol = 2.0 * spread + 1e-9 * h1
    _need(abs(h1 - csv_h1) <= tol,
          f"{name}: benchmark H1 error {h1!r} and levels.csv {csv_h1!r} differ by "
          f"{abs(h1 - csv_h1):.3e}, more than the quadrature uncertainty {tol:.3e}",
          failures)


def _levels(out):
    rows = read_levels(os.path.join(out, "levels.csv"))
    if not rows:
        raise CheckError("levels.csv has no rows")
    return rows


def check_adaptive_poisson(name, out, exact, grad):
    """corner2d / cube3d: agreement, Galerkin best approximation, and the
    workload's own property (rate for corner2d, dual sign for cube3d)."""
    failures, info = [], {}
    rows = _levels(out)
    last = len(rows) - 1
    pts, cells, fields = read_vtk(os.path.join(out, f"level{last:02d}.vtk"))
    uh = solution_values(fields)
    h1, spread = h1_with_spread(pts, cells, uh, exact, grad)
    _agreement(name, h1, spread, float(rows[-1]["h1_error"]), failures)
    _need(int(rows[-1]["n_vertices"]) == len(pts), f"{name}: vertex count mismatch", failures)

    semi_h = math.sqrt(errors(pts, cells, uh, exact, grad)[1])
    semi_i = math.sqrt(errors(pts, cells, exact(pts), exact, grad)[1])
    info["galerkin_ratio"] = semi_h / semi_i
    _need(semi_h <= (1.0 + GALERKIN_SLACK[name]) * semi_i,
          f"{name}: H1-seminorm error {semi_h:.6e} exceeds the nodal interpolant's "
          f"{semi_i:.6e} by more than {GALERKIN_SLACK[name]}", failures)

    if name == "corner2d":
        n = np.array([float(r["n_vertices"]) for r in rows])
        e = np.array([float(r["h1_error"]) for r in rows])
        later = slice(len(rows) // 2, None)
        slope = float(np.polyfit(np.log(n[later]), np.log(e[later]), 1)[0])
        info["rate"] = slope
        lo, hi = CORNER_RATE
        _need(lo <= slope <= hi, f"corner2d: H1 decay slope {slope:.3f} outside "
              f"[{lo}, {hi}] (optimal -0.5)", failures)
    else:
        rep = read_report(os.path.join(out, "report.json"))
        est = rep.get("dual_estimate", [])
        _need(len(est) == len(rows), "cube3d: one dual estimate per level expected", failures)
        effectivity = []
        for lev, e_dual in enumerate(est):
            p, c, f = read_vtk(os.path.join(out, f"level{lev:02d}.vtk"))
            err = CUBE_INTEGRAL - integral_p1(p, c, solution_values(f)[:, 0])
            effectivity.append(e_dual / err)
            _need(err * e_dual > 0.0, f"cube3d level {lev}: dual estimate {e_dual:.3e} "
                  f"has not the sign of int(u - u_h) = {err:.3e}", failures)
        info["dual_effectivity_min"] = min(effectivity, default=math.nan)
        info["dual_effectivity_max"] = max(effectivity, default=math.nan)
    info["levels"] = len(rows)
    return h1, failures, info


def check_coupled(out, man):
    """Status `vertex_cap` with a row per level also says that Newton
    converged at every level: `newton_solve` raises otherwise, and the run
    ends with an error."""
    failures, info = [], {}
    rows = _levels(out)
    rep = read_report(os.path.join(out, "report.json"))
    _need(rep.get("status") == "vertex_cap", f"coupled2d: status {rep.get('status')!r}", failures)
    _need(rep.get("clamp_events") == 0, f"coupled2d: {rep.get('clamp_events')} clamp events",
          failures)
    exact = _pointwise(man.exact, (3,))
    grad = _pointwise(man.exact_grad, (3, 2))
    h1_levels = []
    for lev in range(len(rows)):
        pts, cells, fields = read_vtk(os.path.join(out, f"level{lev:02d}.vtk"))
        uh = solution_values(fields)
        phi_min = float(uh[:, 0].min())
        _need(phi_min > 0.0, f"coupled2d level {lev}: phi reaches {phi_min}", failures)
        h1_levels.append(h1_with_spread(pts, cells, uh, exact, grad))
    h1, spread = h1_levels[-1]
    _agreement("coupled2d", h1, spread, float(rows[-1]["h1_error"]), failures)
    first = h1_levels[0][0]
    _need(h1 < first, f"coupled2d: H1 error did not fall ({first:.4e} -> {h1:.4e})", failures)
    interp = math.sqrt(sum(errors(pts, cells, exact(pts), exact, grad)))
    info["quasi_opt_ratio"] = h1 / interp
    _need(h1 <= COUPLED_QUASI_OPT * interp, f"coupled2d: H1 error {h1:.4e} exceeds "
          f"{COUPLED_QUASI_OPT} x interpolation error {interp:.4e}", failures)
    info["levels"] = len(rows)
    return h1, failures, info


def check_ppum(out):
    failures, info = [], {}
    rows = _levels(out)
    rep = read_report(os.path.join(out, "report.json"))
    _need(rep.get("status") == "blended", f"ppum4: status {rep.get('status')!r}", failures)
    _need("subdomain_errors" not in rep, f"ppum4: {rep.get('subdomain_errors')}", failures)
    dev = rep.get("ppum", {}).get("pou_sum_deviation", math.inf)
    _need(dev <= POU_TOL, f"ppum4: partition of unity deviates by {dev}", failures)
    pts, cells, fields = read_vtk(os.path.join(out, "blend.vtk"))
    uh = solution_values(fields)
    h1, spread = h1_with_spread(pts, cells, uh, sine_exact, sine_grad)
    _agreement("ppum4", h1, spread, float(rows[-1]["h1_error"]), failures)
    interp = math.sqrt(sum(errors(pts, cells, sine_exact(pts), sine_exact, sine_grad)))
    info["quasi_opt_ratio"] = h1 / interp
    _need(h1 <= PPUM_QUASI_OPT * interp, f"ppum4: blended H1 error {h1:.4e} exceeds "
          f"{PPUM_QUASI_OPT} x interpolation error {interp:.4e}", failures)
    return h1, failures, info


def check(workload, out, man=None):
    """(h1_error, failures, info) for one repetition's output directory."""
    try:
        if workload == "corner2d":
            return check_adaptive_poisson(workload, out, corner_exact, corner_grad)
        if workload == "cube3d":
            return check_adaptive_poisson(workload, out, sine_exact, sine_grad)
        if workload == "coupled2d":
            return check_coupled(out, man)
        if workload == "ppum4":
            return check_ppum(out)
    except (OSError, ValueError, KeyError, IndexError, CheckError) as exc:
        return math.nan, [f"{workload}: unreadable output: {exc}"], {}
    raise ValueError(f"unknown workload {workload!r}")
