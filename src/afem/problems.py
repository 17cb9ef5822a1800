"""Built-in problem definitions.

Scalar benchmarks (Poisson variants, Bratu) and the coupled nonlinear
constraint system (conformally scaled Hamiltonian and momentum equations)
used by the physics demos and the solver test suite.

Sign conventions follow the template

    -div A(u) + B(u) = 0      in the domain,
    A(u).n + C(u)    = 0      on flux-flagged boundary,
    u = g                     on dirichlet boundary,

whose weak residual is F(u)(v) = int A:grad v + B.v dx + int_bdry C.v ds.
Each problem states the template once, pointwise: Ft returns [A.ravel(), B]
on elements and [0, C] on flux faces, DFt their derivative with respect to
[grad u .ravel(), u] (see `problem.py`).  The strong-form pieces the
indicators use, ProblemDefinition.SFt, are derived from Ft.  The constraint
system is posed in the flat chart: its background metric is the identity.
"""

from __future__ import annotations

import math
import numpy as np

from . import generators
from .problem import ProblemDefinition


# --------------------------------------------------------------------- scalar

def _scalar_jacobian(d, a_gu, b_u):
    """dF/dz of a scalar problem with flux A = a_gu grad u and a source (or
    boundary term) of slope b_u in u."""
    k = a_gu * np.eye(d + 1)
    k[d, d] = b_u
    return k


def _poisson_callbacks(f):
    def Ft(t, x, n, u, gu):
        if t == 0:
            return np.concatenate((gu[0], (-f(x),)))
        return np.zeros(gu.size + 1)

    def DFt(t, x, n, u, gu):
        return _scalar_jacobian(gu.size, 1.0 if t == 0 else 0.0, 0.0)

    return Ft, DFt


def benchmark_poisson(variant: str = "square_sine") -> ProblemDefinition:
    """Manufactured Poisson problems with exact solutions attached.

    square_sine: product sine on the unit square.
    cube_sine: product sine on the unit cube.
    corner_singularity: the r^(2/3) reentrant-corner solution on the L-shape,
    harmonic in the interior so all residual content sits at the corner.
    """
    if variant == "square_sine":
        def exact(x):
            return np.array([math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])])

        def exact_grad(x):
            sx, cx = math.sin(math.pi * x[0]), math.cos(math.pi * x[0])
            sy, cy = math.sin(math.pi * x[1]), math.cos(math.pi * x[1])
            return np.array([[math.pi * cx * sy, math.pi * sx * cy]])

        def f(x):
            return 2.0 * math.pi ** 2 * math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])

        mesh_factory = generators.unit_square
    elif variant == "cube_sine":
        def exact(x):
            return np.array([math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
                             * math.sin(math.pi * x[2])])

        def exact_grad(x):
            s = [math.sin(math.pi * xi) for xi in x]
            cgrad = [math.pi * math.cos(math.pi * x[i]) * s[(i + 1) % 3] * s[(i + 2) % 3]
                     for i in range(3)]
            return np.array([cgrad])

        def f(x):
            return 3.0 * math.pi ** 2 * (math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
                                         * math.sin(math.pi * x[2]))

        mesh_factory = generators.unit_cube
    elif variant == "corner_singularity":
        def _polar(x):
            r = math.hypot(x[0], x[1])
            th = math.atan2(x[1], x[0])
            if th < 0.0:
                th += 2.0 * math.pi
            return r, th

        def exact(x):
            r, th = _polar(x)
            return np.array([r ** (2.0 / 3.0) * math.sin(2.0 * th / 3.0)])

        def exact_grad(x):
            r, th = _polar(x)
            if r == 0.0:
                return np.array([[0.0, 0.0]])  # measure-zero; the limit is unbounded
            dr = (2.0 / 3.0) * r ** (-1.0 / 3.0) * math.sin(2.0 * th / 3.0)
            dt = (2.0 / 3.0) * r ** (-1.0 / 3.0) * math.cos(2.0 * th / 3.0)
            ct, st = math.cos(th), math.sin(th)
            return np.array([[dr * ct - dt * st, dr * st + dt * ct]])

        def f(x):
            return 0.0

        mesh_factory = generators.l_shape
    else:
        raise ValueError(f"unknown poisson variant {variant!r}")

    Ft, DFt = _poisson_callbacks(f)
    return ProblemDefinition(
        name=f"poisson_{variant}",
        n_components=1,
        Ft=Ft, DFt=DFt,
        dirichlet=lambda x: exact(x),
        exact=exact, exact_grad=exact_grad,
        mesh_factory=mesh_factory,
    )


def benchmark_bratu(lam: float = 1.0) -> ProblemDefinition:
    """Bratu problem -lap(u) - lam exp(u) = 0 with homogeneous dirichlet data."""

    def Ft(t, x, n, u, gu):
        if t == 0:
            return np.concatenate((gu[0], (-lam * math.exp(u[0]),)))
        return np.zeros(gu.size + 1)

    def DFt(t, x, n, u, gu):
        if t == 0:
            return _scalar_jacobian(gu.size, 1.0, -lam * math.exp(u[0]))
        return _scalar_jacobian(gu.size, 0.0, 0.0)

    return ProblemDefinition(
        name="bratu",
        n_components=1,
        Ft=Ft, DFt=DFt,
        dirichlet=lambda x: np.array([0.0]),
        mesh_factory=generators.unit_square,
    )


# ---------------------------------------------------------------- constraints
#
# The constraint system couples a nonlinear scalar equation for the conformal
# factor phi with a linear vector equation for W.  Unknowns are packed as
# (phi, W^1..W^d).  The scalar part has the potential derivative
#
#   P'(phi) = (1/8) Rhat phi + (1/12) (trK)^2 phi^5
#           - (1/8) (Ahat + LW)^2 phi^-7 - 2 pi rho phi^-3,
#
# and the vector part carries the trace-adjusted symmetrized gradient
# LW^ab = grad^a W^b + grad^b W^a - (2/3) delta^ab div W as its flux.  The
# system is posed in the flat chart: the background metric is the identity,
# so indices are raised and lowered without weights and covariant
# derivatives are partial derivatives.

PHI_FLOOR = 1e-6


class ProblemError(Exception):
    pass


class ClampCounter:
    """Counts evaluations that hit the positivity floor.  Statistics only:
    clamping changes the evaluation point, never the stored state."""

    __slots__ = ("count", "_lock")

    def __init__(self):
        import threading
        self.count = 0
        self._lock = threading.Lock()

    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        with self._lock:
            self.count = 0


def _ev_scalar(v, x):
    return float(v(x)) if callable(v) else float(v)


def _ev_vector(v, x, d):
    if v is None:
        return np.zeros(d)
    if callable(v):
        return np.asarray(v(x), dtype=float)
    return np.asarray(v, dtype=float)


def _ev_matrix(v, x, d):
    if v is None:
        return np.zeros((d, d))
    if callable(v):
        return np.asarray(v(x), dtype=float)
    return np.asarray(v, dtype=float)


class ConstraintCoefficients:
    """Problem data for the constraint system.

    Scalar, vector, and matrix entries accept constants or callables of x;
    trK additionally needs trK_grad when it varies in space (the vector source
    carries its gradient).  rho must be nonnegative and dirichlet_f positive
    wherever sampled; both are checked at evaluation time.
    """

    def __init__(self, dim=3, Rhat=0.0, trK=0.0, trK_grad=None, Ahat=None,
                 rho=0.0, jhat=None, robin_c=0.0, robin_z=0.0, robin_C=None,
                 robin_Z=None, dirichlet_f=1.0, dirichlet_F=None):
        self.dim = dim
        self.Rhat = Rhat
        self.trK = trK
        self.trK_grad = trK_grad
        self.Ahat = Ahat
        self.rho = rho
        self.jhat = jhat
        self.robin_c = robin_c
        self.robin_z = robin_z
        self.robin_C = robin_C
        self.robin_Z = robin_Z
        self.dirichlet_f = dirichlet_f
        self.dirichlet_F = dirichlet_F
        self.clamps = ClampCounter()
        if callable(trK) and trK_grad is None:
            raise ProblemError("spatially varying trK needs trK_grad")

    def rho_at(self, x):
        r = _ev_scalar(self.rho, x)
        if r < 0.0:
            raise ProblemError(f"rho sampled negative ({r}) at {tuple(x)}")
        return r

    def interior_at(self, x):
        """Point values the scalar-equation terms need."""
        trk = _ev_scalar(self.trK, x)
        return {"Rhat": _ev_scalar(self.Rhat, x), "trK2": trk * trk,
                "rho": self.rho_at(x)}

    def grad_trK_at(self, x):
        if self.trK_grad is not None:
            return np.asarray(self.trK_grad(x), dtype=float)
        return np.zeros(self.dim)

    def dirichlet_vector(self, x):
        f = _ev_scalar(self.dirichlet_f, x)
        if f <= 0.0:
            raise ProblemError(f"dirichlet_f must be positive, got {f} at {tuple(x)}")
        return np.concatenate([[f], _ev_vector(self.dirichlet_F, x, self.dim)])


def _clamped(phi, clamps):
    if phi < PHI_FLOOR:
        if clamps is not None:
            clamps.bump()
        return PHI_FLOOR
    return float(phi)


def hamiltonian_Pprime(phi, at, lw_plus_a_sq, clamps=None):
    """Scalar potential derivative; `at` maps Rhat/trK2/rho to point values.

    phi below the positivity floor is clamped (and counted) rather than fed to
    the negative powers, so the result is always finite for finite data.
    """
    p = _clamped(phi, clamps)
    out = (0.125 * at["Rhat"] * p + at["trK2"] * p ** 5 / 12.0
           - 0.125 * lw_plus_a_sq * p ** -7 - 2.0 * math.pi * at["rho"] * p ** -3)
    if not math.isfinite(out):
        raise ProblemError(f"potential derivative not finite (phi={phi})")
    return out


def hamiltonian_Pprime_slope(phi, at, lw_plus_a_sq, clamps=None):
    """d/dphi of hamiltonian_Pprime at fixed coefficients and LW."""
    p = _clamped(phi, clamps)
    out = (0.125 * at["Rhat"] + (5.0 / 12.0) * at["trK2"] * p ** 4
           + 0.875 * lw_plus_a_sq * p ** -8
           + 6.0 * math.pi * at["rho"] * p ** -4)
    if not math.isfinite(out):
        raise ProblemError(f"potential second derivative not finite (phi={phi})")
    return out


# tensor helpers

def _sym_up(grad_rows):
    return 0.5 * (grad_rows + grad_rows.T)


def _lw(grad_rows, d):
    e = _sym_up(grad_rows)
    div = np.trace(grad_rows)
    return 2.0 * e - (2.0 / 3.0) * div * np.eye(d)


def _lw_matrix(d):
    """Matrix of the linear map grad W -> LW on raveled (d, d) arrays: its
    columns are the images of the unit matrices."""
    return np.column_stack([_lw(e.reshape(d, d), d).ravel() for e in np.eye(d * d)])


def _dot2(a, b):
    """a^ab b^ab."""
    return float(np.sum(a * b))


def hamiltonian_forms(coeffs: ConstraintCoefficients, source=None) -> ProblemDefinition:
    """Scalar problem for the conformal factor with W = 0, so (Ahat + LW)^2
    is Ahat^2.  source, when given, is a callable subtracted from the
    interior residual (used by the manufactured benchmark below).
    """
    d = coeffs.dim

    def potential(fn, x, u):
        a = _ev_matrix(coeffs.Ahat, x, d)
        return fn(u[0], coeffs.interior_at(x), _dot2(a, a), coeffs.clamps)

    def Ft(t, x, n, u, gu):
        if t == 1:
            cb = _ev_scalar(coeffs.robin_c, x)
            zb = _ev_scalar(coeffs.robin_z, x)
            return np.concatenate((np.zeros(d), (cb * u[0] - zb,)))
        pp = potential(hamiltonian_Pprime, x, u)
        if source is not None:
            pp -= source(x)
        return np.concatenate((gu[0], (pp,)))

    def DFt(t, x, n, u, gu):
        if t == 1:
            return _scalar_jacobian(d, 0.0, _ev_scalar(coeffs.robin_c, x))
        return _scalar_jacobian(d, 1.0, potential(hamiltonian_Pprime_slope, x, u))

    return ProblemDefinition(
        name="hamiltonian", n_components=1, Ft=Ft, DFt=DFt,
        dirichlet=lambda x: coeffs.dirichlet_vector(x)[:1],
        initial_value=np.array([1.0]), constraint_coefficients=coeffs)


def momentum_forms(coeffs: ConstraintCoefficients) -> ProblemDefinition:
    """Linear vector problem for W with the conformal factor frozen at
    phi = 1, so the phi^6 weight of the trK source is 1."""
    d = coeffs.dim

    def source_vec(x):
        return ((2.0 / 3.0) * coeffs.grad_trK_at(x)
                + 8.0 * math.pi * _ev_vector(coeffs.jhat, x, d))

    m = d * d
    lw_map = _lw_matrix(d)

    def Ft(t, x, n, u, gu):
        if t == 1:
            cm = _ev_matrix(coeffs.robin_C, x, d)
            zv = _ev_vector(coeffs.robin_Z, x, d)
            return np.concatenate((np.zeros(m), cm @ u - zv))
        return np.concatenate((_lw(gu, d).ravel(), source_vec(x)))

    def DFt(t, x, n, u, gu):
        k = np.zeros((m + d, m + d))
        if t == 1:
            k[m:, m:] = _ev_matrix(coeffs.robin_C, x, d)
        else:
            k[:m, :m] = lw_map
        return k

    return ProblemDefinition(
        name="momentum", n_components=d, Ft=Ft, DFt=DFt,
        dirichlet=lambda x: _ev_vector(coeffs.dirichlet_F, x, d),
        initial_value=np.zeros(d), constraint_coefficients=coeffs)


def coupled_forms(coeffs: ConstraintCoefficients) -> ProblemDefinition:
    """Full (phi, W) system with both linearization cross blocks.

    Component 0 is phi; components 1..d are W.  The W->phi block carries
    -(1/4)(Ahat+LW):(LX) phi^-7 and the phi->W block 4 phi^5 grad trK . V.
    """
    d = coeffs.dim
    nc = d + 1
    m = nc * d
    lw_map = _lw_matrix(d)

    def source_vec(x, u):
        p6 = _clamped(u[0], coeffs.clamps) ** 6
        return ((2.0 / 3.0) * p6 * coeffs.grad_trK_at(x)
                + 8.0 * math.pi * _ev_vector(coeffs.jhat, x, d))

    def Ft(t, x, n, u, gu):
        if t == 1:
            cb = _ev_scalar(coeffs.robin_c, x)
            zb = _ev_scalar(coeffs.robin_z, x)
            cm = _ev_matrix(coeffs.robin_C, x, d)
            zv = _ev_vector(coeffs.robin_Z, x, d)
            return np.concatenate((np.zeros(m), (cb * u[0] - zb,), cm @ u[1:] - zv))
        lw = _lw(gu[1:], d)
        s = _ev_matrix(coeffs.Ahat, x, d) + lw
        pp = hamiltonian_Pprime(u[0], coeffs.interior_at(x), _dot2(s, s), coeffs.clamps)
        return np.concatenate((gu[0], lw.ravel(), (pp,), source_vec(x, u)))

    def DFt(t, x, n, u, gu):
        k = np.zeros((m + nc, m + nc))
        if t == 1:
            k[m, m] = _ev_scalar(coeffs.robin_c, x)
            k[m + 1:, m + 1:] = _ev_matrix(coeffs.robin_C, x, d)
            return k
        s = _ev_matrix(coeffs.Ahat, x, d) + _lw(gu[1:], d)
        p = _clamped(u[0], coeffs.clamps)
        k[:d, :d] = np.eye(d)
        k[d:m, d:m] = lw_map
        # the W -> phi and phi -> W cross blocks
        k[m, d:m] = -0.25 * p ** -7 * (s.ravel() @ lw_map)
        k[m + 1:, m] = 4.0 * p ** 5 * coeffs.grad_trK_at(x)
        k[m, m] = hamiltonian_Pprime_slope(u[0], coeffs.interior_at(x), _dot2(s, s),
                                           coeffs.clamps)
        if not np.all(np.isfinite(k)):
            raise ProblemError(f"linearized integrand not finite at {tuple(x)}")
        return k

    return ProblemDefinition(
        name="constraints_coupled", n_components=nc, Ft=Ft, DFt=DFt,
        dirichlet=coeffs.dirichlet_vector,
        initial_value=np.concatenate([[1.0], np.zeros(d)]),
        constraint_coefficients=coeffs)


def hamiltonian_trivial(dim: int = 3) -> ProblemDefinition:
    """Flat trivial data: every potential term zero, boundary value 1.

    The exact discrete solution is phi identically 1 (the equation reduces to
    the Laplace problem with constant boundary data), so Newton converges to
    round-off in one step from any start.
    """
    coeffs = ConstraintCoefficients(dim=dim, dirichlet_f=1.0)
    prob = hamiltonian_forms(coeffs)
    prob.exact = lambda x: np.array([1.0])
    prob.exact_grad = lambda x: np.zeros((1, dim))
    prob.mesh_factory = generators.unit_square if dim == 2 else generators.unit_cube
    return prob


def hamiltonian_manufactured() -> ProblemDefinition:
    """Nonlinear scalar benchmark with a known solution on the unit square.

    Exact solution phi* = 1 + (1/4) sin(pi x) sin(pi y); coefficients
    Rhat = 8, trK^2 = 12, rho = 1/(2 pi) make the potential derivative
    phi + phi^5 - phi^-3, and the defect is moved into a source term so phi*
    solves the modified equation exactly.  phi* stays in [1, 1.25], well away
    from the positivity floor.
    """
    coeffs = ConstraintCoefficients(
        dim=2, Rhat=8.0, trK=math.sqrt(12.0), rho=1.0 / (2.0 * math.pi),
        dirichlet_f=1.0)

    def s_of(x):
        return math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])

    def exact(x):
        return np.array([1.0 + 0.25 * s_of(x)])

    def exact_grad(x):
        gx = 0.25 * math.pi * math.cos(math.pi * x[0]) * math.sin(math.pi * x[1])
        gy = 0.25 * math.pi * math.sin(math.pi * x[0]) * math.cos(math.pi * x[1])
        return np.array([[gx, gy]])

    def source(x):
        # -lap(phi*) + P'(phi*) with lap(phi*) = -(pi^2/2) sin sin
        p = 1.0 + 0.25 * s_of(x)
        return 0.5 * math.pi ** 2 * s_of(x) + p + p ** 5 - p ** -3

    prob = hamiltonian_forms(coeffs, source=source)
    prob.name = "hamiltonian_manufactured"
    prob.exact = exact
    prob.exact_grad = exact_grad
    prob.mesh_factory = generators.unit_square
    return prob


def momentum_manufactured() -> ProblemDefinition:
    """Linear vector benchmark on the unit cube with a known solution.

    W* = (g, g, g) with g = sin(pi x) sin(pi y) sin(pi z); the current jhat is
    chosen so the momentum equation holds exactly (trK constant, so the phi^6
    source weight drops out).
    """
    pi = math.pi

    def g_of(x):
        return math.sin(pi * x[0]) * math.sin(pi * x[1]) * math.sin(pi * x[2])

    def dg(x, a):
        t = [math.sin(pi * x[i]) for i in range(3)]
        t[a] = math.cos(pi * x[a])
        return pi * t[0] * t[1] * t[2]

    def d2g(x, a, b):
        if a == b:
            return -pi ** 2 * g_of(x)
        t = [math.sin(pi * x[i]) for i in range(3)]
        t[a] = math.cos(pi * x[a])
        t[b] = math.cos(pi * x[b])
        return pi ** 2 * t[0] * t[1] * t[2]

    def jhat(x):
        # div(LW*)^a = lap W*^a + (1/3) d_a div W*
        lap = -3.0 * pi ** 2 * g_of(x)
        out = np.empty(3)
        for a in range(3):
            ddiv = sum(d2g(x, a, b) for b in range(3))
            out[a] = lap + ddiv / 3.0
        return out / (8.0 * pi)

    coeffs = ConstraintCoefficients(dim=3, trK=1.0, jhat=jhat)
    prob = momentum_forms(coeffs)
    prob.name = "momentum_manufactured"
    prob.exact = lambda x: np.full(3, g_of(x))
    prob.exact_grad = lambda x: np.tile([dg(x, b) for b in range(3)], (3, 1))
    prob.mesh_factory = generators.unit_cube
    return prob


def coupled_trivial(dim: int = 3) -> ProblemDefinition:
    """Coupled system with flat trivial data; exact solution (phi, W) = (1, 0)."""
    coeffs = ConstraintCoefficients(dim=dim, dirichlet_f=1.0)
    prob = coupled_forms(coeffs)
    prob.exact = lambda x: np.concatenate([[1.0], np.zeros(dim)])
    prob.exact_grad = lambda x: np.zeros((dim + 1, dim))
    prob.mesh_factory = generators.unit_square if dim == 2 else generators.unit_cube
    return prob


def demo_constraint_coefficients(dim: int = 2) -> ConstraintCoefficients:
    """Desk-scale excised-region data: constant trace, Gaussian energy density,
    Robin far-field data pulling phi toward 1."""
    center = np.full(dim, 0.0)

    def rho(x):
        r2 = float(np.sum((np.asarray(x) - center) ** 2))
        return 0.05 * math.exp(-r2 / 0.5)

    return ConstraintCoefficients(
        dim=dim, trK=0.2, rho=rho, robin_c=1.0, robin_z=1.0, dirichlet_f=1.0)
