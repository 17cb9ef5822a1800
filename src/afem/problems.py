"""Built-in problem definitions.

Scalar benchmarks (Poisson variants, Bratu) and the coupled nonlinear
constraint system (conformally scaled Hamiltonian and momentum equations)
used by the physics demos and the solver test suite.

Sign conventions follow the template

    -div A(u) + B(u) = 0      in the domain,
    A(u).n + C(u)    = 0      on flux-flagged boundary,
    u = g                     on dirichlet boundary,

whose weak residual is F(u)(v) = int A:grad v + B.v dx + int_bdry C.v ds.
Each problem states the template once, for a whole block of points: Ft
returns rows [A.ravel(), B] on elements and [0, C] on flux faces, DFt their
derivative with respect to [grad u .ravel(), u] (see `problem.py`), both as
numpy expressions over the points.  Exact solutions, dirichlet data and the
`ConstraintCoefficients` entries stay functions of one point, read through
`problem.sample`.  The strong-form pieces the indicators use,
ProblemDefinition.SFt, are derived from Ft.  The constraint system is posed
in the flat chart: its background metric is the identity.
"""

from __future__ import annotations

import math
import numpy as np

from . import generators
from .problem import ProblemDefinition, sample


# --------------------------------------------------------------------- scalar

def _scalar_jacobian(n, d, a_gu, b_u):
    """dF/dz (n, d+1, d+1) at n points of a scalar problem with flux
    A = a_gu grad u and a source (or boundary term) of slope b_u in u."""
    k = np.repeat((a_gu * np.eye(d + 1))[None], n, axis=0)
    k[:, d, d] = b_u
    return k


def _poisson_callbacks(f):
    def Ft(t, x, n, u, gu):
        if t == 0:
            return np.column_stack((gu[:, 0], -f(x)))
        return np.zeros((len(x), x.shape[1] + 1))

    def DFt(t, x, n, u, gu):
        return _scalar_jacobian(len(x), x.shape[1], 1.0 if t == 0 else 0.0, 0.0)

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
            return 2.0 * math.pi ** 2 * np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])

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
            return 3.0 * math.pi ** 2 * (np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])
                                         * np.sin(math.pi * x[:, 2]))

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
            return np.zeros(len(x))

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
            return np.column_stack((gu[:, 0], -lam * np.exp(u[:, 0])))
        return np.zeros((len(x), x.shape[1] + 1))

    def DFt(t, x, n, u, gu):
        if t == 0:
            return _scalar_jacobian(len(x), x.shape[1], 1.0, -lam * np.exp(u[:, 0]))
        return _scalar_jacobian(len(x), x.shape[1], 0.0, 0.0)

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

    def bump(self, n):
        with self._lock:
            self.count += int(n)

    def reset(self):
        with self._lock:
            self.count = 0


class ConstraintCoefficients:
    """Problem data for the constraint system.

    Scalar, vector, and matrix entries accept constants or callables of one
    point x, read through `sample`; trK additionally needs trK_grad when it
    varies in space (the vector source carries its gradient).  rho must be
    nonnegative and dirichlet_f positive wherever sampled; both are checked
    at evaluation time.
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

    def interior_at(self, x):
        """Values (N,) at the points x (N, d) that the scalar-equation terms
        need."""
        trk = sample(self.trK, x)
        rho = sample(self.rho, x)
        bad = np.flatnonzero(rho < 0.0)
        if bad.size:
            i = bad[0]
            raise ProblemError(f"rho sampled negative ({rho[i]}) at {tuple(x[i].tolist())}")
        return {"Rhat": sample(self.Rhat, x), "trK2": trk * trk, "rho": rho}

    def dirichlet_vector(self, x):
        """The dirichlet data (f, F^1..F^d) at one point x."""
        f = float(sample(self.dirichlet_f, [x])[0])
        if f <= 0.0:
            raise ProblemError(f"dirichlet_f must be positive, got {f} at {tuple(x)}")
        return np.concatenate([[f], sample(self.dirichlet_F, [x], (self.dim,))[0]])


def _clamped(phi, clamps):
    """phi with every value below the positivity floor raised to it, each
    such value counted once."""
    low = phi < PHI_FLOOR
    if clamps is not None:
        clamps.bump(np.count_nonzero(low))
    return np.where(low, PHI_FLOOR, phi)


def _finite(out, what, name, at):
    """Raise ProblemError naming the first point, by its value `name` in at,
    where out is not finite."""
    at = np.atleast_1d(at)
    bad = ~np.isfinite(np.reshape(out, (len(at), -1))).all(axis=1)
    if bad.any():
        raise ProblemError(f"{what} not finite ({name}={at[np.argmax(bad)].tolist()})")


def hamiltonian_Pprime(phi, at, lw_plus_a_sq, clamps=None):
    """Scalar potential derivative at N points: phi and lw_plus_a_sq hold
    (N,) point values, and `at` maps Rhat/trK2/rho to them.

    phi below the positivity floor is clamped (and counted) rather than fed to
    the negative powers, so the result is always finite for finite data.
    """
    p = _clamped(phi, clamps)
    out = (0.125 * at["Rhat"] * p + at["trK2"] * p ** 5 / 12.0
           - 0.125 * lw_plus_a_sq * p ** -7 - 2.0 * math.pi * at["rho"] * p ** -3)
    _finite(out, "potential derivative", "phi", phi)
    return out


def hamiltonian_Pprime_slope(phi, at, lw_plus_a_sq, clamps=None):
    """d/dphi of hamiltonian_Pprime at fixed coefficients and LW."""
    p = _clamped(phi, clamps)
    out = (0.125 * at["Rhat"] + (5.0 / 12.0) * at["trK2"] * p ** 4
           + 0.875 * lw_plus_a_sq * p ** -8
           + 6.0 * math.pi * at["rho"] * p ** -4)
    _finite(out, "potential second derivative", "phi", phi)
    return out


# tensor helpers, on (..., d, d) stacks

def _sym_up(grad_rows):
    return 0.5 * (grad_rows + np.swapaxes(grad_rows, -1, -2))


def _lw(grad_rows, d):
    e = _sym_up(grad_rows)
    div = np.trace(grad_rows, axis1=-2, axis2=-1)
    return 2.0 * e - (2.0 / 3.0) * div[..., None, None] * np.eye(d)


def _lw_matrix(d):
    """Matrix of the linear map grad W -> LW on raveled (d, d) arrays: its
    columns are the images of the unit matrices."""
    return np.column_stack([_lw(e.reshape(d, d), d).ravel() for e in np.eye(d * d)])


def _dot2(a, b):
    """a^ab b^ab at each point of (N, d, d) stacks."""
    return (a * b).reshape(len(a), -1).sum(axis=1)


def _robin(coeffs, x, m, phi=None, w=None):
    """F on flux faces: m zero flux slots, then the Robin terms c phi - z
    (when phi is given) and C W - Z (when W is) at the points x."""
    d = coeffs.dim
    cols = [np.zeros((len(x), m))]
    if phi is not None:
        cols.append(sample(coeffs.robin_c, x) * phi - sample(coeffs.robin_z, x))
    if w is not None:
        c = sample(coeffs.robin_C, x, (d, d))
        cols.append((c @ w[:, :, None])[:, :, 0] - sample(coeffs.robin_Z, x, (d,)))
    return np.column_stack(cols)


def _momentum_source(coeffs, x, p6):
    """The momentum source (2/3) phi^6 grad trK + 8 pi jhat at the points x."""
    d = coeffs.dim
    return ((2.0 / 3.0) * p6 * sample(coeffs.trK_grad, x, (d,))
            + 8.0 * math.pi * sample(coeffs.jhat, x, (d,)))


def hamiltonian_forms(coeffs: ConstraintCoefficients, source=None) -> ProblemDefinition:
    """Scalar problem for the conformal factor with W = 0, so (Ahat + LW)^2
    is Ahat^2.  source, when given, is a function of the points x (N, d)
    subtracted from the interior residual (used by the manufactured benchmark
    below).
    """
    d = coeffs.dim

    def potential(fn, x, u):
        a = sample(coeffs.Ahat, x, (d, d))
        return fn(u[:, 0], coeffs.interior_at(x), _dot2(a, a), coeffs.clamps)

    def Ft(t, x, n, u, gu):
        if t == 1:
            return _robin(coeffs, x, d, phi=u[:, 0])
        pp = potential(hamiltonian_Pprime, x, u)
        if source is not None:
            pp = pp - source(x)
        return np.column_stack((gu[:, 0], pp))

    def DFt(t, x, n, u, gu):
        if t == 1:
            return _scalar_jacobian(len(x), d, 0.0, sample(coeffs.robin_c, x))
        return _scalar_jacobian(len(x), d, 1.0, potential(hamiltonian_Pprime_slope, x, u))

    return ProblemDefinition(
        name="hamiltonian", n_components=1, Ft=Ft, DFt=DFt,
        dirichlet=lambda x: coeffs.dirichlet_vector(x)[:1],
        initial_value=np.array([1.0]), constraint_coefficients=coeffs)


def momentum_forms(coeffs: ConstraintCoefficients) -> ProblemDefinition:
    """Linear vector problem for W with the conformal factor frozen at
    phi = 1, so the phi^6 weight of the trK source is 1."""
    d = coeffs.dim
    m = d * d
    lw_map = _lw_matrix(d)

    def Ft(t, x, n, u, gu):
        if t == 1:
            return _robin(coeffs, x, m, w=u)
        return np.column_stack((_lw(gu, d).reshape(len(x), m), _momentum_source(coeffs, x, 1.0)))

    def DFt(t, x, n, u, gu):
        k = np.zeros((len(x), m + d, m + d))
        if t == 1:
            k[:, m:, m:] = sample(coeffs.robin_C, x, (d, d))
        else:
            k[:, :m, :m] = lw_map
        return k

    return ProblemDefinition(
        name="momentum", n_components=d, Ft=Ft, DFt=DFt,
        dirichlet=lambda x: sample(coeffs.dirichlet_F, [x], (d,))[0],
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

    def Ft(t, x, n, u, gu):
        if t == 1:
            return _robin(coeffs, x, m, phi=u[:, 0], w=u[:, 1:])
        lw = _lw(gu[:, 1:], d)
        s = sample(coeffs.Ahat, x, (d, d)) + lw
        pp = hamiltonian_Pprime(u[:, 0], coeffs.interior_at(x), _dot2(s, s), coeffs.clamps)
        p6 = _clamped(u[:, 0], coeffs.clamps)[:, None] ** 6
        return np.column_stack((gu[:, 0], lw.reshape(len(x), -1), pp,
                                _momentum_source(coeffs, x, p6)))

    def DFt(t, x, n, u, gu):
        k = np.zeros((len(x), m + nc, m + nc))
        if t == 1:
            k[:, m, m] = sample(coeffs.robin_c, x)
            k[:, m + 1:, m + 1:] = sample(coeffs.robin_C, x, (d, d))
            return k
        s = sample(coeffs.Ahat, x, (d, d)) + _lw(gu[:, 1:], d)
        p = _clamped(u[:, 0], coeffs.clamps)[:, None]
        k[:, :d, :d] = np.eye(d)
        k[:, d:m, d:m] = lw_map
        # the W -> phi and phi -> W cross blocks
        k[:, m, d:m] = -0.25 * p ** -7 * (s.reshape(len(x), -1) @ lw_map)
        k[:, m + 1:, m] = 4.0 * p ** 5 * sample(coeffs.trK_grad, x, (d,))
        k[:, m, m] = hamiltonian_Pprime_slope(u[:, 0], coeffs.interior_at(x), _dot2(s, s),
                                              coeffs.clamps)
        _finite(k, "linearized integrand", "x", x)
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
        # x is one point (d,) for exact, the points (N, d) for source
        return np.sin(math.pi * x[..., 0]) * np.sin(math.pi * x[..., 1])

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
