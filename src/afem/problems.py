"""Built-in problem definitions.

Scalar benchmarks (Poisson variants and Bratu, from one scalar builder) and
the coupled nonlinear constraint system (conformally scaled Hamiltonian and
momentum equations) used by the physics demos and the solver test suite.
The constraint system is stated once, in `coupled_forms`: the scalar
(Hamiltonian) and vector (momentum) problems are its restrictions, with the
other unknown held at the coupled initial value (W = 0, or phi = 1).

Sign conventions follow the template

    -div A(u) + B(u) = 0      in the domain,
    A(u).n + C(u)    = 0      on flux-flagged boundary,
    u = g                     on dirichlet boundary,

whose weak residual is F(u)(v) = int A:grad v + B.v dx + int_bdry C.v ds.
Each problem states each piece once, for a whole block of points: the flux
A, the source B and the face term C (none for the scalar benchmarks), plus
DFt, the derivative of the packed F with respect to [grad u .ravel(), u]
(see `problem.py`), all as numpy expressions over the points.  Exact
solutions, dirichlet data and the `ConstraintCoefficients` entries are
constants or `batched` numpy expressions too, read through `problem.sample`
once per block of points (the coefficients through
`ConstraintCoefficients.at`, until the points change).  The constraint system
is posed in the flat chart: its background metric is the identity.  Each
problem states the dimension it is posed in (`ProblemDefinition.dim`), and
`BUILT_IN` maps the names a run configuration selects from to their makers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import generators
from .problem import ProblemDefinition, ProblemError, batched, sample


# --------------------------------------------------------------------- scalar

def _scalar_callbacks(b, b_u):
    """flux, source and DFt of the scalar problem -lap u + b(x, u) = 0, with
    natural (zero-flux) data on flux faces; b_u(x, u) is the slope of b in u.
    Both take the points x (N, d) and the values u (N, 1)."""
    def DFt(t, x, n, u, gu):
        d = x.shape[1]
        k = np.zeros((len(x), d + 1, d + 1))
        if t == 0:
            k[:, :d, :d] = np.eye(d)
            k[:, d, d] = b_u(x, u)
        return k

    return {"flux": lambda x, u, gu: gu, "source": lambda x, u, gu: b(x, u)[:, None], "DFt": DFt}


def benchmark_poisson(variant: str = "square_sine") -> ProblemDefinition:
    """Manufactured Poisson problems with exact solutions attached.

    square_sine: product sine on the unit square.
    cube_sine: product sine on the unit cube.
    corner_singularity: the r^(2/3) reentrant-corner solution on the L-shape,
    harmonic in the interior so all residual content sits at the corner.
    """
    if variant == "square_sine":
        @batched
        def exact(x):
            return (np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1]))[:, None]

        @batched
        def exact_grad(x):
            sx, cx = np.sin(math.pi * x[:, 0]), np.cos(math.pi * x[:, 0])
            sy, cy = np.sin(math.pi * x[:, 1]), np.cos(math.pi * x[:, 1])
            return np.stack([math.pi * cx * sy, math.pi * sx * cy], axis=1)[:, None]

        def f(x):
            return 2.0 * math.pi ** 2 * np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])

        dim, mesh_factory = 2, generators.unit_square
    elif variant == "cube_sine":
        @batched
        def exact(x):
            s = np.sin(math.pi * x)
            return (s[:, 0] * s[:, 1] * s[:, 2])[:, None]

        @batched
        def exact_grad(x):
            s, c = np.sin(math.pi * x), np.cos(math.pi * x)
            return np.stack([math.pi * c[:, i] * s[:, (i + 1) % 3] * s[:, (i + 2) % 3]
                             for i in range(3)], axis=1)[:, None]

        def f(x):
            return 3.0 * math.pi ** 2 * (np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])
                                         * np.sin(math.pi * x[:, 2]))

        dim, mesh_factory = 3, generators.unit_cube
    elif variant == "corner_singularity":
        def _polar(x):
            r = np.hypot(x[:, 0], x[:, 1])
            th = np.arctan2(x[:, 1], x[:, 0])
            return r, np.where(th < 0.0, th + 2.0 * math.pi, th)

        @batched
        def exact(x):
            r, th = _polar(x)
            return (r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0))[:, None]

        @batched
        def exact_grad(x):
            r, th = _polar(x)
            # the limit at r = 0 is unbounded; the measure-zero point gets 0
            rr = np.where(r == 0.0, 1.0, r) ** (-1.0 / 3.0)
            dr = (2.0 / 3.0) * rr * np.sin(2.0 * th / 3.0)
            dt = (2.0 / 3.0) * rr * np.cos(2.0 * th / 3.0)
            ct, st = np.cos(th), np.sin(th)
            g = np.stack([dr * ct - dt * st, dr * st + dt * ct], axis=1)
            g[r == 0.0] = 0.0
            return g[:, None]

        def f(x):
            return np.zeros(len(x))

        dim, mesh_factory = 2, generators.l_shape
    else:
        raise ValueError(f"unknown poisson variant {variant!r}")

    return ProblemDefinition(
        n_components=1,
        **_scalar_callbacks(lambda x, u: -f(x), lambda x, u: 0.0),
        dirichlet=exact,
        exact=exact, exact_grad=exact_grad,
        dim=dim, mesh_factory=mesh_factory,
    )


def benchmark_bratu(lam: float = 1.0) -> ProblemDefinition:
    """Bratu problem -lap(u) - lam exp(u) = 0 with homogeneous dirichlet data,
    posed in any dimension (its default mesh is the unit square)."""

    def b(x, u):
        return -lam * np.exp(u[:, 0])

    return ProblemDefinition(
        n_components=1,
        **_scalar_callbacks(b, b),
        dirichlet=0.0,
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


class ClampCounter:
    """Counts evaluations that hit the positivity floor: each source or DFt
    call counts a clamped point once, however many of its terms read the
    clamped value.  Statistics only: clamping changes the evaluation point,
    never the stored state."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self, n):
        self.count += int(n)

    def reset(self):
        self.count = 0


class ConstraintCoefficients:
    """Problem data for the constraint system.

    Scalar, vector, and matrix entries accept constants or callables read
    through `sample`: declared `batched`, a callable takes the points x (N, d)
    and returns (N,) + shape values in one call; otherwise it is a function of
    one point x, called once per point, which is slower.  Either is a function
    of the points alone, which `at` samples again only when they change.  trK
    additionally needs trK_grad when it varies in space (the vector source
    carries its gradient).  rho must be nonnegative and dirichlet_f above
    PHI_FLOOR wherever sampled; both are checked on every read, naming the
    first bad point.
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
        self._samples = {}
        if callable(trK) and trK_grad is None:
            raise ProblemError("spatially varying trK needs trK_grad")

    def at(self, name, x, shape=()):
        """Read-only values (N,) + shape of the coefficient `name` at the points
        x (N, d).  A callable is sampled again only when it (by identity), the
        shape or the points (bytewise) differ from its last read."""
        v = getattr(self, name)
        if not callable(v):
            return sample(v, x, shape)
        key = x.tobytes()
        src, shp, pts, out = self._samples.get(name, (None, None, None, None))
        if src is not v or shp != shape or pts != key:
            out = sample(v, x, shape).view()
            out.flags.writeable = False
            self._samples[name] = (v, shape, key, out)
        return out

    def interior_at(self, x):
        """Values (N,) at the points x (N, d) that the scalar-equation terms
        need."""
        trk = self.at("trK", x)
        rho = self.at("rho", x)
        bad = np.flatnonzero(~(rho >= 0.0))  # NaN too
        if bad.size:
            i = bad[0]
            raise ProblemError(f"rho sampled negative or NaN ({rho[i]}) at {tuple(x[i].tolist())}")
        return {"Rhat": self.at("Rhat", x), "trK2": trk * trk, "rho": rho}

    @batched
    def dirichlet_vector(self, x):
        """The dirichlet data (f, F^1..F^d), (N, d+1), at the points x (N, d)."""
        f = self.at("dirichlet_f", x)
        bad = np.flatnonzero(~(f > PHI_FLOOR))  # NaN too
        if bad.size:
            i = bad[0]
            what = (f"must lie above the phi floor {PHI_FLOOR}" if f[i] > 0.0
                    else "must be positive")
            raise ProblemError(f"dirichlet_f {what}, got {f[i]} at {tuple(x[i].tolist())}")
        return np.column_stack([f, self.at("dirichlet_F", x, (self.dim,))])


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


def hamiltonian_Pprime_slope(phi, at, lw_plus_a_sq):
    """d/dphi of hamiltonian_Pprime at fixed coefficients and LW; phi is
    clamped as there, but not counted."""
    p = _clamped(phi, None)
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


def _momentum_source(coeffs, x, p6):
    """The momentum source (2/3) phi^6 grad trK + 8 pi jhat at the points x."""
    d = coeffs.dim
    return ((2.0 / 3.0) * p6 * coeffs.at("trK_grad", x, (d,))
            + 8.0 * math.pi * coeffs.at("jhat", x, (d,)))


def coupled_forms(coeffs: ConstraintCoefficients) -> ProblemDefinition:
    """Full (phi, W) system with both linearization cross blocks.

    Component 0 is phi; components 1..d are W.  The W->phi block carries
    -(1/4)(Ahat+LW):(LX) phi^-7 and the phi->W block 4 phi^5 grad trK . V.
    """
    d = coeffs.dim
    nc = d + 1
    m = nc * d
    lw_map = _lw_matrix(d)

    def flux(x, u, gu):
        return np.concatenate((gu[:, :1], _lw(gu[:, 1:], d)), axis=1)

    def source(x, u, gu):
        s = coeffs.at("Ahat", x, (d, d)) + _lw(gu[:, 1:], d)
        pp = hamiltonian_Pprime(u[:, 0], coeffs.interior_at(x), _dot2(s, s), coeffs.clamps)
        p6 = _clamped(u[:, 0], None)[:, None] ** 6
        return np.column_stack((pp, _momentum_source(coeffs, x, p6)))

    def face_term(x, u):
        # the Robin terms c phi - z and C W - Z
        c = coeffs.at("robin_C", x, (d, d))
        return np.column_stack((coeffs.at("robin_c", x) * u[:, 0] - coeffs.at("robin_z", x),
                                (c @ u[:, 1:, None])[:, :, 0] - coeffs.at("robin_Z", x, (d,))))

    def DFt(t, x, n, u, gu):
        k = np.zeros((len(x), m + nc, m + nc))
        if t == 1:
            k[:, m, m] = coeffs.at("robin_c", x)
            k[:, m + 1:, m + 1:] = coeffs.at("robin_C", x, (d, d))
            return k
        s = coeffs.at("Ahat", x, (d, d)) + _lw(gu[:, 1:], d)
        p = _clamped(u[:, 0], coeffs.clamps)[:, None]
        k[:, :d, :d] = np.eye(d)
        k[:, d:m, d:m] = lw_map
        # the W -> phi and phi -> W cross blocks
        k[:, m, d:m] = -0.25 * p ** -7 * (s.reshape(len(x), -1) @ lw_map)
        k[:, m + 1:, m] = 4.0 * p ** 5 * coeffs.at("trK_grad", x, (d,))
        k[:, m, m] = hamiltonian_Pprime_slope(u[:, 0], coeffs.interior_at(x), _dot2(s, s))
        _finite(k, "linearized integrand", "x", x)
        return k

    return ProblemDefinition(
        n_components=nc, flux=flux, source=source, face_term=face_term, DFt=DFt,
        dirichlet=coeffs.dirichlet_vector, dim=d,
        initial_value=np.concatenate([[1.0], np.zeros(d)]),
        constraint_coefficients=coeffs, floor=(0, PHI_FLOOR))


def _restriction(coeffs: ConstraintCoefficients, cols) -> ProblemDefinition:
    """The coupled system solved for the components `cols` alone, the others
    held at the coupled initial value (phi = 1, W = 0) with zero gradient.

    Each piece is the matching components of the coupled one at the
    embedded state, and DFt the matching sub-block; the dirichlet data and the
    initial value are the matching components of the coupled ones.
    """
    full = coupled_forms(coeffs)
    d, nc = coeffs.dim, full.n_components
    cols = np.asarray(cols)
    z = np.concatenate([(cols[:, None] * d + np.arange(d)).ravel(), nc * d + cols])

    def embed(u, gu=0.0):
        uu = np.tile(full.initial_value, (len(u), 1))
        uu[:, cols] = u
        gg = np.zeros((len(u), nc, d))
        gg[:, cols] = gu
        return uu, gg

    def DFt(t, x, n, u, gu):
        return np.ascontiguousarray(full.DFt(t, x, n, *embed(u, gu))[:, z[:, None], z])

    return ProblemDefinition(
        n_components=len(cols), DFt=DFt, dim=d,
        flux=lambda x, u, gu: full.flux(x, *embed(u, gu))[:, cols],
        source=lambda x, u, gu: full.source(x, *embed(u, gu))[:, cols],
        face_term=lambda x, u: full.face_term(x, embed(u)[0])[:, cols],
        dirichlet=batched(lambda x: coeffs.dirichlet_vector(x)[:, cols]),
        initial_value=full.initial_value[cols], constraint_coefficients=coeffs,
        floor=(int(np.argmax(cols == 0)), PHI_FLOOR) if 0 in cols else None)


def hamiltonian_forms(coeffs: ConstraintCoefficients) -> ProblemDefinition:
    """Scalar problem for the conformal factor: the coupled system with W held
    at 0, so (Ahat + LW)^2 is Ahat^2."""
    return _restriction(coeffs, [0])


def momentum_forms(coeffs: ConstraintCoefficients) -> ProblemDefinition:
    """Linear vector problem for W: the coupled system with phi held at 1, so
    the phi^6 weight of the trK source is 1.  With constant trK the system
    decouples, and this is the coupled W equation exactly."""
    return _restriction(coeffs, range(1, coeffs.dim + 1))


def _trivial(forms, dim: int) -> ProblemDefinition:
    """forms on flat trivial data: every potential term zero, boundary value 1.
    The exact solution is the forms' own initial value, (1) or (1, 0, ...):
    the equations reduce to Laplace problems with constant boundary data, so
    Newton converges to round-off in one step from any start."""
    prob = forms(ConstraintCoefficients(dim=dim, dirichlet_f=1.0))
    prob.exact, prob.exact_grad = prob.initial_value, np.zeros((prob.n_components, dim))
    prob.mesh_factory = generators.unit_square if dim == 2 else generators.unit_cube
    return prob


def hamiltonian_trivial(dim: int = 3) -> ProblemDefinition:
    """The scalar problem on flat trivial data; exact solution phi = 1."""
    return _trivial(hamiltonian_forms, dim)


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
        return np.sin(math.pi * x[:, 0]) * np.sin(math.pi * x[:, 1])

    @batched
    def exact(x):
        return (1.0 + 0.25 * s_of(x))[:, None]

    @batched
    def exact_grad(x):
        s, c = np.sin(math.pi * x), np.cos(math.pi * x)
        return np.stack([0.25 * math.pi * c[:, 0] * s[:, 1],
                         0.25 * math.pi * s[:, 0] * c[:, 1]], axis=1)[:, None]

    prob = hamiltonian_forms(coeffs)
    forms = prob.source

    def source(x, u, gu):
        # -lap(phi*) + P'(phi*) with lap(phi*) = -(pi^2/2) sin sin
        b = forms(x, u, gu)
        p = 1.0 + 0.25 * s_of(x)
        b[:, 0] -= 0.5 * math.pi ** 2 * s_of(x) + p + p ** 5 - p ** -3
        return b

    prob.source = source
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
        return np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1]) * np.sin(pi * x[:, 2])

    def dg(x, a):
        t = [np.sin(pi * x[:, i]) for i in range(3)]
        t[a] = np.cos(pi * x[:, a])
        return pi * t[0] * t[1] * t[2]

    def d2g(x, a, b):
        if a == b:
            return -pi ** 2 * g_of(x)
        t = [np.sin(pi * x[:, i]) for i in range(3)]
        t[a] = np.cos(pi * x[:, a])
        t[b] = np.cos(pi * x[:, b])
        return pi ** 2 * t[0] * t[1] * t[2]

    @batched
    def jhat(x):
        # div(LW*)^a = lap W*^a + (1/3) d_a div W*
        lap = -3.0 * pi ** 2 * g_of(x)
        out = np.stack([lap + sum(d2g(x, a, b) for b in range(3)) / 3.0 for a in range(3)],
                       axis=1)
        return out / (8.0 * pi)

    coeffs = ConstraintCoefficients(dim=3, trK=1.0, jhat=jhat)
    prob = momentum_forms(coeffs)
    prob.exact = batched(lambda x: np.repeat(g_of(x)[:, None], 3, axis=1))
    prob.exact_grad = batched(lambda x: np.repeat(
        np.stack([dg(x, b) for b in range(3)], axis=1)[:, None], 3, axis=1))
    prob.mesh_factory = generators.unit_cube
    return prob


def coupled_trivial(dim: int = 3) -> ProblemDefinition:
    """The coupled system on flat trivial data; exact solution (phi, W) = (1, 0)."""
    return _trivial(coupled_forms, dim)


# ------------------------------------------------------------------ the table

class BuiltIn(NamedTuple):
    """A problem a config names: build(dim, coeffs) takes the config's dim and
    its parsed `coeff.*` values by name, and reads lists which of those two
    fields, "dim" and "coefficients", it reads."""

    build: callable
    reads: tuple = ()


def _constraint(forms):
    return BuiltIn(lambda dim, coeffs: forms(ConstraintCoefficients(dim=dim, **coeffs)),
                   ("dim", "coefficients"))


BUILT_IN = {
    **{variant: BuiltIn(lambda dim, coeffs, variant=variant: benchmark_poisson(variant))
       for variant in ("square_sine", "cube_sine", "corner_singularity")},
    "bratu": BuiltIn(lambda dim, coeffs: benchmark_bratu()),
    "hamiltonian_trivial": BuiltIn(lambda dim, coeffs: hamiltonian_trivial(dim), ("dim",)),
    "hamiltonian_manufactured": BuiltIn(lambda dim, coeffs: hamiltonian_manufactured()),
    "momentum_manufactured": BuiltIn(lambda dim, coeffs: momentum_manufactured()),
    "coupled_trivial": BuiltIn(lambda dim, coeffs: coupled_trivial(dim), ("dim",)),
    "hamiltonian": _constraint(hamiltonian_forms),
    "momentum": _constraint(momentum_forms),
    "coupled": _constraint(coupled_forms),
}
