"""Flat key=value run configuration.

The format is one `key = value` pair per line, `#` comments, no sections,
and each key at most once.
Keys map onto RunConfig fields; `problem` names an entry of
`problems.BUILT_IN`, and `coeff.<name>` keys carry coefficient specs for the
problems that read them there (any other problem rejects them) using a small
whitelist of forms:

    const:<float>
    gaussian:amp=<float>,width=<float>,center=<float>[ <float>...]

A gaussian names each parameter once.  `coeff.trK` takes const only, and
`coeff.robin_c` / `coeff.robin_z` need a mesh with flux-flagged (NEUMANN)
faces, which only a file: mesh can carry.  Every float must be finite; every
validation failure names the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import generators, mesh_io
from .mesh import NEUMANN, MeshError
from .problem import batched
from .problems import BUILT_IN


class ConfigError(Exception):
    pass


GENERATORS = ("unit_square", "unit_cube", "l_shape", "annulus", "sphere_in_box")
PROBLEMS = tuple(BUILT_IN)
COEFFICIENTS = ("Rhat", "dirichlet_f", "rho", "robin_c", "robin_z", "trK")
INDICATORS = ("residual", "dual")
STRATEGIES = ("equidistribution", "maximum", "hybrid")
LINEAR = ("direct", "multilevel")


@dataclass
class RunConfig:
    problem: str = "square_sine"
    mesh: str = "auto"               # generator name, file:<path>, or the problem's default
    mesh_n: int = 4
    dim: int = 2                     # read only by the problems whose BUILT_IN entry reads it
    max_vertices: int = 2000
    target_eta: float = 0.0          # 0 disables the indicator stopping test
    indicator: str = "residual"
    strategy: str = "hybrid"
    theta: float = 0.0               # 0 means the strategy's default
    newton_tolerance: float = 1e-10
    newton_max_iterations: int = 25
    linear: str = "direct"
    ppum_subdomains: int = 1
    out: str = ""
    threads: int = 1                 # read by nothing; deleted after ROADMAP item 1(a)
    coefficients: dict = field(default_factory=dict)

    @property
    def theta_or_none(self):
        return None if self.theta == 0.0 else self.theta


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    ftypes = {f.name: f.type for f in fields(RunConfig)}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: {key}: repeats line {seen[key]}")
        seen[key] = lineno
        if key.startswith("coeff."):
            cfg.coefficients[key[len("coeff."):]] = val
            continue
        if key not in ftypes or key == "coefficients":
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, {"int": int, "float": float}.get(ftypes[key], str)(val))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    validate(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc.strerror or exc}") from exc
    return parse_config(text)


def validate(cfg: RunConfig) -> None:
    def need(cond, name, msg):
        if not cond:
            raise ConfigError(f"{name}: {msg}")

    need(cfg.problem in PROBLEMS, "problem", f"must be one of {PROBLEMS}")
    need(cfg.mesh == "auto" or cfg.mesh in GENERATORS
         or cfg.mesh.startswith("file:"),
         "mesh", f"must be 'auto', one of {GENERATORS}, or file:<path>")
    need(cfg.mesh_n >= 1, "mesh_n", "must be at least 1")
    need(cfg.dim in (2, 3), "dim", "must be 2 or 3")
    need(cfg.max_vertices >= 1, "max_vertices", "must be at least 1")
    need(cfg.target_eta >= 0.0, "target_eta", "must be nonnegative")
    need(cfg.indicator in INDICATORS, "indicator", f"must be one of {INDICATORS}")
    need(cfg.strategy in STRATEGIES, "strategy", f"must be one of {STRATEGIES}")
    need(0.0 <= cfg.theta <= 1.0, "theta", "must lie in [0, 1] (0 = default)")
    need(0.0 < cfg.newton_tolerance < np.inf, "newton_tolerance", "must be positive and finite")
    need(cfg.newton_max_iterations >= 1, "newton_max_iterations", "must be at least 1")
    need(cfg.linear in LINEAR, "linear", f"must be one of {LINEAR}")
    need(cfg.ppum_subdomains >= 1, "ppum_subdomains", "must be at least 1")
    need(cfg.threads >= 1, "threads", "must be at least 1")
    for name, spec in cfg.coefficients.items():
        key = f"coeff.{name}"
        need("coefficients" in BUILT_IN[cfg.problem].reads, key,
             f"problem {cfg.problem!r} takes no coefficients (only "
             f"{tuple(p for p, b in BUILT_IN.items() if 'coefficients' in b.reads)} do)")
        need(name in COEFFICIENTS, key, f"unknown coefficient (supported: {list(COEFFICIENTS)})")
        # a varying trK also needs its gradient, which no config key gives
        need(name != "trK" or spec.partition(":")[0] == "const", key, "takes const:<float> only")


# ----------------------------------------------------------- coefficient spec

def parse_coefficient(name: str, spec: str, dim: int):
    """Whitelisted coefficient forms; returns a float or a `batched` callable
    of the points x (N, dim)."""
    kind, _, rest = spec.partition(":")
    if kind == "const":
        try:
            value = float(rest)
        except ValueError as exc:
            raise ConfigError(f"coeff.{name}: bad const value {rest!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"coeff.{name}: const value {rest!r} is not finite")
        return value
    if kind == "gaussian":
        args = {}
        for part in rest.split(","):
            k, _, v = part.partition("=")
            k = k.strip()
            if k in args or k not in ("amp", "width", "center"):
                raise ConfigError(f"coeff.{name}: gaussian "
                                  f"{'repeats' if k in args else 'has no'} parameter {k!r}")
            args[k] = v.strip()
        try:
            amp = float(args["amp"])
            width = float(args["width"])
            center = np.array([float(t) for t in args["center"].split()])
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"coeff.{name}: gaussian needs amp=,width=,center=") from exc
        if not (np.isfinite([amp, width, *center]).all() and width > 0.0) or len(center) != dim:
            raise ConfigError(f"coeff.{name}: gaussian needs finite values, a positive width "
                              f"and dim = {dim} center coordinates")

        @batched
        def gauss(x):
            r2 = np.sum((x - center) ** 2, axis=1)
            return amp * np.exp(-r2 / width)

        return gauss
    raise ConfigError(f"coeff.{name}: unknown form {kind!r} "
                      "(supported: const, gaussian)")


# ------------------------------------------------------------------- builders

def build_mesh(cfg: RunConfig, problem=None):
    if cfg.mesh == "auto":
        if problem is None or problem.mesh_factory is None:
            raise ConfigError("mesh: 'auto' needs a problem with a default mesh")
        mesh = problem.mesh_factory(cfg.mesh_n)
    elif cfg.mesh.startswith("file:"):
        path = cfg.mesh[len("file:"):]
        try:
            mesh = mesh_io.read_mesh(path)
        except (OSError, UnicodeDecodeError, MeshError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"mesh: file {path!r}: {reason}") from exc
    elif cfg.mesh == "annulus":
        mesh = generators.annulus(n_r=cfg.mesh_n, n_t=max(3, 4 * cfg.mesh_n))
    elif cfg.mesh == "sphere_in_box":
        try:
            mesh = generators.sphere_in_box(n=max(3, cfg.mesh_n))
        except MeshError as exc:
            raise ConfigError(f"mesh_n: {exc}") from exc
    else:
        mesh = getattr(generators, cfg.mesh)(cfg.mesh_n)
    if "dim" in BUILT_IN[cfg.problem].reads and mesh.dim != cfg.dim:
        raise ConfigError(f"dim: is {cfg.dim}, but the mesh is {mesh.dim}-dimensional")
    if problem is not None and problem.dim not in (None, mesh.dim):
        raise ConfigError(f"mesh: is {mesh.dim}D, but {cfg.problem} is posed in {problem.dim}D")
    # generator meshes flag every boundary face DIRICHLET, where Robin data is never read
    flux = np.any(mesh.sflags[mesh.live_simplices()] == NEUMANN)
    for key in ("robin_c", "robin_z"):
        if key in cfg.coefficients and not flux:
            raise ConfigError(f"coeff.{key}: the mesh has no flux (NEUMANN) face to "
                              "apply it on; use a file: mesh with flux-flagged faces")
    return mesh


def build_problem(cfg: RunConfig):
    """Problem instance for the configured selection, mesh factory attached."""
    return BUILT_IN[cfg.problem].build(
        cfg.dim, {name: parse_coefficient(name, spec, cfg.dim)
                  for name, spec in cfg.coefficients.items()})
