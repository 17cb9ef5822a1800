"""Invalid configurations and `afem` CLI arguments, drawn at random.

Each drawn case must end in a `ConfigError` that names the field at fault,
through the library (`parse_config`, then the run or `build_mesh`) and
through the CLI (exit code 2, "config error: ..." on stderr), and nothing may
be written under the output directory.
"""
import contextlib
import io
import os
import re
import tempfile
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings, strategies as st

from afem import generators
from afem.cli import main
from afem.config import (COEFFICIENTS, GENERATORS, ConfigError, RunConfig, build_mesh,
                         build_problem, parse_config)
from afem.driver import run_adaptive, run_ppum
from afem.mesh_io import write_mesh
from afem.problems import BUILT_IN

COMMANDS = ("solve", "ppum", "mesh-info", "mesh-refine")
RUNS = ("solve", "ppum")
INT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "int"]
FLOAT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "float"]
# the lowest valid value of each integer field; dim must be 2 or 3
INT_FLOOR = {"mesh_n": 1, "max_vertices": 1, "newton_max_iterations": 1,
             "ppum_subdomains": 1, "threads": 1}
CHOICES = {"problem": tuple(BUILT_IN), "indicator": ("residual", "dual"),
           "strategy": ("equidistribution", "maximum", "hybrid"),
           "linear": ("direct", "multilevel")}
GENERATOR_DIM = {"unit_square": 2, "l_shape": 2, "annulus": 2, "unit_cube": 3,
                 "sphere_in_box": 3}
WORDS = st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True)
# the problems that read the config's coefficients, those that read its dim,
# and the dimension of each problem posed in only one
TAKE_COEFFICIENTS = [p for p, b in BUILT_IN.items() if "coefficients" in b.reads]
READ_DIM = [p for p, b in BUILT_IN.items() if "dim" in b.reads]
POSED_IN = {p: dim for p, b in BUILT_IN.items()
            if "dim" not in b.reads and (dim := b.build(2, {}).dim) is not None}


@dataclass
class Case:
    lines: list            # config lines; "{dir}" stands for a scratch directory
    field: str             # the field the error must name
    commands: tuple = COMMANDS
    args: tuple = ()       # extra CLI arguments
    mesh_text: str = None  # written to {dir}/mesh.txt when given


def _unparsable(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


@st.composite
def unknown_keys(draw):
    key = draw(WORDS.filter(lambda k: k not in {f.name for f in fields(RunConfig)}
                            or k == "coefficients"))
    return Case([f"{key} = 1"], key)


@st.composite
def unparsable_values(draw):
    key = draw(st.sampled_from(INT_FIELDS + FLOAT_FIELDS))
    return Case([f"{key} = {draw(WORDS.filter(_unparsable))}"], key)


@st.composite
def out_of_range(draw):
    key = draw(st.sampled_from(sorted(INT_FLOOR) + ["dim"] + FLOAT_FIELDS + sorted(CHOICES)
                               + ["mesh"]))
    if key in INT_FLOOR:
        value = draw(st.integers(-10 ** 6, INT_FLOOR[key] - 1))
    elif key == "dim":
        value = draw(st.integers(-10, 10).filter(lambda v: v not in (2, 3)))
    elif key == "target_eta":
        value = draw(st.one_of(st.floats(max_value=-1e-300), st.just(float("nan"))))
    elif key == "theta":
        value = draw(st.one_of(st.floats(max_value=-1e-300),
                               st.floats(min_value=1.0, exclude_min=True)))
    elif key == "newton_tolerance":
        value = draw(st.one_of(st.floats(max_value=0.0), st.just(float("inf"))))
    elif key == "mesh":
        value = draw(WORDS.filter(lambda v: v != "auto" and v not in GENERATORS))
    else:
        value = draw(WORDS.filter(lambda v: v not in CHOICES[key]))
    return Case([f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"],
                key)


@st.composite
def coefficient_without_physics(draw):
    problem = draw(st.sampled_from([p for p in BUILT_IN if p not in TAKE_COEFFICIENTS]))
    name = draw(st.sampled_from(COEFFICIENTS))
    return Case([f"problem = {problem}", f"coeff.{name} = const:1"], f"coeff.{name}")


NON_FINITE = ("nan", "inf", "-inf", "1e999")
GAUSSIAN = {"amp": "1", "width": "0.5", "center": "0.5 0.5"}


@st.composite
def non_finite_coefficient(draw):
    # once these ran: NaN data failed at level 0 (exit 3) with partial outputs
    problem = draw(st.sampled_from(TAKE_COEFFICIENTS))
    name = draw(st.sampled_from(COEFFICIENTS))
    bad = draw(st.sampled_from(NON_FINITE))
    if name == "trK" or draw(st.booleans()):
        spec = f"const:{bad}"
    else:
        values = dict(GAUSSIAN)
        slot = draw(st.sampled_from(sorted(values)))
        values[slot] = bad if slot != "center" else f"0.5 {bad}"
        spec = "gaussian:" + ",".join(f"{k}={v}" for k, v in values.items())
    return Case([f"problem = {problem}", "mesh = unit_square", "mesh_n = 2", "dim = 2",
                 f"coeff.{name} = {spec}"], f"coeff.{name}", RUNS)


@st.composite
def gaussian_with_stray_parameter(draw):
    # once parsed: an unknown parameter was dropped, and a repeated one
    # replaced the first; robin_* would fail on the generator mesh anyway
    problem = draw(st.sampled_from(TAKE_COEFFICIENTS))
    name = draw(st.sampled_from(["Rhat", "dirichlet_f", "rho"]))
    parts = [f"{k}={v}" for k, v in GAUSSIAN.items()]
    if draw(st.booleans()):
        stray = draw(WORDS.filter(lambda k: k not in GAUSSIAN)) + "=3"
    else:
        stray = draw(st.sampled_from(["amp=7", "width=0.25", "center=0.25 0.75"]))
    parts.insert(draw(st.integers(0, len(parts))), stray)
    return Case([f"problem = {problem}", "mesh = unit_square", "mesh_n = 2", "dim = 2",
                 f"coeff.{name} = gaussian:" + ",".join(parts)], f"coeff.{name}", RUNS)


@st.composite
def robin_on_generator(draw):
    problem = draw(st.sampled_from(TAKE_COEFFICIENTS))
    mesh = draw(st.sampled_from(sorted(GENERATOR_DIM)))
    key = draw(st.sampled_from(["robin_c", "robin_z"]))
    return Case([f"problem = {problem}", f"mesh = {mesh}", "mesh_n = 2",
                 f"dim = {GENERATOR_DIM[mesh]}", f"coeff.{key} = const:1"], f"coeff.{key}")


@st.composite
def dim_off_the_mesh(draw):
    problem = draw(st.sampled_from(READ_DIM))
    mesh = draw(st.sampled_from(sorted(GENERATOR_DIM)))
    return Case([f"problem = {problem}", f"mesh = {mesh}", "mesh_n = 2",
                 f"dim = {5 - GENERATOR_DIM[mesh]}"], "dim")


def _fixed_dim_off_the_mesh(problem, mesh):
    return Case([f"problem = {problem}", f"mesh = {mesh}", "mesh_n = 2"], "mesh", RUNS)


@st.composite
def fixed_dim_off_the_mesh(draw):
    problem = draw(st.sampled_from(sorted(POSED_IN)))
    mesh = draw(st.sampled_from([m for m, d in sorted(GENERATOR_DIM.items())
                                 if d != POSED_IN[problem]]))
    return _fixed_dim_off_the_mesh(problem, mesh)


@st.composite
def cap_below_the_mesh(draw):
    n = draw(st.integers(1, 6))
    cap = draw(st.integers(1, (n + 1) ** 2 - 1))
    return Case([f"mesh_n = {n}", f"max_vertices = {cap}"], "max_vertices", RUNS)


@st.composite
def subdomains_above_the_mesh(draw):
    n = draw(st.integers(1, 6))
    parts = draw(st.integers(2 * n * n + 1, 2 * n * n + 100))
    return Case([f"mesh_n = {n}", f"ppum_subdomains = {parts}"], "ppum_subdomains", RUNS)


def _mesh_lines():
    buf = io.StringIO()
    write_mesh(generators.unit_square(1), buf)
    return buf.getvalue().splitlines()


# ways to break the text of unit_square(1): line 4 is vertex 0, line 9 simplex 0
BREAKS = {
    "bad coordinate": lambda lines: lines.__setitem__(3, "0 x 0.0 1"),
    "bad header": lambda lines: lines.__setitem__(0, "AFEM-MESH 2"),
    "truncated": lambda lines: lines.__delitem__(slice(6, None)),
    "extra token": lambda lines: lines.__setitem__(3, lines[3] + " 7"),
    "unknown class": lambda lines: lines.__setitem__(3, lines[3][:-1] + "5"),
    "wrong class": lambda lines: lines.__setitem__(3, lines[3][:-1] + "0"),
    "missing vertex": lambda lines: lines.__setitem__(8, "0 0 1 99 1 0 1"),
    "unflagged boundary face": lambda lines: lines.__setitem__(8, lines[8][:-1] + "0"),
}


@st.composite
def unreadable_mesh_files(draw):
    kind = draw(st.sampled_from(["missing", "empty", "binary"] + sorted(BREAKS)))
    text = None if kind == "missing" else ""
    if kind == "binary":
        text = "\udcff"  # written with surrogateescape: one byte that is not UTF-8
    elif kind in BREAKS:
        lines = _mesh_lines()
        BREAKS[kind](lines)
        text = "\n".join(lines) + "\n"
    return Case(["mesh = file:{dir}/mesh.txt"], "mesh", mesh_text=text)


@st.composite
def bad_cli_counts(draw):
    value = draw(st.integers(-100, 0))
    return Case([], "rounds", ("mesh-refine",), ("--rounds", str(value)))


# keys that parse on their own, each with two values
REPEATABLE = {"mesh_n": ("2", "7"), "max_vertices": ("100", "200"),
              "strategy": ("maximum", "hybrid"), "problem": ("square_sine", "bratu"),
              "coeff.rho": ("const:1", "const:5"),
              "coeff.Rhat": ("const:0", "gaussian:amp=1,width=0.5,center=0.5 0.5")}


def _repeated_key(key, first, again, between):
    return Case([f"{key} = {first}", *between, f"{key} = {again}"], key)


@st.composite
def repeated_keys(draw):
    key = draw(st.sampled_from(sorted(REPEATABLE)))
    between = draw(st.lists(st.sampled_from(["# between", "", "newton_max_iterations = 5"]),
                            max_size=3, unique=True))
    return _repeated_key(key, draw(st.sampled_from(REPEATABLE[key])),
                         draw(st.sampled_from(REPEATABLE[key])), between)


CASES = st.one_of(unknown_keys(), unparsable_values(), out_of_range(),
                  coefficient_without_physics(), non_finite_coefficient(),
                  gaussian_with_stray_parameter(), robin_on_generator(), dim_off_the_mesh(),
                  fixed_dim_off_the_mesh(), cap_below_the_mesh(), subdomains_above_the_mesh(),
                  unreadable_mesh_files(), bad_cli_counts(), repeated_keys())


def _names(message, field):
    # the field opens the message or a clause ("line 1: mesh_n: ..."), or is quoted
    return re.search(rf"(^|: |')" + re.escape(field) + r"(: |')", message) is not None


def _api(command, text, out):
    cfg = parse_config(text)
    cfg.out = out
    if command == "solve":
        run_adaptive(cfg)
    elif command == "ppum":
        run_ppum(cfg)
    else:
        build_mesh(cfg, build_problem(cfg) if cfg.mesh == "auto" else None)


@settings(max_examples=80, deadline=None)
@given(case=CASES, data=st.data())
def test_invalid_configs_are_config_errors_naming_the_field(case, data):
    _config_error_naming_the_field(case, data.draw(st.sampled_from(case.commands)))


@pytest.mark.parametrize("command", RUNS)
@pytest.mark.parametrize("problem, mesh", [
    ("cube_sine", "unit_square"), ("square_sine", "unit_cube"),
    ("corner_singularity", "unit_cube"), ("hamiltonian_manufactured", "unit_cube"),
    ("momentum_manufactured", "unit_square")])
def test_fixed_dimension_problem_off_the_mesh(problem, mesh, command):
    # each of these once ran until an array shape failed: exit 3, partial outputs
    _config_error_naming_the_field(_fixed_dim_off_the_mesh(problem, mesh), command)


@pytest.mark.parametrize("command", RUNS)
@pytest.mark.parametrize("line, field", [
    ("coeff.rho = const:nan", "coeff.rho"), ("coeff.Rhat = const:inf", "coeff.Rhat"),
    ("coeff.trK = const:nan", "coeff.trK"), ("coeff.dirichlet_f = const:nan", "coeff.dirichlet_f"),
    ("coeff.rho = gaussian:amp=nan,width=0.5,center=0.5 0.5", "coeff.rho"),
    ("newton_tolerance = inf", "newton_tolerance")])
def test_non_finite_settings(line, field, command):
    # each of these once passed validation: the coefficients failed at level 0
    # (exit 3, partial outputs); an infinite tolerance took no Newton step
    problem = "square_sine" if field == "newton_tolerance" else "hamiltonian"
    _config_error_naming_the_field(
        Case([f"problem = {problem}", "mesh = unit_square", "mesh_n = 2", line], field), command)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key, first, again, between", [
    ("mesh_n", "2", "7", ["# between", ""]),
    ("coeff.rho", "const:1", "const:5", ["problem = hamiltonian", "mesh = unit_square"])])
def test_repeated_key_names_both_lines(key, first, again, between, command):
    # each of these once parsed, the later value winning without a word
    case = _repeated_key(key, first, again, between)
    _config_error_naming_the_field(case, command)
    with pytest.raises(ConfigError, match=rf"^line 4: {re.escape(key)}: repeats line 1$"):
        parse_config("\n".join(case.lines))


def _config_error_naming_the_field(case, command):
    with tempfile.TemporaryDirectory() as tmp:
        text = "\n".join(case.lines).replace("{dir}", tmp) + "\n"
        if case.mesh_text is not None:
            with open(os.path.join(tmp, "mesh.txt"), "w", errors="surrogateescape") as f:
                f.write(case.mesh_text)
        out = os.path.join(tmp, "out")
        if not case.args:  # a CLI flag has no library form
            with pytest.raises(ConfigError) as err:
                _api(command, text, out)
            assert _names(str(err.value), case.field), str(err.value)
            assert not os.path.exists(out)

        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as f:
            f.write(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", out, *case.args])
        assert code == 2, stderr.getvalue()
        message = stderr.getvalue()
        assert message.startswith("config error: ") and message.count("\n") == 1, message
        assert _names(message[len("config error: "):].strip(), case.field), message
        assert not os.path.exists(out)
