"""VTK export format and the command line entry points."""
import numpy as np
import pytest

import pointwise_oracle as oracle
from afem import generators
from afem.cli import main
from afem.indicators import IndicatorField
from afem.vtk import export_vtk


# ---------------------------------------------------------------------- vtk

def cell_types(txt):
    lines = txt.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("CELL_TYPES"))
    n = int(lines[at].split()[1])
    return lines[at + 1:at + 1 + n]


def test_vtk_transcribes_square(tmp_path):
    mesh = generators.unit_square(1)
    path = tmp_path / "two.vtk"
    export_vtk(mesh, {"u": np.ones(mesh.n_vertices)}, None, str(path))
    txt = path.read_text()
    assert txt.startswith("# vtk DataFile Version 3.0")
    assert "POINTS 4 double" in txt
    assert "CELLS 2 8" in txt          # two triangles, 2 * (1 + 3) ints
    assert cell_types(txt) == ["5", "5"]  # VTK type code for a triangle
    assert "POINT_DATA 4" in txt and "SCALARS u double 1" in txt


def test_vtk_pads_2d_points_with_zero_z(tmp_path):
    mesh = generators.unit_square(1)
    path = tmp_path / "pad.vtk"
    export_vtk(mesh, None, None, str(path))
    txt = path.read_text()
    start = txt.index("POINTS")
    rows = txt[start:].splitlines()[1:1 + mesh.n_vertices]
    for row in rows:
        parts = row.split()
        assert len(parts) == 3 and float(parts[2]) == 0.0


def test_vtk_tets_use_type_10(tmp_path):
    mesh = generators.unit_cube(1)
    path = tmp_path / "cube.vtk"
    export_vtk(mesh, None, None, str(path))
    txt = path.read_text()
    n = len(mesh.live_simplices())
    assert cell_types(txt) == ["10"] * n


def test_vtk_vector_fields_and_indicators(tmp_path):
    mesh = generators.unit_square(2)
    vals = np.column_stack([np.arange(mesh.n_vertices, dtype=float),
                            np.ones(mesh.n_vertices)])
    live = mesh.live_simplices()
    ind = IndicatorField(mesh, live, live.astype(float))
    path = tmp_path / "vec.vtk"
    export_vtk(mesh, {"w": vals}, ind, str(path))
    txt = path.read_text()
    assert "SCALARS w_0 double 1" in txt and "SCALARS w_1 double 1" in txt
    assert f"CELL_DATA {len(live)}" in txt and "SCALARS eta double 1" in txt


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_components", [None, 1, 3])
@pytest.mark.parametrize("with_eta", [False, True])
def test_vtk_block_writer_matches_per_row_writer(tmp_path, dim, n_components, with_eta):
    # a locally refined mesh, so that coordinates carry full-length floats,
    # and values over many magnitudes and both signs
    mesh = generators.unit_square(2) if dim == 2 else generators.unit_cube(1)
    for _ in range(3):
        live = mesh.live_simplices()
        mesh.refine_marked([int(live[0]), int(live[-1])])
    rng = np.random.default_rng(dim)
    fields = None
    if n_components is not None:
        vals = rng.standard_normal((mesh.n_vertices, n_components)) * 10.0 ** rng.integers(
            -300, 300, (mesh.n_vertices, n_components))
        fields = {"u": vals[:, 0] if n_components == 1 else vals, "one": np.ones(mesh.n_vertices)}
    ind = None
    if with_eta:
        live = mesh.live_simplices()
        ind = IndicatorField(mesh, live, rng.random(len(live)) / 3.0)
    new, old = tmp_path / "block.vtk", tmp_path / "rows.vtk"
    export_vtk(mesh, fields, ind, str(new))
    oracle.export_vtk(mesh, fields, ind, str(old))
    assert new.read_bytes() == old.read_bytes()


def test_vtk_rejects_indicators_of_another_mesh_state(tmp_path):
    # a field of the mesh before a refinement has no value for the new
    # simplices; they must not be written as 0.0
    mesh = generators.unit_square(2)
    live = mesh.live_simplices()
    old = IndicatorField(mesh, live, np.ones(len(live)))
    mesh.refine_marked([int(live[0])])
    with pytest.raises(ValueError, match="does not cover"):
        export_vtk(mesh, None, old, str(tmp_path / "stale.vtk"))
    assert not (tmp_path / "stale.vtk").exists()


# ---------------------------------------------------------------------- cli

def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_solve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 4\nmax_vertices = 300\n")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("level,n_vertices,n_simplices,eta_total,")
    assert "status: vertex_cap" in printed
    assert (tmp_path / "out" / "levels.csv").exists()


def test_cli_mesh_info(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 2\n")
    assert main(["mesh-info", "--config", cfg]) == 0
    rows = {ln.split()[0]: ln.split()[1:] for ln in
            capsys.readouterr().out.splitlines() if ln.strip()}
    assert rows["dimension"] == ["2"]
    assert rows["vertices"] == ["9"] and rows["simplices"] == ["8"]
    assert rows["conformity"] == ["ok"]


def test_cli_mesh_refine(tmp_path):
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 2\n")
    out = tmp_path / "ref"
    assert main(["mesh-refine", "--config", cfg, "--out", str(out), "--rounds", "2"]) == 0
    assert (out / "mesh.txt").exists() and (out / "mesh.vtk").exists()
    from afem.mesh_io import read_mesh
    m = read_mesh(str(out / "mesh.txt"))
    assert len(m.live_simplices()) == 8 * 4  # two quadrupling rounds


def test_cli_ppum(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 4\nmax_vertices = 300\n"
                              "ppum_subdomains = 2\n")
    rc = main(["ppum", "--config", cfg, "--out", str(tmp_path / "pp")])
    assert rc == 0
    assert "status: blended" in capsys.readouterr().out


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = nonsense\n")
    assert main(["solve", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_cli_solver_failure_exit_3(tmp_path, capsys):
    # strong source with a tiny boundary value: Newton cannot converge in two
    # steps, and the driver reports the failure as exit code 3
    cfg = write_cfg(tmp_path,
                    "problem = hamiltonian\ndim = 2\nmesh = unit_square\nmesh_n = 2\n"
                    "max_vertices = 200\nnewton_max_iterations = 2\n"
                    "coeff.rho = const:50.0\ncoeff.dirichlet_f = const:0.05\n")
    assert main(["solve", "--config", cfg]) == 3
    assert "error" in capsys.readouterr().err.lower()


def test_cli_invalid_thread_count_exit_2(tmp_path, capsys):
    # threads is read by nothing, but a value below 1 is still rejected
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 4\nthreads = 0\n")
    assert main(["ppum", "--config", cfg]) == 2
    assert "config error: threads: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "ppum"])
def test_cli_has_no_threads_flag(command, tmp_path):
    # the subdomain runs go one after another: there are no threads to cap
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 2\nmax_vertices = 9\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2


def test_cli_rejects_seed_flag(tmp_path):
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 2\nmax_vertices = 9\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", cfg, "--seed", "1"])
    assert exc.value.code == 2


def test_cli_varying_trk_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "problem = hamiltonian\ndim = 2\nmesh = unit_square\nmesh_n = 2\n"
                    "max_vertices = 50\n"
                    "coeff.trK = gaussian:amp=1,width=0.5,center=0.5 0.5\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "coeff.trK" in err and "const" in err


@pytest.mark.parametrize("line", ["coeff.rho = const:50", "coeff.bogus = const:1"],
                         ids=["rho", "bogus"])
def test_cli_coefficient_on_problem_without_coefficients_exit_2(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, "problem = square_sine\nmesh_n = 2\nmax_vertices = 30\n"
                              f"{line}\n")
    assert main(["solve", "--config", cfg]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err


def test_cli_unknown_coefficient_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "problem = hamiltonian\ndim = 2\nmesh = unit_square\n"
                              "mesh_n = 2\nmax_vertices = 30\ncoeff.bogus = const:1\n")
    assert main(["solve", "--config", cfg]) == 2
    assert "coeff.bogus" in capsys.readouterr().err


def test_cli_robin_on_generator_mesh_is_a_config_error(tmp_path, capsys):
    # generator meshes flag every boundary face Dirichlet, so Robin data has no face
    cfg = write_cfg(tmp_path,
                    "problem = hamiltonian\ndim = 2\nmesh = annulus\nmesh_n = 2\n"
                    "max_vertices = 50\ncoeff.robin_z = const:5\n")
    assert main(["solve", "--config", cfg]) == 2
    assert "coeff.robin_z" in capsys.readouterr().err


def test_cli_robin_data_reaches_flux_faces_of_file_mesh(tmp_path):
    from afem.mesh import DIRICHLET, NEUMANN
    from afem.mesh_io import write_mesh

    def classify(c):
        return NEUMANN if np.hypot(c[0], c[1]) > 0.75 else DIRICHLET

    mesh = generators.annulus(2, 8, boundary=classify)
    write_mesh(mesh, str(tmp_path / "annulus.txt"))
    csv = {}
    for z in ("0", "5"):
        out = tmp_path / f"z{z}"
        cfg = write_cfg(tmp_path,
                        f"problem = hamiltonian\ndim = 2\nmesh = file:{tmp_path / 'annulus.txt'}\n"
                        f"max_vertices = {mesh.n_vertices}\n"
                        f"coeff.robin_z = const:{z}\n", name=f"z{z}.cfg")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        csv[z] = (out / "levels.csv").read_text()
    assert csv["0"] != csv["5"]


def test_cli_gaussian_center_of_wrong_dimension_names_the_coefficient(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    "problem = hamiltonian\ndim = 3\nmesh = unit_cube\nmesh_n = 1\n"
                    "max_vertices = 50\n"
                    "coeff.rho = gaussian:amp=0.1,width=0.2,center=0.5 0.5\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coeff.rho:") and "dim" in err


def test_cli_file_mesh_of_other_dimension_names_dim(tmp_path, capsys):
    cube = write_cfg(tmp_path, "mesh = unit_cube\nmesh_n = 1\n", name="cube.cfg")
    assert main(["mesh-refine", "--config", cube, "--out", str(tmp_path / "m")]) == 0
    # dim is left at its default, 2; with a source term the mismatch reaches the Jacobian
    cfg = write_cfg(tmp_path, "problem = hamiltonian\ncoeff.rho = const:0.1\n"
                              f"mesh = file:{tmp_path / 'm' / 'mesh.txt'}\nmax_vertices = 200\n")
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: dim:")
