"""The benchmark's tracer patches library names by attribute; a rename in
`src/afem` must fail here rather than in a traced benchmark run."""
import importlib.util
from pathlib import Path

import afem.assembly as assembly
import afem.indicators as indicators
import afem.newton as newton
from afem.mesh import Mesh

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_site():
    sites = [(assembly, "face_rule"), (indicators, "face_rule"), (Mesh, "face_normal"),
             (newton, "assemble_jacobian"), (newton, "assemble_residual"),
             (assembly, "measure_error"), (indicators, "residual_indicator")]
    before = [getattr(owner, attr) for owner, attr in sites]
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(sites, before))
    finally:
        tracer.unpatch()
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(sites, before))
