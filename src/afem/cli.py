"""Command-line front end.

Commands:
    solve        adaptive solve-estimate-refine run from a config file
    ppum         partition-of-unity run over independent subdomains
    mesh-info    print mesh statistics
    mesh-refine  uniformly refine a mesh and write it back out

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (ConfigError, RunConfig, build_mesh, build_problem, load_config,
                     validate)
from .mesh_io import write_mesh
from .vtk import export_vtk


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="afem", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, doc in (("solve", "run the adaptive loop"),
                      ("ppum", "run the partition-of-unity pipeline"),
                      ("mesh-info", "print mesh statistics"),
                      ("mesh-refine", "uniformly refine and export a mesh")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        if name == "mesh-refine":
            p.add_argument("--rounds", type=int, default=1,
                           help="uniform refinement rounds")
    return top


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.out:
        cfg.out = args.out
    validate(cfg)
    return cfg


def _mesh_for(cfg: RunConfig):
    # only the default mesh needs the problem
    return build_mesh(cfg, build_problem(cfg) if cfg.mesh == "auto" else None)


def _cmd_run(cfg: RunConfig, command: str) -> int:
    from .driver import run_adaptive, run_ppum
    report = (run_adaptive if command == "solve" else run_ppum)(cfg)
    sys.stdout.write(report.to_csv())
    sys.stdout.write(f"status: {report.status}\n")
    return 0 if not report.status.startswith("subdomain_failed") else 3


def _cmd_mesh_info(cfg: RunConfig) -> int:
    mesh = _mesh_for(cfg)
    live = mesh.live_simplices()
    lo, hi = mesh.bbox()
    mesh.check_conformity()
    print(f"dimension        {mesh.dim}")
    print(f"vertices         {mesh.n_vertices}")
    print(f"simplices        {len(live)}")
    print(f"min shape        {mesh.min_shape():.6f}")
    print(f"bbox low         {' '.join(repr(float(v)) for v in lo)}")
    print(f"bbox high        {' '.join(repr(float(v)) for v in hi)}")
    print("conformity       ok")
    return 0


def _cmd_mesh_refine(cfg: RunConfig, rounds: int) -> int:
    if rounds < 1:
        raise ConfigError("rounds: must be at least 1")
    mesh = _mesh_for(cfg)
    for _ in range(rounds):
        mesh.uniform_refine()
    out = cfg.out or "."
    os.makedirs(out, exist_ok=True)
    write_mesh(mesh, os.path.join(out, "mesh.txt"))
    export_vtk(mesh, None, None, os.path.join(out, "mesh.vtk"))
    print(f"wrote {os.path.join(out, 'mesh.txt')} "
          f"({mesh.n_vertices} vertices, {len(mesh.live_simplices())} simplices)")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command in ("solve", "ppum"):
            return _cmd_run(cfg, args.command)
        if args.command == "mesh-info":
            return _cmd_mesh_info(cfg)
        return _cmd_mesh_refine(cfg, args.rounds)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver and I/O failures
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
