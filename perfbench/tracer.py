"""Tracing from outside: wrap the library's public functions where their
callers look them up, record spans in memory, summarise per layer.

A span is (name, start, end, parent, thread) plus the time its children
cover, so self time is duration minus child time.  Functions called very
often (face normals, face rules) are counted and timed without a span each:
their time is added to the enclosing span's child time.  Problem callbacks
are only counted.  Counters that several threads bump use itertools.count,
whose next() is atomic.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, thread, child_s, extra, id]
        self.leaf_time = {}        # thread id -> {name: seconds}
        self.leaf_calls = {}       # name -> itertools.count
        self.tallies = {}          # name -> list of numbers reported by spans
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched = []

    # ------------------------------------------------------------ recording

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            self._local.leaf = self.leaf_time.setdefault(threading.get_ident(), {})
        return st

    def span(self, name, fn, on_result=None, cpu=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            rec = [name, 0.0, 0.0, stack[-1][7] if stack else -1,
                   threading.get_ident(), 0.0, None, next(tracer._ids)]
            tracer.spans.append(rec)
            stack.append(rec)
            c0 = time.thread_time() if cpu else 0.0
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                if cpu:
                    rec[6] = {"cpu_s": time.thread_time() - c0}
                stack.pop()
                if stack:
                    stack[-1][5] += rec[2] - rec[1]
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        tracer = self
        calls = self.leaf_calls.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                next(calls)
                leaf = tracer._local.leaf
                leaf[name] = leaf.get(name, 0.0) + dt
                if stack:
                    stack[-1][5] += dt

        return wrapper

    def counter(self, name, fn):
        calls = self.leaf_calls.setdefault(name, itertools.count())

        def wrapper(*args):
            next(calls)
            return fn(*args)

        return wrapper

    def tally(self, name, value):
        self.tallies.setdefault(name, []).append(value)

    # ------------------------------------------------------------ patching

    def patch(self, owner, attr, wrapped):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def unpatch(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def instrument_problem(self, problem):
        for cb in ("Ft", "DFt", "SFt"):
            setattr(problem, cb, self.counter(f"problems.{cb}", getattr(problem, cb)))
        return problem

    def install(self):
        """Wrap every lookup site the driver, Newton and PPUM use.  Each
        site holds its own reference to the original, so nothing is counted
        twice."""
        import afem.assembly as assembly
        import afem.driver as driver
        import afem.indicators as indicators
        import afem.multilevel as multilevel
        import afem.newton as newton
        import afem.ppum as ppum
        import afem.vtk as vtk
        from afem.mesh import Mesh

        def newton_done(tr, result):
            tr.tally("newton.iterations", result[1].iterations)

        def jac_done(tr, result):
            tr.tally("assembly.jacobian_nnz", result.nnz)

        def marked(tr, result):
            tr.tally("indicators.marked", len(result))

        def refined(tr, result):
            tr.tally("mesh.bisections", len(result.bisections))
            tr.tally("mesh.closure_passes", result.passes)

        def hier_built(tr, result):
            tr.tally("multilevel.max_levels", result.n_levels)

        def ml_solved(tr, result):
            tr.tally("multilevel.iterations", result[1].iterations)

        def vtk_written(tr, result):
            tr.tally("vtk.bytes", os.path.getsize(result))

        def problem_built(tr, result):
            tr.instrument_problem(result)

        sites = [
            ("config.build_problem", [driver], "build_problem", problem_built),
            ("config.build_mesh", [driver], "build_mesh", None),
            ("newton.solve", [driver, ppum, newton], "newton_solve", newton_done),
            ("newton.direct_solve", [newton], "_direct_solve", None),
            ("assembly.residual", [newton], "assemble_residual", None),
            ("assembly.jacobian", [newton, assembly], "assemble_jacobian", jac_done),
            ("assembly.measure_error", [driver, assembly], "measure_error", None),
            ("assembly.apply_dirichlet", [driver, ppum, assembly], "apply_dirichlet", None),
            ("indicators.residual", [driver, ppum, indicators], "residual_indicator", None),
            ("indicators.dual_solve", [driver], "solve_dual", None),
            ("indicators.dual", [driver], "dual_indicator", None),
            ("indicators.mark", [driver, ppum, indicators], "mark", marked),
            ("multilevel.prolongation", [driver, ppum, indicators, multilevel],
             "prolongation_from_refinement", None),
            ("multilevel.build", [driver], "build_hierarchy", hier_built),
            ("multilevel.solve", [multilevel.MultilevelHierarchy], "solve", ml_solved),
            ("mesh.refine", [Mesh], "refine_marked", refined),
            ("vtk.export", [driver, vtk], "export_vtk", vtk_written),
            ("mesh_io.write", [driver], "write_mesh", None),
            ("ppum.decompose", [ppum], "decompose", None),
            ("ppum.taper_weights", [ppum], "taper_weights", None),
            ("ppum.partition_of_unity", [ppum], "partition_of_unity", None),
            ("ppum.blend_mesh", [ppum], "build_blend_mesh", None),
            ("ppum.blend", [ppum], "blend", None),
        ]
        for name, owners, attr, hook in sites:
            for owner in owners:
                self.patch(owner, attr, self.span(name, getattr(owner, attr), hook))
        self.patch(ppum, "local_solve",
                   self.span("ppum.local_solve", ppum.local_solve, cpu=True))
        self.patch(Mesh, "face_normal", self.leaf("mesh.face_normal", Mesh.face_normal))
        for owner in (assembly, indicators):
            self.patch(owner, "face_rule", self.leaf("elements.face_rule", owner.face_rule))

    # ------------------------------------------------------------ output

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for name, t0, t1, parent, thread, child, extra, idx in self.spans:
                f.write(json.dumps({"id": idx, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "thread": thread,
                                    "child_s": child, **(extra or {})}) + "\n")
            for name, calls in self.leaf_calls.items():
                total = sum(lt.get(name, 0.0) for lt in self.leaf_time.values())
                f.write(json.dumps({"leaf": name, "calls": _peek(calls),
                                    "total_s": total}) + "\n")

    def summary(self, t_start, t_end):
        """Per-layer metrics of one traced solve over [t_start, t_end]."""
        m = {}

        def total(name):
            return sum(r[2] - r[1] for r in self.spans if r[0] == name)

        def count(name):
            return sum(1 for r in self.spans if r[0] == name)

        def tally(name, how=sum):
            vals = self.tallies.get(name, [])
            return how(vals) if vals else 0

        def leaf_total(name):
            return sum(lt.get(name, 0.0) for lt in self.leaf_time.values())

        m["newton.solve_s"] = total("newton.solve")
        m["newton.iterations"] = tally("newton.iterations")
        m["newton.direct_solve_s"] = total("newton.direct_solve")
        m["assembly.residual_s"] = total("assembly.residual")
        m["assembly.residual_calls"] = count("assembly.residual")
        m["assembly.jacobian_s"] = total("assembly.jacobian")
        m["assembly.jacobian_calls"] = count("assembly.jacobian")
        m["assembly.jacobian_nnz"] = tally("assembly.jacobian_nnz", max)
        m["assembly.measure_error_s"] = total("assembly.measure_error")
        for cb in ("Ft", "DFt", "SFt"):
            m[f"problems.{cb}_calls"] = _peek(self.leaf_calls.get(f"problems.{cb}"))
        m["elements.face_rule_s"] = leaf_total("elements.face_rule")
        m["elements.face_rule_calls"] = _peek(self.leaf_calls.get("elements.face_rule"))
        m["mesh.refine_s"] = total("mesh.refine")
        m["mesh.bisections"] = tally("mesh.bisections")
        m["mesh.closure_passes"] = tally("mesh.closure_passes")
        m["mesh.face_normal_s"] = leaf_total("mesh.face_normal")
        m["mesh.face_normal_calls"] = _peek(self.leaf_calls.get("mesh.face_normal"))
        m["indicators.residual_s"] = total("indicators.residual")
        m["indicators.dual_solve_s"] = total("indicators.dual_solve")
        m["indicators.dual_s"] = total("indicators.dual")
        m["indicators.mark_s"] = total("indicators.mark")
        m["indicators.marked"] = tally("indicators.marked")
        m["multilevel.build_s"] = total("multilevel.build")
        m["multilevel.solve_s"] = total("multilevel.solve")
        m["multilevel.iterations"] = tally("multilevel.iterations")
        m["multilevel.max_levels"] = tally("multilevel.max_levels", max)
        m["multilevel.prolongation_s"] = total("multilevel.prolongation")
        local = [r for r in self.spans if r[0] == "ppum.local_solve"]
        m["ppum.decompose_s"] = total("ppum.decompose")
        m["ppum.local_phase_s"] = (max(r[2] for r in local) - min(r[1] for r in local)
                                   if local else 0.0)
        m["ppum.local_cpu_s"] = sum(r[6]["cpu_s"] for r in local)
        m["ppum.local_solve_max_s"] = max((r[2] - r[1] for r in local), default=0.0)
        m["ppum.blend_mesh_s"] = total("ppum.blend_mesh")
        m["ppum.blend_s"] = (total("ppum.blend") + total("ppum.partition_of_unity")
                             + total("ppum.taper_weights"))
        m["vtk.export_s"] = total("vtk.export")
        m["vtk.bytes"] = tally("vtk.bytes")
        m["mesh_io.write_s"] = total("mesh_io.write")

        layer_self = {}
        for name, t0, t1, parent, thread, child, extra, idx in self.spans:
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (t1 - t0) - child
        for lt in self.leaf_time.values():
            for name, secs in lt.items():
                layer = name.split(".")[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + secs
        for layer in LAYERS:
            m[f"self.{layer}_s"] = layer_self.get(layer, 0.0)

        top = sorted((r[1], r[2]) for r in self.spans if r[3] == -1)
        covered, reach = 0.0, t_start
        for a, b in top:
            a, b = max(a, reach), min(b, t_end)
            if b > a:
                covered += b - a
                reach = b
        m["trace.unattributed_s"] = (t_end - t_start) - covered
        m["trace.spans"] = len(self.spans)
        return m


LAYERS = ("config", "newton", "assembly", "elements", "mesh", "indicators",
          "multilevel", "ppum", "vtk", "mesh_io")


def _peek(counter) -> int:
    """Current value of an itertools.count (read without advancing it)."""
    if counter is None:
        return 0
    return int(repr(counter)[len("count("):-1])
