"""Legacy-format VTK export (ASCII unstructured grid).

Triangles are written as cell type 5, tetrahedra as type 10.  Solution
fields become one POINT_DATA scalar array per component; an indicator field
becomes the CELL_DATA array "eta" over live simplices in id order, the
order of its rows.
"""

from __future__ import annotations

import numpy as np

VTK_TRIANGLE = 5
VTK_TETRA = 10
TITLE = "afem output"


def _g(v: float) -> str:
    return repr(float(v))


def export_vtk(mesh, fields=None, indicators=None, path=None):
    """Write mesh geometry plus optional point/cell data to a .vtk text file.

    fields: dict of name -> SolutionField, (nv,) array, or (nv, nc) array.
    indicators: IndicatorField over the mesh's live simplices.
    """
    if path is None:
        raise ValueError("export_vtk needs an output path")
    live = mesh.live_simplices()
    if indicators is not None and not np.array_equal(indicators.ids, live):
        raise ValueError("indicator field does not cover the mesh's live simplices")
    npts = mesh.n_vertices
    d = mesh.dim
    ctype = VTK_TRIANGLE if d == 2 else VTK_TETRA

    lines = ["# vtk DataFile Version 3.0", TITLE, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {npts} double"]
    for v in range(npts):
        x = mesh.coords[v]
        xs = [_g(x[i]) for i in range(d)] + ["0.0"] * (3 - d)
        lines.append(" ".join(xs))
    lines.append(f"CELLS {len(live)} {len(live) * (d + 2)}")
    for s in live:
        lines.append(" ".join([str(d + 1)] + [str(int(v)) for v in mesh.sverts[s]]))
    lines.append(f"CELL_TYPES {len(live)}")
    lines.extend([str(ctype)] * len(live))

    arrays = []
    for name, fld in (fields or {}).items():
        vals = np.asarray(getattr(fld, "values", fld), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != npts:
            raise ValueError(f"field {name!r} has {vals.shape[0]} rows for "
                             f"{npts} vertices")
        for c in range(vals.shape[1]):
            label = name if vals.shape[1] == 1 else f"{name}_{c}"
            arrays.append((label, vals[:, c]))
    if arrays:
        lines.append(f"POINT_DATA {npts}")
        for label, col in arrays:
            lines.append(f"SCALARS {label} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(_g(v) for v in col)

    if indicators is not None:
        lines.append(f"CELL_DATA {len(live)}")
        lines.append("SCALARS eta double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_g(v) for v in indicators.eta)

    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path
