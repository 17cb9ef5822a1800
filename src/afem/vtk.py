"""Legacy-format VTK export (ASCII unstructured grid).

Triangles are written as cell type 5, tetrahedra as type 10.  Solution
fields become one POINT_DATA scalar array per component; an indicator field
becomes the CELL_DATA array "eta" over live simplices in id order, the
order of its rows.

Each block (POINTS, CELLS, CELL_TYPES and every data column) is formatted in
one pass, as `mesh_io` writes its blocks: one format string repeated for
every row, filled from the `.tolist()` of the whole array.  Floats are
written with `{!r}`, the repr of a Python float, the shortest form that
reads back to the same double; 2D points get the z coordinate 0.0.
"""

from __future__ import annotations

import numpy as np

VTK_TRIANGLE = 5
VTK_TETRA = 10
TITLE = "afem output"


def _block(line: str, rows: np.ndarray) -> str:
    """line repeated once per row of rows, filled with the row's values."""
    return (line * len(rows)).format(*rows.ravel().tolist())


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

    out = [f"# vtk DataFile Version 3.0\n{TITLE}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
           f"POINTS {npts} double\n",
           _block(" ".join(["{!r}"] * d + ["0.0"] * (3 - d)) + "\n", mesh.coords),
           f"CELLS {len(live)} {len(live) * (d + 2)}\n",
           _block(" ".join([str(d + 1)] + ["{}"] * (d + 1)) + "\n", mesh.sverts[live]),
           f"CELL_TYPES {len(live)}\n", f"{ctype}\n" * len(live)]
    if arrays:
        out.append(f"POINT_DATA {npts}\n")
        for label, col in arrays:
            out += [f"SCALARS {label} double 1\nLOOKUP_TABLE default\n",
                    _block("{!r}\n", col)]
    if indicators is not None:
        out += [f"CELL_DATA {len(live)}\nSCALARS eta double 1\nLOOKUP_TABLE default\n",
                _block("{!r}\n", np.asarray(indicators.eta, dtype=float))]

    with open(path, "w") as f:
        f.write("".join(out))
    return path
