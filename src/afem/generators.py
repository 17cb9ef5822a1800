"""Built-in structured mesh generators.

All generators return finalized, conforming meshes with boundary faces flagged.
The boundary argument takes a class code (applied everywhere) or a callable
mapping a face centroid to a class code, so mixed problems can be set up
without touching face flags by hand.  Each hands numpy-built vertex and
simplex arrays to `Mesh.from_arrays`.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .mesh import DIRICHLET, Mesh, MeshError

# corner offsets of the simplices of one lattice cell cut along its main
# diagonal: two triangles, or the six tetrahedra (c, c+e_p1, c+e_p1+e_p2,
# c+(1,1,1)) over the permutations p of the axes
_CELL = {2: np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]]),
         3: np.array([np.cumsum(np.vstack([np.zeros(3, int), np.eye(3, dtype=int)[list(p)]]),
                                axis=0) for p in permutations(range(3))])}


def unit_square(n: int = 1, boundary=DIRICHLET) -> Mesh:
    """Unit square as an n x n grid of cells, two right triangles per cell.

    Each cell is split along its main diagonal, which is the longest edge of
    both triangles, so a uniform marking bisects compatibly from the start.
    """
    ticks = np.arange(n + 1) / n
    return _grid([ticks, ticks], np.ones((n, n), bool), boundary)


def l_shape(n: int = 1, boundary=DIRICHLET) -> Mesh:
    """L-shaped domain (-1,1)^2 minus the quadrant x>0, y<0, 2n x 2n cells.

    The reentrant corner sits at the origin; n controls cells per unit length.
    """
    ticks = np.arange(2 * n + 1) / n - 1.0
    i, j = np.indices((2 * n, 2 * n))
    # cell (i,j) spans [x_i, x_{i+1}] x [y_j, y_{j+1}]; drop the fourth quadrant
    return _grid([ticks, ticks], ~((i >= n) & (j < n)), boundary)


def unit_cube(n: int = 1, boundary=DIRICHLET) -> Mesh:
    """Unit cube as an n^3 grid of cells, six tetrahedra per cell.

    Each cell is cut along its main diagonal into the six tetrahedra
    (c, c+e_p1, c+e_p1+e_p2, c+(1,1,1)) over permutations p of the axes; the
    diagonal is the strict longest edge of every tetrahedron, so all six share
    one refinement edge and uniform marking is compatible across cells.
    """
    ticks = np.arange(n + 1) / n
    return _grid([ticks] * 3, np.ones((n, n, n), bool), boundary)


def _grid(ticks, keep, boundary) -> Mesh:
    """The cells of the lattice over the tick coordinates of each axis with
    keep[i, j(, k)] set, cut by `_CELL`.  Vertices are numbered with i
    fastest, cells taken in the same order; lattice vertices no kept cell
    holds are dropped, as they would become dofs no basis function covers."""
    d = len(ticks)
    coords = np.stack(np.meshgrid(*ticks[::-1], indexing="ij")[::-1], axis=-1).reshape(-1, d)
    strides = np.cumprod([1] + [len(t) for t in ticks[:-1]])
    cells = np.argwhere(keep.transpose())[:, ::-1]
    used, sverts = np.unique(_cell_simplices(cells, lambda c: c @ strides),
                             return_inverse=True)
    return Mesh.from_arrays(coords[used], sverts.reshape(-1, d + 1), boundary=boundary)


def _cell_simplices(cells: np.ndarray, vid) -> np.ndarray:
    """Vertex ids of the simplices of each cell (rows of lower-corner lattice
    indices), cell by cell, with vid mapping lattice indices (..., d) to ids."""
    d = cells.shape[1]
    return vid(cells[:, None, None, :] + _CELL[d]).reshape(-1, d + 1)


def annulus(n_r: int = 2, n_t: int = 8, r_inner: float = 0.5, r_outer: float = 1.0,
            boundary=DIRICHLET) -> Mesh:
    """Annulus centered at the origin, structured polar grid, two triangles per cell."""
    if not (0 < r_inner < r_outer):
        raise MeshError("annulus needs 0 < r_inner < r_outer")
    if n_t < 3:
        raise MeshError("annulus needs at least 3 sectors")
    r = (r_inner + (r_outer - r_inner) * np.arange(n_r + 1) / n_r)[:, None]
    th = 2.0 * np.pi * np.arange(n_t) / n_t
    coords = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1).reshape(-1, 2)
    # vertex (i, j) is ring i, sector j; the sectors wrap around
    cells = np.argwhere(np.ones((n_r, n_t), bool))
    sverts = _cell_simplices(cells, lambda c: c[..., 0] * n_t + c[..., 1] % n_t)
    return Mesh.from_arrays(coords, sverts, boundary=boundary)


def sphere_in_box(n: int = 3, radius: float = 0.4, half_width: float = 1.0,
                  boundary=DIRICHLET) -> Mesh:
    """Cube (-w,w)^3 with the cells whose centres lie inside a centered sphere removed.

    The cavity boundary is the staircase of exposed cell faces, a desk-scale
    stand-in for a true spherical excision; the faces it exposes are flagged
    through the same boundary argument as the outer hull (pass a callable to
    distinguish them by centroid radius).  An odd n always removes the centre
    cell; an even n puts no cell centre nearer the origin than sqrt(3) w / n.
    """
    if not (0 < radius < half_width):
        raise MeshError("sphere_in_box needs 0 < radius < half_width")
    h = 2.0 * half_width / n
    centres = (np.arange(n) + 0.5) * h - half_width
    dist = np.linalg.norm(np.stack(np.meshgrid(*[centres] * 3, indexing="ij"), axis=-1), axis=-1)
    if (dist > radius).all():
        raise MeshError(f"sphere_in_box: no cell centre lies inside the sphere of radius "
                        f"{radius}; with n = {n} the nearest is {dist.min():.4g} from the "
                        "origin (an odd n always removes the centre cell)")
    ticks = np.arange(n + 1) * h - half_width
    return _grid([ticks] * 3, dist > radius, boundary)
