"""Built-in structured mesh generators.

All generators return finalized, conforming meshes with boundary faces flagged.
The boundary argument takes a class code (applied everywhere) or a callable
mapping a face centroid to a class code, so mixed problems can be set up
without touching face flags by hand.
"""

from __future__ import annotations

import math

import numpy as np

from .mesh import DIRICHLET, Mesh, MeshError


def unit_square(n: int = 1, boundary=DIRICHLET) -> Mesh:
    """Unit square as an n x n grid of cells, two right triangles per cell.

    Each cell is split along its main diagonal, which is the longest edge of
    both triangles, so a uniform marking bisects compatibly from the start.
    """
    return _grid2(n, n, lambda i, j: True, lambda i, j: (i / n, j / n), boundary)


def l_shape(n: int = 1, boundary=DIRICHLET) -> Mesh:
    """L-shaped domain (-1,1)^2 minus the quadrant x>0, y<0, 2n x 2n cells.

    The reentrant corner sits at the origin; n controls cells per unit length.
    """
    def keep(i, j):
        # cell (i,j) spans [x_i, x_{i+1}] x [y_j, y_{j+1}]; drop the fourth quadrant
        return not (i >= n and j <= n - 1)

    return _grid2(2 * n, 2 * n, keep, lambda i, j: (i / n - 1.0, j / n - 1.0), boundary)


def _grid2(nx, ny, keep, corner, boundary) -> Mesh:
    mesh = Mesh(2)
    vid = {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            vid[(i, j)] = mesh.add_vertex(corner(i, j))
    for j in range(ny):
        for i in range(nx):
            if not keep(i, j):
                continue
            v00, v10 = vid[(i, j)], vid[(i + 1, j)]
            v01, v11 = vid[(i, j + 1)], vid[(i + 1, j + 1)]
            mesh.add_simplex((v00, v10, v11))
            mesh.add_simplex((v00, v11, v01))
    _drop_isolated(mesh)
    return mesh.finalize(boundary=boundary)


def unit_cube(n: int = 1, boundary=DIRICHLET) -> Mesh:
    """Unit cube as an n^3 grid of cells, six tetrahedra per cell.

    Each cell is cut along its main diagonal into the six tetrahedra
    (c, c+e_p1, c+e_p1+e_p2, c+(1,1,1)) over permutations p of the axes; the
    diagonal is the strict longest edge of every tetrahedron, so all six share
    one refinement edge and uniform marking is compatible across cells.
    """
    return _grid3(n, lambda i, j, k: True, lambda i, j, k: (i / n, j / n, k / n), boundary)


def _grid3(n, keep, corner, boundary) -> Mesh:
    mesh = Mesh(3)
    vid = {}
    for k in range(n + 1):
        for j in range(n + 1):
            for i in range(n + 1):
                vid[(i, j, k)] = mesh.add_vertex(corner(i, j, k))
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for k in range(n):
        for j in range(n):
            for i in range(n):
                if not keep(i, j, k):
                    continue
                base = np.array([i, j, k])
                for p in perms:
                    path = [base.copy()]
                    for axis in p:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    mesh.add_simplex(tuple(vid[tuple(q)] for q in path))
    _drop_isolated(mesh)
    return mesh.finalize(boundary=boundary)


def annulus(n_r: int = 2, n_t: int = 8, r_inner: float = 0.5, r_outer: float = 1.0,
            boundary=DIRICHLET) -> Mesh:
    """Annulus centered at the origin, structured polar grid, two triangles per cell."""
    if not (0 < r_inner < r_outer):
        raise MeshError("annulus needs 0 < r_inner < r_outer")
    if n_t < 3:
        raise MeshError("annulus needs at least 3 sectors")
    mesh = Mesh(2)
    vid = {}
    for i in range(n_r + 1):
        r = r_inner + (r_outer - r_inner) * i / n_r
        for j in range(n_t):
            th = 2.0 * math.pi * j / n_t
            vid[(i, j)] = mesh.add_vertex((r * math.cos(th), r * math.sin(th)))
    for i in range(n_r):
        for j in range(n_t):
            jn = (j + 1) % n_t
            v00, v10 = vid[(i, j)], vid[(i + 1, j)]
            v01, v11 = vid[(i, jn)], vid[(i + 1, jn)]
            mesh.add_simplex((v00, v10, v11))
            mesh.add_simplex((v00, v11, v01))
    return mesh.finalize(boundary=boundary)


def sphere_in_box(n: int = 4, radius: float = 0.4, half_width: float = 1.0,
                  boundary=DIRICHLET) -> Mesh:
    """Cube (-w,w)^3 with the cells inside a centered sphere removed.

    The cavity boundary is the staircase of exposed cell faces, a desk-scale
    stand-in for a true spherical excision; the faces it exposes are flagged
    through the same boundary argument as the outer hull (pass a callable to
    distinguish them by centroid radius).
    """
    if not (0 < radius < half_width):
        raise MeshError("sphere_in_box needs 0 < radius < half_width")
    h = 2.0 * half_width / n

    def keep(i, j, k):
        center = np.array([(i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h]) - half_width
        return float(np.linalg.norm(center)) > radius

    if all(keep(i, j, k) for i in range(n) for j in range(n) for k in range(n)):
        raise MeshError("sphere_in_box: no cell lies inside the sphere; increase n or radius")
    return _grid3(n, keep,
                  lambda i, j, k: (i * h - half_width, j * h - half_width, k * h - half_width),
                  boundary)


def _drop_isolated(mesh: Mesh):
    # grid builders allocate the full vertex lattice; a cut-out domain leaves
    # vertices no simplex holds, which would become dofs that no basis
    # function's support covers
    used = np.unique(mesh.sverts)
    if len(used) == mesh.n_vertices:
        return
    mesh._coords = mesh._coords[used]
    mesh._vclass = mesh._vclass[used]
    mesh._vparents = mesh._vparents[used]
    mesh._nv = len(used)
    mesh.sverts[:] = np.searchsorted(used, mesh.sverts)
