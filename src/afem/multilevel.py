"""Multilevel linear algebra: Galerkin-coarsened hierarchies and the V-cycle
that preconditions scipy's Krylov solvers.

Coarse operators come from triple products A_coarse = P^T A_fine P with the
prolongations refinement itself induces (identity rows for surviving vertices,
half/half rows for edge midpoints).  Across several generations of
bisection, the prolongation is the power of that one-step matrix at which
every row reaches coarse vertices only: one sparse product per generation of
the vertex genealogy `Mesh.vparents`, no loop over vertices.  The V-cycle
smooths with Gauss-Seidel, forward before coarsening and backward after, so
the preconditioner is symmetric whenever A is.  `solve` hands one V-cycle,
as a `LinearOperator`, to scipy's conjugate gradients for symmetric systems
and to its BiCGSTAB (van der Vorst, SISC 13, 1992) otherwise.

A hierarchy factors its coarsest operator and each level's two Gauss-Seidel
triangles once, so a V-cycle costs products and cached triangular solves
only; the driver builds one hierarchy per distinct Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class MultilevelError(Exception):
    """Hierarchy set-up or linear solve failure."""


@dataclass
class SolveReport:
    method: str
    iterations: int     # V-cycle applications
    converged: bool


MAX_ITERATIONS = 500            # V-cycles one solve may spend
SYMMETRY_TOLERANCE = 1e-12      # relative gap |A - A^T| under which CG is chosen

# a triangle's LU with neither pivoting nor reordering, so no fill; panel
# and supernode sizes of 1 keep the work memory each factor retains small
TRIANGLE_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1,
                   relax=1, options={"SymmetricMode": True})


def _entries(a: sp.csr_matrix, rows: np.ndarray, keep: np.ndarray) -> sp.csr_matrix:
    """The part of a made of the entries (at rows) that keep selects."""
    counts = np.bincount(rows[keep], minlength=a.shape[0])
    return sp.csr_matrix((a.data[keep], a.indices[keep],
                          np.concatenate(([0], np.cumsum(counts)))), shape=a.shape)


class MultilevelHierarchy:
    """Finest-first stack of operators with the prolongations between them."""

    def __init__(self, matrices, prolongations):
        self.matrices = matrices          # [A_0 (finest), ..., A_{L-1} (coarsest)]
        self.prolongations = prolongations  # P_k maps level k+1 -> level k
        self.restrictions = [p.T.tocsr() for p in prolongations]
        self._sweeps = [None] * len(matrices)
        try:
            self._coarse_factor = spla.splu(matrices[-1].tocsc(), permc_spec="NATURAL")
        except RuntimeError as e:
            raise MultilevelError(f"coarsest factorization failed: {e}") from e
        a = matrices[0]
        self._symmetric = bool(abs(a - a.T).max()
                               <= SYMMETRY_TOLERANCE * max(abs(a).max(), 1.0))

    @property
    def n_levels(self) -> int:
        return len(self.matrices)

    def sweep(self, k, x, b, direction):
        """One Gauss-Seidel sweep on level k, "forward" or "backward": a product
        with the strict opposite triangle, then a solve with the triangle's
        factor, built on the level's first sweep and kept with the hierarchy.
        Equal to the sequential update up to round-off."""
        if self._sweeps[k] is None:
            a = self.matrices[k]
            if np.any(a.diagonal() == 0.0):
                raise MultilevelError(f"zero diagonal on level {k}")
            rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
            self._sweeps[k] = {
                name: (spla.splu(_entries(a, rows, tri).tocsc(), **TRIANGLE_LU),
                       _entries(a, rows, ~tri))
                for name, tri in (("forward", a.indices <= rows),
                                  ("backward", a.indices >= rows))}
        factor, strict = self._sweeps[k][direction]
        return factor.solve(b - strict @ x)

    def v_cycle(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        """One V-cycle for A_level x = b from a zero initial guess."""
        if level == self.n_levels - 1:
            return self._coarse_factor.solve(b)
        a = self.matrices[level]
        x = self.sweep(level, np.zeros_like(b), b, "forward")
        coarse_b = self.restrictions[level] @ (b - a @ x)
        x = x + self.prolongations[level] @ self.v_cycle(coarse_b, level + 1)
        return self.sweep(level, x, b, "backward")

    def solve(self, b: np.ndarray, tol: float):
        """scipy's CG for a symmetric operator, BiCGSTAB otherwise, with one
        V-cycle as the preconditioner, until the true residual |b - A x| is at
        most tol |b|: where scipy stops short of that, the solve goes on from
        its x while fewer than MAX_ITERATIONS V-cycles are spent.  A BiCGSTAB
        iteration applies the V-cycle twice, so its last one may spend one
        V-cycle past the cap.  The report's iterations count V-cycles."""
        method, krylov, per_iteration = (("cg", spla.cg, 1) if self._symmetric
                                         else ("bicgstab", spla.bicgstab, 2))
        if not np.any(b):
            return np.zeros_like(b), SolveReport(method, 0, True)
        cycles = 0

        def precondition(r):
            nonlocal cycles
            cycles += 1
            return self.v_cycle(r)

        a, x, target = self.matrices[0], np.zeros_like(b), tol * np.linalg.norm(b)
        m = spla.LinearOperator(a.shape, matvec=precondition, dtype=a.dtype)
        while True:
            spent = cycles
            maxiter = -(-(MAX_ITERATIONS - cycles) // per_iteration)
            x, info = krylov(a, b, x0=x, rtol=tol, atol=0.0, maxiter=maxiter, M=m)
            res = np.linalg.norm(b - a @ x)
            if res <= target:
                return x, SolveReport(method, cycles, True)
            if not np.isfinite(res) or cycles == spent or cycles >= MAX_ITERATIONS:
                raise MultilevelError(f"{method} did not reach the relative residual {tol:.1e}: "
                                      f"|b - Ax| = {res:.3e} > tol |b| = {target:.3e} after "
                                      f"{cycles} V-cycles (scipy info {info})")


def galerkin_product(a: sp.csr_matrix, p: sp.csr_matrix) -> sp.csr_matrix:
    out = (p.T @ a @ p).tocsr()
    out.sort_indices()
    return out


def build_hierarchy(a_fine: sp.csr_matrix,
                    prolongations_coarse_to_fine) -> MultilevelHierarchy:
    """Stack Galerkin triple products under the fine operator.

    prolongations_coarse_to_fine lists P in mesh-construction order: element j
    maps level-j vertices (coarser) into level-(j+1) vertices.  An empty list
    builds a one-level hierarchy (direct/coarse solves only).
    """
    if a_fine.shape[0] == 0:
        raise MultilevelError("empty system")
    mats = [a_fine.tocsr()]
    prols = []
    for p in reversed(list(prolongations_coarse_to_fine)):
        mats.append(galerkin_product(mats[-1], p))
        prols.append(p.tocsr())
    return MultilevelHierarchy(mats, prols)


def prolongation_from_refinement(n_coarse_vertices: int, mesh,
                                 n_components: int = 1) -> sp.csr_matrix:
    """Linear interpolation operator from the first n_coarse_vertices onto all
    of mesh's vertices, expanded through the vertex-parent genealogy.

    The one-step matrix M keeps each coarse vertex (an identity row) and
    writes each newer vertex as 1/2 at both of its parents.  P = M^k for the
    first k at which no row reaches a vertex newer than the coarse level, one
    sparse product per genealogy generation.  The weights are dyadic, so
    every entry is exact whatever the summation order (up to 53 generations)
    and equals, bit for bit, the one a vertex-by-vertex recursion sums.
    """
    nv, ncv = mesh.n_vertices, n_coarse_vertices
    if ncv > nv:
        raise MultilevelError("coarse level has more vertices than the mesh")
    parents = mesh.vparents[ncv:]
    orphans = np.flatnonzero((parents < 0).any(axis=1))
    if len(orphans):
        raise MultilevelError(
            f"vertex {ncv + orphans[0]} has no parent edge; cannot prolongate")
    step = sp.csr_matrix(
        (np.concatenate([np.ones(ncv), np.full(2 * (nv - ncv), 0.5)]),
         np.concatenate([np.arange(ncv), parents.ravel()]),
         np.concatenate([np.arange(ncv), ncv + 2 * np.arange(nv - ncv + 1)])),
        shape=(nv, nv))
    p = step
    while np.any(p.indices >= ncv):
        p = step @ p
    p = sp.csr_matrix((p.data, p.indices, p.indptr), shape=(nv, ncv))
    if n_components > 1:
        p = sp.kron(p, sp.eye(n_components), format="csr")
    p.sort_indices()
    return p
