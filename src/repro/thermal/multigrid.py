"""Geometric multigrid V-cycle preconditioner for the thermal grids.

The thermal systems this repository solves — the steady conductance
matrix ``G`` and the backward-Euler matrix ``C/dt + G`` of a
:class:`~repro.thermal.grid.ThermalGrid` — are symmetric positive
definite five-point stencils on a structured cell-centred grid: the
textbook geometric-multigrid case.  A generic preconditioner (ILU,
Jacobi) treats them as arbitrary sparse matrices, so its iteration
count (and an ILU's setup cost) grows with the grid; a multigrid
preconditioner is *grid-aware* and keeps both essentially constant per
unknown, which is what makes full-die resolutions (256x256, 512x512,
unsteady) as cheap per cell as the small grids.

:class:`GeometricMultigrid` builds the standard hierarchy:

* **prolongation** is bilinear interpolation between cell centres,
  assembled once per level as a sparse Kronecker product of two 1-D
  interpolation matrices (the same arithmetic as
  :func:`repro.thermal.grid.bilinear_sample`, in matrix form),
* **restriction** is its transpose (full weighting up to scale),
* **coarse operators** are Galerkin products ``A_c = P^T A P`` — built
  from the fine matrix itself, so the same hierarchy serves ``G`` and
  every ``C/dt + G`` shift without re-discretising,
* **smoothing** is damped Jacobi (``omega = 0.8``), one sweep before
  and one after each coarse-grid correction, and
* the coarsest level (at or below :data:`COARSE_DIRECT_UNKNOWNS`
  unknowns) is solved exactly with a sparse-direct factorization.

Symmetry and positive definiteness
----------------------------------

Conjugate gradients requires an SPD preconditioner.  A V-cycle with a
symmetric smoother applied in equal pre-/post-counts, transpose-paired
transfer operators and Galerkin coarse operators is symmetric by
construction; it is positive definite whenever the smoother is
convergent in the ``A``-norm.  Damped Jacobi with ``omega < 1``
converges on these matrices because they are strictly diagonally
dominant (every cell carries a positive vertical conductance on top of
its lateral edges), which bounds the spectrum of ``D^{-1} A`` by 2.
``tests/test_thermal_multigrid.py`` property-checks both facts on
randomly sized grids.

Every operation in the cycle — Jacobi sweeps, residuals, restriction,
prolongation, the coarse direct solve — is a sparse-matrix product
against a dense ``(n, k)`` block, so one V-cycle preconditions a whole
stack of right-hand sides at once; this is what keeps the batched
block-CG path of :class:`repro.thermal.operator.ThermalOperator` at one
hierarchy traversal per iteration regardless of how many policies or
power maps ride in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import factorized

from ..tech.parameters import TechnologyError

__all__ = [
    "COARSE_DIRECT_UNKNOWNS",
    "GeometricMultigrid",
    "prolongation_1d",
    "prolongation_matrix",
]

#: Unknown count at (or below) which a level is solved sparse-direct
#: instead of coarsening further.  Small enough that the factorization
#: is trivial, large enough that the hierarchy stays shallow.
COARSE_DIRECT_UNKNOWNS = 1024

#: Damping factor of the Jacobi smoother.  For diagonally dominant
#: five-point stencils the spectrum of ``D^{-1} A`` lies in ``(0, 2)``,
#: so any ``omega < 1`` yields a convergent (hence SPD-preserving)
#: smoother; 0.8 is the classical choice that also damps the
#: oscillatory error modes the coarse grid cannot see.
JACOBI_DAMPING = 0.8


def prolongation_1d(fine: int, coarse: int) -> sparse.csr_matrix:
    """1-D linear cell-centre interpolation matrix (``fine x coarse``).

    Maps values at ``coarse`` cell centres onto ``fine`` cell centres of
    the same interval, clamping beyond the outermost coarse centres —
    the 1-D factor of the bilinear prolongation, with the same
    clamped-endpoint convention as
    :func:`repro.thermal.grid.bilinear_sample`.
    """
    if fine < 2 or coarse < 2:
        raise TechnologyError("prolongation needs at least two cells per level")
    if coarse > fine:
        raise TechnologyError("coarse level cannot be finer than the fine level")
    centres = (np.arange(fine) + 0.5) / fine          # fine centres in [0, 1]
    positions = centres * coarse - 0.5                # in coarse-cell units
    lower = np.clip(np.floor(positions), 0, coarse - 2).astype(int)
    weight = np.clip(positions - lower, 0.0, 1.0)
    rows = np.repeat(np.arange(fine), 2)
    cols = np.stack([lower, lower + 1], axis=1).ravel()
    data = np.stack([1.0 - weight, weight], axis=1).ravel()
    return sparse.coo_matrix((data, (rows, cols)), shape=(fine, coarse)).tocsr()


def prolongation_matrix(
    fine_shape: Tuple[int, int], coarse_shape: Tuple[int, int]
) -> sparse.csr_matrix:
    """Bilinear prolongation between two cell-centred grids.

    ``fine_shape`` / ``coarse_shape`` are ``(ny, nx)`` pairs; the
    returned matrix maps row-major flattened coarse fields to row-major
    flattened fine fields (the Kronecker product of the two 1-D
    factors, matching ``index = row * nx + column``).
    """
    fine_ny, fine_nx = fine_shape
    coarse_ny, coarse_nx = coarse_shape
    return sparse.kron(
        prolongation_1d(fine_ny, coarse_ny),
        prolongation_1d(fine_nx, coarse_nx),
        format="csr",
    )


def _coarsen_extent(cells: int) -> int:
    """Next-coarser 1-D extent (halved, floored at two cells)."""
    return max(2, (cells + 1) // 2)


@dataclass(frozen=True)
class _Level:
    """One level of the hierarchy: operator, smoother data, transfers."""

    matrix: sparse.csr_matrix
    #: ``omega / diag(A)`` as an ``(n, 1)`` column, ready to broadcast
    #: against an ``(n, k)`` residual block.
    damped_inverse_diagonal: np.ndarray
    #: Prolongation from the next-coarser level (None on the coarsest).
    prolongation: Optional[sparse.csr_matrix]


class GeometricMultigrid:
    """One V-cycle of geometric multigrid, packaged as a preconditioner.

    Parameters
    ----------
    matrix:
        The fine-level SPD system (``G`` or ``C/dt + G``); any scipy
        sparse format, converted to CSR.
    shape:
        The fine grid's ``(ny, nx)``; the row-major flattening of the
        matrix must match (``ny * nx`` unknowns).
    pre_smooth / post_smooth:
        Damped-Jacobi sweeps before/after the coarse-grid correction.
        Symmetry of the preconditioner requires ``pre == post`` (the
        constructor enforces it).
    """

    def __init__(
        self,
        matrix,
        shape: Tuple[int, int],
        pre_smooth: int = 1,
        post_smooth: int = 1,
    ) -> None:
        ny, nx = int(shape[0]), int(shape[1])
        matrix = sparse.csr_matrix(matrix)
        if matrix.shape != (ny * nx, ny * nx):
            raise TechnologyError(
                f"matrix of shape {matrix.shape} does not match the "
                f"{ny}x{nx} grid ({ny * nx} unknowns)"
            )
        if pre_smooth != post_smooth or pre_smooth < 1:
            raise TechnologyError(
                "pre- and post-smoothing counts must be equal and >= 1 "
                "(the V-cycle is only a symmetric preconditioner then)"
            )
        self.shape = (ny, nx)
        self.smooth_sweeps = int(pre_smooth)
        self._levels: List[_Level] = []

        level_shape = (ny, nx)
        level_matrix = matrix
        while (
            level_shape[0] * level_shape[1] > COARSE_DIRECT_UNKNOWNS
            and min(level_shape) > 2
        ):
            coarse_shape = (
                _coarsen_extent(level_shape[0]),
                _coarsen_extent(level_shape[1]),
            )
            prolong = prolongation_matrix(level_shape, coarse_shape)
            self._levels.append(
                _Level(
                    matrix=level_matrix,
                    damped_inverse_diagonal=(
                        JACOBI_DAMPING / level_matrix.diagonal()
                    )[:, np.newaxis],
                    prolongation=prolong,
                )
            )
            # Galerkin coarse operator: SPD by construction, and valid
            # for any SPD fine matrix (so the same code serves every
            # backward-Euler shift without re-discretising the grid).
            level_matrix = (prolong.T @ level_matrix @ prolong).tocsr()
            level_shape = coarse_shape
        self._levels.append(
            _Level(
                matrix=level_matrix,
                damped_inverse_diagonal=(
                    JACOBI_DAMPING / level_matrix.diagonal()
                )[:, np.newaxis],
                prolongation=None,
            )
        )
        self._coarse_solve = factorized(level_matrix.tocsc())

    @property
    def level_count(self) -> int:
        return len(self._levels)

    @property
    def coarse_unknowns(self) -> int:
        return int(self._levels[-1].matrix.shape[0])

    def _smooth(
        self, level: _Level, solution: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """``sweeps`` damped-Jacobi iterations on one level (batched).

        Updates ``solution`` in place; the only allocation per sweep is
        the sparse product's output, which is immediately reused as the
        residual buffer (a V-cycle application sits on the hot path of
        every block-CG iteration, so temporary ``(n, k)`` arrays are
        worth avoiding).
        """
        for _ in range(self.smooth_sweeps):
            self._smooth_once(level, solution, rhs)
        return solution

    def _cycle(self, depth: int, rhs: np.ndarray) -> np.ndarray:
        """One V-cycle at ``depth`` with a zero initial guess."""
        level = self._levels[depth]
        if level.prolongation is None:
            return self._coarse_solve(rhs)
        # Pre-smooth: the first sweep from a zero guess collapses to a
        # diagonal scaling of the RHS, then the general form.
        solution = level.damped_inverse_diagonal * rhs
        for _ in range(self.smooth_sweeps - 1):
            self._smooth_once(level, solution, rhs)
        residual = level.matrix @ solution
        np.subtract(rhs, residual, out=residual)
        correction = self._cycle(depth + 1, level.prolongation.T @ residual)
        solution += level.prolongation @ correction
        return self._smooth(level, solution, rhs)

    def _smooth_once(
        self, level: _Level, solution: np.ndarray, rhs: np.ndarray
    ) -> None:
        update = level.matrix @ solution
        np.subtract(rhs, update, out=update)
        update *= level.damped_inverse_diagonal
        solution += update

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        """Apply one V-cycle to an ``(n,)`` vector or ``(n, k)`` stack.

        The application is a fixed linear operation (no convergence
        test, no data-dependent branching), which is what CG's theory
        requires of a preconditioner.
        """
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        block = rhs[:, np.newaxis] if single else rhs
        result = self._cycle(0, block)
        return result[:, 0] if single else result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extents = " -> ".join(
            f"{lvl.matrix.shape[0]}" for lvl in self._levels
        )
        return f"GeometricMultigrid({self.shape[0]}x{self.shape[1]}: {extents})"
