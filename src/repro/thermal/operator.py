"""Cached thermal solves: one factorization (or preconditioner), many uses.

Before this module the repository factorized the thermal system in three
independent places — the steady-state solver called
:func:`scipy.sparse.linalg.spsolve` (an implicit factorization) on every
call, and :func:`repro.thermal.solver.solve_transient` and the DTM
manager's closed loop each built their own ``factorized(C/dt + G)``
backward-Euler system per run.  Every repeated workload (a
thermal-mapping scan per control step, the self-heating duty-cycle
sweep, the managed-versus-unmanaged DTM pair) therefore paid the
symbolic + numeric factorization again for a matrix that had not
changed.

:class:`ThermalOperator` owns those solves instead:

* the steady-state solve of the conductance matrix ``G`` is prepared
  once per grid and serves any number of right-hand sides, including an
  ``(n, k)`` *stack* of power maps in one multi-RHS solve (``G \\ P``),
* the backward-Euler system ``(C/dt + G)`` is prepared once per
  (grid, timestep) pair and handed out as a :class:`ThermalStepper`,
  so every transient integration with the same step reuses it, and
* operators are cached process-wide (LRU, bounded), keyed by the grid's
  *defining* geometry and physical parameters (two :class:`ThermalGrid`
  instances built from the same floorplan resolution produce identical
  matrices, so they share one operator) — which is what lets the
  managed and unmanaged DTM runs, every thermal-map scan of a monitor,
  and every candidate of a placement search share a single prepared
  solve.

Solvers
-------

Each operator picks its solver from its own grid size, once, at
construction (:attr:`ThermalOperator.method` reports the choice):

=============  ========================================================
``direct``     At or below :attr:`~ThermalOperator.iterative_threshold`
               unknowns: a sparse-direct factorization (``factorized``),
               exact and the fastest at these sizes.
``multigrid``  Above it: geometric-multigrid-preconditioned CG
               (:class:`repro.thermal.multigrid.GeometricMultigrid`).
               Memory stays linear where a factorization's fill-in
               would not fit, and one V-cycle per iteration keeps the
               iteration count essentially constant in the grid size
               (~13 on the grids here).
=============  ========================================================

The multigrid path runs a **batched block-CG** core: an ``(n, k)``
stack of right-hand sides advances through *one* sparse matrix-vector
product (and one V-cycle) per iteration for the whole block, with
per-column convergence masking and per-shape warm starts — so
``ThermalStepper.step``, ``steady_rise`` and the policy bank stay one
solve per step at any grid size instead of degrading into ``k``
sequential CG runs.

The :attr:`ThermalOperator.iterative_threshold` class attribute is the
one override of the size rule.

The transient solver in :mod:`repro.thermal.solver`, the self-heating
study and the DTM manager are all thin layers over this class;
``factorized`` is called nowhere else in the repository (the multigrid
coarse solve excepted).

Concurrency and fork semantics
------------------------------

The process-wide cache is guarded by a :class:`threading.Lock` (and each
operator's lazy factorizations by a per-instance lock), so threaded
callers — a sweep executor streaming tiles, a benchmark harness timing
in a worker thread — cannot corrupt the ``OrderedDict`` mid-evict or
factorize the same matrix twice and drop one copy.

The cache is deliberately **per process**.  Worker processes of a tiled
sweep (:mod:`repro.engine.executors`) each get their own cache — cold
under ``spawn``, a frozen copy-on-write snapshot under ``fork`` — and
warm it from the tiles they execute.  Factorization objects (SuperLU
handles, multigrid hierarchies) hold
foreign-memory state that does not pickle; do **not** ship operators or
steppers across process boundaries — ship the grid (cheap, declarative)
and call :meth:`ThermalOperator.for_grid` on the worker side instead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import factorized

from ..tech.parameters import TechnologyError
from .grid import TemperatureMap, ThermalGrid
from .multigrid import GeometricMultigrid
from .power import PowerMap

__all__ = ["ThermalOperator", "ThermalStepper"]

#: Process-wide operator cache.  Bounded so a long-running sweep over
#: many distinct grid geometries cannot grow it without limit; eviction
#: is least-recently-*used* (``for_grid`` hits refresh an entry), so an
#: interleaved workload over a few grids — a placement search, a
#: resolution sweep — keeps its hottest operators however they
#: alternate.
_CACHE_LIMIT = 8
#: Backward-Euler solves kept per operator; a what-if sweep over many
#: control intervals on one grid evicts the least-recently-used
#: timestep's factorization (or preconditioner) instead of accumulating
#: one per interval forever.
_TIMESTEP_CACHE_LIMIT = 4
#: Warm-start states kept per iterative solve, keyed by RHS shape (a
#: steady scan and a 16-column policy-bank step on the same operator
#: each keep their own previous solution).
_WARM_START_LIMIT = 4
_OPERATORS: "OrderedDict[Tuple, ThermalOperator]" = OrderedDict()
#: Guards every lookup/insert/evict on :data:`_OPERATORS`.  Plain dict
#: reads are atomic in CPython, but the insert-then-evict sequence in
#: :meth:`ThermalOperator.for_grid` is not — two threads caching
#: distinct grids could interleave ``popitem`` with ``__setitem__`` and
#: evict a just-inserted operator (or blow past the limit).
_CACHE_LOCK = threading.Lock()

#: Relative residual tolerance of the CG solves.  Tight enough that
#: the multigrid path agrees with the sparse-direct factorization to
#: better than 1e-8 relative on the thermal systems here (the
#: equivalence bound the tests and benchmarks pin).
_CG_RTOL = 1e-12


class _IterativeSolve:
    """Batched multigrid-preconditioned CG drop-in for a ``factorized``
    callable.

    Built once per system matrix (like a factorization, minus the
    fill-in): the geometric-multigrid hierarchy is computed at
    construction and every :meth:`__call__` runs warm-started CG.
    Accepts the same ``(n,)`` vector or ``(n, k)`` stack a direct
    factorization does.

    A stack solves as a true **block**: every CG iteration performs one
    sparse matrix-vector product and one V-cycle on the whole ``(n, k)``
    array, with scalar recurrences (``alpha``, ``beta``) tracked per
    column.  Columns that reach the tolerance are masked out of the
    updates (their ``alpha`` is zeroed, freezing both solution and
    residual) while the rest keep iterating, so a stack is never slower
    than its hardest column.

    Warm starts are keyed by the RHS shape: the previous ``(n,)``
    steady solution never pollutes the initial guess of an ``(n, 16)``
    policy-bank step (or vice versa), which is exactly the
    cross-caller pollution the old shared ``_last_solution`` suffered.
    """

    def __init__(self, matrix, grid_shape: Tuple[int, int]) -> None:
        self._matrix = matrix.tocsr()
        self._size = int(self._matrix.shape[0])
        self._preconditioner: Callable[[np.ndarray], np.ndarray] = GeometricMultigrid(
            self._matrix, grid_shape
        )
        # Jacobi fallback: the diagonal is strictly positive (every cell
        # carries a vertical conductance) and the operator is exactly
        # symmetric, so CG is guaranteed to converge with it should the
        # V-cycle ever stall.
        self._inverse_diagonal = 1.0 / self._matrix.diagonal()
        self._warm_starts: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        #: CG iterations of the most recent solve (diagnostics/tests).
        self.last_iterations = 0

    def _jacobi(self, residual: np.ndarray) -> np.ndarray:
        return self._inverse_diagonal[:, np.newaxis] * residual

    def _block_cg(
        self,
        rhs: np.ndarray,
        x0: np.ndarray,
        apply_preconditioner: Callable[[np.ndarray], np.ndarray],
        maxiter: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Preconditioned CG on an ``(n, k)`` block, columns masked
        independently.

        Returns ``(solution, converged)`` where ``converged`` is a
        ``(k,)`` boolean mask; the per-column criterion is
        ``||r_j|| <= rtol * ||b_j||`` (matching scipy's ``cg`` with
        ``atol=0``).  ``maxiter`` caps the iteration count (the
        benchmarks raise it to run the Jacobi baseline to convergence on
        the full-die grid); the default runs to the system size, bounded
        at 1000.
        """
        matrix = self._matrix
        # Convergence is tested on squared norms (one einsum per
        # iteration instead of a norm reduction and a sqrt).
        tolerance_sq = _CG_RTOL**2 * np.einsum("ij,ij->j", rhs, rhs)
        solution = x0.copy()
        residual = rhs - matrix @ solution
        # Zero right-hand sides have the exact solution zero; count them
        # converged immediately (norm(r) == 0 <= 0) like scipy does.
        active = np.einsum("ij,ij->j", residual, residual) > tolerance_sq
        if not active.any():
            self.last_iterations = 0
            return solution, ~active
        preconditioned = apply_preconditioner(residual)
        direction = preconditioned.copy()
        rho = np.einsum("ij,ij->j", residual, preconditioned)
        iterations = 0
        limit = maxiter if maxiter is not None else min(self._size, 1000)
        for iterations in range(1, limit + 1):
            conjugated = matrix @ direction
            curvature = np.einsum("ij,ij->j", direction, conjugated)
            # Frozen (converged) columns get alpha = 0: their solution,
            # residual and search direction stop changing, at the cost
            # of a dead column riding along in the block products —
            # far cheaper than re-packing the block every iteration.
            step = np.where(
                active & (curvature > 0.0),
                rho / np.where(curvature > 0.0, curvature, 1.0),
                0.0,
            )
            solution += step * direction
            residual -= step * conjugated
            active = np.einsum("ij,ij->j", residual, residual) > tolerance_sq
            if not active.any():
                break
            preconditioned = apply_preconditioner(residual)
            rho_next = np.einsum("ij,ij->j", residual, preconditioned)
            beta = np.where(active, rho_next / np.where(rho != 0.0, rho, 1.0), 0.0)
            direction = preconditioned + beta * direction
            rho = rho_next
        self.last_iterations = iterations
        return solution, ~active

    def _solve_block(self, rhs: np.ndarray, key: Tuple) -> np.ndarray:
        warm = self._warm_starts.get(key)
        if warm is not None and warm.shape == rhs.shape:
            x0 = warm
            self._warm_starts.move_to_end(key)
        else:
            x0 = np.zeros_like(rhs)
        solution, converged = self._block_cg(rhs, x0, self._preconditioner)
        if not converged.all():
            # Retry with the guaranteed-SPD Jacobi preconditioner before
            # giving up.
            solution, converged = self._block_cg(rhs, x0, self._jacobi)
            if not converged.all():
                failed = int(np.count_nonzero(~converged))
                raise TechnologyError(
                    f"iterative thermal solve did not converge on {failed} of "
                    f"{rhs.shape[1]} right-hand sides of the "
                    f"{self._size}-unknown system"
                )
        self._warm_starts[key] = solution.copy()
        while len(self._warm_starts) > _WARM_START_LIMIT:
            self._warm_starts.popitem(last=False)
        return solution

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self._solve_block(rhs[:, np.newaxis], ("vec",))[:, 0]
        return self._solve_block(rhs, ("stack", rhs.shape[1]))


class ThermalStepper:
    """One backward-Euler integrator bound to a prepared system solve.

    Produced by :meth:`ThermalOperator.stepper`; advances the
    temperature *rise* vector by one timestep per :meth:`step` call.
    The implicit system ``(C/dt + G) x_{n+1} = P + C/dt x_n`` was
    prepared once when the stepper was created (factorized sparse-direct
    or multigrid CG, per the operator's grid size), so each step is a
    pair of triangular solves or a warm-started Krylov solve — and an
    ``(n, k)`` stack of states advances in one multi-RHS/block solve
    either way.
    """

    def __init__(
        self,
        grid: ThermalGrid,
        timestep_s: float,
        solve: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        self.grid = grid
        self.timestep_s = float(timestep_s)
        self._solve = solve
        self._capacitance_over_dt = grid.capacitance_vector / self.timestep_s

    def step(self, rise: np.ndarray, power_w: np.ndarray) -> np.ndarray:
        """Advance the flattened temperature-rise state one timestep.

        Parameters
        ----------
        rise:
            Current temperature rise above ambient, flattened to
            ``(nx * ny,)`` — or an ``(nx * ny, k)`` *stack* of states
            (one column per banked policy/workload), advanced through
            one multi-RHS solve.
        power_w:
            Power injected during the step, flattened to the same shape
            (columns broadcast against the capacitance vector).
        """
        rise = np.asarray(rise, dtype=float)
        power = np.asarray(power_w, dtype=float)
        if rise.ndim == 2:
            rhs = power + self._capacitance_over_dt[:, np.newaxis] * rise
        else:
            rhs = power + self._capacitance_over_dt * rise
        return self._solve(rhs)


class ThermalOperator:
    """Cached solver (direct factorizations or CG) for one thermal grid.

    The grid size picks the solver: sparse-direct factorization up to
    :attr:`iterative_threshold` unknowns, multigrid-preconditioned CG
    above it (see the module docstring).
    """

    #: Unknown count above which solves route through
    #: multigrid-preconditioned CG instead of sparse-direct
    #: factorization.  A class attribute so deployments with more (or
    #: less) memory can retune it (``ThermalOperator.iterative_threshold
    #: = ...``).
    iterative_threshold: int = 4096

    def __init__(self, grid: ThermalGrid) -> None:
        self.grid = grid
        self._method = self._method_for(grid)
        self._steady_solve: Optional[Callable[[np.ndarray], np.ndarray]] = None
        self._transient_solves: "OrderedDict[float, Callable[[np.ndarray], np.ndarray]]" = (
            OrderedDict()
        )
        # Guards the lazy factorization caches above: two threads asking
        # a shared operator for the same solve must not factorize twice
        # (wasted work) or interleave the stepper cache's insert/evict.
        self._solve_lock = threading.Lock()

    @property
    def method(self) -> str:
        """The solver the grid size picked: ``direct`` or ``multigrid``."""
        return self._method

    @classmethod
    def _method_for(cls, grid: ThermalGrid) -> str:
        if grid.nx * grid.ny > cls.iterative_threshold:
            return "multigrid"
        return "direct"

    def _prepare(self, matrix) -> Callable[[np.ndarray], np.ndarray]:
        """A solve callable for one SPD system, per the grid's solver."""
        if self._method == "multigrid":
            return _IterativeSolve(matrix, (self.grid.ny, self.grid.nx))
        return factorized(matrix.tocsc())

    # ------------------------------------------------------------------ #
    # the process-wide cache
    # ------------------------------------------------------------------ #

    @classmethod
    def _cache_key(cls, grid: ThermalGrid) -> Tuple:
        """The matrix-defining fingerprint of a grid (plus its solver).

        Two grids with equal geometry and physical parameters build
        bit-identical conductance/capacitance matrices, so they may
        share one operator (and therefore one factorization).  The
        chosen solver joins the key so an operator cached under a
        retuned :attr:`iterative_threshold` is not handed back once the
        threshold changes.
        """
        return (
            grid.width_mm,
            grid.height_mm,
            grid.nx,
            grid.ny,
            grid.parameters,
            cls._method_for(grid),
        )

    @classmethod
    def for_grid(cls, grid: ThermalGrid) -> "ThermalOperator":
        """The shared operator of a grid (cached process-wide, thread-safe).

        Cache hits refresh the entry's recency (LRU), so a workload
        alternating among a few grids — a placement search, a
        resolution sweep — keeps all of them live instead of evicting
        its hottest operator in insertion order.

        The cache is per process: a forked/spawned sweep worker warms
        its own (see the module docstring) — never pickle an operator
        across a process boundary, re-request it from the grid instead.
        """
        key = cls._cache_key(grid)
        with _CACHE_LOCK:
            operator = _OPERATORS.get(key)
            if operator is None:
                operator = cls(grid)
                _OPERATORS[key] = operator
                while len(_OPERATORS) > _CACHE_LIMIT:
                    _OPERATORS.popitem(last=False)
            else:
                _OPERATORS.move_to_end(key)
        return operator

    @classmethod
    def clear_cache(cls) -> None:
        """Drop every cached operator (test isolation / memory pressure)."""
        with _CACHE_LOCK:
            _OPERATORS.clear()

    @classmethod
    def cache_size(cls) -> int:
        with _CACHE_LOCK:
            return len(_OPERATORS)

    # ------------------------------------------------------------------ #
    # steady state
    # ------------------------------------------------------------------ #

    def steady_solve(self) -> Callable[[np.ndarray], np.ndarray]:
        """The prepared steady-state solve ``x = G \\ rhs`` (cached)."""
        with self._solve_lock:
            if self._steady_solve is None:
                self._steady_solve = self._prepare(self.grid.conductance_matrix)
            return self._steady_solve

    def steady_rise(self, power_w: np.ndarray) -> np.ndarray:
        """Temperature rise for one or many flattened power vectors.

        ``power_w`` may be a single ``(n,)`` vector or an ``(n, k)``
        stack of right-hand sides; the direct path applies the
        factorization to the whole stack in one multi-RHS solve, the
        multigrid path runs one *block* CG (one SpMV per iteration for
        the whole stack).
        """
        rhs = np.asarray(power_w, dtype=float)
        size = self.grid.nx * self.grid.ny
        if rhs.shape[0] != size:
            raise TechnologyError(
                f"right-hand side has {rhs.shape[0]} rows, expected {size} "
                f"for the {self.grid.ny}x{self.grid.nx} grid"
            )
        return self.steady_solve()(rhs)

    def solve_steady_state(
        self, power: PowerMap, ambient_c: float = 45.0
    ) -> TemperatureMap:
        """Steady-state temperature map of one power map (``G \\ P``)."""
        self.grid.check_power_map(power)
        rise = self.steady_rise(power.values_w.reshape(-1))
        values = rise.reshape((self.grid.ny, self.grid.nx)) + ambient_c
        return TemperatureMap(self.grid.width_mm, self.grid.height_mm, values)

    def solve_steady_state_multi(
        self, powers: Sequence[PowerMap], ambient_c: float = 45.0
    ) -> List[TemperatureMap]:
        """Steady-state maps of several power maps in one multi-RHS solve.

        All power maps must match the grid; the stacked ``(n, k)``
        right-hand side goes through the prepared solve once, replacing
        ``k`` independent ``spsolve`` calls (each of which used to
        re-factorize the same matrix).
        """
        maps = list(powers)
        if not maps:
            raise TechnologyError("solve_steady_state_multi needs at least one power map")
        for power in maps:
            self.grid.check_power_map(power)
        stack = np.stack([power.values_w.reshape(-1) for power in maps], axis=1)
        rises = self.steady_rise(stack)
        return [
            TemperatureMap(
                self.grid.width_mm,
                self.grid.height_mm,
                rises[:, k].reshape((self.grid.ny, self.grid.nx)) + ambient_c,
            )
            for k in range(len(maps))
        ]

    # ------------------------------------------------------------------ #
    # transient stepping
    # ------------------------------------------------------------------ #

    def stepper(self, timestep_s: float) -> ThermalStepper:
        """A backward-Euler stepper for this grid at a timestep (cached).

        The ``(C/dt + G)`` solve is keyed by the timestep, so every
        transient run with the same step — every control interval of a
        DTM simulation, every repeat of a study — shares it.
        """
        dt = float(timestep_s)
        if not 0.0 < dt < np.inf:
            raise TechnologyError(f"timestep must be positive and finite, got {dt!r}")
        with self._solve_lock:
            solve = self._transient_solves.get(dt)
            if solve is None:
                system = (
                    diags(self.grid.capacitance_vector / dt)
                    + self.grid.conductance_matrix
                )
                solve = self._prepare(system)
                self._transient_solves[dt] = solve
                while len(self._transient_solves) > _TIMESTEP_CACHE_LIMIT:
                    self._transient_solves.popitem(last=False)
            else:
                self._transient_solves.move_to_end(dt)
        return ThermalStepper(self.grid, dt, solve)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThermalOperator({self.grid.ny}x{self.grid.nx}, {self._method}, "
            f"steady={'cached' if self._steady_solve is not None else 'cold'}, "
            f"timesteps={sorted(self._transient_solves)})"
        )
