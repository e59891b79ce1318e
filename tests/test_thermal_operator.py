"""Unit tests for the shared thermal-solve operator and its caches."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.tech import TechnologyError
from repro.thermal import (
    Floorplan,
    PowerMap,
    ThermalGrid,
    ThermalOperator,
    solve_transient,
)
from repro.thermal.operator import (
    _CACHE_LIMIT,
    _IterativeSolve,
    _TIMESTEP_CACHE_LIMIT,
    _WARM_START_LIMIT,
)

#: The multigrid-vs-direct agreement bound.
ITERATIVE_RTOL = 1e-8

NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])


def _grid_at(resolution):
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=resolution, ny=resolution
    )
    return ThermalGrid.for_power_map(power), power


class TestSteadySolves:
    def test_matches_direct_sparse_solve(self, example_grid, example_power_map):
        operator = ThermalOperator(example_grid)
        result = operator.solve_steady_state(example_power_map, ambient_c=45.0)
        reference = spsolve(
            example_grid.conductance_matrix.tocsc(),
            example_power_map.values_w.reshape(-1),
        ).reshape((example_grid.ny, example_grid.nx)) + 45.0
        assert np.allclose(result.values_c, reference, rtol=1e-9, atol=1e-12)

    def test_multi_rhs_matches_per_rhs(self, example_grid, example_power_map):
        operator = ThermalOperator(example_grid)
        scaled = example_power_map.scaled(0.5)
        combined = operator.solve_steady_state_multi(
            [example_power_map, scaled], ambient_c=45.0
        )
        singles = [
            operator.solve_steady_state(example_power_map, 45.0),
            operator.solve_steady_state(scaled, 45.0),
        ]
        for multi, single in zip(combined, singles):
            assert np.array_equal(multi.values_c, single.values_c)

    def test_solver_entry_point_routes_through_operator(
        self, example_grid, example_power_map
    ):
        ThermalOperator.clear_cache()
        solve_transient(
            example_grid, lambda t: example_power_map, duration_s=3e-3, timestep_s=1e-3
        )
        operator = ThermalOperator.for_grid(example_grid)
        assert list(operator._transient_solves) == [1e-3]
        assert ThermalOperator.cache_size() == 1

    def test_mismatched_rhs_rejected(self, example_grid):
        operator = ThermalOperator(example_grid)
        with pytest.raises(TechnologyError):
            operator.steady_rise(np.zeros(3))
        with pytest.raises(TechnologyError):
            operator.solve_steady_state_multi([], 45.0)


class TestStepper:
    def test_matches_manual_backward_euler(self, example_grid, example_power_map):
        operator = ThermalOperator(example_grid)
        stepper = operator.stepper(1e-3)
        power = example_power_map.values_w.reshape(-1)
        rise = np.zeros(example_grid.nx * example_grid.ny)
        for _ in range(3):
            rise = stepper.step(rise, power)
        # Manual backward Euler with a fresh factorization.
        from scipy.sparse import diags
        from scipy.sparse.linalg import factorized

        solve = factorized(
            (
                diags(example_grid.capacitance_vector / 1e-3)
                + example_grid.conductance_matrix
            ).tocsc()
        )
        manual = np.zeros(example_grid.nx * example_grid.ny)
        for _ in range(3):
            manual = solve(power + example_grid.capacitance_vector / 1e-3 * manual)
        assert np.array_equal(rise, manual)

    def test_stacked_state_matches_per_column_steps(
        self, example_grid, example_power_map
    ):
        # The banked DTM path: an (n, k) state stack advances through
        # one multi-RHS solve per step, column-for-column equal to the
        # scalar stepper.
        operator = ThermalOperator(example_grid)
        stepper = operator.stepper(1e-3)
        power = example_power_map.values_w.reshape(-1)
        stack = np.stack([power, 0.5 * power], axis=1)
        rise = np.zeros((example_grid.nx * example_grid.ny, 2))
        columns = [np.zeros(example_grid.nx * example_grid.ny) for _ in range(2)]
        for _ in range(3):
            rise = stepper.step(rise, stack)
            columns = [
                stepper.step(columns[k], stack[:, k]) for k in range(2)
            ]
        for k in range(2):
            assert np.allclose(rise[:, k], columns[k], rtol=1e-12, atol=0.0)

    def test_stepper_cached_per_timestep(self, example_grid):
        operator = ThermalOperator(example_grid)
        first = operator.stepper(1e-3)
        second = operator.stepper(1e-3)
        third = operator.stepper(2e-3)
        assert first._solve is second._solve
        assert first._solve is not third._solve

    def test_invalid_timestep_rejected(self, example_grid):
        with pytest.raises(TechnologyError):
            ThermalOperator(example_grid).stepper(0.0)

    @NON_FINITE
    def test_non_finite_timestep_rejected_uncached(self, example_grid, bad):
        operator = ThermalOperator(example_grid)
        with pytest.raises(TechnologyError):
            operator.stepper(bad)
        assert len(operator._transient_solves) == 0

    @NON_FINITE
    @pytest.mark.parametrize("argument", ["duration_s", "timestep_s"])
    def test_transient_solver_rejects_non_finite_times(
        self, example_grid, example_power_map, argument, bad
    ):
        ThermalOperator.clear_cache()
        times = {"duration_s": 5e-3, "timestep_s": 1e-3, argument: bad}
        with pytest.raises(TechnologyError):
            solve_transient(example_grid, lambda t: example_power_map, **times)
        assert ThermalOperator.cache_size() == 0

    def test_transient_solver_unchanged_by_operator(
        self, example_grid, example_power_map
    ):
        result = solve_transient(
            example_grid,
            lambda t: example_power_map,
            duration_s=5e-3,
            timestep_s=1e-3,
        )
        assert len(result.maps) == 6
        assert result.final.max_c() > 45.0


class TestIterativeFallback:
    """The grid size picks the solver; the threshold is the one override."""

    @pytest.fixture(scope="class")
    def grid_and_power(self):
        return _grid_at(24)

    def test_auto_routes_by_unknown_count(self, monkeypatch, grid_and_power):
        grid, _power = grid_and_power
        assert ThermalOperator(grid).method == "direct"
        monkeypatch.setattr(ThermalOperator, "iterative_threshold", 100)
        assert ThermalOperator(grid).method == "multigrid"

    def test_threshold_reroutes_auto(self, monkeypatch, grid_and_power):
        grid, _power = grid_and_power
        monkeypatch.setattr(ThermalOperator, "iterative_threshold", 100)
        assert ThermalOperator(grid).method == "multigrid"
        # At the threshold itself the operator still factorizes.
        monkeypatch.setattr(ThermalOperator, "iterative_threshold", grid.nx * grid.ny)
        assert ThermalOperator(grid).method == "direct"

    def test_threshold_change_joins_the_cache_key(self, monkeypatch, grid_and_power):
        # An operator cached under a retuned threshold must not be
        # handed back (with the wrong prepared solve) once it is restored.
        grid, _power = grid_and_power
        ThermalOperator.clear_cache()
        with monkeypatch.context() as patch:
            patch.setattr(ThermalOperator, "iterative_threshold", 100)
            retuned = ThermalOperator.for_grid(grid)
        plain = ThermalOperator.for_grid(grid)
        assert retuned.method == "multigrid"
        assert plain.method == "direct"
        assert retuned is not plain

    def test_jacobi_retry_rescues_a_stalled_preconditioner(self, grid_and_power):
        # A V-cycle that returns zeros makes no progress, so the block
        # CG reports no convergence and the Jacobi retry must finish
        # the solve to the direct solver's answer.
        grid, power = grid_and_power
        rhs = power.values_w.reshape(-1)
        solve = _IterativeSolve(grid.conductance_matrix, (grid.ny, grid.nx))
        solve._preconditioner = np.zeros_like
        reference = spsolve(grid.conductance_matrix.tocsc(), rhs)
        rise = solve(rhs)
        assert solve.last_iterations > 1  # the Jacobi run did the work
        assert np.max(np.abs(rise - reference) / np.abs(reference)) <= ITERATIVE_RTOL

    def test_jacobi_retry_converges_on_the_full_die_grid(self):
        # A 256x256 steady system needs ~1400 Jacobi-CG iterations, more
        # than the first attempt's 1000-iteration cap: the retry must be
        # allowed the system size to reach the direct answer.
        grid, power = _grid_at(256)
        rhs = power.values_w.reshape(-1)
        solve = _IterativeSolve(grid.conductance_matrix, (grid.ny, grid.nx))
        solve._preconditioner = np.zeros_like
        reference = spsolve(grid.conductance_matrix.tocsc(), rhs)
        rise = solve(rhs)
        assert solve.last_iterations > 1000
        assert np.max(np.abs(rise - reference) / np.abs(reference)) <= ITERATIVE_RTOL


class TestWarmStartKeying:
    """Per-RHS-shape warm starts (the cross-caller pollution fix)."""

    @pytest.fixture(scope="class")
    def solve_and_rhs(self):
        grid, power = _grid_at(48)
        solve = _IterativeSolve(grid.conductance_matrix, (grid.ny, grid.nx))
        return grid, solve, power.values_w.reshape(-1)

    def test_vector_and_stack_keep_separate_states(self, solve_and_rhs):
        grid, solve, rhs = solve_and_rhs
        solve._warm_starts.clear()
        solve(rhs)
        solve(np.stack([rhs, 0.5 * rhs], axis=1))
        assert list(solve._warm_starts) == [("vec",), ("stack", 2)]
        assert solve._warm_starts[("vec",)].shape == (rhs.size, 1)
        assert solve._warm_starts[("stack", 2)].shape == (rhs.size, 2)

    def test_stack_solve_unpolluted_by_prior_vector_solve(self, solve_and_rhs):
        grid, solve, rhs = solve_and_rhs
        reference = spsolve(grid.conductance_matrix.tocsc(), 3.0 * rhs)
        solve._warm_starts.clear()
        solve(rhs)  # would be a bad initial guess for the stack below
        stack = solve(np.stack([3.0 * rhs, np.zeros_like(rhs)], axis=1))
        assert np.max(np.abs(stack[:, 0] - reference) / np.abs(reference)) <= ITERATIVE_RTOL
        assert np.array_equal(stack[:, 1], np.zeros_like(rhs))

    def test_distinct_stack_widths_do_not_collide(self, solve_and_rhs):
        _grid, solve, rhs = solve_and_rhs
        solve._warm_starts.clear()
        solve(np.stack([rhs, rhs], axis=1))
        solve(np.stack([rhs, rhs, rhs], axis=1))
        assert ("stack", 2) in solve._warm_starts
        assert ("stack", 3) in solve._warm_starts

    def test_warm_start_store_is_bounded_lru(self, solve_and_rhs):
        _grid, solve, rhs = solve_and_rhs
        solve._warm_starts.clear()
        for width in range(1, _WARM_START_LIMIT + 2):
            solve(np.repeat(rhs[:, np.newaxis], width, axis=1))
        assert len(solve._warm_starts) == _WARM_START_LIMIT
        # Touch the oldest survivor, then add another width: the
        # touched entry survives, the least recently used one goes.
        survivor = ("stack", 2)
        solve(np.repeat(rhs[:, np.newaxis], 2, axis=1))
        solve(np.repeat(rhs[:, np.newaxis], _WARM_START_LIMIT + 2, axis=1))
        assert survivor in solve._warm_starts
        assert ("stack", 3) not in solve._warm_starts

    def test_warm_start_accelerates_repeat_solves(self, solve_and_rhs):
        _grid, solve, rhs = solve_and_rhs
        solve._warm_starts.clear()
        solve(rhs)
        cold_iterations = solve.last_iterations
        solve(rhs)
        assert solve.last_iterations < cold_iterations


class TestProcessWideCache:
    def test_equal_geometry_grids_share_an_operator(self, example_power_map):
        ThermalOperator.clear_cache()
        first = ThermalOperator.for_grid(ThermalGrid.for_power_map(example_power_map))
        second = ThermalOperator.for_grid(ThermalGrid.for_power_map(example_power_map))
        assert first is second
        assert ThermalOperator.cache_size() == 1

    def test_different_geometry_gets_its_own_operator(self, example_power_map):
        ThermalOperator.clear_cache()
        base = ThermalOperator.for_grid(ThermalGrid.for_power_map(example_power_map))
        other_power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=8, ny=8)
        other = ThermalOperator.for_grid(ThermalGrid.for_power_map(other_power))
        assert base is not other
        assert ThermalOperator.cache_size() == 2

    def test_cache_is_bounded(self, example_power_map):
        ThermalOperator.clear_cache()
        for resolution in range(4, 14):
            power = PowerMap.from_floorplan(
                Floorplan.example_processor(), nx=resolution, ny=resolution
            )
            ThermalOperator.for_grid(ThermalGrid.for_power_map(power))
        assert ThermalOperator.cache_size() <= _CACHE_LIMIT


class TestCacheEviction:
    """Bounded LRU eviction of both caches, covered directly."""

    def test_operator_cache_evicts_least_recently_used(self):
        ThermalOperator.clear_cache()
        operators = {}
        resolutions = list(range(4, 4 + _CACHE_LIMIT))
        for resolution in resolutions:
            grid, _power = _grid_at(resolution)
            operators[resolution] = ThermalOperator.for_grid(grid)
        assert ThermalOperator.cache_size() == _CACHE_LIMIT
        # One more distinct geometry evicts exactly the oldest entry ...
        overflow_grid, _power = _grid_at(4 + _CACHE_LIMIT)
        ThermalOperator.for_grid(overflow_grid)
        assert ThermalOperator.cache_size() == _CACHE_LIMIT
        oldest_grid, _power = _grid_at(resolutions[0])
        rebuilt = ThermalOperator.for_grid(oldest_grid)
        assert rebuilt is not operators[resolutions[0]]
        # ... and rebuilding the oldest evicted the next least recently
        # used, while the third-oldest entry is still the original.
        third_grid, _power = _grid_at(resolutions[2])
        kept = ThermalOperator.for_grid(third_grid)
        assert kept is operators[resolutions[2]]
        second_grid, _power = _grid_at(resolutions[1])
        assert ThermalOperator.for_grid(second_grid) is not operators[resolutions[1]]

    def test_operator_cache_hits_refresh_recency(self):
        # The placement-search access pattern: a handful of grids hit
        # over and over must all survive churn from new geometries.
        ThermalOperator.clear_cache()
        resolutions = list(range(4, 4 + _CACHE_LIMIT))
        operators = {}
        for resolution in resolutions:
            grid, _power = _grid_at(resolution)
            operators[resolution] = ThermalOperator.for_grid(grid)
        # Touch the oldest entry, then overflow: the touched entry
        # survives (a FIFO cache would evict it), the untouched
        # second-oldest goes.
        touched_grid, _power = _grid_at(resolutions[0])
        assert ThermalOperator.for_grid(touched_grid) is operators[resolutions[0]]
        overflow_grid, _power = _grid_at(4 + _CACHE_LIMIT)
        ThermalOperator.for_grid(overflow_grid)
        still_grid, _power = _grid_at(resolutions[0])
        assert ThermalOperator.for_grid(still_grid) is operators[resolutions[0]]
        evicted_grid, _power = _grid_at(resolutions[1])
        assert ThermalOperator.for_grid(evicted_grid) is not operators[resolutions[1]]

    def test_clear_cache_forgets_every_operator(self):
        ThermalOperator.clear_cache()
        grid, _power = _grid_at(6)
        before = ThermalOperator.for_grid(grid)
        ThermalOperator.clear_cache()
        assert ThermalOperator.cache_size() == 0
        assert ThermalOperator.for_grid(grid) is not before

    def test_timestep_cache_is_lru_not_fifo(self, example_grid):
        operator = ThermalOperator(example_grid)
        timesteps = [1e-3 * (k + 1) for k in range(_TIMESTEP_CACHE_LIMIT)]
        solves = {dt: operator.stepper(dt)._solve for dt in timesteps}
        # Touch the oldest timestep, then overflow the cache: the
        # recently used entry survives, the least recently used one
        # (the second-oldest) is evicted.
        assert operator.stepper(timesteps[0])._solve is solves[timesteps[0]]
        operator.stepper(1e-3 * (_TIMESTEP_CACHE_LIMIT + 1))
        assert operator.stepper(timesteps[0])._solve is solves[timesteps[0]]
        assert operator.stepper(timesteps[1])._solve is not solves[timesteps[1]]

    def test_timestep_cache_bounded(self, example_grid):
        operator = ThermalOperator(example_grid)
        for k in range(2 * _TIMESTEP_CACHE_LIMIT):
            operator.stepper(1e-3 * (k + 1))
        assert len(operator._transient_solves) == _TIMESTEP_CACHE_LIMIT

    def test_cross_grid_sharing_is_keyed_by_geometry_not_identity(self):
        ThermalOperator.clear_cache()
        grid_a, _power = _grid_at(10)
        grid_b, _power = _grid_at(10)
        assert grid_a is not grid_b
        assert ThermalOperator.for_grid(grid_a) is ThermalOperator.for_grid(grid_b)
        # Different physical parameters break the sharing.
        from repro.thermal import ThermalGridParameters

        thicker = ThermalGrid(
            grid_a.width_mm,
            grid_a.height_mm,
            grid_a.nx,
            grid_a.ny,
            ThermalGridParameters(die_thickness_mm=0.7),
        )
        assert ThermalOperator.for_grid(thicker) is not ThermalOperator.for_grid(grid_a)


class TestCacheConcurrency:
    """The process-wide cache and the lazy solves are thread-safe."""

    def test_concurrent_for_grid_builds_each_operator_once(self):
        import threading

        ThermalOperator.clear_cache()
        resolutions = [4, 5, 6, 7]
        grids = {r: _grid_at(r)[0] for r in resolutions}
        results = {r: [] for r in resolutions}
        barrier = threading.Barrier(8)

        def worker(resolution):
            barrier.wait()
            for _ in range(25):
                results[resolution].append(ThermalOperator.for_grid(grids[resolution]))

        threads = [
            threading.Thread(target=worker, args=(r,))
            for r in resolutions
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every thread asking for a geometry got the one shared operator.
        for resolution in resolutions:
            assert len(set(id(op) for op in results[resolution])) == 1
        assert ThermalOperator.cache_size() == len(resolutions)

    def test_concurrent_eviction_respects_limit(self):
        import threading

        ThermalOperator.clear_cache()
        grids = [_grid_at(r)[0] for r in range(4, 4 + 2 * _CACHE_LIMIT)]
        barrier = threading.Barrier(4)

        def churn(offset):
            barrier.wait()
            for grid in grids[offset::2]:
                ThermalOperator.for_grid(grid)

        threads = [threading.Thread(target=churn, args=(k % 2,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ThermalOperator.cache_size() <= _CACHE_LIMIT

    def test_concurrent_steady_solve_factorizes_once(self, example_grid):
        import threading

        operator = ThermalOperator(example_grid)
        solves = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            solves.append(operator.steady_solve())

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(id(solve) for solve in solves)) == 1

    def test_concurrent_stepper_requests_share_the_solve(self, example_grid):
        import threading

        operator = ThermalOperator(example_grid)
        steppers = []
        barrier = threading.Barrier(6)

        def worker(dt):
            barrier.wait()
            steppers.append(operator.stepper(dt))

        threads = [
            threading.Thread(target=worker, args=(1e-3 * (1 + k % 2),))
            for k in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(operator._transient_solves) == 2
        by_dt = {}
        for stepper in steppers:
            by_dt.setdefault(stepper.timestep_s, set()).add(id(stepper._solve))
        for shared in by_dt.values():
            assert len(shared) == 1
