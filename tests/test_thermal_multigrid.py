"""Tests for the geometric-multigrid preconditioner and its CG solves.

Three layers of evidence:

* unit tests on the transfer operators (partition of unity, shapes,
  rejected degenerate extents),
* hypothesis property tests that the V-cycle *is* what CG theory
  requires of it — a symmetric positive-definite linear operator — over
  random grid shapes and backward-Euler shifts, and
* equivalence of the multigrid-CG solves against the sparse-direct
  factorization to the 1e-8 bound the ISSUE pins, on steady,
  multi-RHS and transient workloads, plus the grid-independence of the
  iteration count that justifies routing ``auto`` through multigrid.

The 256x256 full-die run (steady + multi-RHS transient through the
size-picked solver, with sparse-direct factorization forbidden) is in
the slow lane.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import diags

from repro.tech import TechnologyError
from repro.thermal import (
    Floorplan,
    GeometricMultigrid,
    PowerMap,
    ThermalGrid,
    ThermalOperator,
)
from repro.thermal.multigrid import (
    COARSE_DIRECT_UNKNOWNS,
    prolongation_1d,
    prolongation_matrix,
)
from tests.oracles import solve_columns_loop

ITERATIVE_RTOL = 1e-8


@pytest.fixture
def operator_with(monkeypatch):
    """Build an operator whose size rule picks the named solver, by moving
    ``iterative_threshold`` to either side of the grid's unknown count."""

    def build(grid, solver):
        unknowns = grid.nx * grid.ny
        threshold = unknowns if solver == "direct" else unknowns - 1
        monkeypatch.setattr(ThermalOperator, "iterative_threshold", threshold)
        operator = ThermalOperator(grid)
        assert operator.method == solver
        return operator

    return build


def _grid_at(resolution):
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=resolution, ny=resolution
    )
    return ThermalGrid.for_power_map(power), power


class TestTransferOperators:
    def test_prolongation_rows_are_a_partition_of_unity(self):
        for fine, coarse in [(8, 4), (9, 5), (7, 4), (2, 2), (97, 49)]:
            prolong = prolongation_1d(fine, coarse)
            assert prolong.shape == (fine, coarse)
            assert np.allclose(np.asarray(prolong.sum(axis=1)).ravel(), 1.0)

    def test_prolongation_interpolates_linear_functions(self):
        # Away from the clamped boundary cells, linear interpolation
        # reproduces linear coarse data exactly.
        fine, coarse = 16, 8
        prolong = prolongation_1d(fine, coarse)
        coarse_centers = (np.arange(coarse) + 0.5) / coarse
        fine_centers = (np.arange(fine) + 0.5) / fine
        interpolated = prolong @ coarse_centers
        interior = (fine_centers >= coarse_centers[0]) & (
            fine_centers <= coarse_centers[-1]
        )
        assert np.allclose(interpolated[interior], fine_centers[interior])

    def test_tensor_product_shape(self):
        prolong = prolongation_matrix((9, 7), (5, 4))
        assert prolong.shape == (9 * 7, 5 * 4)
        assert np.allclose(np.asarray(prolong.sum(axis=1)).ravel(), 1.0)

    def test_degenerate_extents_rejected(self):
        with pytest.raises(TechnologyError):
            prolongation_1d(1, 1)
        with pytest.raises(TechnologyError):
            prolongation_1d(8, 1)
        with pytest.raises(TechnologyError):
            prolongation_1d(4, 8)


class TestHierarchyConstruction:
    def test_large_grid_builds_multiple_levels(self):
        grid, _power = _grid_at(48)
        cycle = GeometricMultigrid(grid.conductance_matrix, (48, 48))
        assert cycle.level_count >= 2
        assert cycle.coarse_unknowns <= COARSE_DIRECT_UNKNOWNS

    def test_small_grid_is_a_direct_solve(self):
        grid, power = _grid_at(12)
        cycle = GeometricMultigrid(grid.conductance_matrix, (12, 12))
        assert cycle.level_count == 1
        # Single level == exact solve: the "preconditioned residual" is
        # the true solution.
        from scipy.sparse.linalg import spsolve

        rhs = power.values_w.reshape(-1)
        assert np.allclose(
            cycle(rhs), spsolve(grid.conductance_matrix.tocsc(), rhs), rtol=1e-10
        )

    def test_mismatched_shape_rejected(self):
        grid, _power = _grid_at(12)
        with pytest.raises(TechnologyError):
            GeometricMultigrid(grid.conductance_matrix, (12, 13))

    def test_asymmetric_smoothing_rejected(self):
        grid, _power = _grid_at(12)
        with pytest.raises(TechnologyError):
            GeometricMultigrid(grid.conductance_matrix, (12, 12), pre_smooth=2, post_smooth=1)
        with pytest.raises(TechnologyError):
            GeometricMultigrid(grid.conductance_matrix, (12, 12), pre_smooth=0, post_smooth=0)

    def test_one_cycle_contracts_the_residual(self):
        grid, power = _grid_at(48)
        cycle = GeometricMultigrid(grid.conductance_matrix, (48, 48))
        rhs = power.values_w.reshape(-1)
        residual = rhs - grid.conductance_matrix @ cycle(rhs)
        assert np.linalg.norm(residual) < 0.1 * np.linalg.norm(rhs)

    def test_batched_application_matches_columns(self):
        grid, power = _grid_at(36)
        cycle = GeometricMultigrid(grid.conductance_matrix, (36, 36))
        rhs = power.values_w.reshape(-1)
        stack = np.stack([rhs, 0.25 * rhs, np.zeros_like(rhs)], axis=1)
        block = cycle(stack)
        for k in range(stack.shape[1]):
            assert np.allclose(block[:, k], cycle(stack[:, k]), rtol=1e-12, atol=0.0)


class TestVCyclePropertyBased:
    """The V-cycle is a symmetric positive-definite linear operator.

    This is the load-bearing property: CG with a non-symmetric or
    indefinite preconditioner silently loses its convergence guarantee.
    Grid shapes are drawn to straddle the direct-coarse threshold (both
    one- and multi-level hierarchies) and the matrix is either ``G`` or
    a backward-Euler shift ``C/dt + G``.
    """

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        nx=st.integers(min_value=5, max_value=40),
        ny=st.integers(min_value=5, max_value=40),
        shift=st.sampled_from([None, 1e-2, 1e-3]),
        data_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_symmetric_and_positive_definite(self, nx, ny, shift, data_seed):
        grid = ThermalGrid(8.0, 8.0, nx, ny)
        matrix = grid.conductance_matrix
        if shift is not None:
            matrix = diags(grid.capacitance_vector / shift) + matrix
        cycle = GeometricMultigrid(matrix, (ny, nx))
        rng = np.random.default_rng(data_seed)
        u = rng.standard_normal(nx * ny)
        v = rng.standard_normal(nx * ny)
        left = u @ cycle(v)
        right = v @ cycle(u)
        scale = max(abs(left), abs(right), 1e-30)
        assert abs(left - right) / scale < 1e-9
        assert v @ cycle(v) > 0.0
        assert u @ cycle(u) > 0.0

    @settings(max_examples=6, deadline=None)
    @given(
        resolution=st.integers(min_value=33, max_value=48),
        data_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_multilevel_hierarchies_stay_symmetric(self, resolution, data_seed):
        # Above COARSE_DIRECT_UNKNOWNS the cycle recurses; symmetry must
        # survive the restriction/prolongation round trip.
        grid = ThermalGrid(8.0, 8.0, resolution, resolution)
        cycle = GeometricMultigrid(grid.conductance_matrix, (resolution, resolution))
        assert cycle.level_count >= 2
        rng = np.random.default_rng(data_seed)
        u = rng.standard_normal(resolution * resolution)
        v = rng.standard_normal(resolution * resolution)
        left, right = u @ cycle(v), v @ cycle(u)
        assert abs(left - right) / max(abs(left), abs(right)) < 1e-9


class TestMultigridSolves:
    """Multigrid-CG against the sparse-direct factorization (<= 1e-8)."""

    @pytest.fixture(scope="class", params=[48, 96])
    def grid_and_power(self, request):
        return _grid_at(request.param)

    def test_steady_agrees_with_direct(self, grid_and_power, operator_with):
        grid, power = grid_and_power
        rhs = power.values_w.reshape(-1)
        direct = operator_with(grid, "direct").steady_rise(rhs)
        multigrid = operator_with(grid, "multigrid").steady_rise(rhs)
        assert np.max(np.abs(multigrid - direct) / np.abs(direct)) <= ITERATIVE_RTOL

    def test_multi_rhs_agrees_with_direct(self, grid_and_power, operator_with):
        grid, power = grid_and_power
        rhs = power.values_w.reshape(-1)
        stack = np.stack([rhs, 0.25 * rhs, np.zeros_like(rhs), 2.0 * rhs], axis=1)
        direct = operator_with(grid, "direct").steady_rise(stack)
        multigrid = operator_with(grid, "multigrid").steady_rise(stack)
        assert multigrid.shape == stack.shape
        # The zero column must come back exactly zero, not noise.
        assert np.array_equal(multigrid[:, 2], np.zeros(rhs.size))
        nonzero = [0, 1, 3]
        assert (
            np.max(np.abs(multigrid[:, nonzero] - direct[:, nonzero]) / np.abs(direct[:, nonzero]))
            <= ITERATIVE_RTOL
        )

    def test_transient_stepping_agrees_with_direct(self, grid_and_power, operator_with):
        grid, power = grid_and_power
        rhs = power.values_w.reshape(-1)
        direct = operator_with(grid, "direct").stepper(0.01)
        multigrid = operator_with(grid, "multigrid").stepper(0.01)
        rise_d = np.zeros(grid.nx * grid.ny)
        rise_m = np.zeros(grid.nx * grid.ny)
        for _ in range(20):
            rise_d = direct.step(rise_d, rhs)
            rise_m = multigrid.step(rise_m, rhs)
            assert np.max(np.abs(rise_m - rise_d) / np.abs(rise_d)) <= ITERATIVE_RTOL

    def test_block_matches_column_loop(self, grid_and_power, operator_with):
        grid, power = grid_and_power
        rhs = power.values_w.reshape(-1)
        solve = operator_with(grid, "multigrid").steady_solve()
        stack = np.stack([rhs, 0.5 * rhs, 1.5 * rhs], axis=1)
        block = solve(stack)
        loop = solve_columns_loop(solve, stack)
        assert np.allclose(block, loop, rtol=1e-6, atol=0.0)

    def test_iteration_count_is_grid_independent(self, operator_with):
        # The whole point of the multigrid preconditioner: CG converges
        # in essentially the same handful of iterations at every
        # resolution, where a grid-blind preconditioner's count grows
        # with the grid.
        counts = {}
        for resolution in (48, 96):
            grid, power = _grid_at(resolution)
            solve = operator_with(grid, "multigrid").steady_solve()
            solve(power.values_w.reshape(-1))
            counts[resolution] = solve.last_iterations
        assert all(0 < count <= 25 for count in counts.values())
        assert abs(counts[96] - counts[48]) <= 5


@pytest.mark.slow
class TestFullDieAutoRouting:
    """256x256: ``auto`` must serve the full die without factorizing."""

    def test_steady_and_transient_without_direct_factorization(self, monkeypatch):
        import repro.thermal.operator as operator_module

        def forbidden(*_args, **_kwargs):  # pragma: no cover - failure path
            raise AssertionError(
                "auto routed a full-die solve through the direct factorization"
            )

        # The multigrid coarse solve imports factorized separately (in
        # repro.thermal.multigrid), so only the operator's direct path
        # is forbidden here.
        monkeypatch.setattr(operator_module, "factorized", forbidden)
        ThermalOperator.clear_cache()
        grid, power = _grid_at(256)
        operator = ThermalOperator.for_grid(grid)
        assert operator.method == "multigrid"

        # Steady state: the mean rise over a uniform-conductance die is
        # pinned by energy conservation to R_ja * P_total.
        rise = operator.steady_rise(power.values_w.reshape(-1))
        expected = grid.junction_to_ambient_resistance_k_per_w() * power.total_power_w()
        assert np.mean(rise) == pytest.approx(expected, rel=1e-6)
        assert rise.min() > 0.0

        # Multi-RHS transient: an (n, 4) stack of workload scalings
        # advances through one block solve per step and stays ordered
        # by power.
        stack = np.stack(
            [scale * power.values_w.reshape(-1) for scale in (0.5, 1.0, 1.5, 2.0)],
            axis=1,
        )
        stepper = operator.stepper(1e-2)
        state = np.zeros_like(stack)
        for _ in range(5):
            state = stepper.step(state, stack)
        means = state.mean(axis=0)
        assert np.all(np.diff(means) > 0.0)
        # Columns scale linearly with the power scaling (linear system).
        assert np.allclose(state[:, 1] * 2.0, state[:, 3], rtol=1e-6)
        ThermalOperator.clear_cache()
