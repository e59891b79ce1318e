"""Tiled / parallel / out-of-core sweep execution vs the dense oracle.

The contract under test is the strongest one the tiling design claims:
every backend — serial tiles, the multiprocess pool, the memmap
out-of-core assembler — produces results **bitwise identical** to the
dense single-broadcast path (which ``tests/test_sweep_api.py`` pins to
the scalar oracle), across tile sizes from one element to
larger-than-the-axis.  On top of that: the tiling pass partitions the
index space exactly once, a sweep whose dense tensor exceeds the
configured memory budget completes out-of-core, and streaming reducers
agree with ``np.mean`` / ``np.percentile`` at 1e-12.  Backends are
chosen only by the explicit ``executor=`` argument: with none, a sweep
runs the dense path.
"""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    Axis,
    HistogramReducer,
    MeanReducer,
    MemmapExecutor,
    PercentileReducer,
    ProcessExecutor,
    SerialExecutor,
    Sweep,
    SweepError,
    plan_tiles,
    resolve_executor,
    subplan,
)
from repro.cells import default_library
from repro.core import SensorBank
from repro.engine.executors import make_executor
from repro.oscillator import PAPER_FIG3_CONFIGURATIONS, RingConfiguration
from repro.tech import CMOS018, CMOS035, sample_technology_array
from repro.thermal import Floorplan

HYPOTHESIS_SETTINGS = dict(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CONFIGURATION = RingConfiguration.parse("5INV")
POPULATION = sample_technology_array(CMOS035, 23, seed=11)
TEMPS = np.linspace(-40.0, 125.0, 17)


def sample_sweep(observable="period", population=POPULATION):
    return (
        Sweep(technology=CMOS035, configuration=CONFIGURATION)
        .over(Axis.sample(population))
        .over(Axis.temperature(TEMPS))
        .observe(observable)
    )


@pytest.fixture(scope="module")
def dense_period():
    return sample_sweep("period").run()


@pytest.fixture(scope="module")
def dense_code():
    return sample_sweep("code").run()


def assert_results_equal(tiled, dense):
    assert tiled.dims == dense.dims
    assert tiled.coords == dense.coords
    assert tiled.observable == dense.observable
    assert tiled.values.dtype == dense.values.dtype
    assert np.array_equal(tiled.values, dense.values)


# --------------------------------------------------------------------------- #
# the tiling pass
# --------------------------------------------------------------------------- #


class TestPlanTiles:
    def test_tiles_partition_index_space_exactly_once(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=29)
        covered = np.zeros(tiling.shape, dtype=int)
        for tile in tiling.tiles:
            covered[tile.slices(tiling.dims)] += 1
        assert np.all(covered == 1)

    def test_budget_bounds_tile_elements(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=40)
        for tile in tiling.tiles:
            assert tile.element_count(tiling.dims, tiling.shape) <= 40

    def test_single_element_tiles(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=1)
        assert len(tiling.tiles) == tiling.total_elements
        for tile in tiling.tiles:
            assert tile.element_count(tiling.dims, tiling.shape) == 1

    def test_budget_larger_than_sweep_is_one_tile(self):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=10**9)
        assert len(tiling.tiles) == 1
        assert tiling.tiles[0].bounds == ()

    def test_endpoint_observables_never_split_temperature(self):
        plan = sample_sweep("calibration_error_c").plan()
        tiling = plan_tiles(plan, max_tile_elements=1)
        for tile in tiling.tiles:
            assert tile.bounds_for("temperature") is None
            span = tile.bounds_for("sample")
            assert span is not None and span[1] - span[0] == 1

    def test_memory_budget_converts_bytes_to_elements(self):
        plan = sample_sweep().plan()
        by_bytes = plan_tiles(plan, memory_budget_bytes=40 * 8)
        by_elements = plan_tiles(plan, max_tile_elements=40)
        assert by_bytes.tiles == by_elements.tiles

    def test_unsplittable_axes_stay_whole(self):
        plan = (
            Sweep(technology=CMOS035)
            .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
            .over(Axis.temperature(TEMPS))
            .plan()
        )
        tiling = plan_tiles(plan, max_tile_elements=1)
        for tile in tiling.tiles:
            assert tile.bounds_for("configuration") is None

    def test_invalid_budgets_rejected(self):
        plan = sample_sweep().plan()
        with pytest.raises(SweepError):
            plan_tiles(plan, max_tile_elements=0)
        with pytest.raises(SweepError):
            plan_tiles(plan, memory_budget_bytes=4)

    def test_subplan_slices_evaluate_to_dense_slices(self, dense_period):
        plan = sample_sweep().plan()
        tiling = plan_tiles(plan, max_tile_elements=64)
        tile = tiling.tiles[len(tiling.tiles) // 2]
        values = subplan(plan, tile)._execute_dense().values
        assert np.array_equal(values, dense_period.values[tile.slices(tiling.dims)])


# --------------------------------------------------------------------------- #
# tiled-vs-dense bit equality
# --------------------------------------------------------------------------- #


@given(tile_elements=st.integers(min_value=1, max_value=2 * 23 * 17))
@settings(**HYPOTHESIS_SETTINGS)
def test_serial_tiles_bit_match_dense_across_tile_sizes(tile_elements):
    dense = sample_sweep("period").run()
    tiled = sample_sweep("period").run(
        executor="serial", max_tile_elements=tile_elements
    )
    assert_results_equal(tiled, dense)


@given(tile_elements=st.integers(min_value=1, max_value=2 * 23 * 17))
@settings(**HYPOTHESIS_SETTINGS)
def test_endpoint_observable_tiles_bit_match_dense(tile_elements):
    dense = sample_sweep("calibration_error_c").run()
    tiled = sample_sweep("calibration_error_c").run(
        executor="serial", max_tile_elements=tile_elements
    )
    assert_results_equal(tiled, dense)


EXECUTORS = {
    "serial": lambda: SerialExecutor(),
    "process": lambda: ProcessExecutor(max_workers=2),
    "memmap": lambda: MemmapExecutor(memory_budget_bytes=64 * 1024),
}


def _site_bank():
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(2, 2)
    return SensorBank(
        default_library(CMOS035), floorplan.sensor_sites(), CONFIGURATION
    )


SITE_BANK = _site_bank()
SMALL_POPULATION = sample_technology_array(CMOS035, 5, seed=3)


def _over(sweep, *axes):
    for axis in axes:
        sweep = sweep.over(axis)
    return sweep


def _ring(*axes):
    return _over(Sweep(technology=CMOS035, configuration=CONFIGURATION), *axes)


#: One sweep per lowering branch of ``SweepPlan._execute_dense`` (plain
#: ring, sample, supply, supply x sample, configuration, width ratio,
#: technology axis, site characterisation, site scan, site +
#: resolution), each with a tile budget small enough to split it.
#: Between them they read every observable.
BACKEND_CASES = {
    "period": (lambda: sample_sweep("period"), 97),
    "code": (lambda: sample_sweep("code"), 97),
    "calibration_error_c": (lambda: sample_sweep("calibration_error_c"), 97),
    "ring-frequency": (
        lambda: _ring(Axis.temperature(TEMPS)).observe("frequency"), 5
    ),
    "supply-power": (
        lambda: _ring(Axis.supply([3.0, 3.6]), Axis.temperature(TEMPS)).observe(
            "power"
        ),
        7,
    ),
    "supply-sample-code": (
        lambda: _ring(
            Axis.supply([3.0, 3.3, 3.6]),
            Axis.sample(SMALL_POPULATION),
            Axis.temperature(TEMPS),
        ).observe("code"),
        23,
    ),
    "configuration-power": (
        lambda: _over(
            Sweep(technology=CMOS035),
            Axis.configuration(PAPER_FIG3_CONFIGURATIONS),
            Axis.temperature(TEMPS),
        ).observe("power"),
        29,
    ),
    "width_ratio-nonlinearity_percent": (
        lambda: _over(
            Sweep(technology=CMOS035),
            Axis.width_ratio([1.0, 2.0, 3.0]),
            Axis.sample(SMALL_POPULATION),
            Axis.temperature(TEMPS),
        ).observe("nonlinearity_percent"),
        40,
    ),
    "technology-period": (
        lambda: _over(
            Sweep(configuration=CONFIGURATION),
            Axis.technology([CMOS035, CMOS018]),
            Axis.temperature(TEMPS),
        ).observe("period"),
        5,
    ),
    "site-characterisation-transfer_c": (
        lambda: _over(
            Sweep(),
            Axis.site(SITE_BANK),
            Axis.sample(SMALL_POPULATION),
            Axis.temperature(TEMPS),
        ).observe("transfer_c"),
        150,
    ),
    "site-scan-code": (
        lambda: _over(
            Sweep(),
            Axis.site(SITE_BANK, junction_temperatures_c=[55.0, 70.0, 85.0, 95.0]),
            Axis.sample(SMALL_POPULATION),
        ).observe("code"),
        6,
    ),
    "site-resolution-power": (
        lambda: _over(
            Sweep(),
            Axis.resolution([8, 12], Floorplan.example_processor()),
            Axis.site(SITE_BANK),
            Axis.sample(SMALL_POPULATION),
        ).observe("power"),
        9,
    ),
}


@pytest.mark.parametrize("backend", sorted(EXECUTORS))
@pytest.mark.parametrize("case", list(BACKEND_CASES))
def test_every_backend_bit_matches_dense(backend, case):
    build, tile_elements = BACKEND_CASES[case]
    dense = build().run()
    tiling = plan_tiles(build().plan(), max_tile_elements=tile_elements)
    assert len(tiling.tiles) > 1, "the case must exercise more than one tile"
    tiled = build().run(
        executor=EXECUTORS[backend](), max_tile_elements=tile_elements
    )
    assert_results_equal(tiled, dense)


@pytest.mark.parametrize("backend", sorted(EXECUTORS))
def test_supply_axis_lowering_survives_sample_tiling(backend):
    def build():
        return (
            Sweep(technology=CMOS035, configuration=CONFIGURATION)
            .over(Axis.supply([3.0, 3.3, 3.6]))
            .over(Axis.sample(POPULATION))
            .over(Axis.temperature(TEMPS))
        )

    dense = build().run()
    tiled = build().run(executor=EXECUTORS[backend](), max_tile_elements=113)
    assert_results_equal(tiled, dense)


def test_width_ratio_axis_with_sample_tiling():
    def build():
        return (
            Sweep(technology=CMOS035, configuration=CONFIGURATION)
            .over(Axis.width_ratio([1.0, 2.0]))
            .over(Axis.sample(POPULATION))
            .over(Axis.temperature(TEMPS))
        )

    dense = build().run()
    tiled = build().run(executor="serial", max_tile_elements=51)
    assert_results_equal(tiled, dense)


def test_configuration_axis_without_splittable_axes_still_runs():
    def build():
        return (
            Sweep(technology=CMOS035)
            .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
            .over(Axis.temperature(TEMPS))
            .observe("nonlinearity_percent")
        )

    dense = build().run()
    tiled = build().run(executor="serial", max_tile_elements=1)
    assert_results_equal(tiled, dense)


def test_technology_list_payload_tiles():
    # A plain list of same-node Technology samples is stacked once by
    # Axis.sample; its tiles slice that population like any other.
    from repro.tech import TechnologyArray, sample_technologies

    technologies = sample_technologies(CMOS035, 5, seed=17)
    assert isinstance(Axis.sample(technologies).payload, TechnologyArray)

    def build():
        return (
            Sweep(technology=CMOS035, configuration=CONFIGURATION)
            .over(Axis.sample(technologies))
            .over(Axis.temperature(TEMPS))
        )

    dense = build().run()
    tiled = build().run(executor="serial", max_tile_elements=2 * len(TEMPS))
    assert_results_equal(tiled, dense)


def test_process_backend_streams_out_of_order_assembly(dense_period):
    # Many more tiles than workers: completion order is not submission
    # order, and positional assembly must still be exact.
    tiled = sample_sweep("period").run(
        executor=ProcessExecutor(max_workers=2), max_tile_elements=17
    )
    assert_results_equal(tiled, dense_period)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory")
def test_killed_workers_fail_only_the_in_flight_sweep():
    # Fault injection: SIGKILL every worker of the warm shared pool while
    # a sweep streams its tiles.  That sweep fails; the next one must get
    # a fresh pool and match the serial result bit for bit, and neither
    # may leave a shared-memory segment behind.
    shm_before = set(os.listdir("/dev/shm"))
    sweep = sample_sweep(population=sample_technology_array(CMOS035, 2000, seed=5))
    executor = ProcessExecutor(max_workers=2)
    executor.prewarm()
    workers = list(executor._pool()._processes)
    in_flight = executor.run_tiles(plan_tiles(sweep.plan(), max_tile_elements=TEMPS.size))
    next(in_flight)
    for pid in workers:
        os.kill(pid, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        for _ in in_flight:
            pass

    recovered = sweep.run(executor=ProcessExecutor(max_workers=2), max_tile_elements=997)
    assert_results_equal(
        recovered, sweep.run(executor=SerialExecutor(), max_tile_elements=997)
    )
    assert set(os.listdir("/dev/shm")) <= shm_before


# --------------------------------------------------------------------------- #
# out-of-core execution
# --------------------------------------------------------------------------- #


def _memmap_backed(array):
    node = array
    while node is not None:
        if isinstance(node, np.memmap):
            return True
        node = getattr(node, "base", None)
    return False


class TestOutOfCore:
    def test_result_exceeding_budget_completes_memmap_backed(self, dense_period):
        # The dense tensor is 23 * 17 * 8 = 3128 bytes; a 1 KiB budget
        # cannot hold it, so the sweep must tile and assemble on disk.
        budget = 1024
        executor = MemmapExecutor(memory_budget_bytes=budget)
        tiled = sample_sweep("period").run(executor=executor)
        assert dense_period.values.nbytes > budget
        assert_results_equal(tiled, dense_period)
        assert _memmap_backed(tiled.values)
        tiling = plan_tiles(sample_sweep("period").plan(), memory_budget_bytes=budget)
        for tile in tiling.tiles:
            assert tile.element_count(tiling.dims, tiling.shape) * 8 <= budget

    def test_explicit_path_keeps_the_artifact(self, tmp_path, dense_period):
        target = tmp_path / "sweep.values"
        executor = MemmapExecutor(path=str(target), memory_budget_bytes=2048)
        tiled = sample_sweep("period").run(executor=executor)
        assert_results_equal(tiled, dense_period)
        assert target.exists()
        on_disk = np.memmap(
            str(target), dtype=np.float64, mode="r", shape=dense_period.values.shape
        )
        assert np.array_equal(np.asarray(on_disk), dense_period.values)

    def test_selection_on_memmap_result_matches_dense(self, dense_period):
        tiled = sample_sweep("period").run(
            executor=MemmapExecutor(memory_budget_bytes=1024)
        )
        label = tiled.coords["temperature"][3]
        assert np.array_equal(
            tiled.select(temperature=label).values,
            dense_period.select(temperature=label).values,
        )

    def test_tiny_budget_rejected(self):
        with pytest.raises(SweepError):
            MemmapExecutor(memory_budget_bytes=4)


# --------------------------------------------------------------------------- #
# streaming reducers
# --------------------------------------------------------------------------- #


class TestStreamingReducers:
    def test_mean_matches_numpy_everywhere(self, dense_period):
        reduced = sample_sweep("period").reduce(
            MeanReducer(), executor="serial", max_tile_elements=29
        )
        assert abs(reduced - float(np.mean(dense_period.values))) < 1e-12 * abs(
            float(np.mean(dense_period.values))
        )

    def test_mean_over_subset_of_dims(self, dense_period):
        reduced = sample_sweep("period").reduce(
            MeanReducer(dims=("sample",)), executor="serial", max_tile_elements=29
        )
        reference = np.mean(dense_period.values, axis=0)
        assert reduced.shape == reference.shape
        assert np.max(np.abs(reduced - reference)) < 1e-12 * np.max(np.abs(reference))

    def test_percentile_is_exact(self, dense_period):
        for q in (5.0, 50.0, 95.0):
            reduced = sample_sweep("period").reduce(
                PercentileReducer(q), executor="serial", max_tile_elements=31
            )
            assert reduced == pytest.approx(
                float(np.percentile(dense_period.values, q)), rel=1e-12
            )

    def test_percentile_over_subset_of_dims(self, dense_period):
        reduced = sample_sweep("period").reduce(
            PercentileReducer(90.0, dims=("sample",), slab_elements=16),
            executor="serial",
            max_tile_elements=43,
        )
        reference = np.percentile(dense_period.values, 90.0, axis=0)
        assert np.allclose(reduced, reference, rtol=1e-12, atol=0.0)

    def test_histogram_matches_numpy(self, dense_period):
        lo = float(np.min(dense_period.values))
        hi = float(np.max(dense_period.values)) * 1.001
        counts, edges = sample_sweep("period").reduce(
            HistogramReducer(bins=13, range=(lo, hi)),
            executor="serial",
            max_tile_elements=37,
        )
        ref_counts, ref_edges = np.histogram(
            dense_period.values.ravel(), bins=13, range=(lo, hi)
        )
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(edges, ref_edges)
        assert int(counts.sum()) == dense_period.values.size

    def test_named_reducer_mapping_returns_named_results(self, dense_period):
        reduced = sample_sweep("period").reduce(
            {"mean": MeanReducer(), "p50": PercentileReducer(50.0)},
            executor="serial",
            max_tile_elements=64,
        )
        assert set(reduced) == {"mean", "p50"}
        assert reduced["p50"] == pytest.approx(
            float(np.percentile(dense_period.values, 50.0)), rel=1e-12
        )

    def test_reducers_agree_across_backends(self, dense_period):
        reference = float(np.mean(dense_period.values))
        for backend in sorted(EXECUTORS):
            reduced = sample_sweep("period").reduce(
                MeanReducer(), executor=EXECUTORS[backend](), max_tile_elements=64
            )
            assert reduced == pytest.approx(reference, rel=1e-12)

    def test_histogram_requires_explicit_range(self):
        with pytest.raises(SweepError, match="range"):
            HistogramReducer(bins=8)
        with pytest.raises(SweepError):
            HistogramReducer(bins=8, range=(1.0, 1.0))

    def test_reduce_rejects_unknown_dims_and_empty_reducers(self):
        with pytest.raises(SweepError, match="dims"):
            sample_sweep("period").reduce(
                MeanReducer(dims=("site",)), executor="serial", max_tile_elements=64
            )
        with pytest.raises(SweepError):
            sample_sweep("period").reduce(None)
        with pytest.raises(SweepError, match="implement"):
            sample_sweep("period").reduce(object())


# --------------------------------------------------------------------------- #
# backend resolution
# --------------------------------------------------------------------------- #


class TestResolution:
    def test_no_arguments_is_the_dense_path(self):
        assert resolve_executor(None) is None

    def test_names_and_instances_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("memmap"), MemmapExecutor)
        assert resolve_executor("dense") is None
        executor = ProcessExecutor(max_workers=3)
        assert resolve_executor(executor) is executor

    def test_unknown_name_and_bad_type_rejected(self):
        with pytest.raises(SweepError, match="unknown executor"):
            resolve_executor("gpu")
        with pytest.raises(SweepError, match="Executor"):
            resolve_executor(42)

    def test_worker_count_reaches_process_backend(self):
        executor = make_executor("process", max_workers=3)
        assert isinstance(executor, ProcessExecutor)
        assert executor.max_workers == 3
        assert ProcessExecutor().max_workers == (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_non_positive_worker_count_rejected(self, workers):
        with pytest.raises(SweepError, match="max_workers"):
            ProcessExecutor(max_workers=workers)

    def test_tile_budget_alone_runs_serial_tiles(self, dense_period):
        tiled = sample_sweep("period").run(max_tile_elements=23)
        assert_results_equal(tiled, dense_period)
        tiled = sample_sweep("period").run(memory_budget_bytes=1024)
        assert_results_equal(tiled, dense_period)
