"""Benchmark ENGINE: scalar loops versus the vectorized batch engine.

Times the sweep-backed workload functions against the scalar reference
loops of ``tests/oracles/``
on the workloads the paper's artefacts are built from — Monte-Carlo
populations (25 / 200 / 1000 samples x 41 temperatures), the Fig. 2
sizing sweep and the Fig. 3 x Monte-Carlo configuration-axis cross
product — so the recorded BENCH_engine.json tracks the speedup over
time (CI regenerates it at the repo root via
``pytest benchmarks/test_bench_engine.py --benchmark-json=BENCH_engine.json``;
see .github/workflows/ci.yml).  Asserted shape: at the realistic
200-sample point the vectorized engine is at least 3x faster than the
scalar reference loop and agrees with it to 1e-9 relative on every
period; at 1000 samples the stacked sample axis (struct-of-arrays
technologies, PR 2) is at least 3x faster than PR 1's per-sample rebind
loop with the same 1e-9 agreement; the (C, S, T) configuration-axis
broadcast (ConfigurationBank, PR 3) is at least 3x faster than the
retained per-configuration loop at Fig. 3 scale, again to 1e-9; the
banked sensor-bank scan (SensorBank, PR 4) is at least 3x faster than
the per-sensor oracle at 9 sites x 1000 Monte-Carlo samples with exact
counter codes; repeated steady-state thermal solves through the
cached ThermalOperator factorization are at least 3x faster than the
factorize-per-solve path they replaced; the banked DTM policy sweep
(PolicyBank, PR 5) is at least 3x faster than looping the scalar
closed loop over 8 policies with bit-identical throttle decisions; and
a 96x96 grid — 4x the unknowns of the largest factorized benchmark
grid (48x48) — routes to the multigrid solver with a physically sane
field; and the tiled multiprocess sweep backend
(PR 6) is at least 2x faster than serial tiles at 4 workers on the
20000-sample Monte-Carlo x dense-grid sweep, bitwise identical to the
dense path (the speedup floor is asserted only where >= 4 cores are
actually available; the ``sweep-tiled-parallel`` group is recorded
everywhere); the batched block-CG path (PR 7) does at least 2x less
preconditioner work than the per-column loop it replaced on a 16-column
96x96 stack (the floor is counted in V-cycle applications — every
operation is O(nk) memory-bound, so the wall-clock ratio is hardware-
dependent; both wall clocks are recorded); and on the 256x256 full-die
grid the geometric-multigrid solve is at least 3x faster than
Jacobi-preconditioned CG run to convergence, steady and dt=1e-2
transient both, in the slow lane; and the sweep service's
micro-batcher (PR 8) answers 16 concurrent point queries at least 2x
faster than the same 16 queries issued sequentially against an
unbatched server (one broadcast evaluation instead of 16), bitwise
identical to local evaluation (the ``serve-microbatch`` group records
both wall clocks); and the technology-node study (PR 10) — 4 nodes x
200 Monte-Carlo samples x 41 temperatures, the workload the declarative
``technology`` sweep axis amortizes — runs at least 2x faster through
the per-node banked broadcast the axis lowers onto than through
rebinding a scalar technology per sample, to 1e-9 relative agreement
(the ``sweep-technology-axis`` group records both forms).
"""

import os
import threading
import time
from functools import partial

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.analysis import run_monte_carlo
from repro.cells import default_library
from repro.core import DynamicThermalManager, ReadoutConfig, SensorBank, ThrottlingPolicy
from repro.engine import Axis, ProcessExecutor, Sweep
from repro.serve import ServeClient, start_server_thread
from repro.experiments import run_calibration_study, run_dtm_study
from repro.optimize import sweep_width_ratio
from repro.oscillator import (
    PAPER_FIG3_CONFIGURATIONS,
    ConfigurationBank,
    RingConfiguration,
    RingOscillator,
)
from repro.tech import CMOS013, CMOS018, CMOS025, CMOS035, sample_technology_array
from repro.thermal import Floorplan, PowerMap, ThermalGrid, ThermalOperator
from tests.oracles import (
    configuration_period_tensor_loop,
    evaluate_configuration_scalar,
    period_matrix_loop,
    run_calibration_study_scalar,
    run_monte_carlo_scalar,
    scan_loop,
    run_policy_loop,
    solve_columns_loop,
    sweep_width_ratio_scalar,
)

CONFIGURATION = RingConfiguration.parse("2INV+3NAND2")
DENSE_GRID = np.linspace(-50.0, 150.0, 41)

#: Junction temperatures of the 3x3 sensor-bank scan benchmarks.
SCAN_TEMPS = np.linspace(50.0, 110.0, 9)


def _make_bank():
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(3, 3)
    return SensorBank.from_floorplan(CMOS035, floorplan, CONFIGURATION)


def _best_time(callable_, rounds=3):
    """Best-of-N wall-clock time (and last result) of a zero-arg callable.

    The speedup assertions gate CI on shared runners, where a scheduling
    stall inside the short fast-path window would fake a slowdown; the
    minimum over a few rounds removes that flake vector.  (A stall in
    the *slow* reference path only increases the measured speedup, so a
    single slow-path run stays sound.)
    """
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_monte_carlo(vectorized, sample_count):
    run = run_monte_carlo if vectorized else run_monte_carlo_scalar
    return run(
        CMOS035,
        CONFIGURATION,
        sample_count=sample_count,
        temperatures_c=DENSE_GRID,
        seed=1234,
    )


@pytest.mark.benchmark(group="engine-mc-25")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_monte_carlo_25_samples(benchmark, vectorized):
    study = benchmark.pedantic(
        _run_monte_carlo, args=(vectorized, 25), rounds=3, iterations=1
    )
    assert study.sample_count == 25


@pytest.mark.benchmark(group="engine-mc-200")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_monte_carlo_200_samples(benchmark, vectorized):
    study = benchmark.pedantic(
        _run_monte_carlo, args=(vectorized, 200), rounds=2, iterations=1
    )
    assert study.sample_count == 200


@pytest.mark.slow
@pytest.mark.benchmark(group="engine-mc-1000")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_monte_carlo_1000_samples(benchmark, vectorized):
    study = benchmark.pedantic(
        _run_monte_carlo, args=(vectorized, 1000), rounds=1, iterations=1
    )
    assert study.sample_count == 1000


def test_monte_carlo_speedup_at_200x41():
    """The ISSUE acceptance criterion: >= 3x at 200 samples x 41 temps,
    with vectorized-vs-scalar relative period error bounded by 1e-9."""
    vectorized_s, vectorized = _best_time(lambda: _run_monte_carlo(True, 200))

    start = time.perf_counter()
    scalar = _run_monte_carlo(False, 200)
    scalar_s = time.perf_counter() - start

    speedup = scalar_s / vectorized_s
    print(f"\nengine speedup at 200x41: {speedup:.1f}x "
          f"(scalar {scalar_s * 1e3:.0f} ms, vectorized {vectorized_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    worst = max(
        float(np.max(np.abs(v.periods_s - s.periods_s) / s.periods_s))
        for v, s in zip(vectorized.responses, scalar.responses)
    )
    assert worst <= 1e-9
    assert vectorized.period_spread_percent == pytest.approx(
        scalar.period_spread_percent, rel=1e-9
    )


def test_stacked_speedup_at_1000x41():
    """The PR 2 acceptance criterion: the stacked sample axis is >= 3x
    faster than the PR 1 per-sample rebind loop at 1000 Monte-Carlo
    samples x 41 temperatures, agreeing to 1e-9 relative on every
    period."""
    ring = RingOscillator(default_library(CMOS035), CONFIGURATION)
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    stacked_s, stacked = _best_time(
        lambda: ring.period_matrix(population, DENSE_GRID)
    )

    start = time.perf_counter()
    looped = period_matrix_loop(ring, population, DENSE_GRID)
    looped_s = time.perf_counter() - start

    speedup = looped_s / stacked_s
    print(f"\nstacked speedup at 1000x41: {speedup:.1f}x "
          f"(looped {looped_s * 1e3:.0f} ms, stacked {stacked_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    assert stacked.shape == looped.shape == (1000, DENSE_GRID.size)
    worst = float(np.max(np.abs(stacked - looped) / np.abs(looped)))
    assert worst <= 1e-9


@pytest.mark.benchmark(group="engine-stacked-1000x41")
@pytest.mark.parametrize("mode", ["stacked", "looped"])
def test_period_matrix_1000_samples(benchmark, mode):
    ring = RingOscillator(default_library(CMOS035), CONFIGURATION)
    population = sample_technology_array(CMOS035, 1000, seed=1234)
    evaluate = (
        ring.period_matrix
        if mode == "stacked"
        else partial(period_matrix_loop, ring)
    )
    matrix = benchmark.pedantic(
        evaluate, args=(population, DENSE_GRID), rounds=2, iterations=1
    )
    assert matrix.shape == (1000, DENSE_GRID.size)


def test_configuration_axis_speedup_at_fig3_scale():
    """The PR 3 acceptance criterion: the Fig. 3 x Monte-Carlo cross
    product evaluated as one (C, S, T) broadcast through the
    configuration bank is >= 3x faster than the retained
    per-configuration loop at Fig. 3 scale (6 configurations x 1000
    samples x 41 temperatures), agreeing to 1e-9 relative on every
    period."""
    bank = ConfigurationBank(default_library(CMOS035), PAPER_FIG3_CONFIGURATIONS)
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    stacked_s, stacked = _best_time(
        lambda: bank.period_tensor(DENSE_GRID, technologies=population)
    )

    start = time.perf_counter()
    looped = configuration_period_tensor_loop(
        bank, DENSE_GRID, technologies=population
    )
    looped_s = time.perf_counter() - start

    speedup = looped_s / stacked_s
    print(f"\nconfiguration-axis speedup at 6x1000x41: {speedup:.1f}x "
          f"(looped {looped_s * 1e3:.0f} ms, broadcast {stacked_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    assert stacked.shape == looped.shape == (
        len(PAPER_FIG3_CONFIGURATIONS), 1000, DENSE_GRID.size
    )
    worst = float(np.max(np.abs(stacked - looped) / np.abs(looped)))
    assert worst <= 1e-9


@pytest.mark.benchmark(group="engine-config-bank-6x1000x41")
@pytest.mark.parametrize("mode", ["broadcast", "looped"])
def test_configuration_bank_fig3_cross_product(benchmark, mode):
    bank = ConfigurationBank(default_library(CMOS035), PAPER_FIG3_CONFIGURATIONS)
    population = sample_technology_array(CMOS035, 1000, seed=1234)
    evaluate = (
        bank.period_tensor
        if mode == "broadcast"
        else partial(configuration_period_tensor_loop, bank)
    )
    tensor = benchmark.pedantic(
        evaluate,
        args=(DENSE_GRID,),
        kwargs=dict(technologies=population),
        rounds=2,
        iterations=1,
    )
    assert tensor.shape == (len(PAPER_FIG3_CONFIGURATIONS), 1000, DENSE_GRID.size)


@pytest.mark.benchmark(group="engine-fig3-sweep")
@pytest.mark.parametrize("vectorized", [True, False], ids=["sweep", "scalar"])
def test_fig3_named_configurations_through_sweep_api(benchmark, vectorized):
    """The declarative form of the Fig. 3 sweep: configuration axis x
    temperature axis, lowered onto the bank broadcast (or the scalar
    oracle loop of ``tests/oracles/``).  The library is built
    outside both timed closures so the comparison measures evaluation,
    not library construction."""
    library = default_library(CMOS035)
    if vectorized:
        def evaluate():
            return (
                Sweep(library=library)
                .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
                .over(Axis.temperature(DENSE_GRID))
                .run()
                .values
            )
    else:
        def evaluate():
            return np.stack([
                evaluate_configuration_scalar(
                    library, configuration, DENSE_GRID
                ).response.periods_s
                for configuration in PAPER_FIG3_CONFIGURATIONS.values()
            ])

    tensor = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert tensor.shape == (len(PAPER_FIG3_CONFIGURATIONS), DENSE_GRID.size)


def test_banked_scan_speedup_at_9_sites_x_1000_samples():
    """The PR 4 acceptance criterion: a full sensor-bank scan (two-point
    calibration + measurement of every site against the whole
    Monte-Carlo population) through the banked broadcast path is >= 3x
    faster than the retained per-sensor oracle (one scalar sensor per
    site per sample, controller FSM included) at 9 sites x 1000
    samples, with exact counter codes and estimates agreeing to 1e-9
    relative."""
    bank = _make_bank()
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    def banked():
        calibration = bank.two_point_calibration(
            -50.0, 150.0, technologies=population
        )
        return bank.scan(SCAN_TEMPS, technologies=population, calibration=calibration)

    banked_s, fast = _best_time(banked)

    start = time.perf_counter()
    oracle = scan_loop(
        bank, SCAN_TEMPS, technologies=population, calibrate_at=(-50.0, 150.0)
    )
    oracle_s = time.perf_counter() - start

    speedup = oracle_s / banked_s
    print(f"\nbanked-scan speedup at 9x1000: {speedup:.0f}x "
          f"(oracle {oracle_s * 1e3:.0f} ms, banked {banked_s * 1e3:.1f} ms)")
    assert speedup >= 3.0

    assert fast.codes.shape == oracle.codes.shape == (9, 1000)
    assert np.array_equal(fast.codes, oracle.codes)
    worst = float(
        np.max(np.abs(fast.estimates_c - oracle.estimates_c) / np.abs(oracle.estimates_c))
    )
    assert worst <= 1e-9


@pytest.mark.benchmark(group="engine-bank-scan-9x200")
@pytest.mark.parametrize("mode", ["banked", "oracle"])
def test_bank_scan_9_sites_200_samples(benchmark, mode):
    bank = _make_bank()
    population = sample_technology_array(CMOS035, 200, seed=1234)
    if mode == "banked":
        def evaluate():
            calibration = bank.two_point_calibration(
                -50.0, 150.0, technologies=population
            )
            return bank.scan(
                SCAN_TEMPS, technologies=population, calibration=calibration
            )
    else:
        def evaluate():
            return scan_loop(
                bank, SCAN_TEMPS, technologies=population, calibrate_at=(-50.0, 150.0)
            )
    scan = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    assert scan.codes.shape == (9, 200)


@pytest.mark.benchmark(group="engine-bank-scan-9x1000")
def test_bank_scan_9_sites_1000_samples_banked(benchmark):
    bank = _make_bank()
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    def evaluate():
        calibration = bank.two_point_calibration(
            -50.0, 150.0, technologies=population
        )
        return bank.scan(SCAN_TEMPS, technologies=population, calibration=calibration)

    scan = benchmark.pedantic(evaluate, rounds=3, iterations=1)
    assert scan.codes.shape == (9, 1000)


def test_factorization_reuse_speedup():
    """The PR 4 thermal acceptance criterion: repeated steady-state
    solves through the cached ThermalOperator factorization are >= 3x
    faster than the pre-operator path (one implicit factorization per
    spsolve call), agreeing to solver rounding."""
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=48, ny=48)
    grid = ThermalGrid.for_power_map(power)
    rhs = power.values_w.reshape(-1)
    solves = 10

    def refactorize_every_solve():
        matrix = grid.conductance_matrix.tocsc()
        return [spsolve(matrix, rhs) for _ in range(solves)]

    def cached_factorization():
        operator = ThermalOperator(grid)
        return [operator.steady_rise(rhs) for _ in range(solves)]

    cached_s, cached = _best_time(cached_factorization)

    start = time.perf_counter()
    reference = refactorize_every_solve()
    refactorized_s = time.perf_counter() - start

    speedup = refactorized_s / cached_s
    print(f"\nfactorization-reuse speedup over {solves} steady solves on 48x48: "
          f"{speedup:.1f}x (refactorize {refactorized_s * 1e3:.0f} ms, "
          f"cached {cached_s * 1e3:.0f} ms)")
    assert speedup >= 3.0

    worst = float(np.max(np.abs(cached[0] - reference[0]) / np.abs(reference[0])))
    assert worst <= 1e-9


@pytest.mark.benchmark(group="thermal-steady-48x48x10")
@pytest.mark.parametrize("mode", ["cached", "refactorize"])
def test_repeated_steady_solves(benchmark, mode):
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=48, ny=48)
    grid = ThermalGrid.for_power_map(power)
    rhs = power.values_w.reshape(-1)

    if mode == "cached":
        def evaluate():
            operator = ThermalOperator(grid)
            return [operator.steady_rise(rhs) for _ in range(10)]
    else:
        def evaluate():
            matrix = grid.conductance_matrix.tocsc()
            return [spsolve(matrix, rhs) for _ in range(10)]

    result = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert len(result) == 10


#: The 8-policy comparison set of the policy-bank benchmarks: throttle
#: thresholds spread across the reachable band, fixed hysteresis.
POLICY_SET = {
    f"throttle-{threshold:.0f}": ThrottlingPolicy(
        throttle_threshold_c=float(threshold),
        release_threshold_c=float(threshold) - 15.0,
        emergency_threshold_c=float(threshold) + 10.0,
    )
    for threshold in np.linspace(95.0, 116.0, 8)
}

DTM_KW = dict(
    duration_s=0.6, control_interval_s=0.03, limit_c=115.0, workload_scale=1.6
)


def _make_manager():
    floorplan = Floorplan.example_processor()
    floorplan.add_sensor_grid(3, 3)
    return DynamicThermalManager(
        CMOS035,
        floorplan,
        RingConfiguration.parse("2INV+3NAND2"),
        readout=ReadoutConfig(),
        grid_resolution=16,
    )


def test_policy_bank_speedup_at_8_policies():
    """The PR 5 acceptance criterion: the banked DTM policy sweep (all
    policies through one shared ThermalStepper, one multi-RHS solve +
    one broadcast sensor scan + one vectorized FSM step per timestep)
    is >= 3x faster than looping the scalar closed loop over 8 policies
    on one grid, with bit-identical throttle decisions and temperatures
    agreeing to 1e-9 relative."""
    manager = _make_manager()
    # Warm the shared backward-Euler factorization so both paths time
    # pure evaluation (the scalar loop reuses it too).
    manager.run_bank(POLICY_SET, **DTM_KW)

    banked_s, banked = _best_time(lambda: manager.run_bank(POLICY_SET, **DTM_KW))

    start = time.perf_counter()
    scalar = {
        label: run_policy_loop(manager, policy, **DTM_KW)
        for label, policy in POLICY_SET.items()
    }
    scalar_s = time.perf_counter() - start

    speedup = scalar_s / banked_s
    print(f"\npolicy-bank speedup at 8 policies x 16x16: {speedup:.1f}x "
          f"(looped {scalar_s * 1e3:.0f} ms, banked {banked_s * 1e3:.1f} ms)")
    assert speedup >= 3.0

    for label, policy in POLICY_SET.items():
        row = banked.to_result(label)
        oracle = scalar[label]
        assert [p.state_name for p in row.trace] == [
            p.state_name for p in oracle.trace
        ]
        ours = np.asarray([p.true_peak_c for p in row.trace])
        theirs = np.asarray([p.true_peak_c for p in oracle.trace])
        assert np.max(np.abs(ours - theirs) / np.abs(theirs)) <= 1e-9
        assert row.throttle_events() == oracle.throttle_events()


@pytest.mark.benchmark(group="thermal-policy-bank-8x16")
@pytest.mark.parametrize("mode", ["banked", "looped"])
def test_policy_bank_8_policies(benchmark, mode):
    """Records the banked-vs-looped policy sweep into BENCH_engine.json
    (the CI bench job asserts this group is present)."""
    manager = _make_manager()
    if mode == "banked":
        def evaluate():
            return manager.run_bank(POLICY_SET, **DTM_KW)
    else:
        def evaluate():
            return [
                run_policy_loop(manager, policy, **DTM_KW)
                for policy in POLICY_SET.values()
            ]
    result = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert result is not None


def test_iterative_fallback_agreement_and_large_grid():
    """A 96x96 grid — 4x the unknowns of the largest factorized
    benchmark grid (48x48) — routes past the direct threshold to the
    multigrid solver and gives a physically sane field.  Multigrid
    agrees with the direct solver to 1e-8 at 48 and 96 in
    ``tests/test_thermal_multigrid.py``."""
    big_power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=96, ny=96)
    big_grid = ThermalGrid.for_power_map(big_power)
    assert big_grid.nx * big_grid.ny >= 4 * 48 * 48
    operator = ThermalOperator.for_grid(big_grid)
    assert operator.method == "multigrid"
    field = operator.solve_steady_state(big_power, 45.0)
    assert np.all(np.isfinite(field.values_c))
    # The mean rise matches theta_ja x total power regardless of grid.
    theta = big_grid.junction_to_ambient_resistance_k_per_w()
    expected = big_power.total_power_w() * theta
    assert field.mean_c() - 45.0 == pytest.approx(expected, rel=0.05)


@pytest.mark.benchmark(group="thermal-iterative-96x96")
def test_iterative_large_grid_steady_solve(benchmark):
    """Records a steady solve of a new right-hand side on the 96x96
    grid, which the grid size routes to multigrid CG.  Every round
    solves a different power map (the previous one's solution is the
    warm start), so each round does real CG iterations."""
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=96, ny=96)
    operator = ThermalOperator(ThermalGrid.for_power_map(power))
    assert operator.method == "multigrid"
    rhs = power.values_w.reshape(-1)
    operator.steady_rise(rhs)  # build the hierarchy outside the timing
    rng = np.random.default_rng(96)
    iterations = []

    def new_rhs():
        return (rhs * rng.uniform(0.5, 1.5, rhs.size),), {}

    def solve(new):
        rise = operator.steady_rise(new)
        iterations.append(operator.steady_solve().last_iterations)
        return rise

    result = benchmark.pedantic(solve, setup=new_rhs, rounds=3, iterations=1)
    assert result.shape == rhs.shape
    assert min(iterations) > 0


@pytest.mark.benchmark(group="thermal-dtm-study")
def test_dtm_study_wall_clock(benchmark):
    """Records the DTM study's wall clock (managed + unmanaged closed
    loops on one manager) so BENCH_engine.json tracks the factorization
    reuse and the banked per-step sensor scans over time."""
    result = benchmark.pedantic(
        run_dtm_study,
        kwargs=dict(duration_s=0.6, control_interval_s=0.03, grid_resolution=16),
        rounds=2,
        iterations=1,
    )
    assert result.managed.peak_temperature_c() <= result.unmanaged.peak_temperature_c()


@pytest.mark.benchmark(group="engine-calibration-study")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_calibration_study_batched(benchmark, vectorized):
    result = benchmark.pedantic(
        run_calibration_study if vectorized else run_calibration_study_scalar,
        kwargs=dict(monte_carlo_samples=12),
        rounds=2,
        iterations=1,
    )
    assert result.sample_count == 17


@pytest.mark.benchmark(group="engine-fig2-sweep")
@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_sizing_sweep_dense_grid(benchmark, vectorized, tech):
    result = benchmark.pedantic(
        sweep_width_ratio if vectorized else sweep_width_ratio_scalar,
        args=(tech,),
        kwargs=dict(temperatures_c=DENSE_GRID),
        rounds=3,
        iterations=1,
    )
    assert result.best().max_abs_error_percent < 0.25


#: The tiled-execution benchmark workload: a Monte-Carlo population x
#: dense temperature grid big enough that tile fan-out dominates
#: per-task overhead (20000 x 41 = 820k elements, ~1 s of serial
#: evaluation), split into ~2^17-element tiles.
TILED_SAMPLES = 20000
TILED_TILE_ELEMENTS = 1 << 17


def _tiled_sweep():
    # A prebuilt ring as the base context: the timed region then
    # measures tile evaluation and transport, not per-tile cell-library
    # construction.
    ring = RingOscillator(default_library(CMOS035), CONFIGURATION)
    population = sample_technology_array(CMOS035, TILED_SAMPLES, seed=1234)
    return (
        Sweep(ring=ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(DENSE_GRID))
    )


def test_tiled_parallel_speedup_at_4_workers():
    """The PR 6 acceptance criterion: the multiprocess backend is >= 2x
    faster than serial tiles at 4 workers on the 20000-sample sweep,
    with bitwise-identical results.  The floor is a statement about
    parallel hardware, so it runs at ``min(4, cores)`` workers with the
    per-core bound ``speedup >= workers / 2``: 2x on the 4-vCPU CI
    runners, and "parallel must not lose" (1x) on 2 cores.  Only a
    1-core box skips the floor; the bitwise-identity half holds — and
    is checked — everywhere."""
    sweep = _tiled_sweep()
    workers = min(4, os.cpu_count() or 1)

    parallel_executor = ProcessExecutor(max_workers=workers)
    # Warm the worker pool outside the timing: pool startup is a
    # once-per-process cost the backend amortizes by design.
    sweep.run(executor=parallel_executor, max_tile_elements=TILED_TILE_ELEMENTS)

    parallel_s, parallel = _best_time(
        lambda: sweep.run(
            executor=parallel_executor, max_tile_elements=TILED_TILE_ELEMENTS
        ),
        rounds=2,
    )

    start = time.perf_counter()
    serial = sweep.run(executor="serial", max_tile_elements=TILED_TILE_ELEMENTS)
    serial_s = time.perf_counter() - start

    speedup = serial_s / parallel_s
    print(f"\ntiled-parallel speedup at {TILED_SAMPLES}x{DENSE_GRID.size}, "
          f"{workers} workers: {speedup:.2f}x "
          f"(serial {serial_s * 1e3:.0f} ms, parallel {parallel_s * 1e3:.0f} ms)")

    assert serial.dims == parallel.dims
    assert np.array_equal(serial.values, parallel.values)
    if workers < 2:
        pytest.skip("speedup floor needs 2 cores, have 1; bitwise identity verified")
    assert speedup >= workers / 2


@pytest.mark.benchmark(group="sweep-tiled-parallel")
@pytest.mark.parametrize("mode", ["process-4", "serial"])
def test_tiled_sweep_execution(benchmark, mode):
    """Records serial-tiles vs 4-worker-pool wall clock into
    BENCH_engine.json (the CI bench job asserts this group is present)."""
    sweep = _tiled_sweep()
    if mode == "process-4":
        executor = ProcessExecutor(max_workers=4)
        # Pool startup is amortized by design; warm it outside the timing.
        sweep.run(executor=executor, max_tile_elements=TILED_TILE_ELEMENTS)
    else:
        executor = "serial"
    result = benchmark.pedantic(
        lambda: sweep.run(executor=executor, max_tile_elements=TILED_TILE_ELEMENTS),
        rounds=2,
        iterations=1,
    )
    assert result.shape == (TILED_SAMPLES, DENSE_GRID.size)


# --------------------------------------------------------------------- #
# PR 7: geometric multigrid + true batched RHS
# --------------------------------------------------------------------- #

BATCHED_K = 16


def _multigrid_solve_at(resolution):
    power = PowerMap.from_floorplan(
        Floorplan.example_processor(), nx=resolution, ny=resolution
    )
    grid = ThermalGrid.for_power_map(power)
    operator = ThermalOperator(grid)
    assert operator.method == "multigrid"
    return grid, power, operator


def test_batched_rhs_work_floor_at_96x96x16():
    """The PR 7 batched-RHS acceptance criterion, counted in solver work.

    The exact degradation the batching removes: a k-column stack used to
    cost k sequential CG runs — k x ~13 single-column V-cycle
    applications — where the block path pays ~13 V-cycles on the whole
    (n, k) block.  The floor is asserted on that counted work (>= 2x
    fewer preconditioner applications) rather than wall clock, because
    every operation involved is O(nk) memory-bound: at 96x96 the
    per-column loop runs L2-resident (74 KB vectors) while the block
    streams DRAM, so the wall-clock ratio is hardware-dependent (1.3 -
    2.2x here) and flaky on shared runners, while the work ratio is
    deterministic.  Both wall clocks are still printed and recorded in
    the thermal-batched-rhs-96x96xK group below.
    """
    grid, power, operator = _multigrid_solve_at(96)
    solve = operator.steady_solve()
    rhs = power.values_w.reshape(-1)
    stack = np.stack(
        [(0.5 + 0.1 * k) * rhs for k in range(BATCHED_K)], axis=1
    )

    loop_applications = 0
    loop_columns = []
    for k in range(BATCHED_K):
        column = stack[:, k : k + 1]
        solution, converged = solve._block_cg(
            column, np.zeros_like(column), solve._preconditioner
        )
        assert converged.all()
        loop_applications += solve.last_iterations
        loop_columns.append(solution[:, 0])

    block_solution, converged = solve._block_cg(
        stack, np.zeros_like(stack), solve._preconditioner
    )
    assert converged.all()
    block_applications = solve.last_iterations

    work_ratio = loop_applications / block_applications
    loop_s, _ = _best_time(lambda: solve_columns_loop(solve, stack))

    def cold_block():
        solve._warm_starts.clear()
        return solve(stack)

    block_s, _ = _best_time(cold_block)
    print(
        f"\nbatched-RHS work at 96x96 x {BATCHED_K}: loop {loop_applications} "
        f"V-cycle applications vs block {block_applications} "
        f"({work_ratio:.1f}x less work; wall clock loop {loop_s * 1e3:.0f} ms, "
        f"block {block_s * 1e3:.0f} ms, {loop_s / block_s:.2f}x)"
    )
    assert work_ratio >= 2.0
    # And the block result is the loop result (1e-8, the solve bound).
    reference = np.stack(loop_columns, axis=1)
    assert np.max(np.abs(block_solution - reference)) <= 1e-8 * np.max(np.abs(reference))


@pytest.mark.benchmark(group="thermal-batched-rhs-96x96xK")
@pytest.mark.parametrize("mode", ["block", "column-loop"])
def test_batched_rhs_block_vs_column_loop(benchmark, mode):
    """Records block-CG vs per-column CG wall clock on a 16-column stack
    into BENCH_engine.json (the CI bench job asserts this group is
    present); the asserted >= 2x floor lives in the counted-work test
    above."""
    _grid, power, operator = _multigrid_solve_at(96)
    solve = operator.steady_solve()
    rhs = power.values_w.reshape(-1)
    stack = np.stack([(0.5 + 0.1 * k) * rhs for k in range(BATCHED_K)], axis=1)
    solve(stack)  # build the hierarchy outside the timing

    if mode == "block":

        def run():
            solve._warm_starts.clear()
            return solve(stack)

    else:

        def run():
            return solve_columns_loop(solve, stack)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.shape == stack.shape


@pytest.mark.slow
def test_multigrid_speedup_floor_at_256x256():
    """The multigrid acceptance criterion on the full-die grid.

    At 256x256 (65536 unknowns) multigrid-CG converges in ~13
    iterations, steady and on the dt=1e-2 backward-Euler shift.  The
    baseline is CG with the Jacobi preconditioner the solver retries
    with, run to the same tolerance: ~1400 iterations steady and ~1000
    on the shift.  Both are full solves, so the asserted >= 3x compares
    real work.
    """
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=256, ny=256)
    grid = ThermalGrid.for_power_map(power)
    rhs = power.values_w.reshape(-1)

    multigrid = ThermalOperator(grid)
    assert multigrid.method == "multigrid"

    def jacobi_solve(solve, column):
        # The default cap (1000 iterations) is below what Jacobi needs
        # here, so lift it far enough to always reach the tolerance.
        start = time.perf_counter()
        solution, converged = solve._block_cg(
            column[:, np.newaxis], np.zeros((column.size, 1)), solve._jacobi,
            maxiter=20_000,
        )
        elapsed = time.perf_counter() - start
        assert converged.all()
        return elapsed, solve.last_iterations, solution[:, 0]

    # Steady state: multigrid vs Jacobi, both to convergence.
    mg_solve = multigrid.steady_solve()
    mg_solve(rhs)  # hierarchy built outside the timing

    def mg_steady():
        mg_solve._warm_starts.clear()
        return mg_solve(rhs)

    mg_s, mg_rise = _best_time(mg_steady)
    mg_iterations = mg_solve.last_iterations
    jacobi_s, jacobi_iterations, jacobi_rise = jacobi_solve(mg_solve, rhs)
    assert np.max(np.abs(jacobi_rise - mg_rise)) <= 1e-8 * np.max(np.abs(mg_rise))

    steady_speedup = jacobi_s / mg_s
    print(
        f"\nmultigrid vs Jacobi-CG at 256x256 steady: MG {mg_s * 1e3:.0f} ms "
        f"({mg_iterations} iterations) vs Jacobi {jacobi_s * 1e3:.0f} ms "
        f"({jacobi_iterations} iterations) -> {steady_speedup:.1f}x"
    )
    assert steady_speedup >= 3.0

    # Physics check on the multigrid field: mean rise = theta_ja x P.
    theta = grid.junction_to_ambient_resistance_k_per_w()
    assert np.mean(mg_rise) == pytest.approx(theta * power.total_power_w(), rel=1e-6)

    # Transient (dt = 1e-2): one multigrid step vs the same step by
    # Jacobi-CG, both to convergence.
    dt = 1e-2
    stepper = multigrid.stepper(dt)
    state = stepper.step(np.zeros_like(rhs), rhs)  # builds the shifted hierarchy
    transient_solve = multigrid._transient_solves[dt]

    def mg_step():
        transient_solve._warm_starts.clear()
        return stepper.step(state, rhs)

    mg_step_s, _ = _best_time(mg_step)
    step_rhs = rhs + grid.capacitance_vector / dt * state
    jacobi_step_s, jacobi_step_iterations, _ = jacobi_solve(transient_solve, step_rhs)

    transient_speedup = jacobi_step_s / mg_step_s
    print(
        f"multigrid vs Jacobi-CG at 256x256 transient (dt={dt:g}): MG step "
        f"{mg_step_s * 1e3:.0f} ms vs Jacobi {jacobi_step_s * 1e3:.0f} ms "
        f"({jacobi_step_iterations} iterations) -> {transient_speedup:.1f}x"
    )
    assert transient_speedup >= 3.0


@pytest.mark.slow
@pytest.mark.benchmark(group="thermal-multigrid-256x256")
@pytest.mark.parametrize("phase", ["steady", "transient-step"])
def test_multigrid_full_die_wall_clock(benchmark, phase):
    """Records the warm 256x256 multigrid solves into BENCH_engine.json
    (the CI bench job asserts this group is present); the >= 3x floor
    against Jacobi-CG lives in the slow floor test above."""
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=256, ny=256)
    grid = ThermalGrid.for_power_map(power)
    operator = ThermalOperator(grid)
    rhs = power.values_w.reshape(-1)
    if phase == "steady":
        solve = operator.steady_solve()
        solve(rhs)  # hierarchy built outside the timing

        def run():
            solve._warm_starts.clear()
            return solve(rhs)

    else:
        stepper = operator.stepper(1e-2)
        state = stepper.step(np.zeros_like(rhs), rhs)
        solve = operator._transient_solves[1e-2]

        def run():
            solve._warm_starts.clear()
            return stepper.step(state, rhs)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.shape == rhs.shape


# --------------------------------------------------------------------- #
# PR 8: the sweep service's micro-batched point queries
# --------------------------------------------------------------------- #

#: The micro-batching benchmark workload: 16 point queries against a
#: width_ratio base.  The geometry axis rebuilds the sized ring per
#: ratio, so each solo evaluation carries real fixed cost (~10 ms) that
#: one batched broadcast pays once — the exact degradation the batcher
#: removes — while the spec payload stays a few hundred bytes, keeping
#: transport out of the measurement.
SERVE_POINTS = 16
SERVE_RATIOS = tuple(float(r) for r in np.linspace(1.0, 4.5, 8))

#: The batching window is pure added latency for the batch (the
#: speedup cap is N*eval / (window + eval)), so it is kept just wide
#: enough that 16 loopback clients reliably land inside it.
SERVE_WINDOW_MS = 20.0


def _serve_base_spec():
    return Sweep(technology=CMOS035).over(Axis.width_ratio(SERVE_RATIOS)).to_dict()


def _serve_temps(round_index):
    """A fresh temperature grid per round: repeat rounds must measure
    evaluation, not the service's result cache."""
    return [
        float(t)
        for t in np.linspace(-40.0, 125.0, SERVE_POINTS) + 0.001 * round_index
    ]


def _points_concurrent(port, spec, temps):
    """All points at once, one connection each (the batcher coalesces
    across connections); returns the per-point results in temp order."""
    results = [None] * len(temps)
    errors = []
    barrier = threading.Barrier(len(temps))

    def worker(slot):
        try:
            with ServeClient("127.0.0.1", port) as remote:
                barrier.wait()
                results[slot] = remote.point(spec, temps[slot])
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(len(temps))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _points_sequential(port, spec, temps):
    """The same points issued one at a time over one connection."""
    with ServeClient("127.0.0.1", port) as remote:
        return [remote.point(spec, t) for t in temps]


def test_microbatch_throughput_floor_at_16_points():
    """The PR 8 acceptance criterion: 16 concurrent point queries
    through the micro-batcher complete >= 2x faster than the same 16
    issued sequentially against an unbatched server (window 0: every
    point evaluates alone), because the batch coalesces onto one
    broadcast evaluation.  Every batched answer is bitwise identical to
    the local evaluation of its point."""
    spec = _serve_base_spec()

    sequential_handle = start_server_thread(batch_window_ms=0.0)
    try:
        with ServeClient("127.0.0.1", sequential_handle.port) as remote:
            remote.point(spec, 150.5)  # warm the evaluation path
            start = time.perf_counter()
            _points_sequential(sequential_handle.port, spec, _serve_temps(0))
            sequential_s = time.perf_counter() - start
        assert sequential_handle.server.evaluations == SERVE_POINTS + 1
    finally:
        sequential_handle.stop()

    batched_handle = start_server_thread(batch_window_ms=SERVE_WINDOW_MS)
    try:
        batched_handle.server.evaluations  # touch: server is live
        best_s = float("inf")
        round_evaluations = []
        results = None
        temps = None
        for round_index in (1, 2):
            temps = _serve_temps(round_index)
            before = batched_handle.server.evaluations
            start = time.perf_counter()
            results = _points_concurrent(batched_handle.port, spec, temps)
            best_s = min(best_s, time.perf_counter() - start)
            round_evaluations.append(batched_handle.server.evaluations - before)
    finally:
        batched_handle.stop()

    speedup = sequential_s / best_s
    print(f"\nserve-microbatch speedup at {SERVE_POINTS} points: {speedup:.1f}x "
          f"(sequential {sequential_s * 1e3:.0f} ms, batched {best_s * 1e3:.0f} ms; "
          f"evaluations per round {round_evaluations})")
    assert speedup >= 2.0
    # The concurrent burst coalesced (a straggler may open a second
    # batch on a loaded runner; 16 solo evaluations must not happen).
    assert min(round_evaluations) <= 2

    local = Sweep.from_dict(spec).over(Axis.temperature(temps)).run()
    for temperature, served in zip(temps, results):
        expected = local.select(temperature=[temperature])
        assert served.dims == expected.dims
        assert np.array_equal(served.values, expected.values)


@pytest.mark.benchmark(group="serve-microbatch")
@pytest.mark.parametrize("mode", ["batched", "sequential"])
def test_point_query_throughput(benchmark, mode):
    """Records batched vs sequential point-query wall clock into
    BENCH_engine.json (the CI bench job asserts this group is present);
    the asserted >= 2x floor lives in the test above."""
    spec = _serve_base_spec()
    window = SERVE_WINDOW_MS if mode == "batched" else 0.0
    handle = start_server_thread(batch_window_ms=window)
    rounds = iter(range(10, 20))  # fresh temps per round: no cache hits

    if mode == "batched":
        def run():
            return _points_concurrent(handle.port, spec, _serve_temps(next(rounds)))
    else:
        def run():
            return _points_sequential(handle.port, spec, _serve_temps(next(rounds)))

    try:
        results = benchmark.pedantic(run, rounds=2, iterations=1)
    finally:
        handle.stop()
    assert len(results) == SERVE_POINTS


# --------------------------------------------------------------------- #
# PR 10: the technology sweep axis
# --------------------------------------------------------------------- #

#: The technology-study workload: every built-in node, each with its own
#: 200-sample Monte-Carlo population (nodes differ in geometry, so the
#: populations cannot stack across nodes), on the dense 41-point grid.
TECH_AXIS_NODES = (CMOS035, CMOS025, CMOS018, CMOS013)
TECH_AXIS_SAMPLES = 200


def _per_node_workload():
    """(ring, population) per node, built outside the timed regions so
    both forms measure evaluation, not library construction."""
    return [
        (
            RingOscillator(default_library(node), CONFIGURATION),
            sample_technology_array(node, TECH_AXIS_SAMPLES, seed=1234),
        )
        for node in TECH_AXIS_NODES
    ]


def test_technology_axis_speedup_at_4x200x41():
    """The PR 10 acceptance criterion: the per-node banked broadcast the
    ``technology`` axis lowers onto (one struct-of-arrays pass per node)
    is >= 2x faster than rebinding a scalar technology per sample across
    4 nodes x 200 samples x 41 temperatures, agreeing to 1e-9 relative
    on every period."""
    workload = _per_node_workload()

    banked_s, banked = _best_time(
        lambda: [ring.period_matrix(pop, DENSE_GRID) for ring, pop in workload]
    )

    start = time.perf_counter()
    looped = [period_matrix_loop(ring, pop, DENSE_GRID) for ring, pop in workload]
    looped_s = time.perf_counter() - start

    speedup = looped_s / banked_s
    print(f"\ntechnology-axis speedup at {len(TECH_AXIS_NODES)}x"
          f"{TECH_AXIS_SAMPLES}x{DENSE_GRID.size}: {speedup:.1f}x "
          f"(looped {looped_s * 1e3:.0f} ms, banked {banked_s * 1e3:.0f} ms)")
    assert speedup >= 2.0

    for fast, slow in zip(banked, looped):
        assert fast.shape == slow.shape == (TECH_AXIS_SAMPLES, DENSE_GRID.size)
        assert float(np.max(np.abs(fast - slow) / np.abs(slow))) <= 1e-9


@pytest.mark.benchmark(group="sweep-technology-axis")
@pytest.mark.parametrize("mode", ["banked", "looped"])
def test_technology_study_4_nodes(benchmark, mode):
    """Records the 4-node x 200-sample x 41-temperature technology study
    in its banked-broadcast vs per-sample-rebind forms into
    BENCH_engine.json (the CI bench job asserts this group is present);
    the asserted >= 2x floor lives in the test above."""
    workload = _per_node_workload()
    evaluate_one = (
        (lambda ring, pop: ring.period_matrix(pop, DENSE_GRID))
        if mode == "banked"
        else (lambda ring, pop: period_matrix_loop(ring, pop, DENSE_GRID))
    )
    matrices = benchmark.pedantic(
        lambda: [evaluate_one(ring, pop) for ring, pop in workload],
        rounds=2,
        iterations=1,
    )
    assert len(matrices) == len(TECH_AXIS_NODES)
    assert all(m.shape == (TECH_AXIS_SAMPLES, DENSE_GRID.size) for m in matrices)


# --------------------------------------------------------------------- #
# PR 9: multi-worker parallel sweep serving
# --------------------------------------------------------------------- #

#: The multi-worker workload: 8 concurrent clients, each asking for a
#: *distinct* sweep (its own width_ratio grid), so neither single-flight
#: dedup nor temperature coalescing can collapse the work — the only
#: lever left is genuine cross-request parallelism in the scheduler.
SERVE_CLIENTS = 8
SERVE_MULTI_WORKERS = 4


def _distinct_sweep_spec(slot, round_index=0):
    """One client's sweep: a width_ratio grid no other client shares.

    The geometry axis rebuilds the sized ring per ratio (~1 ms each),
    so a 48-ratio sweep carries ~50 ms of real evaluation cost — heavy
    enough that cross-request parallelism, not transport, dominates the
    measurement; the per-slot (and per-round) ratio offset keeps every
    spec's canonical key distinct, so repeat rounds measure evaluation,
    not the result cache.
    """
    ratios = tuple(
        float(r)
        for r in np.linspace(1.0, 4.5, 48) + 0.01 * slot + 0.0001 * round_index
    )
    return (
        Sweep(technology=CMOS035)
        .over(Axis.width_ratio(ratios))
        .over(Axis.temperature([-40.0, 25.0, 85.0, 125.0]))
        .to_dict()
    )


def _sweeps_concurrent(port, specs):
    """All sweeps at once, one connection each; results in spec order."""
    results = [None] * len(specs)
    errors = []
    barrier = threading.Barrier(len(specs))

    def worker(slot):
        try:
            with ServeClient("127.0.0.1", port) as remote:
                barrier.wait()
                results[slot] = remote.sweep_payload(specs[slot])
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(len(specs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def test_multiworker_throughput_floor_at_8_concurrent_sweeps():
    """The PR 9 acceptance criterion: 8 concurrent distinct sweeps
    against a 4-worker server complete >= 2x faster than against a
    single-worker server, and every served payload is bitwise identical
    to its solo local evaluation (the process pool's tiled path carries
    the engine's bitwise-identity guarantee end to end).  The server
    runs ``min(4, cores)`` workers with the per-core bound
    ``speedup >= workers / 2`` (1x — parallel must not lose — on 2
    cores); only a 1-core box skips the floor."""
    workers = min(SERVE_MULTI_WORKERS, os.cpu_count() or 1)
    single = start_server_thread(workers=1, batch_window_ms=0.0)
    try:
        with ServeClient("127.0.0.1", single.port) as remote:
            remote.sweep_payload(_distinct_sweep_spec(99))  # warm the path
        specs = [_distinct_sweep_spec(slot, 0) for slot in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        _sweeps_concurrent(single.port, specs)
        single_s = time.perf_counter() - start
        assert single.server.evaluations == SERVE_CLIENTS + 1
    finally:
        single.stop()

    multi = start_server_thread(workers=workers, batch_window_ms=0.0)
    try:
        with ServeClient("127.0.0.1", multi.port) as remote:
            remote.sweep_payload(_distinct_sweep_spec(99))  # warm pool + path
        best_s = float("inf")
        results = None
        specs = None
        for round_index in (1, 2):
            specs = [
                _distinct_sweep_spec(slot, round_index)
                for slot in range(SERVE_CLIENTS)
            ]
            start = time.perf_counter()
            results = _sweeps_concurrent(multi.port, specs)
            best_s = min(best_s, time.perf_counter() - start)
    finally:
        multi.stop()

    speedup = single_s / best_s
    print(
        f"\nserve-multiworker speedup at {SERVE_CLIENTS} concurrent sweeps, "
        f"{workers} workers: {speedup:.1f}x "
        f"(single-worker {single_s * 1e3:.0f} ms, multi {best_s * 1e3:.0f} ms)"
    )
    for spec, served in zip(specs, results):
        assert served == Sweep.from_dict(spec).run().to_dict()
    if workers < 2:
        pytest.skip("speedup floor needs 2 cores, have 1; bitwise identity verified")
    assert speedup >= workers / 2


@pytest.mark.benchmark(group="serve-multiworker")
@pytest.mark.parametrize("workers", [1, SERVE_MULTI_WORKERS])
def test_concurrent_sweep_throughput(benchmark, workers):
    """Records 8-concurrent-sweep wall clock at 1 vs 4 workers into
    BENCH_engine.json (the CI bench job asserts this group is present);
    the asserted >= 2x floor lives in the test above."""
    handle = start_server_thread(workers=workers, batch_window_ms=0.0)
    rounds = iter(range(10, 20))  # fresh specs per round: no cache hits

    def run():
        round_index = next(rounds)
        specs = [
            _distinct_sweep_spec(slot, round_index)
            for slot in range(SERVE_CLIENTS)
        ]
        return _sweeps_concurrent(handle.port, specs)

    try:
        with ServeClient("127.0.0.1", handle.port) as remote:
            remote.sweep_payload(_distinct_sweep_spec(99))  # warm pool + path
        results = benchmark.pedantic(run, rounds=2, iterations=1)
    finally:
        handle.stop()
    assert len(results) == SERVE_CLIENTS
