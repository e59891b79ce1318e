"""Micro-benchmarks of the library's computational kernels.

Not tied to a paper figure; these track the cost of the building blocks
every experiment relies on (analytical period evaluation, transient
timesteps, thermal solves, cell characterisation) so performance
regressions are visible independently of the experiment-level benches.
"""

import numpy as np
import pytest

from repro.analysis import nonlinearity
from repro.cells import characterize_cell, inverter
from repro.oscillator import RingConfiguration, RingOscillator, analytical_response
from repro.thermal import PowerMap, ThermalGrid, ThermalOperator
from repro.thermal.floorplan import Floorplan


@pytest.mark.benchmark(group="kernels")
def test_kernel_ring_period_evaluation(benchmark, library):
    ring = RingOscillator(library, RingConfiguration.parse("2INV+3NAND2"))
    period = benchmark(ring.period, 85.0)
    assert 100e-12 < period < 1e-9


@pytest.mark.benchmark(group="kernels")
def test_kernel_full_temperature_sweep(benchmark, library):
    ring = RingOscillator(library, RingConfiguration.uniform("INV", 5))
    temps = np.linspace(-50.0, 150.0, 41)

    def sweep():
        return nonlinearity(analytical_response(ring, temps)).max_abs_error_percent

    error = benchmark(sweep)
    assert error < 1.0


@pytest.mark.benchmark(group="kernels")
def test_kernel_cell_characterisation(benchmark, tech):
    cell = inverter(tech)
    table = benchmark(
        characterize_cell, cell, (-50.0, -25.0, 0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0)
    )
    assert table.temperatures_c.size == 9


@pytest.mark.benchmark(group="kernels")
def test_kernel_thermal_steady_state_solve(benchmark):
    power = PowerMap.from_floorplan(Floorplan.example_processor(), nx=32, ny=32)
    grid = ThermalGrid.for_power_map(power)
    result = benchmark(
        lambda: ThermalOperator.for_grid(grid).solve_steady_state(power, 45.0)
    )
    assert result.max_c() > 45.0


@pytest.mark.benchmark(group="kernels")
def test_kernel_transient_timestep_cost(benchmark, library):
    """Cost of a short transistor-level transient (fixed work unit)."""
    from repro.circuit import TransientOptions, simulate_transient

    ring = RingOscillator(library, RingConfiguration.uniform("INV", 3))
    circuit = ring.build_circuit(27.0)
    period_estimate = ring.period(27.0)
    options = TransientOptions(timestep=period_estimate / 100.0, use_dc_start=False)

    def run():
        return simulate_transient(circuit, period_estimate, options)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.times.size > 50
