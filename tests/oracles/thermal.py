"""Thermal oracles: one CG run per right-hand side, one steady-state
solve per self-heating duty cycle."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core import ReadoutConfig
from repro.engine import Axis, Sweep
from repro.experiments.selfheating_study import SelfHeatingStudyResult
from repro.oscillator.config import RingConfiguration
from repro.tech.libraries import CMOS035
from repro.tech.parameters import Technology, TechnologyError
from repro.thermal import Floorplan, PowerMap
from repro.thermal.grid import ThermalGridParameters
from repro.thermal.selfheating import SelfHeatingReport, self_heating_error


def solve_columns_loop(solve, rhs: np.ndarray) -> np.ndarray:
    """Oracle of a multigrid solve's block CG: an ``(n, k)`` stack solved
    one column at a time.

    ``solve`` is the prepared multigrid solve of a large-grid
    :class:`~repro.thermal.ThermalOperator` (``operator.steady_solve()``
    or a stepper's solve).  Each column is its own CG run, paying its
    own V-cycles, with the same Jacobi retry as the block path.
    Columns are solved cold (no warm-start state is read or written),
    so the comparison is deterministic.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim != 2:
        raise TechnologyError("solve_columns_loop expects an (n, k) stack")
    columns = []
    for k in range(rhs.shape[1]):
        column = rhs[:, k : k + 1]
        x0 = np.zeros_like(column)
        solution, converged = solve._block_cg(column, x0, solve._preconditioner)
        if not converged.all():
            solution, converged = solve._block_cg(column, x0, solve._jacobi)
            if not converged.all():
                raise TechnologyError(
                    f"iterative thermal solve did not converge on column {k}"
                )
        columns.append(solution[:, 0])
    return np.stack(columns, axis=1)


def duty_cycle_study_scalar(
    background_power: PowerMap,
    sensor_x_mm: float,
    sensor_y_mm: float,
    oscillator_power_w: float,
    duty_cycles=(1.0, 0.5, 0.1, 0.01, 0.001),
    ambient_c: float = 45.0,
    parameters: ThermalGridParameters = ThermalGridParameters(),
) -> List[SelfHeatingReport]:
    """Oracle of :func:`repro.thermal.selfheating.duty_cycle_study`."""
    return [
        self_heating_error(
            background_power,
            sensor_x_mm,
            sensor_y_mm,
            oscillator_power_w,
            duty_cycle=float(duty),
            ambient_c=ambient_c,
            parameters=parameters,
        )
        for duty in duty_cycles
    ]


def run_selfheating_study_scalar(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    readout: ReadoutConfig = ReadoutConfig(),
    duty_cycles: Sequence[float] = (1.0, 0.5, 0.2, 0.1, 0.01, 0.001),
    sensor_location_mm: Sequence[float] = (2.0, 6.0),
    grid_resolution: int = 24,
    measurement_rate_hz: float = 1000.0,
) -> SelfHeatingStudyResult:
    """Oracle of :func:`repro.experiments.selfheating_study.run_selfheating_study`.

    Same sensor macro and placement; the duty-cycle sweep solves the
    thermal network once per duty cycle.
    """
    tech = technology if technology is not None else CMOS035
    configuration = RingConfiguration.parse(configuration_text)
    floorplan = Floorplan.example_processor()
    power_map = PowerMap.from_floorplan(floorplan, nx=grid_resolution, ny=grid_resolution)
    ring_power = (
        Sweep(technology=tech, configuration=configuration)
        .over(Axis.temperature([100.0]))
        .observe("power")
        .run()
        .item()
    )
    oscillator_power = ring_power * 10.0
    reports = duty_cycle_study_scalar(
        power_map,
        float(sensor_location_mm[0]),
        float(sensor_location_mm[1]),
        oscillator_power,
        duty_cycles=tuple(sorted(set(float(d) for d in duty_cycles), reverse=True)),
    )
    return SelfHeatingStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        oscillator_power_w=oscillator_power,
        reports=reports,
        duty_cycle_when_sampled_1khz=min(
            1.0, measurement_rate_hz * readout.conversion_time_s
        ),
    )
