"""Thermal oracles: one steady-state solve per self-heating duty cycle."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import ReadoutConfig
from repro.engine import Axis, Sweep
from repro.experiments.selfheating_study import SelfHeatingStudyResult
from repro.oscillator.config import RingConfiguration
from repro.tech.libraries import CMOS035
from repro.tech.parameters import Technology
from repro.thermal import Floorplan, PowerMap
from repro.thermal.grid import ThermalGridParameters
from repro.thermal.selfheating import SelfHeatingReport, self_heating_error


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
