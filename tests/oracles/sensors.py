"""Sensor oracles: one counter conversion per point, one sensor per site."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.statistics import summarize
from repro.cells.library import default_library
from repro.core import ReadoutConfig, SensorBank, SmartTemperatureSensor, ThermalMonitor
from repro.core.calibration import design_calibration, one_point_calibration
from repro.core.mapping import ThermalMonitorReport
from repro.core.sensor import SensorTransferFunction
from repro.core.sensor_bank import BankScan
from repro.experiments.calibration_study import CalibrationStudyResult
from repro.optimize import PlacementObjective
from repro.oscillator.config import RingConfiguration
from repro.oscillator.period import default_temperature_grid, validate_temperature_grid
from repro.oscillator.ring import RingOscillator
from repro.tech.corners import corner_technologies, sample_technologies
from repro.tech.libraries import CMOS035
from repro.tech.parameters import Technology, TechnologyError
from repro.tech.stacked import TechnologyArray
from repro.thermal import PowerMap


def transfer_function_scalar(
    sensor: SmartTemperatureSensor, temperatures_c: Optional[Sequence[float]] = None
) -> SensorTransferFunction:
    """Oracle of ``SmartTemperatureSensor.transfer_function``."""
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    codes = []
    measured_periods = []
    for temp in temps:
        reading = sensor.counter.convert(sensor.ring.period(float(temp)))
        codes.append(float(reading.code))
        measured_periods.append(sensor.counter.code_to_period(reading.code))
    return SensorTransferFunction(
        temperatures_c=temps,
        codes=np.asarray(codes),
        measured_periods_s=np.asarray(measured_periods),
    )


def measurement_errors_scalar(
    sensor: SmartTemperatureSensor, temperatures_c: Optional[Sequence[float]] = None
) -> np.ndarray:
    """Oracle of ``SmartTemperatureSensor.measurement_errors``."""
    if sensor.calibration is None:
        raise TechnologyError("calibrate the sensor before computing errors")
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    errors = []
    for temp in temps:
        estimate = float(sensor.calibration.temperature(sensor.measured_period(float(temp))))
        errors.append(estimate - float(temp))
    return np.asarray(errors)


def worst_case_error_c_scalar(
    sensor: SmartTemperatureSensor, temperatures_c: Optional[Sequence[float]] = None
) -> float:
    """Oracle of ``SmartTemperatureSensor.worst_case_error_c``."""
    return float(np.max(np.abs(measurement_errors_scalar(sensor, temperatures_c))))


def site_period_tensor_loop(
    bank: SensorBank, junction_temperatures_c, technologies=None
) -> np.ndarray:
    """Per-site (and per-sample) reference path of ``SensorBank.period_tensor``.

    One scalar ring evaluation per site — and, with a population, one
    ring rebind per sample.
    """
    temps = bank._site_temperatures(junction_temperatures_c)
    if technologies is None:
        return np.asarray([bank.ring.period(float(t)) for t in temps])
    if isinstance(technologies, TechnologyArray):
        technologies = technologies.technologies()
    matrix = np.zeros((bank.site_count, len(technologies)))
    for column, technology in enumerate(technologies):
        ring = bank.ring.rebind(technology)
        matrix[:, column] = [ring.period(float(t)) for t in temps]
    return matrix


def scan_loop(
    bank: SensorBank,
    junction_temperatures_c,
    technologies=None,
    calibrate_at: Optional[Tuple[float, float]] = None,
) -> BankScan:
    """Oracle of :meth:`repro.core.SensorBank.scan`.

    Builds one :class:`~repro.core.SmartTemperatureSensor` per site
    (per sample, with a population), optionally two-point calibrates
    each through its own pipeline, and runs one full ``measure`` —
    controller FSM included — per channel, as the multiplexer does.
    """
    temps = np.asarray(junction_temperatures_c, dtype=float)
    if technologies is None:
        rings = [bank.ring]
    elif isinstance(technologies, TechnologyArray):
        rings = [bank.ring.rebind(t) for t in technologies.technologies()]
    else:
        rings = [bank.ring.rebind(t) for t in technologies]

    columns: List[Dict[str, np.ndarray]] = []
    conversion_time = None
    for ring in rings:
        periods, codes, saturated, measured, estimates = [], [], [], [], []
        for name, temperature in zip(bank.names(), temps):
            sensor = SmartTemperatureSensor(
                ring,
                readout=bank.readout,
                controller_config=bank.controller_config,
                name=name,
            )
            if calibrate_at is not None:
                sensor.calibrate_two_point(*calibrate_at)
            reading = sensor.measure(float(temperature))
            conversion_time = reading.conversion_time_s
            periods.append(reading.oscillator_period_s)
            codes.append(reading.code)
            saturated.append(reading.saturated)
            measured.append(reading.measured_period_s)
            estimates.append(reading.temperature_estimate_c)
        columns.append(
            dict(
                periods=np.asarray(periods),
                codes=np.asarray(codes),
                saturated=np.asarray(saturated),
                measured=np.asarray(measured),
                estimates=(
                    np.asarray(estimates, dtype=float) if estimates[0] is not None else None
                ),
            )
        )

    def gather(key):
        if columns[0][key] is None:
            return None
        if technologies is None:
            return columns[0][key]
        return np.stack([column[key] for column in columns], axis=1)

    return BankScan(
        names=bank.names(),
        true_temperatures_c=temps,
        periods_s=gather("periods"),
        codes=gather("codes"),
        saturated=gather("saturated"),
        measured_periods_s=gather("measured"),
        estimates_c=gather("estimates"),
        conversion_time_s=conversion_time,
    )


def monitor_scan_scalar(
    monitor: ThermalMonitor, power: Optional[PowerMap] = None
) -> ThermalMonitorReport:
    """Oracle of :meth:`repro.core.ThermalMonitor.scan`.

    Samples the true field at each site one at a time and scans the
    sensors through the multiplexer, one calibrated sensor per channel.
    """
    if power is None:
        power = monitor.power_map_for_floorplan()
    true_map = monitor.temperature_field(power)
    site_truth = {
        site.name: true_map.sample(site.x_mm, site.y_mm) for site in monitor.sensor_sites()
    }
    scan = monitor.multiplexer.scan(site_truth)
    site_estimates: Dict[str, float] = {}
    for name, reading in scan.readings.items():
        if reading.temperature_estimate_c is None:
            raise TechnologyError(
                "sensors must be calibrated before a thermal-mapping scan; "
                "call calibrate() first"
            )
        site_estimates[name] = reading.temperature_estimate_c
    return ThermalMonitorReport(
        scan=scan,
        true_map=true_map,
        site_true_temperatures_c=site_truth,
        site_estimates_c=site_estimates,
        reconstructed_map=monitor._reconstruct(site_estimates, true_map),
    )


def run_calibration_study_scalar(
    technology: Optional[Technology] = None,
    configuration_text: str = "2INV+3NAND2",
    readout: ReadoutConfig = ReadoutConfig(),
    monte_carlo_samples: int = 12,
    temperatures_c: Optional[Sequence[float]] = None,
    reference_temperature_c: float = 25.0,
    seed: int = 20250617,
) -> CalibrationStudyResult:
    """Oracle of :func:`repro.experiments.calibration_study.run_calibration_study`.

    One sensor object per technology sample, each calibrated by every
    scheme in turn and swept one temperature at a time.
    """
    tech = technology if technology is not None else CMOS035
    temps = (
        validate_temperature_grid(temperatures_c, context="calibration study sweep")
        if temperatures_c is not None
        else default_temperature_grid(points=17)
    )
    configuration = RingConfiguration.parse(configuration_text)

    def sensor_for(sample: Technology) -> SmartTemperatureSensor:
        ring = RingOscillator(default_library(sample), configuration)
        return SmartTemperatureSensor(ring, readout=readout, name=f"cal_{sample.name}")

    design_transfer = transfer_function_scalar(sensor_for(tech), temps)
    design_cal = design_calibration(
        design_transfer.measured_periods_s, design_transfer.temperatures_c
    )

    samples: List[Technology] = list(corner_technologies(tech).values())
    samples.extend(sample_technologies(tech, monte_carlo_samples, seed=seed))
    worst_errors: Dict[str, List[float]] = {"design": [], "one-point": [], "two-point": []}
    for sample in samples:
        sensor = sensor_for(sample)

        sensor.install_calibration(design_cal)
        worst_errors["design"].append(worst_case_error_c_scalar(sensor, temps))

        sensor.install_calibration(
            one_point_calibration(
                sensor.measured_period(reference_temperature_c),
                reference_temperature_c,
                design_cal.slope_c_per_second,
            )
        )
        worst_errors["one-point"].append(worst_case_error_c_scalar(sensor, temps))

        sensor.calibrate_two_point(float(temps[0]), float(temps[-1]))
        worst_errors["two-point"].append(worst_case_error_c_scalar(sensor, temps))

    return CalibrationStudyResult(
        technology_name=tech.name,
        configuration_label=configuration.label(),
        sample_count=len(samples),
        errors_by_scheme={k: summarize(v) for k, v in worst_errors.items()},
        worst_by_scheme={k: float(np.max(v)) for k, v in worst_errors.items()},
    )


def placement_objective_from_bank(
    bank: SensorBank,
    true_maps: Sequence,
    calibration=None,
    hotspot_weight: float = 1.0,
) -> PlacementObjective:
    """Reference constructor of a ``PlacementObjective``: scan a bank directly.

    One banked scan per workload map reads every candidate site at its
    local junction temperature through the full smart-sensor chain
    (ring, counter quantisation, two-point calibration).  The
    EXT-PLACEMENT study routes the equivalent scans through the
    :class:`~repro.engine.sweep.Sweep` engine; this is the
    self-contained path it is checked against.
    """
    maps = list(true_maps)
    if not maps:
        raise TechnologyError("placement needs at least one workload map")
    if calibration is None:
        calibration = bank.two_point_calibration()
    xs, ys = bank.positions()
    columns = []
    for true_map in maps:
        scan = bank.scan(true_map.sample_points(xs, ys), calibration=calibration)
        columns.append(np.asarray(scan.estimates_c, dtype=float))
    return PlacementObjective(
        reference=maps[0],
        site_names=bank.names(),
        site_x_mm=xs,
        site_y_mm=ys,
        estimates_c=np.stack(columns, axis=1),
        true_values_c=np.stack([m.values_c for m in maps], axis=0),
        hotspot_weight=hotspot_weight,
    )
