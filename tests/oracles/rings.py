"""Ring-period oracles: one scalar period call per temperature point."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.linearity import nonlinearity
from repro.analysis.montecarlo import MonteCarloStudy
from repro.analysis.sensitivity import sensitivity_report
from repro.analysis.statistics import summarize
from repro.analysis.supply import SupplySensitivityReport, supply_sensitivity
from repro.cells.library import CellLibrary, default_library
from repro.engine import Axis, Sweep
from repro.experiments.scaling_study import DEFAULT_NODES, NodePoint, ScalingStudyResult
from repro.optimize.cellmix import CellMixCandidate
from repro.optimize.sizing import (
    PAPER_FIG2_RATIOS,
    SizingPoint,
    SizingSweepResult,
    build_sized_ring,
)
from repro.oscillator.bank import ConfigurationBank
from repro.oscillator.config import RingConfiguration
from repro.oscillator.period import (
    TemperatureResponse,
    default_temperature_grid,
    validate_temperature_grid,
)
from repro.oscillator.ring import RingOscillator
from repro.tech.corners import VariationModel, sample_technologies
from repro.tech.parameters import Technology, TechnologyError
from repro.tech.scaling import ScalingRules, power_density_scaling_factor
from repro.tech.stacked import TechnologyArray


def period_series_scalar(ring: RingOscillator, temperatures_c: Sequence[float]) -> np.ndarray:
    """Periods (s) over a temperature grid, one ``ring.period`` call per point."""
    return np.asarray([ring.period(float(t)) for t in temperatures_c])


def period_matrix_scalar(
    ring: RingOscillator, technologies, temperatures_c: Sequence[float]
) -> np.ndarray:
    """Periods (s) on a (sample x temperature) grid: rebind, then loop.

    A stacked :class:`~repro.tech.stacked.TechnologyArray` is unstacked
    into its scalar samples first.
    """
    if isinstance(technologies, TechnologyArray):
        technologies = technologies.technologies()
    temps = np.asarray(temperatures_c, dtype=float)
    matrix = np.zeros((len(technologies), temps.size))
    for row, tech in enumerate(technologies):
        matrix[row] = period_series_scalar(ring.rebind(tech), temps)
    return matrix


def period_matrix_loop(
    ring: RingOscillator,
    technologies: Sequence,
    temperatures_c: Sequence[float],
) -> np.ndarray:
    """Per-sample reference path of ``RingOscillator.period_matrix``.

    Re-binds the ring to each technology in turn and evaluates the
    vectorized temperature axis once per sample.
    """
    temps = np.asarray(temperatures_c, dtype=float)
    if isinstance(technologies, TechnologyArray):
        technologies = technologies.technologies()
    matrix = np.zeros((len(technologies), temps.size))
    for row, tech in enumerate(technologies):
        matrix[row] = ring.rebind(tech).period_series(temps)
    return matrix


def configuration_period_tensor_loop(
    bank: ConfigurationBank,
    temperatures_c: Sequence[float],
    technologies=None,
) -> np.ndarray:
    """Per-configuration reference path of ``ConfigurationBank.period_tensor``.

    Evaluates one ring at a time through the stacked delay path
    (``RingOscillator.period_series`` / ``RingOscillator.period_matrix``).
    """
    temps = np.asarray(temperatures_c, dtype=float)
    if technologies is None:
        return np.stack([ring.period_series(temps) for ring in bank.rings()])
    return np.stack(
        [ring.period_matrix(technologies, temps) for ring in bank.rings()]
    )


def analytical_response_scalar(
    ring: RingOscillator, temperatures_c: Optional[Sequence[float]] = None
) -> TemperatureResponse:
    """Oracle of :func:`repro.oscillator.period.analytical_response`."""
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    return TemperatureResponse(ring.label(), temps, period_series_scalar(ring, temps))


def run_monte_carlo_scalar(
    base_technology: Technology,
    configuration: RingConfiguration,
    sample_count: int = 25,
    temperatures_c: Optional[Sequence[float]] = None,
    reference_temperature_c: float = 25.0,
    variation: Optional[VariationModel] = None,
    seed: Optional[int] = 1234,
) -> MonteCarloStudy:
    """Oracle of :func:`repro.analysis.montecarlo.run_monte_carlo`.

    Draws the population one scalar technology at a time, builds a
    default library per sample, and sweeps each ring point by point.
    """
    temps = (
        validate_temperature_grid(temperatures_c, context="run_monte_carlo sweep")
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    if not temps[0] <= reference_temperature_c <= temps[-1]:
        raise TechnologyError("reference temperature must lie inside the sweep range")
    samples = sample_technologies(base_technology, sample_count, model=variation, seed=seed)
    responses = [
        analytical_response_scalar(RingOscillator(default_library(sample), configuration), temps)
        for sample in samples
    ]
    return MonteCarloStudy(
        label=configuration.label(),
        sample_count=sample_count,
        period_at_reference=summarize(
            [response.period_at(reference_temperature_c) for response in responses]
        ),
        nonlinearity_percent=summarize(
            [nonlinearity(response).max_abs_error_percent for response in responses]
        ),
        sensitivity_s_per_k=summarize(
            [response.mean_sensitivity() for response in responses]
        ),
        responses=responses,
    )


def sweep_width_ratio_scalar(
    technology: Technology,
    ratios: Sequence[float] = PAPER_FIG2_RATIOS,
    nmos_width_um: float = 1.05,
    stage_count: int = 5,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> SizingSweepResult:
    """Oracle of :func:`repro.optimize.sizing.sweep_width_ratio`."""
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid()
    )
    points: List[SizingPoint] = []
    for ratio in ratios:
        ring = build_sized_ring(technology, float(ratio), nmos_width_um, stage_count)
        response = analytical_response_scalar(ring, temps)
        points.append(
            SizingPoint(
                width_ratio=float(ratio),
                response=response,
                linearity=nonlinearity(response, fit_method),
            )
        )
    return SizingSweepResult(points=points, stage_count=stage_count, nmos_width_um=nmos_width_um)


def evaluate_configuration_scalar(
    library: CellLibrary,
    configuration: RingConfiguration,
    temperatures_c: Optional[Sequence[float]] = None,
    fit_method: str = "endpoint",
) -> CellMixCandidate:
    """Oracle of :func:`repro.optimize.cellmix.evaluate_configuration`."""
    ring = RingOscillator(library, configuration)
    response = analytical_response_scalar(ring, temperatures_c)
    return CellMixCandidate(
        configuration=configuration,
        response=response,
        linearity=nonlinearity(response, fit_method),
        area_um2=ring.area_um2(),
    )


def supply_sensitivity_scalar(
    technology: Technology, configuration: RingConfiguration, **kwargs
) -> SupplySensitivityReport:
    """Oracle of :func:`repro.analysis.supply.supply_sensitivity`.

    The rebuild-per-operating-point loop is the function's own
    ``library_builder`` path; passing the default builder explicitly
    selects it.
    """
    return supply_sensitivity(
        technology, configuration, library_builder=default_library, **kwargs
    )


def run_scaling_study_loop(
    configuration_text: str = "2INV+3NAND2",
    nodes: Sequence[Technology] = DEFAULT_NODES,
    temperatures_c: Optional[Sequence[float]] = None,
) -> ScalingStudyResult:
    """Oracle of :func:`repro.experiments.scaling_study.run_scaling_study`.

    One default library and one temperature sweep per node, instead of
    one sweep over the ``technology`` axis.
    """
    configuration = RingConfiguration.parse(configuration_text)
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    points: List[NodePoint] = []
    for tech in nodes:
        library = default_library(tech)
        periods = (
            Sweep(library=library, configuration=configuration)
            .over(Axis.temperature(temps))
            .run()
            .values
        )
        spot = Sweep(library=library, configuration=configuration).over(
            Axis.temperature([25.0])
        )
        response = TemperatureResponse(configuration.label(), temps, periods)
        points.append(
            NodePoint(
                technology_name=tech.name,
                feature_size_um=tech.feature_size_um,
                vdd=tech.vdd,
                period_at_25c_s=float(spot.run().item()),
                relative_sensitivity_per_k=sensitivity_report(response).relative_sensitivity_per_k,
                max_nonlinearity_percent=nonlinearity(response).max_abs_error_percent,
                sensor_power_at_25c_w=float(spot.observe("power").run().item()),
            )
        )
    return ScalingStudyResult(
        configuration_label=configuration.label(),
        points=points,
        power_density_trend=power_density_scaling_factor(
            ScalingRules(dimension_factor=2.0, voltage_factor=1.4)
        ),
    )
