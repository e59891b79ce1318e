"""Experiment EXT-SCALING: the sensor across technology nodes.

The paper's introduction motivates thermal monitoring with technology
scaling (junction temperatures rise node over node).  This extension
asks the follow-up question: does the *sensor itself* keep working as
the technology scales?  It evaluates the same cell-mix sensor on the
0.35 / 0.25 / 0.18 / 0.13 um nodes and reports sensitivity, linearity
and the supply-scaling headroom, plus the power-density trend that
drives the motivation in the first place.

The node loop is declared through the sweep engine's ``technology``
axis: one characterisation sweep and one 25 C spot sweep cover every
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.linearity import nonlinearity
from ..analysis.sensitivity import sensitivity_report
from ..cells.library import default_library
from ..engine.sweep import Axis, Sweep
from ..oscillator.config import RingConfiguration
from ..oscillator.period import TemperatureResponse, default_temperature_grid
from ..tech.libraries import CMOS013, CMOS018, CMOS025, CMOS035
from ..tech.parameters import Technology
from ..tech.scaling import ScalingRules, power_density_scaling_factor

__all__ = ["NodePoint", "ScalingStudyResult", "run_scaling_study"]

DEFAULT_NODES = (CMOS035, CMOS025, CMOS018, CMOS013)


@dataclass(frozen=True)
class NodePoint:
    """Sensor figures of merit on one technology node."""

    technology_name: str
    feature_size_um: float
    vdd: float
    period_at_25c_s: float
    relative_sensitivity_per_k: float
    max_nonlinearity_percent: float
    reoptimized_label: Optional[str] = None
    reoptimized_nonlinearity_percent: Optional[float] = None
    #: Free-running sensor dynamic power at 25 C (the ``power``
    #: observable) — the node-over-node trend of the sensor's own
    #: self-heating budget.
    sensor_power_at_25c_w: float = 0.0

    @property
    def frequency_at_25c_hz(self) -> float:
        return 1.0 / self.period_at_25c_s


@dataclass(frozen=True)
class ScalingStudyResult:
    """Outcome of the technology-scaling extension experiment."""

    configuration_label: str
    points: List[NodePoint]
    power_density_trend: float

    def sensitivity_retained(self) -> float:
        """Relative sensitivity at the smallest node over the largest node."""
        return (
            self.points[-1].relative_sensitivity_per_k
            / self.points[0].relative_sensitivity_per_k
        )

    def format_table(self) -> str:
        lines = [
            f"EXT-SCALING - sensor ({self.configuration_label}) across technology nodes",
            f"{'node':10s} {'feature':>8s} {'VDD':>6s} {'period@25C':>12s} "
            f"{'rel. sens.':>12s} {'max|NL|':>9s} {'power@25C':>11s}   re-optimised mix",
        ]
        for point in self.points:
            reopt = ""
            if point.reoptimized_label is not None:
                reopt = (
                    f"   {point.reoptimized_label} "
                    f"({point.reoptimized_nonlinearity_percent:.3f}%)"
                )
            lines.append(
                f"{point.technology_name:10s} {point.feature_size_um:7.2f}u "
                f"{point.vdd:6.2f} {point.period_at_25c_s * 1e12:10.1f}ps "
                f"{point.relative_sensitivity_per_k * 100:10.3f}%/K "
                f"{point.max_nonlinearity_percent:8.3f}% "
                f"{point.sensor_power_at_25c_w * 1e6:8.1f}uW" + reopt
            )
        lines.append(
            "power density trend of the constant-voltage-leaning scaling that "
            f"motivates the paper: x{self.power_density_trend:.1f} per 2x shrink"
        )
        return "\n".join(lines)


def run_scaling_study(
    configuration_text: str = "2INV+3NAND2",
    nodes: Sequence[Technology] = DEFAULT_NODES,
    temperatures_c: Optional[Sequence[float]] = None,
    reoptimize: bool = False,
) -> ScalingStudyResult:
    """Evaluate one ring configuration on several technology nodes.

    With ``reoptimize=True`` the cell-mix search is rerun on every node,
    showing that the paper's *method* ports across nodes even when the
    particular mix chosen for 0.35 um does not stay optimal.

    The node loop is declared, not hand-written: the characterisation
    is one ``period`` sweep over a ``technology`` axis stacked on the
    temperature grid, plus one technology x [25 C] spot sweep for the
    ``period``/``power`` observables — so the whole study serializes,
    content-addresses and caches like any other sweep.
    """
    configuration = RingConfiguration.parse(configuration_text)
    temps = (
        np.asarray(temperatures_c, dtype=float)
        if temperatures_c is not None
        else default_temperature_grid(points=21)
    )
    tech_axis = Axis.technology(nodes)
    periods = (
        Sweep(configuration=configuration)
        .over(tech_axis)
        .over(Axis.temperature(temps))
        .run()
        .values
    )
    spot = Sweep(configuration=configuration).over(tech_axis).over(Axis.temperature([25.0]))
    periods_25c = spot.run().values[:, 0]
    powers_25c = spot.observe("power").run().values[:, 0]
    points: List[NodePoint] = []
    for index, tech in enumerate(nodes):
        response = TemperatureResponse(configuration.label(), temps, periods[index])
        reopt_label = None
        reopt_nl = None
        if reoptimize:
            from ..optimize.cellmix import search_cell_mix

            best = search_cell_mix(
                default_library(tech), stage_count=configuration.stage_count,
                temperatures_c=temps, top_k=1,
            ).best()
            reopt_label = best.label
            reopt_nl = best.max_abs_error_percent
        points.append(
            NodePoint(
                technology_name=tech.name,
                feature_size_um=tech.feature_size_um,
                vdd=tech.vdd,
                period_at_25c_s=float(periods_25c[index]),
                relative_sensitivity_per_k=sensitivity_report(response).relative_sensitivity_per_k,
                max_nonlinearity_percent=nonlinearity(response).max_abs_error_percent,
                reoptimized_label=reopt_label,
                reoptimized_nonlinearity_percent=reopt_nl,
                sensor_power_at_25c_w=float(powers_25c[index]),
            )
        )
    # The generalised-scaling power-density factor for a 2x shrink with the
    # partial voltage scaling real products used (the paper's motivation).
    trend = power_density_scaling_factor(
        ScalingRules(dimension_factor=2.0, voltage_factor=1.4)
    )
    return ScalingStudyResult(
        configuration_label=configuration.label(),
        points=points,
        power_density_trend=trend,
    )
