"""Shared fixtures for the test suite.

Expensive objects (the default cell library, reference rings, the
example floorplan's power map) are session-scoped so the several hundred
tests that need them do not rebuild them over and over.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import default_library
from repro.core import (
    DynamicThermalManager,
    ReadoutConfig,
    SensorBank,
    SmartTemperatureSensor,
)
from repro.oscillator import RingConfiguration, RingOscillator, analytical_response
from repro.tech import CMOS035
from repro.thermal import Floorplan, PowerMap, ThermalGrid


@pytest.fixture(scope="session")
def tech():
    """The paper's 0.35 um technology."""
    return CMOS035


@pytest.fixture(scope="session")
def library(tech):
    """Default standard-cell library for the 0.35 um technology."""
    return default_library(tech)


@pytest.fixture(scope="session")
def inverter_ring(library):
    """The paper's 5-stage inverter ring."""
    return RingOscillator(library, RingConfiguration.uniform("INV", 5))


@pytest.fixture(scope="session")
def mixed_ring(library):
    """A linearised cell-mix ring (2 INV + 3 NAND2)."""
    return RingOscillator(library, RingConfiguration.parse("2INV+3NAND2"))


@pytest.fixture(scope="session")
def paper_temperatures():
    """The nine temperatures marked on the paper's figures."""
    return np.asarray([-50.0, -25.0, 0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0])


@pytest.fixture(scope="session")
def inverter_response(inverter_ring, paper_temperatures):
    """Temperature response of the inverter ring on the paper grid."""
    return analytical_response(inverter_ring, paper_temperatures)


@pytest.fixture(scope="session")
def mixed_response(mixed_ring, paper_temperatures):
    """Temperature response of the cell-mix ring on the paper grid."""
    return analytical_response(mixed_ring, paper_temperatures)


@pytest.fixture()
def smart_sensor(tech):
    """A freshly built (uncalibrated) smart sensor per test."""
    return SmartTemperatureSensor.from_configuration(
        tech, RingConfiguration.parse("2INV+3NAND2"), readout=ReadoutConfig()
    )


@pytest.fixture(scope="session")
def example_power_map():
    """Rasterised power map of the example processor floorplan."""
    return PowerMap.from_floorplan(Floorplan.example_processor(), nx=16, ny=16)


@pytest.fixture(scope="session")
def example_grid(example_power_map):
    """Thermal RC grid matching the example processor's power map."""
    return ThermalGrid.for_power_map(example_power_map)


@pytest.fixture(scope="session")
def uniform_power_map():
    """10 W spread uniformly over an 8x8 mm die on a 12x12 grid."""
    power = PowerMap.zeros(8.0, 8.0, 12, 12)
    power.values_w += 10.0 / (12 * 12)
    return power


@pytest.fixture(scope="session")
def uniform_grid(uniform_power_map):
    """Thermal grid matching the uniform power map."""
    return ThermalGrid.for_power_map(uniform_power_map)


@pytest.fixture(scope="session")
def sensor_floorplan_factory():
    """Builder for the example processor with a k x k sensor grid."""

    def build(columns: int = 2, rows: int = None) -> Floorplan:
        floorplan = Floorplan.example_processor()
        floorplan.add_sensor_grid(columns, rows if rows is not None else columns)
        return floorplan

    return build


@pytest.fixture(scope="session")
def sensor_bank_factory(library, sensor_floorplan_factory):
    """Builder for a sensor bank over the example processor's sites."""

    def build(grid: int = 2, configuration_text: str = "2INV+3NAND2") -> SensorBank:
        floorplan = sensor_floorplan_factory(grid)
        return SensorBank(
            library,
            floorplan.sensor_sites(),
            RingConfiguration.parse(configuration_text),
        )

    return build


@pytest.fixture(scope="session")
def dtm_manager_factory(sensor_floorplan_factory):
    """Builder for a calibrated DTM manager on the example processor."""

    def build(grid_resolution: int = 12, sensor_grid: int = 2) -> DynamicThermalManager:
        return DynamicThermalManager(
            CMOS035,
            sensor_floorplan_factory(sensor_grid),
            RingConfiguration.parse("2INV+3NAND2"),
            readout=ReadoutConfig(),
            grid_resolution=grid_resolution,
        )

    return build
