"""Stacked sensor banks: the site axis of the batch engine.

The thermal-mapping and DTM layers read a *bank* of identical smart
sensors — one per floorplan site — through a multiplexer.  Before this
module a full scan cost one Python pass per sensor: a scalar ring-period
evaluation, a controller FSM walk (hundreds of reference-clock steps)
and a scalar counter conversion, repeated for every site and, in
Monte-Carlo studies, for every technology sample.

A :class:`SensorBank` stores the bank struct-of-arrays style instead:
the sites share one ring design (exactly as the multiplexed hardware
shares one readout), so a full scan is

* one vectorized period evaluation over the ``(site,)`` junction-
  temperature vector — or, against a stacked
  :class:`~repro.tech.stacked.TechnologyArray` population, one
  broadcast over ``(site, 1, 1)`` temperatures x ``(samples, 1)``
  parameter columns giving the whole ``(site, sample)`` period matrix,
* one batch counter conversion (:meth:`PeriodCounter.convert_batch`,
  which produces exactly the scalar path's codes), and
* one elementwise calibration map.

The controller FSM is walked **once** at construction to pin the
per-measurement conversion time; since every measurement of the bank
takes the same deterministic cycle count, the scan total is that time
multiplied by the channel count — identical to summing the per-sensor
readings.

A population is always one stacked
:class:`~repro.tech.stacked.TechnologyArray` (a technology list is
stacked once on entry), so the broadcast is the bank's only evaluation
path.  The equivalence tests pin the banked scan to the per-sensor
pipeline it replaced (one
:class:`~repro.core.sensor.SmartTemperatureSensor` per site, two-point
calibrated and ``measure``-d in turn; it lives in ``tests/oracles/``
with the per-site period loop): estimates to 1e-9 relative, counter
codes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..oscillator.config import RingConfiguration
from ..oscillator.ring import RingOscillator
from ..tech.parameters import Technology, TechnologyError
from ..tech.stacked import stack_technologies
from ..thermal.floorplan import Floorplan, SensorSite
from .calibration import LinearCalibration
from .controller import ControllerConfig, MeasurementController
from .readout import PeriodCounter, ReadoutConfig
from .sensor import SensorReading

__all__ = ["BankCalibration", "BankScan", "SensorBank"]


@dataclass(frozen=True)
class BankCalibration:
    """Vectorized two-point calibration of a whole sensor bank.

    ``slope_c_per_second`` / ``offset_c`` are ndarrays that broadcast
    against the bank's measured-period tensors: scalars for a uniform
    (single-technology) bank, ``(samples,)`` rows for a per-sample
    Monte-Carlo calibration.  The arithmetic matches
    :func:`repro.core.calibration.two_point_calibration` element for
    element.
    """

    slope_c_per_second: np.ndarray
    offset_c: np.ndarray
    low_temperature_c: float
    high_temperature_c: float

    def __post_init__(self) -> None:
        slope = np.asarray(self.slope_c_per_second, dtype=float)
        offset = np.asarray(self.offset_c, dtype=float)
        if np.any(slope == 0.0):
            raise TechnologyError("calibration slope must be non-zero")
        object.__setattr__(self, "slope_c_per_second", slope)
        object.__setattr__(self, "offset_c", offset)

    @property
    def sample_count(self) -> int:
        """Number of per-sample calibrations (1 for a uniform bank)."""
        return int(np.asarray(self.slope_c_per_second).size)

    def estimate(self, measured_periods_s: np.ndarray) -> np.ndarray:
        """Temperature estimates for a measured-period tensor."""
        periods = np.asarray(measured_periods_s, dtype=float)
        return self.slope_c_per_second * periods + self.offset_c

    def linear_calibration(self, sample: int = 0) -> LinearCalibration:
        """Unstack one sample's calibration into the scalar object."""
        slope = np.asarray(self.slope_c_per_second).reshape(-1)
        offset = np.asarray(self.offset_c).reshape(-1)
        index = sample if slope.size > 1 else 0
        return LinearCalibration(
            slope_c_per_second=float(slope[index]),
            offset_c=float(offset[index if offset.size > 1 else 0]),
            kind="two-point",
        )


@dataclass(frozen=True)
class BankScan:
    """One banked multiplexer scan: every channel's reading as arrays.

    All value arrays share the leading ``site`` axis; against a stacked
    technology population they are ``(site, sample)`` matrices.
    ``estimates_c`` is ``None`` when the bank was scanned uncalibrated.
    """

    names: Tuple[str, ...]
    true_temperatures_c: np.ndarray
    periods_s: np.ndarray
    codes: np.ndarray
    saturated: np.ndarray
    measured_periods_s: np.ndarray
    estimates_c: Optional[np.ndarray]
    conversion_time_s: float

    @property
    def site_count(self) -> int:
        return len(self.names)

    @property
    def total_time_s(self) -> float:
        """Scan duration: the shared readout serves one channel at a time."""
        return self.site_count * self.conversion_time_s

    def _require_single(self) -> None:
        if np.asarray(self.periods_s).ndim != 1:
            raise TechnologyError(
                "per-channel dictionaries are only defined for single-"
                "technology scans; index the (site, sample) arrays instead"
            )

    def codes_by_site(self) -> Dict[str, int]:
        self._require_single()
        return {name: int(code) for name, code in zip(self.names, self.codes)}

    def temperatures(self) -> Dict[str, Optional[float]]:
        self._require_single()
        if self.estimates_c is None:
            return {name: None for name in self.names}
        return {
            name: float(estimate)
            for name, estimate in zip(self.names, self.estimates_c)
        }

    def hottest_channel(self) -> str:
        """Channel with the highest estimated (or true) temperature."""
        self._require_single()
        values = (
            self.estimates_c if self.estimates_c is not None else self.true_temperatures_c
        )
        return self.names[int(np.argmax(values))]

    @property
    def readings(self) -> Dict[str, SensorReading]:
        """Per-channel :class:`SensorReading` view (single-technology scans).

        Materialised from the scan arrays so existing consumers of the
        multiplexer's ``ScanResult.readings`` keep working against the
        banked path.
        """
        self._require_single()
        result: Dict[str, SensorReading] = {}
        for index, name in enumerate(self.names):
            estimate = (
                float(self.estimates_c[index]) if self.estimates_c is not None else None
            )
            result[name] = SensorReading(
                code=int(self.codes[index]),
                saturated=bool(self.saturated[index]),
                conversion_time_s=self.conversion_time_s,
                oscillator_period_s=float(self.periods_s[index]),
                measured_period_s=float(self.measured_periods_s[index]),
                temperature_estimate_c=estimate,
                true_temperature_c=float(self.true_temperatures_c[index]),
            )
        return result


class SensorBank:
    """All sensor sites of a floorplan stacked for one-shot batch scans.

    Parameters
    ----------
    library:
        Cell library the shared ring design draws its stages from.
    sites:
        The sensor sites (name + die coordinates); names must be unique.
    configuration:
        Ring configuration shared by every sensor in the bank.
    readout / controller_config:
        Shared readout and measurement-controller configuration.
    wire_length_um / external_load_f / tap_stage:
        Ring construction parameters, matching
        :class:`~repro.oscillator.ring.RingOscillator`.
    """

    def __init__(
        self,
        library: CellLibrary,
        sites: Sequence[SensorSite],
        configuration: RingConfiguration,
        readout: ReadoutConfig = ReadoutConfig(),
        controller_config: ControllerConfig = ControllerConfig(),
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
    ) -> None:
        sites = list(sites)
        if not sites:
            raise TechnologyError("a sensor bank needs at least one site")
        names = [site.name for site in sites]
        if len(names) != len(set(names)):
            raise TechnologyError("sensor site names must be unique within a bank")
        self.library = library
        self.configuration = configuration
        self.readout = readout
        self.controller_config = controller_config
        self.ring = RingOscillator(
            library,
            configuration,
            wire_length_um=wire_length_um,
            external_load_f=external_load_f,
            tap_stage=tap_stage,
        )
        self.counter = PeriodCounter(readout)
        self._sites: Tuple[SensorSite, ...] = tuple(sites)
        self._names: Tuple[str, ...] = tuple(names)
        self._calibration: Optional[BankCalibration] = None
        # One controller FSM walk pins the deterministic per-measurement
        # cycle count the whole bank shares; the banked scan never steps
        # the FSM again.
        self._cycles_per_measurement = MeasurementController(
            readout, controller_config
        ).run_measurement()

    @classmethod
    def from_floorplan(
        cls,
        technology: Technology,
        floorplan: Floorplan,
        configuration: RingConfiguration,
        library: Optional[CellLibrary] = None,
        **kwargs,
    ) -> "SensorBank":
        """Build a bank covering every sensor site of a floorplan."""
        sites = floorplan.sensor_sites()
        if not sites:
            raise TechnologyError(
                "the floorplan has no sensor sites; call "
                "add_sensor_site/add_sensor_grid first"
            )
        lib = library if library is not None else default_library(technology)
        return cls(lib, sites, configuration, **kwargs)

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def site_count(self) -> int:
        return len(self._sites)

    def __len__(self) -> int:
        return self.site_count

    @property
    def technology(self):
        return self.library.technology

    def names(self) -> Tuple[str, ...]:
        return self._names

    def sites(self) -> List[SensorSite]:
        return list(self._sites)

    def positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, y) millimetre coordinate arrays of the sites."""
        xs = np.asarray([site.x_mm for site in self._sites])
        ys = np.asarray([site.y_mm for site in self._sites])
        return xs, ys

    @property
    def conversion_time_s(self) -> float:
        """Duration of one measurement (controller FSM cycle count)."""
        return self._cycles_per_measurement / self.readout.reference_clock_hz

    @property
    def calibration(self) -> Optional[BankCalibration]:
        return self._calibration

    # ------------------------------------------------------------------ #
    # banked evaluation
    # ------------------------------------------------------------------ #

    def _site_temperatures(self, junction_temperatures_c) -> np.ndarray:
        temps = np.asarray(junction_temperatures_c, dtype=float)
        if temps.shape != (self.site_count,):
            raise TechnologyError(
                f"expected one junction temperature per site "
                f"({self.site_count}), got shape {temps.shape}"
            )
        if np.any(~np.isfinite(temps)):
            raise TechnologyError("junction temperatures must be finite")
        return temps

    def period_tensor(self, junction_temperatures_c, technologies=None) -> np.ndarray:
        """Oscillation periods of every site in one broadcast pass.

        Returns a ``(site,)`` vector — or the full ``(site, sample)``
        matrix when ``technologies`` is a population (a stacked
        :class:`~repro.tech.stacked.TechnologyArray` or a technology
        sequence from one node, stacked once).  The sites share one ring
        design, so the whole scan is a single vectorized stage-sum over
        the junction-temperature vector.
        """
        temps = self._site_temperatures(junction_temperatures_c)
        if technologies is None:
            return np.asarray(self.ring.period_series(temps), dtype=float)
        technologies = stack_technologies(technologies)
        bound = self.ring.rebind(technologies)
        # (site, 1, 1) temperatures against (sample, 1) parameter columns
        # broadcast to (site, sample, 1); the trailing singleton is the
        # collapsed temperature axis of the stacked delay stack.
        matrix = bound.period_series(temps.reshape(-1, 1, 1))
        return np.asarray(matrix, dtype=float).reshape(
            self.site_count, len(technologies)
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #

    def two_point_calibration(
        self,
        low_temperature_c: float = -40.0,
        high_temperature_c: float = 125.0,
        technologies=None,
    ) -> BankCalibration:
        """Vectorized two-point calibration of the bank.

        The calibration insertions are at shared oven temperatures, so
        one two-point ring evaluation covers every site; against a
        population the result carries one (slope, offset) pair per
        sample — the whole Monte-Carlo calibration in a single
        ``(sample, 2)`` broadcast.  Matches
        :meth:`~repro.core.sensor.SmartTemperatureSensor.calibrate_two_point`
        element for element.
        """
        low = float(low_temperature_c)
        high = float(high_temperature_c)
        if low == high:
            raise TechnologyError("calibration temperatures must differ")
        endpoints = np.asarray([low, high])
        if technologies is None:
            periods = np.asarray(self.ring.period_series(endpoints))
        else:
            population = stack_technologies(technologies)
            periods = np.asarray(self.ring.rebind(population).period_series(endpoints))
        codes, _saturated = self.counter.convert_batch(periods)
        measured = self.counter.codes_to_periods(codes)
        period_low = measured[..., 0]
        period_high = measured[..., 1]
        if np.any(period_low == period_high):
            raise TechnologyError("calibration periods must differ")
        slope = (high - low) / (period_high - period_low)
        offset = low - slope * period_low
        return BankCalibration(
            slope_c_per_second=slope,
            offset_c=offset,
            low_temperature_c=low,
            high_temperature_c=high,
        )

    def calibrate(
        self, low_temperature_c: float = -40.0, high_temperature_c: float = 125.0
    ) -> BankCalibration:
        """Install the bank's own two-point calibration (shared design)."""
        self._calibration = self.two_point_calibration(
            low_temperature_c, high_temperature_c
        )
        return self._calibration

    # ------------------------------------------------------------------ #
    # scanning
    # ------------------------------------------------------------------ #

    def scan(
        self,
        junction_temperatures_c,
        technologies=None,
        calibration: Optional[BankCalibration] = None,
    ) -> BankScan:
        """Measure every channel in one broadcast pass.

        Parameters
        ----------
        junction_temperatures_c:
            One junction temperature per site, in site order.
        technologies:
            Optional technology population; the scan then returns
            ``(site, sample)`` arrays.
        calibration:
            Calibration override; the bank's installed calibration is
            used when omitted, and estimates are ``None`` when neither
            exists.
        """
        temps = self._site_temperatures(junction_temperatures_c)
        calibration = calibration if calibration is not None else self._calibration
        periods = self.period_tensor(temps, technologies)
        codes, saturated = self.counter.convert_batch(periods)
        measured = self.counter.codes_to_periods(codes)
        estimates = calibration.estimate(measured) if calibration is not None else None
        return BankScan(
            names=self._names,
            true_temperatures_c=temps,
            periods_s=periods,
            codes=codes,
            saturated=saturated,
            measured_periods_s=measured,
            estimates_c=estimates,
            conversion_time_s=self.conversion_time_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SensorBank({self.site_count} sites, ring={self.ring.label()!r}, "
            f"calibrated={self._calibration is not None})"
        )
