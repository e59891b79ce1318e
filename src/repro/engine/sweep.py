"""Declarative sweep API: named-axis workloads over the batch engine.

Every paper-facing artefact is a cross product of the same few axes —
ring ``configuration`` (Fig. 3), transistor ``width_ratio`` (Fig. 2),
process ``sample`` (the Monte-Carlo calibration argument), ``supply``
and ``temperature`` — yet before this module each cross product was a
bespoke entry point threading positional ndarray dimensions by hand.
This module turns the workload itself into data:

* :class:`Axis` — one named axis with coordinate labels.  The known
  axes are ``technology`` (registered process nodes, one evaluation
  context per coordinate), ``configuration``, ``width_ratio``,
  ``resolution`` (the thermal grid's density), ``site``, ``supply``,
  ``sample`` and ``temperature`` (that tuple,
  :data:`CANONICAL_AXIS_ORDER`, is also the canonical broadcast order
  of the result dimensions).
* :class:`Sweep` — a builder that composes axes over a base context
  (technology / library / configuration / ring) plus an observable
  (period, frequency, the sensor transfer curve, calibration error,
  non-linearity).
* :class:`SweepPlan` — the planner: validates the axis combination and
  lowers the named axes onto numpy broadcast dimensions.  The
  ``sample`` and ``supply`` axes stack into one struct-of-arrays
  technology population (:mod:`repro.tech.stacked`); the
  ``configuration`` axis stacks into a
  :class:`~repro.oscillator.bank.ConfigurationBank` so the whole
  Fig. 3 x Monte-Carlo cross product evaluates as a single
  ``(C, S, T)`` broadcast; ``width_ratio`` (a geometry axis that
  rebuilds the cell) lowers to a thin outer loop over otherwise fully
  broadcast sub-tensors.
* :class:`SweepResult` — a labeled ndarray container (axis names +
  coordinates with ``select`` / ``isel`` / ``squeeze`` / ``to_dict``
  accessors), so callers stop tracking which raw dimension is which.

Example — the Fig. 3 x Monte-Carlo cross product in one expression::

    result = (
        Sweep(technology=CMOS035)
        .over(Axis.configuration(PAPER_FIG3_CONFIGURATIONS))
        .over(Axis.sample(sample_technology_array(CMOS035, 1000, seed=1)))
        .over(Axis.temperature(np.linspace(-50.0, 150.0, 41)))
        .observe("period")
        .run()
    )
    result.dims                       # ('configuration', 'sample', 'temperature')
    result.select(configuration="5INV").values.shape   # (1000, 41)

The rewritten experiments (:mod:`repro.experiments.fig2_sizing`,
:mod:`repro.experiments.fig3_cellmix`,
:mod:`repro.experiments.calibration_study`,
:mod:`repro.analysis.supply`, :mod:`repro.analysis.montecarlo`) all
build their period tensors through this API; it is their only
evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cells.library import CellLibrary, default_library
from ..core.readout import PeriodCounter, ReadoutConfig
from ..core.sensor_bank import SensorBank
from ..oscillator.bank import ConfigurationBank, normalise_configurations
from ..oscillator.config import ConfigurationError, RingConfiguration
from ..oscillator.period import default_temperature_grid
from ..oscillator.ring import RingOscillator
from ..tech.parameters import Technology, TechnologyError
from ..tech.stacked import (
    stack_technologies,
    technology_array_from_columns,
    technology_column_arrays,
)
from ..thermal.floorplan import Floorplan
from ..thermal.grid import ThermalGrid, ThermalGridParameters
from ..thermal.operator import ThermalOperator
from ..thermal.power import PowerMap

__all__ = [
    "Axis",
    "CANONICAL_AXIS_ORDER",
    "OBSERVABLES",
    "Sweep",
    "SweepError",
    "SweepPlan",
    "SweepResult",
    "TechnologyMismatchError",
]

#: The observables a sweep can evaluate.  All preserve the axis shape:
#: ``period`` (s) and ``frequency`` (Hz) are the raw tensor;
#: ``code`` is the counter-quantised digital output (the readout comes
#: from the site axis's bank, or the sweep's ``readout=``; codes beyond
#: the counter width are *clamped* to ``max_code`` exactly as the
#: hardware saturates — use :meth:`repro.core.SensorBank.scan` when the
#: saturation mask itself is needed);
#: ``power`` (W) is the free-running dynamic power
#: ``f * Vdd^2 * C_switched``;
#: ``transfer_c`` is the two-point-calibrated temperature estimate (the
#: ideal sensor transfer curve, calibrated per row at the sweep's
#: endpoint temperatures); ``calibration_error_c`` is that estimate
#: minus the true temperature; ``nonlinearity_percent`` is the paper's
#: endpoint-fit non-linearity error in percent of full scale.
OBSERVABLES = (
    "period",
    "frequency",
    "code",
    "power",
    "transfer_c",
    "calibration_error_c",
    "nonlinearity_percent",
)

#: Observables fit against the sweep's endpoint temperatures; they need
#: an explicit (or defaulted) temperature axis, which a site axis with
#: per-site junction temperatures does not have.
_ENDPOINT_OBSERVABLES = ("transfer_c", "calibration_error_c", "nonlinearity_percent")


class SweepError(ValueError):
    """Raised for invalid sweep specifications or result queries."""


class TechnologyMismatchError(SweepError):
    """A serialized technology reference does not match this process.

    Raised by :meth:`Sweep.from_dict` / :meth:`Axis.from_dict` when a
    ``{name, digest}`` technology reference names a node this process's
    registry does not know, or knows under a *different* content digest
    — e.g. two hosts sharing a cache directory that disagree about what
    a name means, or one host after
    ``register_technology(..., overwrite=True)``.  Structured so the
    sweep service can answer with its ``tech-mismatch`` error code
    instead of silently evaluating the wrong physics.

    Attributes
    ----------
    technology_name:
        The node name the spec referenced.
    spec_digest:
        The content digest the spec declared (``None`` if absent).
    local_digest:
        The digest this process's registry holds for that name
        (``None`` when the name is unregistered here).
    """

    def __init__(
        self,
        message: str,
        *,
        technology_name: Optional[str] = None,
        spec_digest: Optional[str] = None,
        local_digest: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.technology_name = technology_name
        self.spec_digest = spec_digest
        self.local_digest = local_digest


def _technology_to_dict(tech: Technology) -> Dict[str, Any]:
    """Serialize a base/axis technology as a content-addressed reference.

    Registered nodes (value-equal to their registry entry) travel as a
    compact ``{name, digest}`` pair; unregistered nodes carry their full
    declarative parameter bundle inline (plus the digest computed over
    it, so the receiver can verify the payload survived transport).
    Either way the canonical spec contains the digest — the caches key
    on what the technology *is*, not what it is called.
    """
    from ..tech.registry import default_registry, technology_digest

    spec = default_registry().spec_for(tech)
    if spec is not None:
        return {"name": spec.name, "digest": spec.digest}
    return {
        "name": tech.name,
        "digest": technology_digest(tech),
        "parameters": tech.to_dict(),
    }


def _technology_from_dict(payload: Mapping[str, Any]) -> Technology:
    """Resolve a serialized technology reference against this process.

    ``{name, digest}`` references resolve through the registry and the
    digest must match the registered node's; inline ``parameters``
    bundles are rebuilt (re-running all parameter-range validation) and
    their recomputed digest must match the declared one.  Mismatches
    raise :class:`TechnologyMismatchError` — never a silent fallback to
    whatever this process happens to call ``name``.
    """
    from ..tech.registry import default_registry, technology_digest

    if not isinstance(payload, Mapping):
        raise SweepError(
            f"a serialized technology must be a mapping of the form "
            f"{{name, digest[, parameters]}}, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - {"name", "digest", "parameters"})
    if unknown:
        raise SweepError(
            f"serialized technology has unknown field(s) {unknown}; "
            f"expected {{name, digest[, parameters]}}"
        )
    name = payload.get("name")
    digest = payload.get("digest")
    if not isinstance(name, str) or not name:
        raise SweepError("serialized technology needs a non-empty string 'name'")
    if not isinstance(digest, str) or not digest:
        raise SweepError("serialized technology needs a non-empty string 'digest'")
    if payload.get("parameters") is not None:
        try:
            tech = Technology.from_dict(payload["parameters"])
        except TechnologyError as error:
            raise SweepError(
                f"invalid inline technology parameters for {name!r}: {error}"
            ) from error
        if tech.name != name:
            raise SweepError(
                f"serialized technology name {name!r} does not match its "
                f"inline parameter bundle's name {tech.name!r}"
            )
        actual = technology_digest(tech)
        if actual != digest:
            raise TechnologyMismatchError(
                f"inline parameters for technology {name!r} hash to "
                f"{actual[:12]}..., not the declared digest {digest[:12]}...; "
                f"the spec was corrupted or tampered with in transport",
                technology_name=name,
                spec_digest=digest,
                local_digest=actual,
            )
        return tech
    registry = default_registry()
    if name not in registry:
        raise TechnologyMismatchError(
            f"technology {name!r} (digest {digest[:12]}...) is not registered "
            f"in this process and the spec carries no inline parameters; "
            f"register the node here or serialize it from an unregistered "
            f"Technology object",
            technology_name=name,
            spec_digest=digest,
            local_digest=None,
        )
    spec = registry.spec(name)
    if spec.digest != digest:
        raise TechnologyMismatchError(
            f"technology {name!r} is registered here with digest "
            f"{spec.digest[:12]}... but the spec references digest "
            f"{digest[:12]}...; the two registries disagree about what "
            f"{name!r} means — refusing to evaluate the wrong physics",
            technology_name=name,
            spec_digest=digest,
            local_digest=spec.digest,
        )
    return spec.technology


def _duplicate_labels(labels: Sequence[Any]) -> List[Any]:
    """The labels appearing more than once, in first-appearance order."""
    seen: set = set()
    duplicates: List[Any] = []
    for label in labels:
        if label in seen and label not in duplicates:
            duplicates.append(label)
        seen.add(label)
    return duplicates


def _integer(value: Any, what: str, minimum: int) -> int:
    """``value`` as an int, rejecting non-integral values (no truncation)."""
    try:
        integer = int(value)
        integral = integer == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or integer < minimum:
        raise SweepError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return integer


def _finite(value: Any, what: str, positive: bool = False) -> float:
    """``value`` as a finite float that is > 0 (``positive``) or >= 0."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not np.isfinite(number) or number < 0.0 or (positive and number == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise SweepError(f"{what} must be a finite number {bound}, got {value!r}")
    return number


# --------------------------------------------------------------------------- #
# axes
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Axis:
    """One named sweep axis: coordinate labels plus the lowering payload.

    Use the named constructors (:meth:`technology`, :meth:`temperature`,
    :meth:`sample`, :meth:`configuration`, :meth:`supply`,
    :meth:`width_ratio`) — they validate the values and attach the
    payload the planner lowers from.
    Coordinates keep the caller's order (the planner never reorders
    *within* an axis, only the axes themselves into
    :data:`CANONICAL_AXIS_ORDER`).
    """

    name: str
    coordinates: Tuple[Any, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or self.name not in _AXIS_KINDS:
            raise SweepError(
                f"unknown axis {self.name!r}; named axes are "
                f"{', '.join(_AXIS_KINDS)}"
            )
        if not self.coordinates:
            raise SweepError(f"axis {self.name!r} needs at least one coordinate")

    def __len__(self) -> int:
        return len(self.coordinates)

    # ------------------------------------------------------------------ #
    # named constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def technology(
        cls, technologies: Sequence[Union[Technology, str]]
    ) -> "Axis":
        """The technology-node axis: one process node per coordinate.

        Accepts :class:`~repro.tech.parameters.Technology` objects or
        registered node names (resolved through the content-addressed
        registry).  Coordinates are the node names, so they must be
        unique.  Each node is a complete evaluation context — its own
        default cell library and rings — so the axis lowers to an outer
        per-node loop around the fully broadcast inner sweep, stacked
        outermost in the canonical result order.  Mutually exclusive
        with a ``technology=``/``library=``/``ring=`` base and with the
        ``site``/``sample`` axes (a sensor bank or a concrete
        Monte-Carlo population pins one node).
        """
        from ..tech.libraries import get_technology

        nodes: List[Technology] = []
        for entry in list(technologies):
            if isinstance(entry, str):
                try:
                    entry = get_technology(entry)
                except TechnologyError as error:
                    raise SweepError(str(error)) from error
            if not isinstance(entry, Technology):
                raise SweepError(
                    f"the technology axis takes Technology objects or "
                    f"registered names, got {type(entry).__name__}"
                )
            nodes.append(entry)
        if not nodes:
            raise SweepError("technology axis needs at least one node")
        duplicates = _duplicate_labels([node.name for node in nodes])
        if duplicates:
            raise SweepError(
                f"technology axis has duplicate node names {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls(
            "technology", tuple(node.name for node in nodes), payload=tuple(nodes)
        )

    @classmethod
    def temperature(cls, temperatures_c: Sequence[float]) -> "Axis":
        """The junction-temperature axis (deg C), evaluated pointwise.

        The grid is kept in the caller's order (periods are evaluated
        elementwise, so ordering is presentation only).  Each point must
        be unique — duplicates would collide as coordinate labels in the
        result (and re-evaluate the same point for nothing).
        """
        temps = np.asarray(list(temperatures_c), dtype=float)
        if temps.ndim != 1 or temps.size < 1:
            raise SweepError("temperature axis needs a 1-D grid of at least one point")
        if np.any(~np.isfinite(temps)):
            raise SweepError("temperature axis must be finite (no NaN or infinity)")
        duplicates = _duplicate_labels([float(t) for t in temps])
        if duplicates:
            raise SweepError(
                f"temperature axis has duplicate points {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls("temperature", tuple(float(t) for t in temps))

    @classmethod
    def sample(cls, technologies) -> "Axis":
        """The process-sample axis: a technology population.

        Accepts a stacked :class:`~repro.tech.stacked.TechnologyArray`
        (kept as is) or a sequence of
        :class:`~repro.tech.parameters.Technology` samples, stacked here
        once — the payload is always a ``TechnologyArray``.  The samples
        must share one node's geometry scalars; to compare technology
        nodes, sweep them on :meth:`technology` instead.  Coordinates
        are the sample indices.
        """
        try:
            population = stack_technologies(technologies)
        except TechnologyError as error:
            raise SweepError(str(error)) from error
        if len(population) < 1:
            raise SweepError("sample axis needs at least one technology sample")
        return cls("sample", tuple(range(len(population))), payload=population)

    @classmethod
    def configuration(
        cls,
        configurations: Union[
            Mapping[str, RingConfiguration],
            Sequence[Union[RingConfiguration, str]],
        ],
    ) -> "Axis":
        """The ring-configuration axis (the paper's Fig. 3 knob).

        Accepts a label-to-configuration mapping, or a sequence of
        configurations / parseable strings (labelled by their canonical
        ``cfg.label()``).  Lowered onto a
        :class:`~repro.oscillator.bank.ConfigurationBank` — the whole
        axis evaluates as one broadcast, not one pass per ring.
        """
        try:
            labels, configs = normalise_configurations(configurations)
        except ConfigurationError as error:
            raise SweepError(str(error)) from error
        return cls(
            "configuration",
            labels,
            payload=dict(zip(labels, configs)),
        )

    @classmethod
    def site(
        cls,
        bank: SensorBank,
        junction_temperatures_c: Optional[Sequence[float]] = None,
    ) -> "Axis":
        """The sensor-site axis: a floorplan bank of identical sensors.

        Backed by a :class:`~repro.core.sensor_bank.SensorBank`.  Two
        modes:

        * with ``junction_temperatures_c`` (one per site, in site
          order) the sweep *scans* the bank — every site is evaluated
          at its own local junction temperature (usually gathered from
          a solved :class:`~repro.thermal.grid.TemperatureMap`), and
          the result has a ``site`` dimension instead of a
          ``temperature`` one;
        * without, the sweep *characterises* the bank — every site is
          evaluated over the shared temperature axis.  The sites share
          one ring design (as the multiplexed hardware shares one
          readout), so this mode is a broadcast along the site
          dimension, not a recompute.

        Coordinates are the site names.  Mutually exclusive with the
        ``configuration`` and ``width_ratio`` axes (the bank already
        fixes the ring design).
        """
        if not isinstance(bank, SensorBank):
            raise SweepError(
                f"the site axis takes a SensorBank, got {type(bank).__name__}"
            )
        temps = None
        if junction_temperatures_c is not None:
            temps = np.asarray(list(junction_temperatures_c), dtype=float)
            if temps.shape != (bank.site_count,):
                raise SweepError(
                    f"expected one junction temperature per site "
                    f"({bank.site_count}), got shape {temps.shape}"
                )
            if np.any(~np.isfinite(temps)):
                raise SweepError("junction temperatures must be finite")
        return cls(
            "site",
            bank.names(),
            payload={"bank": bank, "junction_temperatures_c": temps},
        )

    @classmethod
    def resolution(
        cls,
        resolutions: Sequence[int],
        floorplan: Floorplan,
        ambient_c: float = 45.0,
        parameters: ThermalGridParameters = ThermalGridParameters(),
    ) -> "Axis":
        """The thermal-grid density axis (a grid-refinement study).

        For each coordinate ``r`` the planner rasterises the floorplan's
        power map onto an ``r x r`` grid, solves the steady-state die
        temperature field through the process-wide
        :class:`~repro.thermal.operator.ThermalOperator` cache (one
        entry — one factorization or multigrid hierarchy per resolution,
        picked by the grid size) and reads every sensor site of the
        sweep's ``site`` axis at its local junction temperature.  The
        result gains a ``resolution`` dimension just outside ``site``.

        Requires a ``site`` axis *without* explicit junction
        temperatures (the solved fields supply them); like a site scan,
        it carries no ``temperature`` axis.  Coordinates are the grid
        resolutions, in the caller's order (each refinement is solved
        independently).
        """
        if not isinstance(floorplan, Floorplan):
            raise SweepError(
                f"the resolution axis takes a Floorplan, got "
                f"{type(floorplan).__name__}"
            )
        values = list(resolutions)
        if not values:
            raise SweepError("resolution axis needs at least one grid resolution")
        coords = []
        for value in values:
            if int(value) != value or int(value) < 2:
                raise SweepError(
                    f"grid resolutions must be integers >= 2, got {value!r}"
                )
            coords.append(int(value))
        duplicates = _duplicate_labels(coords)
        if duplicates:
            raise SweepError(
                f"resolution axis has duplicate resolutions {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls(
            "resolution",
            tuple(coords),
            payload={
                "floorplan": floorplan,
                "ambient_c": float(ambient_c),
                "parameters": parameters,
            },
        )

    @classmethod
    def supply(cls, supplies_v: Sequence[float]) -> "Axis":
        """The supply-voltage axis (V), applied via ``with_supply``.

        When combined with a ``sample`` axis the supplies override each
        sample's vdd, giving the full supply x sample cross product.
        """
        values = np.asarray(list(supplies_v), dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise SweepError("supply axis needs a 1-D grid of at least one voltage")
        if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
            raise SweepError("supply voltages must be finite and positive")
        if len(set(values.tolist())) != values.size:
            raise SweepError("supply voltages must be unique")
        return cls("supply", tuple(float(v) for v in values))

    @classmethod
    def width_ratio(
        cls,
        ratios: Sequence[float],
        nmos_width_um: float = 1.05,
        stage_count: int = 5,
    ) -> "Axis":
        """The Wp/Wn sizing axis (the paper's Fig. 2 knob).

        A geometry axis: every ratio rebuilds the inverter cell (via
        :func:`repro.optimize.sizing.build_sized_ring`), so it lowers to
        an outer loop over otherwise fully broadcast sub-tensors rather
        than a broadcast dimension of its own.  Mutually exclusive with
        the ``configuration`` axis.  Ratios must be unique — a duplicate
        would collide as a coordinate label in the result, making
        ``select`` ambiguous and the serialized form lossy.
        ``nmos_width_um`` must be finite and positive and
        ``stage_count`` an integer of at least 3.
        """
        nmos_width_um = _finite(nmos_width_um, "nmos_width_um", positive=True)
        stage_count = _integer(stage_count, "width_ratio stage_count", minimum=3)
        values = np.asarray(list(ratios), dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise SweepError("width_ratio axis needs at least one ratio")
        if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
            raise SweepError("width ratios must be finite and positive")
        duplicates = _duplicate_labels([float(r) for r in values])
        if duplicates:
            raise SweepError(
                f"width_ratio axis has duplicate ratios {duplicates}; "
                "coordinates must be unique per axis"
            )
        return cls(
            "width_ratio",
            tuple(float(r) for r in values),
            payload={"nmos_width_um": nmos_width_um, "stage_count": stage_count},
        )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form of a serializable axis.

        The payload is built from plain lists and scalars so it
        round-trips through JSON and :meth:`from_dict` — the form a
        sweep spec travels in through the sweep service
        (:mod:`repro.serve`) and its content-addressed result cache.
        The ``site`` and ``resolution`` axes carry live objects (a
        :class:`~repro.core.sensor_bank.SensorBank`, a
        :class:`~repro.thermal.floorplan.Floorplan`) and have no
        serialized form; they raise :class:`SweepError`.
        """
        encode = _AXIS_KINDS[self.name].encode
        if encode is None:
            raise SweepError(
                f"axis {self.name!r} carries live objects (a sensor bank or "
                f"floorplan) and has no serialized form; a served sweep "
                f"supports the {_serializable_axis_names()} axes"
            )
        return {"name": self.name, **encode(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Axis":
        """Re-hydrate an axis serialized by :meth:`to_dict`.

        Malformed payloads (a missing key, a value of the wrong type)
        raise :class:`SweepError`.
        """
        if not isinstance(payload, Mapping):
            raise SweepError(
                f"Axis.from_dict takes a to_dict() mapping, got "
                f"{type(payload).__name__}"
            )
        name = payload.get("name")
        kind = _AXIS_KINDS.get(name) if isinstance(name, str) else None
        if kind is None or kind.decode is None:
            raise SweepError(
                f"unknown serialized axis {name!r}; serializable axes are "
                f"{_serializable_axis_names()}"
            )
        try:
            return kind.decode(payload)
        except SweepError:
            raise
        except KeyError as error:
            raise SweepError(
                f"serialized {name!r} axis is missing key {error}"
            ) from None
        except (TypeError, ValueError, AttributeError) as error:
            raise SweepError(f"invalid serialized {name!r} axis: {error}") from error


# --------------------------------------------------------------------------- #
# the axis-kind table
# --------------------------------------------------------------------------- #


def _decode_configuration(payload: Mapping[str, Any]) -> Axis:
    labels = [str(label) for label in payload["labels"]]
    stages = payload["stages"]
    if len(labels) != len(stages):
        raise SweepError(
            f"configuration axis has {len(labels)} labels but "
            f"{len(stages)} stage lists"
        )
    configs = [RingConfiguration(tuple(str(s) for s in entry)) for entry in stages]
    return Axis.configuration(dict(zip(labels, configs)))


def _encode_sample(axis: Axis) -> Dict[str, Any]:
    population = axis.payload
    columns = technology_column_arrays(population)
    return {
        "technology": {
            "name": str(population.name),
            "feature_size_um": float(population.feature_size_um),
            "min_width_um": float(population.min_width_um),
            "metal_layers": int(population.metal_layers),
            "extras": [dict(extra) for extra in population.extras],
        },
        "columns": {
            key: np.asarray(column, dtype=float).reshape(-1).tolist()
            for key, column in sorted(columns.items())
        },
    }


def _decode_sample(payload: Mapping[str, Any]) -> Axis:
    tech = payload["technology"]
    return Axis.sample(
        technology_array_from_columns(
            name=str(tech["name"]),
            feature_size_um=float(tech["feature_size_um"]),
            min_width_um=float(tech["min_width_um"]),
            metal_layers=int(tech["metal_layers"]),
            extras=tuple(dict(extra) for extra in tech["extras"]),
            columns={
                key: np.asarray(values, dtype=float).reshape(-1, 1)
                for key, values in payload["columns"].items()
            },
        )
    )


def _coordinates(axis: Axis) -> Dict[str, Any]:
    return {"coordinates": [float(c) for c in axis.coordinates]}


@dataclass(frozen=True)
class _AxisKind:
    """The per-kind hooks of one named axis.

    ``encode`` / ``decode`` are the halves of :meth:`Axis.to_dict` /
    :meth:`Axis.from_dict` (``None`` for kinds holding live objects).
    ``slice`` restricts the axis to coordinates ``[start, stop)``; only
    the elementwise kinds the tiling pass may split have one.
    ``endpoint_fit`` marks the kind whose extremes the endpoint-fit
    observables read, which a tile must then carry whole.
    """

    encode: Optional[Callable[[Axis], Dict[str, Any]]] = None
    decode: Optional[Callable[[Mapping[str, Any]], Axis]] = None
    slice: Optional[Callable[[Axis, int, int], Axis]] = None
    endpoint_fit: bool = False


#: One entry per axis kind, keyed in :data:`CANONICAL_AXIS_ORDER`.
_AXIS_KINDS: Dict[str, _AxisKind] = {
    "technology": _AxisKind(
        lambda axis: {"nodes": [_technology_to_dict(node) for node in axis.payload]},
        lambda payload: Axis.technology(
            [_technology_from_dict(entry) for entry in payload["nodes"]]
        ),
    ),
    "configuration": _AxisKind(
        lambda axis: {
            "labels": [str(label) for label in axis.coordinates],
            "stages": [list(axis.payload[label].stages) for label in axis.coordinates],
        },
        _decode_configuration,
    ),
    "width_ratio": _AxisKind(
        lambda axis: {
            **_coordinates(axis),
            "nmos_width_um": float(axis.payload["nmos_width_um"]),
            "stage_count": int(axis.payload["stage_count"]),
        },
        lambda payload: Axis.width_ratio(
            payload["coordinates"],
            nmos_width_um=payload["nmos_width_um"],
            stage_count=payload["stage_count"],
        ),
    ),
    "resolution": _AxisKind(),
    "site": _AxisKind(),
    "supply": _AxisKind(
        _coordinates, lambda payload: Axis.supply(payload["coordinates"])
    ),
    "sample": _AxisKind(
        _encode_sample,
        _decode_sample,
        lambda axis, start, stop: Axis(
            axis.name, axis.coordinates[start:stop], axis.payload.sliced(start, stop)
        ),
    ),
    "temperature": _AxisKind(
        _coordinates,
        lambda payload: Axis.temperature(payload["coordinates"]),
        lambda axis, start, stop: Axis(axis.name, axis.coordinates[start:stop]),
        endpoint_fit=True,
    ),
}

#: The canonical broadcast order of the named axes: every
#: :class:`SweepResult` carries its dimensions in this order no matter
#: the order the axes were declared in.  ``technology`` is outermost —
#: each node is a complete evaluation context (its own cell library and
#: rings), so the axis lowers to an outer per-node loop around the fully
#: broadcast inner sweep.  ``site`` (the sensor-bank location axis) sits
#: outside the ``supply``/``sample`` pair because those two lower onto
#: one flat supply-major population axis that must stay contiguous to
#: un-reshape; ``resolution`` (the thermal grid's density — a
#: grid-refinement axis that re-solves the die's thermal field per
#: coordinate, one cached
#: :class:`~repro.thermal.operator.ThermalOperator` entry each) sits
#: just outside ``site`` because each refinement produces one junction
#: temperature per site.
CANONICAL_AXIS_ORDER = tuple(_AXIS_KINDS)


def _serializable_axis_names() -> str:
    """The axis kinds with a serialized form, as prose in canonical order."""
    names = [name for name, kind in _AXIS_KINDS.items() if kind.encode is not None]
    return f"{', '.join(names[:-1])} and {names[-1]}"


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepResult:
    """A labeled ndarray: sweep values plus named axes and coordinates.

    ``dims`` names each dimension of ``values`` (a subset of
    :data:`CANONICAL_AXIS_ORDER`, in that order) and ``coords`` maps
    each name to its coordinate labels, so callers select by meaning
    (``result.select(configuration="5INV", temperature=25.0)``) instead
    of tracking raw dimension positions.
    """

    values: np.ndarray
    dims: Tuple[str, ...]
    coords: Dict[str, Tuple[Any, ...]]
    observable: str = "period"

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "coords", dict(self.coords))
        if len(set(self.dims)) != len(self.dims):
            raise SweepError(f"duplicate axis names in {self.dims}")
        if values.ndim != len(self.dims):
            raise SweepError(
                f"values have {values.ndim} dimensions but {len(self.dims)} "
                f"axis names were given"
            )
        if set(self.coords) != set(self.dims):
            raise SweepError("coords must carry exactly one entry per axis name")
        for axis, name in enumerate(self.dims):
            if len(self.coords[name]) != values.shape[axis]:
                raise SweepError(
                    f"axis {name!r} has {values.shape[axis]} entries but "
                    f"{len(self.coords[name])} coordinates"
                )
        for name in self.dims:
            duplicates = _duplicate_labels(self.coords[name])
            if duplicates:
                # Duplicate labels would silently collapse in the
                # coordinate-keyed to_dict tree (later keys overwrite
                # earlier ones, dropping data) and make select() return
                # an arbitrary one of the colliding entries.
                raise SweepError(
                    f"axis {name!r} has duplicate coordinate labels "
                    f"{duplicates}; coordinates must be unique per axis"
                )

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.values.shape

    def axis_index(self, name: str) -> int:
        """Position of a named axis in the value array."""
        try:
            return self.dims.index(name)
        except ValueError:
            raise SweepError(
                f"result has no axis {name!r}; axes are {self.dims}"
            ) from None

    def coordinates(self, name: str) -> Tuple[Any, ...]:
        """Coordinate labels of a named axis."""
        self.axis_index(name)
        return tuple(self.coords[name])

    def item(self) -> float:
        """The single value of a fully selected (size-1) result."""
        if self.values.size != 1:
            raise SweepError(
                f"item() needs a single-element result, got shape {self.shape}"
            )
        return float(self.values.reshape(()))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    def _locate(self, name: str, label: Any) -> int:
        labels = self.coords[name]
        for index, candidate in enumerate(labels):
            if candidate == label:
                return index
        if isinstance(label, (int, float)) and not isinstance(label, bool):
            numeric = [
                index
                for index, candidate in enumerate(labels)
                if isinstance(candidate, (int, float))
                and np.isclose(float(candidate), float(label), rtol=1e-12, atol=0.0)
            ]
            if len(numeric) > 1:
                # Near-duplicate float coordinates (e.g. a refinement
                # axis converging on one value) make "the first isclose
                # match" an arbitrary choice; force the caller to
                # disambiguate by position instead of silently picking
                # index 0.
                matches = [labels[index] for index in numeric]
                raise SweepError(
                    f"label {label!r} on axis {name!r} is ambiguous: it is "
                    f"within tolerance of coordinates {matches} at positions "
                    f"{numeric}; select by position with isel() instead"
                )
            if numeric:
                return numeric[0]
        raise SweepError(
            f"axis {name!r} has no coordinate {label!r}; coordinates are {labels}"
        )

    def select(self, **selectors: Any) -> "SweepResult":
        """Select by coordinate label.

        A scalar label drops the axis; a list/tuple of labels keeps the
        axis restricted to that subset (in the requested order).
        """
        result = self
        for name, label in selectors.items():
            result.axis_index(name)
            if isinstance(label, (list, tuple)):
                indices = [result._locate(name, entry) for entry in label]
                result = result._take(name, indices, keep=True)
            else:
                result = result._take(name, [result._locate(name, label)], keep=False)
        return result

    def isel(self, **indexers: Union[int, Sequence[int]]) -> "SweepResult":
        """Select by integer position (same drop/keep rules as :meth:`select`)."""
        result = self
        for name, index in indexers.items():
            result.axis_index(name)
            if isinstance(index, (list, tuple)):
                result = result._take(name, [int(i) for i in index], keep=True)
            else:
                result = result._take(name, [int(index)], keep=False)
        return result

    def _take(self, name: str, indices: List[int], keep: bool) -> "SweepResult":
        axis = self.axis_index(name)
        labels = self.coords[name]
        for index in indices:
            if not -len(labels) <= index < len(labels):
                raise SweepError(
                    f"index {index} outside axis {name!r} (size {len(labels)})"
                )
        taken = np.take(self.values, indices, axis=axis)
        coords = dict(self.coords)
        if keep:
            coords[name] = tuple(labels[index] for index in indices)
            return replace(self, values=taken, coords=coords)
        coords.pop(name)
        dims = tuple(d for d in self.dims if d != name)
        return replace(
            self, values=np.squeeze(taken, axis=axis), dims=dims, coords=coords
        )

    def squeeze(self) -> "SweepResult":
        """Drop every size-1 axis (labels included)."""
        keep = [i for i, name in enumerate(self.dims) if self.values.shape[i] != 1]
        dims = tuple(self.dims[i] for i in keep)
        coords = {name: self.coords[name] for name in dims}
        values = self.values.reshape([self.values.shape[i] for i in keep])
        return replace(self, values=values, dims=dims, coords=coords)

    def to_tree(self) -> Any:
        """Nested plain-dict view keyed by coordinates (floats at the leaves).

        Coordinate labels become dictionary keys, so uniqueness (enforced
        at construction) is what keeps this view lossless: a duplicate
        label would silently overwrite its sibling's subtree.
        """
        for name in self.dims:
            duplicates = _duplicate_labels(self.coords[name])
            if duplicates:  # pragma: no cover - unreachable post-validation
                raise SweepError(
                    f"axis {name!r} has duplicate coordinate labels "
                    f"{duplicates}; the coordinate-keyed view would drop data"
                )
        if not self.dims:
            return float(self.values.reshape(()))
        name = self.dims[0]
        return {
            label: self.isel(**{name: index}).to_tree()
            for index, label in enumerate(self.coords[name])
        }

    #: Version tag of the :meth:`to_dict` serialization, bumped on any
    #: incompatible change so cached artifacts can be rejected cleanly.
    SCHEMA_VERSION = 1

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form (dims, coords, values, observable).

        The payload is built from plain lists and scalars, so it
        round-trips through JSON and :meth:`from_dict` rebuilds an
        identical result — the serialization tile results and cached
        sweep artifacts travel as.  Duplicate coordinate labels raise
        :class:`SweepError` (they cannot re-hydrate losslessly); use
        :meth:`to_tree` for the coordinate-keyed nested view.
        """
        for name in self.dims:
            duplicates = _duplicate_labels(self.coords[name])
            if duplicates:  # pragma: no cover - unreachable post-validation
                raise SweepError(
                    f"axis {name!r} has duplicate coordinate labels "
                    f"{duplicates}; the serialized result would drop data"
                )
        return {
            "version": self.SCHEMA_VERSION,
            "observable": self.observable,
            "dims": list(self.dims),
            "coords": {name: list(self.coords[name]) for name in self.dims},
            "dtype": str(self.values.dtype),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Re-hydrate a result serialized by :meth:`to_dict`."""
        if not isinstance(payload, Mapping):
            raise SweepError(
                f"from_dict takes a to_dict() mapping, got {type(payload).__name__}"
            )
        missing = [
            key
            for key in ("version", "observable", "dims", "coords", "values")
            if key not in payload
        ]
        if missing:
            raise SweepError(f"serialized sweep result is missing {missing}")
        version = payload["version"]
        if version != cls.SCHEMA_VERSION:
            raise SweepError(
                f"serialized sweep result has version {version!r}; this "
                f"build reads version {cls.SCHEMA_VERSION}"
            )
        dims = tuple(payload["dims"])
        coords = {name: tuple(labels) for name, labels in payload["coords"].items()}
        values = np.asarray(payload["values"], dtype=payload.get("dtype", float))
        return cls(
            values=values,
            dims=dims,
            coords=coords,
            observable=payload["observable"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extent = ", ".join(
            f"{name}={len(self.coords[name])}" for name in self.dims
        )
        return f"SweepResult({self.observable}; {extent})"


# --------------------------------------------------------------------------- #
# the builder and the planner
# --------------------------------------------------------------------------- #


class Sweep:
    """Builder for a declarative sweep over named axes.

    Parameters
    ----------
    technology:
        Base technology (defaults to the library's, or the paper's
        0.35 um process when nothing else pins it down).
    library:
        Cell library the rings draw their stages from (the default X1
        library of the technology when omitted).
    configuration:
        Single ring configuration (a
        :class:`~repro.oscillator.config.RingConfiguration` or a
        parseable string) for sweeps without a ``configuration`` axis.
    ring:
        A fully built :class:`~repro.oscillator.ring.RingOscillator` to
        sweep as-is (wins over technology/library/configuration).
    wire_length_um / external_load_f / tap_stage:
        Ring construction parameters used when the sweep builds rings
        itself (finite and non-negative; ``tap_stage`` an integer).
    readout:
        Counter readout used by the ``code`` observable for sweeps
        without a site axis (a site axis brings its bank's readout).

    Compose axes with :meth:`over`, pick an observable with
    :meth:`observe` (``"period"`` by default) and evaluate with
    :meth:`run`.  The builder mutates and returns itself, so the usual
    form is one fluent chain.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        library: Optional[CellLibrary] = None,
        configuration: Optional[Union[RingConfiguration, str]] = None,
        ring: Optional[RingOscillator] = None,
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
        readout: ReadoutConfig = ReadoutConfig(),
    ) -> None:
        self._technology = technology
        self._library = library
        if isinstance(configuration, str):
            configuration = RingConfiguration.parse(configuration)
        if configuration is not None and not isinstance(configuration, RingConfiguration):
            raise SweepError(
                f"configuration= takes a RingConfiguration or a parseable "
                f"string, got {type(configuration).__name__}"
            )
        self._configuration = configuration
        self._ring = ring
        self._wire_length_um = _finite(wire_length_um, "wire_length_um")
        self._external_load_f = _finite(external_load_f, "external_load_f")
        self._tap_stage = (
            None if tap_stage is None else _integer(tap_stage, "tap_stage", minimum=0)
        )
        self._readout = readout
        self._axes: Dict[str, Axis] = {}
        self._observable = "period"

    def over(self, *axes: Axis) -> "Sweep":
        """Add one or more named axes to the sweep."""
        for axis in axes:
            if not isinstance(axis, Axis):
                raise SweepError(f"over() takes Axis objects, got {type(axis).__name__}")
            if axis.name in self._axes:
                raise SweepError(f"axis {axis.name!r} was already added to this sweep")
            self._axes[axis.name] = axis
        return self

    def observe(self, observable: str) -> "Sweep":
        """Choose the observable (one of :data:`OBSERVABLES`)."""
        if observable not in OBSERVABLES:
            raise SweepError(
                f"unknown observable {observable!r}; choose one of {OBSERVABLES}"
            )
        self._observable = observable
        return self

    #: Version tag of the :meth:`to_dict` sweep-spec serialization,
    #: bumped on any incompatible change so a service (or a cached
    #: artifact reader) can reject stale payloads cleanly instead of
    #: misinterpreting them.  Version 2 made technology references
    #: content-addressed: the base technology and technology-axis nodes
    #: serialize as ``{name, digest}`` (inline parameter bundles for
    #: unregistered nodes), so canonical cache keys change whenever a
    #: node's *parameters* change — not just its name.
    SCHEMA_VERSION = 2

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-data form of a serializable sweep spec.

        The payload is built from plain lists and scalars, so it
        round-trips through JSON and :meth:`from_dict` rebuilds a sweep
        whose :meth:`run` is bit-identical to this one's — the request
        format of the sweep service (:mod:`repro.serve`), which
        content-hashes the canonicalized payload to key its result
        cache.  Serializable sweeps are those declared from data: a
        base technology (a registered node travels as its
        content-addressed ``{name, digest}`` reference, an unregistered
        one inlines its full parameter bundle), a parseable base
        configuration, and the technology / configuration / width_ratio
        / supply / sample / temperature axes.  A ``ring=`` or
        ``library=`` base and the ``site`` / ``resolution`` axes carry
        live objects and raise :class:`SweepError`.
        """
        if self._ring is not None:
            raise SweepError(
                "a ring= base carries a live RingOscillator and cannot be "
                "serialized; pass technology= plus configuration= instead"
            )
        if self._library is not None:
            raise SweepError(
                "a library= base carries a live CellLibrary and cannot be "
                "serialized; pass technology= (the default library is "
                "rebuilt on the far side)"
            )
        technology = None
        if self._technology is not None:
            technology = _technology_to_dict(self._technology)
        return {
            "version": self.SCHEMA_VERSION,
            "observable": self._observable,
            "base": {
                "technology": technology,
                "configuration": (
                    self._configuration.label()
                    if self._configuration is not None
                    else None
                ),
                "wire_length_um": float(self._wire_length_um),
                "external_load_f": float(self._external_load_f),
                "tap_stage": (
                    int(self._tap_stage) if self._tap_stage is not None else None
                ),
                "readout": {
                    "reference_clock_hz": float(self._readout.reference_clock_hz),
                    "window_cycles": int(self._readout.window_cycles),
                    "counter_bits": int(self._readout.counter_bits),
                },
            },
            "axes": [
                self._axes[name].to_dict()
                for name in CANONICAL_AXIS_ORDER
                if name in self._axes
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Sweep":
        """Re-hydrate a sweep spec serialized by :meth:`to_dict`.

        Technology references are verified against this process's
        registry by content digest; a name the registry does not know
        (with no inline parameters) or knows under a different digest
        raises :class:`TechnologyMismatchError` rather than silently
        evaluating whatever this process calls that name.  Any other
        malformed field raises :class:`SweepError`.
        """
        if not isinstance(payload, Mapping):
            raise SweepError(
                f"Sweep.from_dict takes a to_dict() mapping, got "
                f"{type(payload).__name__}"
            )
        missing = [
            key for key in ("version", "observable", "base", "axes") if key not in payload
        ]
        if missing:
            raise SweepError(f"serialized sweep spec is missing {missing}")
        version = payload["version"]
        if version != cls.SCHEMA_VERSION:
            raise SweepError(
                f"serialized sweep spec has version {version!r}; this "
                f"build reads version {cls.SCHEMA_VERSION}"
            )
        base = payload["base"]
        if not isinstance(base, Mapping):
            raise SweepError(
                f"serialized sweep spec's base must be a mapping, got "
                f"{type(base).__name__}"
            )
        technology = None
        if base.get("technology") is not None:
            technology = _technology_from_dict(base["technology"])
        try:
            sweep = cls(
                technology=technology,
                configuration=base.get("configuration"),
                wire_length_um=base.get("wire_length_um", 2.0),
                external_load_f=base.get("external_load_f", 0.0),
                tap_stage=base.get("tap_stage"),
                readout=ReadoutConfig(**dict(base.get("readout") or {})),
            )
        except SweepError:
            raise
        except (TypeError, ValueError, AttributeError) as error:
            raise SweepError(f"invalid serialized sweep base: {error}") from error
        axes = payload["axes"]
        if not isinstance(axes, Sequence) or isinstance(axes, (str, bytes)):
            raise SweepError(
                f"serialized sweep spec's axes must be a list, got "
                f"{type(axes).__name__}"
            )
        for axis_payload in axes:
            sweep.over(Axis.from_dict(axis_payload))
        return sweep.observe(payload["observable"])

    def plan(self) -> "SweepPlan":
        """Validate the axis combination and freeze the lowering plan."""
        axes = tuple(
            self._axes[name] for name in CANONICAL_AXIS_ORDER if name in self._axes
        )
        if "technology" in self._axes:
            if (
                self._technology is not None
                or self._library is not None
                or self._ring is not None
            ):
                raise SweepError(
                    "a technology axis supplies the node per coordinate; "
                    "drop the technology=/library=/ring= base"
                )
            if "site" in self._axes:
                raise SweepError(
                    "the site axis's bank is built in one technology and "
                    "cannot be combined with a technology axis"
                )
            if "sample" in self._axes:
                raise SweepError(
                    "a sample axis holds a concrete Monte-Carlo population "
                    "drawn from one node and cannot be combined with a "
                    "technology axis; draw per-node populations and sweep "
                    "them as separate runs"
                )
        site_axis = self._axes.get("site")
        resolution_axis = self._axes.get("resolution")
        if resolution_axis is not None:
            if site_axis is None:
                raise SweepError(
                    "the resolution axis solves the die's thermal field and "
                    "needs a site axis (a sensor bank) to read it; add "
                    "Axis.site(bank)"
                )
            if site_axis.payload["junction_temperatures_c"] is not None:
                raise SweepError(
                    "a resolution axis solves each refinement's junction "
                    "temperatures itself; drop the site axis's explicit "
                    "junction_temperatures_c"
                )
        site_scan = site_axis is not None and (
            site_axis.payload["junction_temperatures_c"] is not None
            or resolution_axis is not None
        )
        if site_axis is not None:
            for other in ("configuration", "width_ratio"):
                if other in self._axes:
                    raise SweepError(
                        f"the site axis fixes the ring design through its "
                        f"bank and cannot be combined with a {other} axis"
                    )
            if self._ring is not None or self._configuration is not None:
                raise SweepError(
                    "a site axis brings its bank's ring design; drop the "
                    "ring=/configuration= base"
                )
            bank = site_axis.payload["bank"]
            if self._technology is not None and bank.technology != self._technology:
                raise SweepError(
                    f"the site axis's bank is built in technology "
                    f"{bank.technology.name!r}, not in technology= "
                    f"{self._technology.name!r} (compared by value); the "
                    f"sweep would mix the two"
                )
        if site_scan:
            if "temperature" in self._axes:
                raise SweepError(
                    "a site axis with junction temperatures (explicit, or "
                    "solved per refinement by a resolution axis) evaluates "
                    "every site at its own temperature and cannot be "
                    "combined with a temperature axis; drop one of the two"
                )
            if self._observable in _ENDPOINT_OBSERVABLES:
                raise SweepError(
                    f"observable {self._observable!r} fits the sweep's "
                    "endpoint temperatures and needs a temperature axis; a "
                    "site scan (junction temperatures or a resolution axis) "
                    "has none"
                )
        elif "temperature" not in self._axes:
            axes = axes + (Axis.temperature(default_temperature_grid()),)
        if "configuration" in self._axes and "width_ratio" in self._axes:
            raise SweepError(
                "the configuration and width_ratio axes both define the ring "
                "and cannot be combined in one sweep"
            )
        if "width_ratio" in self._axes and self._ring is not None:
            raise SweepError("a width_ratio axis rebuilds the ring; drop the ring= base")
        if "configuration" in self._axes and self._ring is not None:
            # Accepting the ring would silently drop its configuration,
            # wire length and tap load in favour of the Sweep defaults.
            raise SweepError(
                "a configuration axis builds its own rings; pass library= "
                "(plus wire_length_um/external_load_f/tap_stage) instead of ring="
            )
        if "configuration" in self._axes and self._configuration is not None:
            raise SweepError(
                "this sweep has both a base configuration= and a "
                "configuration axis; the base would be silently ignored — "
                "drop one of the two"
            )
        if (
            self._technology is not None
            and self._library is not None
            and self._library.technology != self._technology
        ):
            raise SweepError(
                f"library= is built in technology "
                f"{self._library.technology.name!r}, not in technology= "
                f"{self._technology.name!r} (compared by value); the sweep "
                "would mix the two — pass one of them"
            )
        return SweepPlan(
            axes=axes,
            observable=self._observable,
            technology=self._technology,
            library=self._library,
            configuration=self._configuration,
            ring=self._ring,
            wire_length_um=self._wire_length_um,
            external_load_f=self._external_load_f,
            tap_stage=self._tap_stage,
            readout=self._readout,
        )

    def run(
        self,
        *,
        executor: Any = None,
        max_tile_elements: Optional[int] = None,
    ) -> SweepResult:
        """Plan and evaluate the sweep (see :meth:`SweepPlan.execute`)."""
        return self.plan().execute(
            executor=executor, max_tile_elements=max_tile_elements
        )

    def reduce(
        self,
        reducers: Any,
        *,
        executor: Any = None,
        max_tile_elements: Optional[int] = None,
    ) -> Any:
        """Plan and stream the sweep through reducers (:meth:`SweepPlan.reduce`)."""
        return self.plan().reduce(
            reducers, executor=executor, max_tile_elements=max_tile_elements
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = [name for name in CANONICAL_AXIS_ORDER if name in self._axes]
        return f"Sweep(axes={names}, observable={self._observable!r})"


@dataclass(frozen=True)
class SweepPlan:
    """A validated sweep lowered onto concrete broadcast dimensions.

    Produced by :meth:`Sweep.plan`.  ``axes`` holds the named axes in
    canonical order (with the implicit default temperature axis
    appended when none was declared); :meth:`execute` performs the
    lowering:

    * ``technology`` loops the whole inner sweep per node (each node is
      a complete evaluation context — its own default library and rings
      — so per-node slices are bitwise identical to running the inner
      sweep against that node directly),
    * ``supply`` x ``sample`` stack into one struct-of-arrays
      population (supply-major, so the flat sample axis un-reshapes to
      ``(supply, sample)``),
    * ``configuration`` lowers onto a
      :class:`~repro.oscillator.bank.ConfigurationBank` single
      broadcast,
    * ``width_ratio`` loops ring builds around the inner broadcast,
    * ``resolution`` loops steady thermal solves (one cached
      :class:`~repro.thermal.operator.ThermalOperator` entry per grid
      density) around the site axis's banked scan,
    * a plain ring sweep lowers straight onto
      :meth:`~repro.oscillator.ring.RingOscillator.period_series` /
      :meth:`~repro.oscillator.ring.RingOscillator.period_matrix`.
    """

    axes: Tuple[Axis, ...]
    observable: str
    technology: Optional[Technology]
    library: Optional[CellLibrary]
    configuration: Optional[RingConfiguration]
    ring: Optional[RingOscillator]
    wire_length_um: float
    external_load_f: float
    tap_stage: Optional[int]
    readout: ReadoutConfig = ReadoutConfig()

    def axis(self, name: str) -> Optional[Axis]:
        for axis in self.axes:
            if axis.name == name:
                return axis
        return None

    # ------------------------------------------------------------------ #
    # base-context resolution
    # ------------------------------------------------------------------ #

    def _base_technology(self) -> Technology:
        if self.ring is not None:
            return self.ring.technology
        if self.technology is not None:
            return self.technology
        if self.library is not None:
            return self.library.technology
        site_axis = self.axis("site")
        if site_axis is not None:
            # The documented Sweep() site-axis form pins nothing else
            # down, so the bank's own technology is the base context
            # (e.g. for a supply axis stacked on top of the bank).
            return site_axis.payload["bank"].technology
        from ..tech.libraries import CMOS035

        return CMOS035

    def _base_library(self) -> CellLibrary:
        if self.ring is not None:
            return self.ring.library
        if self.library is not None:
            return self.library
        site_axis = self.axis("site")
        if site_axis is not None:
            return site_axis.payload["bank"].library
        return default_library(self._base_technology())

    def _base_ring(self) -> RingOscillator:
        if self.ring is not None:
            return self.ring
        if self.configuration is None:
            raise SweepError(
                "this sweep has no configuration axis and no base "
                "configuration/ring to evaluate; pass configuration= or ring= "
                "to Sweep, or add Axis.configuration(...)"
            )
        return RingOscillator(
            self._base_library(),
            self.configuration,
            wire_length_um=self.wire_length_um,
            external_load_f=self.external_load_f,
            tap_stage=self.tap_stage,
        )

    # ------------------------------------------------------------------ #
    # population lowering (supply x sample)
    # ------------------------------------------------------------------ #

    def _lower_population(self):
        """The stacked technology population of the supply/sample axes.

        Returns ``None`` when neither axis is present.  With both, the
        cross product is supply-major: flat index ``v * S + s``.
        """
        supply_axis = self.axis("supply")
        sample_axis = self.axis("sample")
        if supply_axis is None and sample_axis is None:
            return None
        if supply_axis is None:
            return sample_axis.payload
        supplies = np.asarray(supply_axis.coordinates, dtype=float)
        if sample_axis is None:
            return stack_technologies(
                [self._base_technology().with_supply(float(v)) for v in supplies]
            )
        samples = sample_axis.payload
        return samples.tiled(supplies.size).with_supply(
            np.repeat(supplies, len(samples))
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def _single_ring_tensor(
        self, ring: RingOscillator, population, temps: np.ndarray
    ) -> np.ndarray:
        if population is None:
            return np.asarray(ring.period_series(temps))
        return np.asarray(ring.period_matrix(population, temps))

    def _vdd2_switched_cap(self, ring: RingOscillator, population) -> np.ndarray:
        """``Vdd^2 * C_switched`` of a ring, per flat population sample.

        The ``power`` observable's load-independent factor: the ring's
        dynamic power is this divided by the period.  Shapes: a scalar
        without a population, an ``(S, 1)`` column against one.
        """
        bound = ring if population is None else ring.rebind(population)
        factor = np.asarray(bound.technology.vdd) ** 2 * bound.switched_capacitance()
        if population is None:
            return factor
        return factor.reshape(-1, 1)

    def execute(
        self,
        *,
        executor: Any = None,
        max_tile_elements: Optional[int] = None,
    ) -> SweepResult:
        """Evaluate the plan and label the result.

        Every evaluation takes one path,
        :func:`~repro.engine.executors.run_plan`: the plan is
        partitioned by :func:`~repro.engine.tiling.plan_tiles` into
        tiles of at most ``max_tile_elements`` elements (default
        :data:`~repro.engine.tiling.DEFAULT_TILE_ELEMENTS`, 2^20) along
        the cheapest-to-split axes (``sample``, then ``temperature``),
        and ``executor`` evaluates them — an
        :class:`~repro.engine.executors.Executor` instance or one of the
        names ``"serial"`` / ``"process"`` / ``"memmap"``; ``None`` is
        the in-process serial backend.  A sweep within the budget is
        one tile, evaluated as the single dense broadcast; a tiled
        result is bitwise identical to it (each tile is an elementwise
        slice of the same broadcast).
        """
        from .executors import run_plan

        return run_plan(
            self, executor=executor, max_tile_elements=max_tile_elements
        )

    def reduce(
        self,
        reducers: Any,
        *,
        executor: Any = None,
        max_tile_elements: Optional[int] = None,
    ) -> Any:
        """Stream the sweep through reducers without keeping the tensor.

        ``reducers`` is a single streaming reducer (see
        :mod:`repro.engine.reducers`) or a mapping of names to reducers.
        Tiles are evaluated through the chosen backend and fed to every
        reducer as they complete; the full result tensor is never
        materialized — peak memory is one tile plus the reducers' own
        state.  Returns the finalized reduction (or a dict of them,
        matching the mapping's keys).
        """
        from .executors import run_plan

        if reducers is None:
            raise SweepError("reduce() needs at least one streaming reducer")
        return run_plan(
            self,
            executor=executor,
            max_tile_elements=max_tile_elements,
            reducers=reducers,
        )

    def _execute_dense(self) -> SweepResult:
        """The dense single-broadcast evaluation of one tile."""
        tech_axis = self.axis("technology")
        if tech_axis is not None:
            # Outermost per-node loop: each node re-enters this method
            # as the sub-plan's technology= base, so a node's slice takes
            # exactly the code path (and produces bitwise the numbers) of
            # an equivalent single-node sweep.
            inner_axes = tuple(
                axis for axis in self.axes if axis.name != "technology"
            )
            slices = [
                replace(self, axes=inner_axes, technology=node)
                ._execute_dense()
                .values
                for node in tech_axis.payload
            ]
            coords = {axis.name: tuple(axis.coordinates) for axis in self.axes}
            return SweepResult(
                values=np.stack(slices),
                dims=tuple(axis.name for axis in self.axes),
                coords=coords,
                observable=self.observable,
            )
        temp_axis = self.axis("temperature")
        temps = (
            np.asarray(temp_axis.coordinates, dtype=float)
            if temp_axis is not None
            else None
        )
        population = self._lower_population()
        config_axis = self.axis("configuration")
        ratio_axis = self.axis("width_ratio")
        site_axis = self.axis("site")
        need_power = self.observable == "power"
        vdd2cap: Optional[np.ndarray] = None

        if site_axis is not None:
            sensor_bank: SensorBank = site_axis.payload["bank"]
            site_temps = site_axis.payload["junction_temperatures_c"]
            resolution_axis = self.axis("resolution")
            if need_power:
                vdd2cap = self._vdd2_switched_cap(sensor_bank.ring, population)
            if resolution_axis is not None:
                # Grid-refinement scan: one steady thermal solve per
                # resolution (each through its own cached ThermalOperator
                # entry), every site read at its solved local junction
                # temperature.
                spec = resolution_axis.payload
                xs, ys = sensor_bank.positions()
                slices = []
                for r in resolution_axis.coordinates:
                    power_map = PowerMap.from_floorplan(
                        spec["floorplan"], nx=int(r), ny=int(r)
                    )
                    grid = ThermalGrid.for_power_map(power_map, spec["parameters"])
                    field = ThermalOperator.for_grid(grid).solve_steady_state(
                        power_map, spec["ambient_c"]
                    )
                    truths = field.sample_points(xs, ys)
                    slices.append(
                        sensor_bank.period_tensor(truths, technologies=population)
                    )
                tensor = np.stack(slices)
                if need_power and vdd2cap.ndim == 2:
                    # (S, 1) population columns broadcast over the flat
                    # trailing sample axis of the (R, site, S) stack.
                    vdd2cap = vdd2cap.reshape(-1)
            elif site_temps is not None:
                # Scan mode: every site at its own junction temperature;
                # one broadcast, no temperature dimension in the result.
                tensor = sensor_bank.period_tensor(site_temps, technologies=population)
                if need_power and vdd2cap.ndim == 2:
                    vdd2cap = vdd2cap.reshape(1, -1)
            else:
                # Characterisation mode: the sites share one ring
                # design, so the shared-grid tensor broadcasts along the
                # site dimension.
                inner = self._single_ring_tensor(sensor_bank.ring, population, temps)
                tensor = np.broadcast_to(
                    inner, (sensor_bank.site_count,) + inner.shape
                )
        elif config_axis is not None:
            bank = ConfigurationBank(
                self._base_library(),
                config_axis.payload,
                wire_length_um=self.wire_length_um,
                external_load_f=self.external_load_f,
                tap_stage=self.tap_stage,
            )
            tensor = bank.period_tensor(temps, technologies=population)
            if need_power:
                per_config = [
                    self._vdd2_switched_cap(ring, population) for ring in bank.rings()
                ]
                vdd2cap = np.stack(per_config)
                if vdd2cap.ndim == 1:  # scalars per configuration
                    vdd2cap = vdd2cap.reshape(-1, 1)
        elif ratio_axis is not None:
            from ..optimize.sizing import build_sized_ring

            technology = self._base_technology()
            rings = [
                build_sized_ring(
                    technology,
                    float(ratio),
                    nmos_width_um=ratio_axis.payload["nmos_width_um"],
                    stage_count=ratio_axis.payload["stage_count"],
                )
                for ratio in ratio_axis.coordinates
            ]
            tensor = np.stack(
                [self._single_ring_tensor(ring, population, temps) for ring in rings]
            )
            if need_power:
                vdd2cap = np.stack(
                    [self._vdd2_switched_cap(ring, population) for ring in rings]
                )
                if vdd2cap.ndim == 1:
                    vdd2cap = vdd2cap.reshape(-1, 1)
        else:
            ring = self._base_ring()
            tensor = self._single_ring_tensor(ring, population, temps)
            if need_power:
                vdd2cap = self._vdd2_switched_cap(ring, population)

        # Context-bearing observables apply on the flat tensor (the
        # supply-major population axis is still one dimension here, so
        # the (S, 1) power columns line up without reshaping).
        if self.observable == "code":
            counter = (
                site_axis.payload["bank"].counter
                if site_axis is not None
                else PeriodCounter(self.readout)
            )
            tensor, _saturated = counter.convert_batch(tensor)
        elif need_power:
            tensor = vdd2cap / tensor

        # Un-flatten the supply-major population axis into its named
        # dimensions and collect the final canonical shape.
        dims: List[str] = []
        shape: List[int] = []
        for axis in self.axes:
            dims.append(axis.name)
            shape.append(len(axis))
        tensor = np.asarray(tensor).reshape(shape)

        coords = {axis.name: tuple(axis.coordinates) for axis in self.axes}
        values = _apply_observable(self.observable, tensor, temps)
        return SweepResult(
            values=values,
            dims=tuple(dims),
            coords=coords,
            observable=self.observable,
        )


# --------------------------------------------------------------------------- #
# observables
# --------------------------------------------------------------------------- #


def _apply_observable(
    name: str, tensor: np.ndarray, temps: Optional[np.ndarray]
) -> np.ndarray:
    """Map the raw period tensor (temperature last) to the observable.

    ``code`` and ``power`` carry context (a counter, the switched
    capacitance) and are applied inside :meth:`SweepPlan.execute`; they
    arrive here already evaluated, as does the raw ``period``.
    """
    if name in ("period", "code", "power"):
        return tensor
    if name == "frequency":
        return 1.0 / tensor
    if temps is None or temps.size < 2:
        raise SweepError(
            f"observable {name!r} fits the sweep's endpoint temperatures and "
            "needs a temperature axis with at least two points"
        )
    # The endpoints are the extreme *temperatures*, not the grid's first
    # and last positions — the temperature axis documents its ordering
    # as presentation-only, so an unsorted grid must not change the
    # metric.  (For the usual ascending grids these coincide, matching
    # repro.analysis.linearity.nonlinearity row for row.)
    index_low = int(np.argmin(temps))
    index_high = int(np.argmax(temps))
    t_low = temps[index_low]
    t_high = temps[index_high]
    if t_high == t_low:
        raise SweepError(
            f"observable {name!r} needs at least two distinct temperatures"
        )
    low = tensor[..., index_low : index_low + 1]
    high = tensor[..., index_high : index_high + 1]
    span = high - low
    if np.any(span == 0.0):
        raise SweepError(
            "flat temperature response: the endpoint periods are equal, so "
            f"observable {name!r} is undefined"
        )
    if name in ("transfer_c", "calibration_error_c"):
        # The per-row two-point calibration through the endpoint
        # temperatures — the line an actually calibrated sensor realises.
        slope = (t_high - t_low) / span
        estimate = t_low + slope * (tensor - low)
        if name == "transfer_c":
            return estimate
        return estimate - temps
    if name == "nonlinearity_percent":
        # The paper's Fig. 2 / Fig. 3 y-axis: deviation from the
        # endpoint line in percent of the full-scale period span.
        slope = span / (t_high - t_low)
        line = low + slope * (temps - t_low)
        return (tensor - line) / np.abs(span) * 100.0
    raise SweepError(f"unknown observable {name!r}")  # pragma: no cover
