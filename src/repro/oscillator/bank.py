"""Stacked ring-configuration banks: the configuration axis of the batch engine.

PR 1 vectorized the temperature axis and PR 2 stacked the technology
*sample* axis, but the paper's Fig. 3 — many ring *configurations*
evaluated against the same library — still cost one full pass through
the delay stack per configuration.  A :class:`ConfigurationBank` stacks
many :class:`~repro.oscillator.config.RingConfiguration`\\ s into one
padded ``(config, stage)`` cell table with a validity mask, so the whole
Fig. 3 x Monte-Carlo cross product evaluates as a single ``(C, S, T)``
broadcast:

* every *unique* cell of the bank contributes one vectorized
  delay-per-farad curve ``K_u = fit * Vdd * (1/I_pull_down + 1/I_pull_up)``
  over the ``(sample, temperature)`` grid (two
  :func:`~repro.delay.alpha_power.effective_saturation_current` calls
  per unique cell — the only transcendental work in the whole bank),
* the padded cell table reduces each configuration to per-unique-cell
  *load weights* (the summed output loads of the stages driving that
  cell type, tap and wire loads included), and
* the period tensor is the weights-times-curves contraction
  ``period[c] = sum_u W[u, c] * K[u]`` — one broadcast multiply-add per
  unique cell, no Python loop over configurations, samples or
  temperatures.

A population is always one stacked
:class:`~repro.tech.stacked.TechnologyArray` (a technology list is
stacked once on entry), so this broadcast is the bank's only evaluation
path.  The equivalence tests pin it to the per-configuration loop of
``tests/oracles/`` (one
:meth:`~repro.oscillator.ring.RingOscillator.period_matrix` per ring)
at relative tolerance 1e-9; in practice the two orderings of the same
arithmetic agree to a few ULP.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..cells.cell import StandardCell
from ..cells.library import CellLibrary
from ..delay.alpha_power import DriveNetwork, effective_saturation_current
from ..tech.stacked import TechnologyArray, stack_technologies
from .config import ConfigurationError, RingConfiguration
from .ring import RingOscillator

__all__ = ["ConfigurationBank", "normalise_configurations"]

#: Padding value used in the ``(config, stage)`` cell-index table.
_PAD = -1


class ConfigurationBank:
    """Many ring configurations stacked for one-shot batch evaluation.

    Parameters
    ----------
    library:
        Cell library every configuration draws its stages from.
    configurations:
        The configurations to stack: a mapping of label to
        :class:`~repro.oscillator.config.RingConfiguration` (the Fig. 3
        style), or a sequence of configurations / parseable
        configuration strings (labelled by their canonical
        ``cfg.label()``).
    wire_length_um / external_load_f / tap_stage:
        Forwarded to every ring, matching the
        :class:`~repro.oscillator.ring.RingOscillator` defaults.

    The constructor resolves every configuration into a real
    :class:`~repro.oscillator.ring.RingOscillator` (so all structural
    validation — odd stage counts, inverting single-stage cells —
    happens up front) and builds the padded ``(config, stage)``
    cell-index table the broadcast evaluation consumes.  Configurations
    of different lengths are padded to the longest ring; the validity
    mask marks the real stages.
    """

    def __init__(
        self,
        library: CellLibrary,
        configurations: Union[
            Mapping[str, RingConfiguration],
            Sequence[Union[RingConfiguration, str]],
        ],
        wire_length_um: float = 2.0,
        external_load_f: float = 0.0,
        tap_stage: Optional[int] = None,
    ) -> None:
        labels, configs = normalise_configurations(configurations)
        self.library = library
        self.labels: Tuple[str, ...] = labels
        self.configurations: Tuple[RingConfiguration, ...] = configs
        self.wire_length_um = float(wire_length_um)
        self.external_load_f = float(external_load_f)
        self.tap_stage = tap_stage
        self._rings: List[RingOscillator] = [
            RingOscillator(
                library,
                configuration,
                wire_length_um=wire_length_um,
                external_load_f=external_load_f,
                tap_stage=tap_stage,
            )
            for configuration in configs
        ]

        # The padded (config, stage) cell table: unique cells are
        # indexed in first-appearance order; padding slots hold _PAD and
        # are masked out of every reduction.
        self._unique_names: List[str] = []
        index_of: Dict[str, int] = {}
        max_stages = max(ring.stage_count for ring in self._rings)
        table = np.full((len(self._rings), max_stages), _PAD, dtype=int)
        for row, ring in enumerate(self._rings):
            for stage in ring.stages():
                name = stage.cell.name
                if name not in index_of:
                    index_of[name] = len(self._unique_names)
                    self._unique_names.append(name)
                table[row, stage.index] = index_of[name]
        self._cell_index = table

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    @property
    def config_count(self) -> int:
        return len(self._rings)

    def __len__(self) -> int:
        return self.config_count

    @property
    def max_stage_count(self) -> int:
        return int(self._cell_index.shape[1])

    def stage_counts(self) -> np.ndarray:
        """Number of real stages per configuration."""
        return np.asarray([ring.stage_count for ring in self._rings])

    def unique_cell_names(self) -> Tuple[str, ...]:
        """Distinct library cells the bank's stages resolve to."""
        return tuple(self._unique_names)

    def cell_table(self) -> np.ndarray:
        """The padded ``(config, stage)`` table of cell names ('' = padding)."""
        names = np.asarray(self._unique_names + [""], dtype=object)
        return names[self._cell_index]

    def validity_mask(self) -> np.ndarray:
        """Boolean ``(config, stage)`` mask of the real (non-padded) stages."""
        return self._cell_index != _PAD

    def rings(self) -> List[RingOscillator]:
        """The resolved per-configuration rings (the loop oracle's view)."""
        return list(self._rings)

    def ring_at(self, index: int) -> RingOscillator:
        if not 0 <= index < self.config_count:
            raise ConfigurationError(
                f"configuration index {index} outside the bank "
                f"(0..{self.config_count - 1})"
            )
        return self._rings[index]

    def areas_um2(self) -> np.ndarray:
        """First-order layout area per configuration."""
        return np.asarray([ring.area_um2() for ring in self._rings])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConfigurationBank({self.config_count} configurations, "
            f"{len(self._unique_names)} unique cells, "
            f"library={self.library.name!r})"
        )

    # ------------------------------------------------------------------ #
    # batch evaluation
    # ------------------------------------------------------------------ #

    def _bound_rings(self, technologies) -> Tuple[List[RingOscillator], Optional[TechnologyArray]]:
        """Rings (and the stacked population, if any) to evaluate with.

        ``technologies=None`` evaluates against the library's own
        technology; otherwise the population is stacked once
        (:func:`~repro.tech.stacked.stack_technologies` returns an
        existing :class:`~repro.tech.stacked.TechnologyArray` unchanged)
        and every ring is rebound to it once.
        """
        if technologies is None:
            return self._rings, None
        population = stack_technologies(technologies)
        return [ring.rebind(population) for ring in self._rings], population

    def period_tensor(
        self,
        temperatures_c: Sequence[float],
        technologies=None,
    ) -> np.ndarray:
        """Periods (s) of every configuration in one broadcast pass.

        Returns a ``(config, temperature)`` matrix, or the full
        ``(config, sample, temperature)`` tensor when ``technologies``
        is a population (a :class:`~repro.tech.stacked.TechnologyArray`
        or a sequence of technologies from one node, stacked once).  A
        list mixing technology nodes raises
        :class:`~repro.tech.parameters.TechnologyError`.
        """
        temps = np.asarray(temperatures_c, dtype=float)
        rings, population = self._bound_rings(technologies)
        sample_count = len(population) if population is not None else 1
        stages_per_ring = [ring.stages() for ring in rings]

        # One delay-per-farad curve per unique cell: K_u(T) such that a
        # stage built from cell u with total output load L contributes
        # K_u * L to the ring period.  Shapes: (S, T) columns against
        # the temperature row (S = 1 collapses to the scalar case).
        # Each rebound ring's library holds only its own cells, so the
        # bound cell objects are gathered from the resolved stages.
        bound_cells: Dict[str, StandardCell] = {}
        for stages in stages_per_ring:
            for stage in stages:
                bound_cells.setdefault(stage.cell.name, stage.cell)
        tech = rings[0].technology
        curves = np.empty(
            (len(self._unique_names), sample_count, temps.size), dtype=float
        )
        for u, name in enumerate(self._unique_names):
            curves[u] = np.broadcast_to(
                _delay_per_farad(tech, bound_cells[name], temps),
                (sample_count, temps.size),
            )

        # Per-unique-cell load weights from the padded cell table: the
        # summed total output load (next stage's input + wire + tap +
        # own parasitic) of every stage driving that cell type.
        weights = np.zeros(
            (len(self._unique_names), self.config_count, sample_count, 1),
            dtype=float,
        )
        for row, stages in enumerate(stages_per_ring):
            for stage in stages:
                u = self._cell_index[row, stage.index]
                total_load = np.asarray(
                    stage.load_f + stage.cell.output_parasitic_capacitance(),
                    dtype=float,
                )
                weights[u, row] += total_load.reshape(-1, 1)

        # The contraction: period[c] = sum_u W[u, c] * K[u], i.e. one
        # (C, S, 1) x (S, T) multiply-add per unique cell.
        tensor = np.zeros((self.config_count, sample_count, temps.size))
        for u in range(len(self._unique_names)):
            tensor += weights[u] * curves[u][np.newaxis, :, :]
        if population is None:
            return tensor[:, 0, :]
        return tensor


def _delay_per_farad(tech, cell: StandardCell, temperatures_c: np.ndarray):
    """Ring-stage delay contribution per farad of total output load.

    For a single-stage inverting cell the stage's period contribution is
    ``tpHL + tpLH = fit * L_total * Vdd * (1/I_pull_down + 1/I_pull_up)``
    (see :func:`repro.delay.alpha_power.gate_delay`), linear in the total
    load — so the whole temperature (and stacked sample) dependence is
    captured by this one load-independent curve.
    """
    options = cell.delay_options
    pull_down = DriveNetwork(
        polarity="nmos",
        width_um=cell.nmos_width_um,
        stack_depth=cell.topology.nmos_stack_depth,
    )
    pull_up = DriveNetwork(
        polarity="pmos",
        width_um=cell.pmos_width_um,
        stack_depth=cell.topology.pmos_stack_depth,
    )
    down = effective_saturation_current(tech, pull_down, temperatures_c, options)
    up = effective_saturation_current(tech, pull_up, temperatures_c, options)
    return options.fit_factor * tech.vdd * (1.0 / down + 1.0 / up)


def normalise_configurations(
    configurations,
) -> Tuple[Tuple[str, ...], Tuple[RingConfiguration, ...]]:
    """Resolve the accepted configuration-axis inputs to (labels, configs).

    Shared by :class:`ConfigurationBank` and
    :meth:`repro.engine.sweep.Axis.configuration`, so both ends of the
    configuration axis accept the same inputs (label mapping, or a
    sequence of configurations / parseable strings) and apply the same
    unique-label rule.
    """
    if isinstance(configurations, Mapping):
        items = list(configurations.items())
    else:
        items = []
        for entry in configurations:
            if isinstance(entry, str):
                entry = RingConfiguration.parse(entry)
            items.append((entry.label(), entry))
    if not items:
        raise ConfigurationError("a configuration bank needs at least one configuration")
    labels = [label for label, _ in items]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(
            "configuration labels must be unique within a bank"
        )
    return tuple(labels), tuple(config for _, config in items)
