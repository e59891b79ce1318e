"""Transient solver for the thermal grid.

:func:`solve_transient` is a thin layer over
:class:`repro.thermal.operator.ThermalOperator`, which owns (and caches,
process-wide) the prepared solves: repeated transient runs with the same
grid and timestep reuse one preparation of the backward-Euler system
``(C/dt + G)``.  Steady-state fields come straight from the operator,
``ThermalOperator.for_grid(grid).solve_steady_state(power, ambient_c)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..tech.parameters import TechnologyError
from .grid import TemperatureMap, ThermalGrid
from .operator import ThermalOperator
from .power import PowerMap

__all__ = ["TransientThermalResult", "solve_transient"]


@dataclass(frozen=True)
class TransientThermalResult:
    """Sampled evolution of the die temperature field."""

    times_s: np.ndarray
    maps: Tuple[TemperatureMap, ...]

    def __post_init__(self) -> None:
        if len(self.maps) != np.asarray(self.times_s).size:
            raise TechnologyError("times and temperature maps must align")

    @property
    def final(self) -> TemperatureMap:
        return self.maps[-1]

    def max_trace_c(self) -> np.ndarray:
        """Peak die temperature at every stored time point."""
        return np.asarray([m.max_c() for m in self.maps])

    def at_time(self, time_s: float) -> TemperatureMap:
        """Temperature map at the stored time closest to ``time_s``."""
        times = np.asarray(self.times_s)
        index = int(np.argmin(np.abs(times - time_s)))
        return self.maps[index]


def solve_transient(
    grid: ThermalGrid,
    power_of_time: Callable[[float], PowerMap],
    duration_s: float,
    timestep_s: float,
    ambient_c: float = 45.0,
    initial: Optional[TemperatureMap] = None,
    store_every: int = 1,
) -> TransientThermalResult:
    """Integrate the thermal network over time (backward Euler).

    Parameters
    ----------
    grid:
        The thermal network.
    power_of_time:
        Callback returning the power map at a given time; used to model
        duty-cycled oscillators and workload changes.
    duration_s:
        Total simulated time.
    timestep_s:
        Integration step; thermal time constants are milliseconds, so
        steps of 0.1-1 ms are typical.
    ambient_c:
        Ambient temperature (also the default initial condition).
    initial:
        Starting temperature field; uniform ambient when omitted.
    store_every:
        Keep every n-th step in the result.

    The grid's operator picks the solver from the grid size (a direct
    factorization on small grids, multigrid-preconditioned CG on large
    ones), so full-die resolutions stay one warm-started solve per step.
    """
    if not (0.0 < duration_s < np.inf and 0.0 < timestep_s < np.inf):
        raise TechnologyError("duration and timestep must be positive and finite")
    if store_every < 1:
        raise TechnologyError("store_every must be >= 1")
    steps = int(np.ceil(duration_s / timestep_s))
    if steps < 1:
        raise TechnologyError("duration must span at least one timestep")

    size = grid.nx * grid.ny
    stepper = ThermalOperator.for_grid(grid).stepper(timestep_s)

    if initial is None:
        state = np.zeros(size)
    else:
        if initial.values_c.shape != (grid.ny, grid.nx):
            raise TechnologyError("initial temperature map does not match the grid")
        state = (initial.values_c - ambient_c).reshape(-1)

    times: List[float] = [0.0]
    maps: List[TemperatureMap] = [
        TemperatureMap(grid.width_mm, grid.height_mm, state.reshape((grid.ny, grid.nx)) + ambient_c)
    ]

    for step in range(1, steps + 1):
        time = step * timestep_s
        power = power_of_time(time)
        grid.check_power_map(power)
        state = stepper.step(state, power.values_w.reshape(-1))
        if step % store_every == 0 or step == steps:
            times.append(time)
            maps.append(
                TemperatureMap(
                    grid.width_mm,
                    grid.height_mm,
                    state.reshape((grid.ny, grid.nx)) + ambient_c,
                )
            )
    return TransientThermalResult(times_s=np.asarray(times), maps=tuple(maps))
