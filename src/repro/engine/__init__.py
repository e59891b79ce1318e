"""Batch evaluation: the declarative sweep API and its backends.

:mod:`repro.engine.sweep` is the engine — named-axis workloads
(:class:`Sweep` / :class:`Axis`) lowered onto numpy broadcast
dimensions in canonical order, returning labeled
:class:`SweepResult` tensors.  :mod:`repro.engine.executors` and
:mod:`repro.engine.tiling` run large plans in bounded-memory tiles,
and :mod:`repro.engine.reducers` stream statistics over them.
"""

from .executors import (
    Executor,
    MemmapExecutor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from .reducers import HistogramReducer, MeanReducer, PercentileReducer
from .sweep import (
    Axis,
    CANONICAL_AXIS_ORDER,
    OBSERVABLES,
    Sweep,
    SweepError,
    SweepPlan,
    SweepResult,
)
from .tiling import Tile, TilingPlan, plan_result_tiles, plan_tiles, subplan

__all__ = [
    "Axis",
    "CANONICAL_AXIS_ORDER",
    "Executor",
    "HistogramReducer",
    "MeanReducer",
    "MemmapExecutor",
    "OBSERVABLES",
    "PercentileReducer",
    "ProcessExecutor",
    "SerialExecutor",
    "Sweep",
    "SweepError",
    "SweepPlan",
    "SweepResult",
    "Tile",
    "TilingPlan",
    "plan_result_tiles",
    "plan_tiles",
    "resolve_executor",
    "subplan",
]
