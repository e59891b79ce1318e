"""Tiling pass: partition a lowered sweep into bounded-memory chunks.

:meth:`~repro.engine.sweep.SweepPlan._execute_dense` materializes the
whole axis product as one in-memory broadcast — fine at paper scale,
a hard wall for production cross products (a configuration x
resolution x sample x temperature sweep at millions of samples is one
multi-gigabyte allocation on one core).  This module is the planning
half of the split, and every sweep passes through it:
:func:`plan_tiles` partitions the *result index space* of a validated
:class:`~repro.engine.sweep.SweepPlan` into :class:`Tile` chunks of at
most ``max_tile_elements`` elements (:data:`DEFAULT_TILE_ELEMENTS`
unless the caller sets it, so a paper-scale sweep is one tile), and
:func:`subplan` lowers one tile back into an ordinary ``SweepPlan``
over sliced axes, ready for any executor backend
(:mod:`repro.engine.executors`) to evaluate.

Which axes split, and how, is read from the sweep engine's axis-kind
table: only the *elementwise* kinds carry a slicer — ``sample``
(slicing the struct-of-arrays technology population by rows) and
``temperature`` (slicing the evaluation grid), split in that, the
canonical, order — because the whole delay stack is elementwise in
those dimensions: a tile's broadcast computes exactly the same
floating-point operations, in the same order, as the corresponding
slice of the dense pass, so tiled results are **bitwise identical** to
dense ones.  The endpoint-fit observables (``transfer_c`` /
``calibration_error_c`` / ``nonlinearity_percent``) couple every
temperature to the grid's extremes, so for them the temperature axis
is never split (the sample axis still is).  Axes that re-solve shared
state per coordinate (``technology``, ``configuration``,
``resolution``, ``site``, ``width_ratio``) have no slicer and are never
split — a ``technology`` axis rides whole inside every tile, its
per-node loop re-entered by the tile's dense evaluation; when none of
the splittable axes is present the sweep is one tile regardless of
budget — the budget is a bound on what tiling *can* bound, not a hard
allocation cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .sweep import _AXIS_KINDS, _ENDPOINT_OBSERVABLES, SweepError, SweepPlan

__all__ = [
    "DEFAULT_TILE_ELEMENTS",
    "Tile",
    "TilingPlan",
    "plan_result_tiles",
    "plan_tiles",
    "subplan",
    "tile_index_space",
]

#: Bound on a tile's dense element count when a sweep runs without an
#: explicit ``max_tile_elements``: 2^20 float64 elements is an 8 MiB
#: sub-tensor — small enough to stream and pickle cheaply, large enough
#: that every paper-scale sweep stays one tile (the single dense
#: broadcast).  A cache-sized budget was measured slower: serial 8K-32K
#: element tiles made a 6x1000x41 configuration sweep 2.6-6.7x slower
#: than one tile.
DEFAULT_TILE_ELEMENTS = 1 << 20

#: The axes a tiling pass may split, in preference order: the kinds
#: with a slicer, in canonical order (``sample``, then
#: ``temperature``).  Both are purely elementwise through the
#: evaluation stack, which is what makes tiled-vs-dense results bitwise
#: identical; ``sample`` first because populations are the axis that
#: actually grows without bound.
SPLITTABLE_AXES = tuple(
    name for name, kind in _AXIS_KINDS.items() if kind.slice is not None
)


@dataclass(frozen=True)
class Tile:
    """One bounded chunk of a sweep's result index space.

    ``bounds`` maps each *split* axis name to its ``(start, stop)``
    index range; axes absent from ``bounds`` are carried whole.  The
    tile knows nothing about values — it is pure coordinates, cheap to
    pickle to a worker process.
    """

    index: int
    bounds: Tuple[Tuple[str, int, int], ...]

    def bounds_for(self, name: str) -> Optional[Tuple[int, int]]:
        for axis, start, stop in self.bounds:
            if axis == name:
                return (start, stop)
        return None

    def slices(self, dims: Tuple[str, ...]) -> Tuple[slice, ...]:
        """Index expression selecting this tile inside the full tensor."""
        expression = []
        for name in dims:
            span = self.bounds_for(name)
            expression.append(slice(*span) if span else slice(None))
        return tuple(expression)

    def element_count(self, dims: Tuple[str, ...], shape: Tuple[int, ...]) -> int:
        total = 1
        for name, extent in zip(dims, shape):
            span = self.bounds_for(name)
            total *= (span[1] - span[0]) if span else extent
        return total


@dataclass(frozen=True)
class TilingPlan:
    """A sweep plan plus its partition into bounded-memory tiles.

    ``dims`` / ``shape`` / ``coords`` describe the *full* canonical
    result the tiles assemble into; ``tiles`` covers that index space
    exactly once (contiguous blocks along the split axes, dense cross
    product, no overlap).
    """

    plan: SweepPlan
    dims: Tuple[str, ...]
    shape: Tuple[int, ...]
    coords: Dict[str, Tuple[Any, ...]]
    tiles: Tuple[Tile, ...]

    @property
    def total_elements(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    def subplan(self, tile: Tile) -> SweepPlan:
        return subplan(self.plan, tile)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extent = ", ".join(
            f"{name}={size}" for name, size in zip(self.dims, self.shape)
        )
        return f"TilingPlan({extent}; tiles={len(self.tiles)})"


def _splittable_axes(plan: SweepPlan) -> List[str]:
    """The axes of this plan a tiling pass may slice, in split order."""
    names = [axis.name for axis in plan.axes]
    # The endpoint fit calibrates every temperature against the grid's
    # extremes; a temperature tile without both endpoints could not
    # reproduce the dense numbers.
    endpoint_fit = plan.observable in _ENDPOINT_OBSERVABLES
    return [
        name
        for name in SPLITTABLE_AXES
        if name in names and not (endpoint_fit and _AXIS_KINDS[name].endpoint_fit)
    ]


def plan_tiles(
    plan: SweepPlan,
    max_tile_elements: Optional[int] = None,
) -> TilingPlan:
    """Partition a validated plan into bounded-memory tiles.

    ``max_tile_elements`` bounds each tile's dense sub-tensor
    (:data:`DEFAULT_TILE_ELEMENTS` when ``None``).  The bound is
    best-effort: unsplittable axes (everything but ``sample`` and
    ``temperature``) set a floor of one full cross-section per tile.
    """
    budget = DEFAULT_TILE_ELEMENTS if max_tile_elements is None else int(max_tile_elements)
    if budget < 1:
        raise SweepError("max_tile_elements must be at least 1")

    dims = tuple(axis.name for axis in plan.axes)
    shape = tuple(len(axis) for axis in plan.axes)
    coords = {axis.name: tuple(axis.coordinates) for axis in plan.axes}
    tiles = tile_index_space(dims, shape, _splittable_axes(plan), budget)
    return TilingPlan(plan=plan, dims=dims, shape=shape, coords=coords, tiles=tiles)


def tile_index_space(
    dims: Tuple[str, ...],
    shape: Tuple[int, ...],
    splittable: Sequence[str],
    budget: int,
) -> Tuple[Tile, ...]:
    """Partition an index space into budget-bounded contiguous tiles.

    The chunking core shared by :func:`plan_tiles` (splittable =
    ``sample``/``temperature``, the elementwise plan axes) and
    :func:`plan_result_tiles` (splittable = every axis — slicing a
    *materialized* tensor is always exact).  Axes are shrunk in the
    given ``splittable`` order: the first axis splits first, later axes
    only when a single coordinate of the earlier ones still exceeds the
    budget.  The tiles cover the index space exactly once (a dense
    cross product of contiguous blocks, first-split-axis major).
    """
    sizes = dict(zip(dims, shape))
    total = int(np.prod(shape, dtype=np.int64)) if shape else 1

    chunks: Dict[str, int] = {}
    remaining = total
    for name in splittable:
        if remaining <= budget:
            break
        per_unit = remaining // sizes[name]  # elements per single coordinate
        chunks[name] = max(1, min(sizes[name], budget // max(1, per_unit)))
        remaining = per_unit * chunks[name]

    if not chunks:
        return (Tile(index=0, bounds=()),)

    split_names = [name for name in splittable if name in chunks]
    ranges_per_axis = []
    for name in split_names:
        step = chunks[name]
        ranges_per_axis.append(
            [(start, min(start + step, sizes[name]))
             for start in range(0, sizes[name], step)]
        )
    tile_list: List[Tile] = []
    bounds_stack: List[List[Tuple[str, int, int]]] = [[]]
    for name, ranges in zip(split_names, ranges_per_axis):
        bounds_stack = [
            prefix + [(name, start, stop)]
            for prefix in bounds_stack
            for start, stop in ranges
        ]
    for index, bounds in enumerate(bounds_stack):
        tile_list.append(Tile(index=index, bounds=tuple(bounds)))
    return tuple(tile_list)


def plan_result_tiles(
    dims: Tuple[str, ...],
    shape: Tuple[int, ...],
    max_tile_elements: int,
) -> Tuple[Tile, ...]:
    """Partition a *materialized* result's index space for streaming.

    Unlike :func:`plan_tiles` — which may only split the elementwise
    ``sample``/``temperature`` axes because each tile re-*evaluates* its
    slice — a materialized tensor is pure data, so every axis is
    splittable: a tile is just a contiguous slice expression.  The
    sweep service (:mod:`repro.serve`) streams oversized results tile
    by tile with this, bounding each response line; the client
    reassembles via :meth:`Tile.slices`, positionally, exactly as
    :func:`~repro.engine.executors.run_plan` assembles executor tiles.
    Outer axes split first, so tiles are contiguous slabs of the
    row-major tensor.
    """
    if len(dims) != len(shape):
        raise SweepError(
            f"dims ({len(dims)}) and shape ({len(shape)}) disagree on the "
            f"dimension count"
        )
    if int(max_tile_elements) < 1:
        raise SweepError("max_tile_elements must be at least 1")
    return tile_index_space(dims, shape, list(dims), int(max_tile_elements))


def subplan(plan: SweepPlan, tile: Tile) -> SweepPlan:
    """Lower one tile back into an ordinary dense-executable plan.

    The returned plan is the original with its split axes sliced to the
    tile's ranges by their kinds' slicers (coordinates keep their global
    labels, so a tile's own ``SweepResult`` is still meaningfully
    labeled).  Executing it densely computes exactly the tile's slice of
    the full tensor, bit for bit.
    """
    axes = []
    for axis in plan.axes:
        span = tile.bounds_for(axis.name)
        if span is None:
            axes.append(axis)
            continue
        slicer = _AXIS_KINDS[axis.name].slice
        if slicer is None:  # pragma: no cover - plan_tiles never splits these
            raise SweepError(f"axis {axis.name!r} cannot be tiled")
        axes.append(slicer(axis, *span))
    return replace(plan, axes=tuple(axes))
