"""Pluggable execution backends for tiled sweeps.

The planner (:mod:`repro.engine.sweep`) lowers a workload, the tiling
pass (:mod:`repro.engine.tiling`) partitions it into bounded-memory
chunks, and this module runs the chunks.  Every sweep takes this one
path; a sweep within the tile budget is simply one tile:

* :class:`SerialExecutor` — evaluates tiles in order, in process; the
  backend of a sweep run without ``executor=``.  With one tile this is
  the single dense broadcast; with many it is the bounded-memory
  reference backend the others must bit-match.
* :class:`ProcessExecutor` — fans tiles out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  The technology
  population's stacked columns travel to the workers through one POSIX
  shared-memory block (:mod:`multiprocessing.shared_memory`) and are
  rebuilt zero-copy per worker, so the per-tile pickle payload is the
  small plan skeleton — not the population.  Worker pools are reused
  across runs (keyed by size) so repeated sweeps pay worker startup
  once.
* :class:`MemmapExecutor` — the out-of-core backend: tiles run serially
  but the assembled result lives in an ``np.memmap``-backed array, so a
  sweep whose dense tensor exceeds RAM still completes, bounded by one
  tile (``max_tile_elements``) plus the page cache.

:func:`run_plan` is the orchestration entry used by
:meth:`~repro.engine.sweep.SweepPlan.execute` /
:meth:`~repro.engine.sweep.SweepPlan.reduce`: it tiles the plan, streams
``(tile, values)`` pairs out of the backend, and either assembles them
into a labeled :class:`~repro.engine.sweep.SweepResult` or feeds them to
streaming reducers, never materializing the tensor.
:func:`resolve_executor` maps an explicit ``executor=`` argument
(``None``, a backend name or an instance) onto a concrete executor;
``None`` is the serial backend.

Fork/pickle semantics: worker processes never receive thermal
factorizations or operator caches — those are process-local (see
:mod:`repro.thermal.operator`); a worker warms its own cache from the
tiles it executes.  A worker evaluates each tile densely.
"""

from __future__ import annotations

import atexit
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor as _PoolImpl
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

import multiprocessing
import numpy as np

from ..tech.stacked import (
    TechnologyArray,
    technology_array_from_columns,
    technology_column_arrays,
)
from .sweep import Axis, SweepError, SweepPlan, SweepResult
from .tiling import Tile, TilingPlan, plan_tiles, subplan

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "MemmapExecutor",
    "resolve_executor",
    "run_plan",
]

class Executor:
    """Protocol of a tiled-execution backend.

    ``run_tiles`` streams ``(tile, values)`` pairs — each ``values`` is
    the tile's dense sub-tensor, bitwise identical to the corresponding
    slice of the dense single-pass evaluation; completion order is
    backend-defined (assembly is positional).  ``allocate`` provides
    the full-result storage, letting a backend choose where the
    assembled tensor lives (RAM, memmap, ...).
    """

    name = "abstract"

    def run_tiles(
        self, tiling: TilingPlan
    ) -> Iterator[Tuple[Tile, np.ndarray]]:  # pragma: no cover - protocol
        raise NotImplementedError

    def allocate(self, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        return np.empty(shape, dtype=dtype)


class SerialExecutor(Executor):
    """In-order, in-process tile evaluation (the reference backend)."""

    name = "serial"

    def run_tiles(self, tiling: TilingPlan) -> Iterator[Tuple[Tile, np.ndarray]]:
        for tile in tiling.tiles:
            yield tile, subplan(tiling.plan, tile)._execute_dense().values


class MemmapExecutor(SerialExecutor):
    """Out-of-core backend: the assembled result is ``np.memmap``-backed.

    Tiles evaluate serially (each bounded by ``max_tile_elements``);
    their values land in a disk-backed array, so the dense result tensor
    never needs to fit in RAM.  With ``path=None`` the backing file is
    an anonymous unlinked temporary (space reclaimed when the result is
    garbage collected); an explicit ``path`` keeps the file as a
    reusable artifact.
    """

    name = "memmap"

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path

    def allocate(self, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        if self.path is not None:
            return np.memmap(self.path, dtype=dtype, mode="w+", shape=shape)
        handle = tempfile.TemporaryFile(prefix="sweep-", suffix=".tile")
        # TemporaryFile is already unlinked on POSIX: the mapping (and
        # its disk space) disappears with the last reference.
        return np.memmap(handle, dtype=dtype, mode="w+", shape=shape)


# --------------------------------------------------------------------------- #
# the multiprocess backend
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _SharedPopulation:
    """Marker payload: the sample axis's population travels via shared
    memory, not the pickled plan skeleton."""


def _attach_shared_memory(name: str):
    """Attach an existing shared-memory block without tracker side effects.

    The resource tracker would register the segment again in the worker
    and try to unlink it at worker exit — racing the parent, which owns
    the segment's lifetime.  Attaching with registration suppressed
    leaves exactly one owner.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _export_population(plan: SweepPlan):
    """Move a stacked population out of the plan into shared memory.

    Returns ``(skeleton, shm, meta)``: the plan with the sample payload
    replaced by a marker, the owned shared-memory block (``None`` when
    there is nothing to share — no sample axis), and the metadata a
    worker needs to rebuild the population zero-copy.
    """
    sample_axis = plan.axis("sample")
    if sample_axis is None:
        return plan, None, None
    population = sample_axis.payload
    from multiprocessing import shared_memory

    columns = technology_column_arrays(population)
    total = sum(column.nbytes for column in columns.values())
    shm = shared_memory.SharedMemory(create=True, size=max(1, total))
    fields = []
    offset = 0
    for key, column in columns.items():
        span = np.ndarray(column.shape, dtype=np.float64, buffer=shm.buf, offset=offset)
        span[...] = column
        fields.append((key, offset, column.shape))
        offset += column.nbytes
    meta = {
        "shm_name": shm.name,
        "fields": fields,
        "name": population.name,
        "feature_size_um": population.feature_size_um,
        "min_width_um": population.min_width_um,
        "metal_layers": population.metal_layers,
        "extras": population.extras,
    }
    axes = tuple(
        Axis("sample", axis.coordinates, payload=_SharedPopulation())
        if axis.name == "sample"
        else axis
        for axis in plan.axes
    )
    return replace(plan, axes=axes), shm, meta


def _restore_population(plan: SweepPlan, population: TechnologyArray) -> SweepPlan:
    axes = tuple(
        Axis("sample", axis.coordinates, payload=population)
        if axis.name == "sample" and isinstance(axis.payload, _SharedPopulation)
        else axis
        for axis in plan.axes
    )
    return replace(plan, axes=axes)


def _rebuild_population(meta: Mapping[str, Any], shm) -> TechnologyArray:
    columns = {
        key: np.ndarray(shape, dtype=np.float64, buffer=shm.buf, offset=offset)
        for key, offset, shape in meta["fields"]
    }
    return technology_array_from_columns(
        name=meta["name"],
        feature_size_um=meta["feature_size_um"],
        min_width_um=meta["min_width_um"],
        metal_layers=meta["metal_layers"],
        extras=meta["extras"],
        columns=columns,
    )


def _evaluate_shared_tile(plan: SweepPlan, tile: Tile, meta, shm) -> np.ndarray:
    # Local scope on purpose: every shared-memory view dies with this
    # frame, so the caller's shm.close() finds no exported buffers.
    restored = _restore_population(plan, _rebuild_population(meta, shm))
    return np.ascontiguousarray(subplan(restored, tile)._execute_dense().values)


def _noop() -> None:
    """Prewarm task: forces the lazy pool to actually spawn workers."""


def _init_worker() -> None:
    """Worker start-up: let tile temporaries reuse heap pages.

    glibc's malloc maps every block above its dynamic mmap threshold
    afresh and trims the heap back to the OS beyond twice that
    threshold, so a fresh worker faults each temporary of each tile in
    again: about 27K minor page faults, half the CPU time of a
    2^17-element tile.  Freeing one 16 MiB block (under glibc's 32 MiB
    ceiling for the dynamic threshold) raises both thresholds, as a
    long-running parent's own history already has; other allocators
    ignore it.
    """
    np.empty(1 << 21)


def _run_remote_tile(plan: SweepPlan, tile: Tile, meta) -> np.ndarray:
    """Worker entry: evaluate one tile densely and return its values."""
    if meta is None:
        return subplan(plan, tile)._execute_dense().values
    shm = _attach_shared_memory(meta["shm_name"])
    try:
        return _evaluate_shared_tile(plan, tile, meta, shm)
    finally:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stray view; dies with worker
            pass


#: Reused worker pools, keyed by worker count.  Reuse amortizes worker
#: startup across the many small sweeps of a test lane or a sweep
#: service; pools are torn down at interpreter exit.
_POOLS: Dict[int, _PoolImpl] = {}


def _shutdown_pools() -> None:  # pragma: no cover - exit hook
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


class ProcessExecutor(Executor):
    """Multiprocess backend over a shared-memory population transport.

    Each tile is one task: the worker receives the pickled plan
    *skeleton* (axes, base context — kilobytes) plus the tile bounds,
    attaches the population's shared-memory columns, rebuilds the
    :class:`~repro.tech.stacked.TechnologyArray` zero-copy, slices its
    rows for the tile and evaluates densely.  Results stream back in
    completion order.

    Worker processes get a cold :class:`~repro.thermal.operator.ThermalOperator`
    cache (cold under ``spawn``; a frozen copy-on-write snapshot under
    ``fork``): factorizations are warmed per tile inside the worker and
    are never pickled across the process boundary.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        workers = (os.cpu_count() or 1) if max_workers is None else int(max_workers)
        if workers < 1:
            raise SweepError("max_workers must be at least 1")
        self.max_workers = workers

    def _pool(self) -> _PoolImpl:
        pool = _POOLS.get(self.max_workers)
        if pool is None:
            context = (
                multiprocessing.get_context("fork")
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            pool = _PoolImpl(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_init_worker,
            )
            _POOLS[self.max_workers] = pool
        return pool

    def prewarm(self) -> None:
        """Spin the worker pool up eagerly (it otherwise spawns lazily).

        ``ProcessPoolExecutor`` forks/spawns workers on first submit, so
        a long-lived embedder (the sweep service) would pay pool startup
        on its first request; submitting one no-op per slot moves that
        cost to initialization time.
        """
        pool = self._pool()
        for future in [pool.submit(_noop) for _ in range(self.max_workers)]:
            future.result()

    def _evict(self, pool: _PoolImpl) -> None:
        """Drop a broken pool from the reuse cache (if it is still there)."""
        if _POOLS.get(self.max_workers) is pool:
            del _POOLS[self.max_workers]
        pool.shutdown(wait=False, cancel_futures=True)

    def run_tiles(self, tiling: TilingPlan) -> Iterator[Tuple[Tile, np.ndarray]]:
        skeleton, shm, meta = _export_population(tiling.plan)
        pool = self._pool()
        try:
            try:
                futures = {
                    pool.submit(_run_remote_tile, skeleton, tile, meta): tile
                    for tile in tiling.tiles
                }
            except Exception:
                # A broken reused pool (e.g. a worker killed by a
                # previous run) must not poison every later sweep.
                self._evict(pool)
                raise
            try:
                for future in as_completed(futures):
                    yield futures[future], future.result()
            except BrokenProcessPool:
                # A worker died mid-sweep: this sweep fails, the next
                # one gets a fresh pool.
                self._evict(pool)
                raise
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()


# --------------------------------------------------------------------------- #
# resolution and orchestration
# --------------------------------------------------------------------------- #

def resolve_executor(executor: Any) -> Executor:
    """Resolve an executor argument to a backend.

    ``None`` is the in-process :class:`SerialExecutor`; a string names a
    backend (``serial``/``process``/``memmap``, built with its defaults
    — pass ``ProcessExecutor(max_workers=...)`` for a worker count);
    executor instances pass through.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, str):
        backends = {
            backend.name: backend
            for backend in (SerialExecutor, ProcessExecutor, MemmapExecutor)
        }
        backend = backends.get(executor.strip().lower())
        if backend is None:
            raise SweepError(
                f"unknown executor {executor!r}; choose one of {tuple(sorted(backends))}"
            )
        return backend()
    if isinstance(executor, Executor) or callable(
        getattr(executor, "run_tiles", None)
    ):
        return executor
    raise SweepError(
        f"executor must be an Executor, a backend name or None, got "
        f"{type(executor).__name__}"
    )


def _normalise_reducers(reducers: Any) -> Tuple[Dict[str, Any], bool]:
    if isinstance(reducers, Mapping):
        mapping = dict(reducers)
        single = False
    else:
        mapping = {"result": reducers}
        single = True
    if not mapping:
        raise SweepError("reduce() needs at least one streaming reducer")
    for name, reducer in mapping.items():
        for method in ("prepare", "update", "result"):
            if not callable(getattr(reducer, method, None)):
                raise SweepError(
                    f"reducer {name!r} ({type(reducer).__name__}) does not "
                    f"implement {method}()"
                )
    return mapping, single


def run_plan(
    plan: SweepPlan,
    executor: Any = None,
    max_tile_elements: Optional[int] = None,
    reducers: Any = None,
):
    """Tile a plan, run it through a backend, then assemble or reduce.

    The one execution path behind :meth:`SweepPlan.execute` and
    :meth:`SweepPlan.reduce`.  ``executor`` is resolved by
    :func:`resolve_executor` and ``max_tile_elements`` bounds each tile
    (:func:`~repro.engine.tiling.plan_tiles`).  Without ``reducers`` the
    tiles assemble into the labeled result; with them, tiles stream
    through the reducers only — the full tensor never exists — and the
    finalized reduction is returned.
    """
    executor = resolve_executor(executor)
    tiling = plan_tiles(plan, max_tile_elements=max_tile_elements)
    if reducers is not None:
        reducer_map, single = _normalise_reducers(reducers)
        for reducer in reducer_map.values():
            reducer.prepare(tiling)
        for tile, values in executor.run_tiles(tiling):
            for reducer in reducer_map.values():
                reducer.update(tiling, tile, values)
        reduced = {name: reducer.result(tiling) for name, reducer in reducer_map.items()}
        return reduced["result"] if single else reduced
    sink: Optional[np.ndarray] = None
    for tile, values in executor.run_tiles(tiling):
        if sink is None:
            sink = executor.allocate(tiling.shape, values.dtype)
        sink[tile.slices(tiling.dims)] = values
    assert sink is not None  # a tiling always has at least one tile
    return SweepResult(
        values=sink,
        dims=tiling.dims,
        coords=tiling.coords,
        observable=plan.observable,
    )
