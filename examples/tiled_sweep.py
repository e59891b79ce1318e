#!/usr/bin/env python3
"""Tiled sweep execution: out-of-core assembly and multiprocess fan-out.

``Sweep.run()`` evaluates the whole axis product as one dense in-memory
broadcast — the right default at paper scale, a hard wall when the
sample axis grows toward production Monte-Carlo counts.  The tiled
execution layer (``repro.engine.tiling`` + ``repro.engine.executors``)
splits the planned sweep into bounded-memory chunks along the
cheapest-to-split axes (sample, then temperature) and runs them through
a pluggable backend; every backend is **bitwise identical** to the
dense path, because each tile evaluates exactly the same elementwise
broadcast on a slice of the population.

This example

1. runs a sweep whose dense result tensor exceeds a deliberately tiny
   memory budget *out of core*: tiles stream through a
   ``np.memmap``-backed sink, so the full tensor never lives in RAM —
   the same mechanism that lets a bigger-than-RAM sample axis complete,
2. aggregates the same oversized sweep through *streaming reducers*
   (mean / exact percentile / histogram) without materializing the
   result at all, and checks them against the dense numbers,
3. measures the multiprocess backend's speedup over serial tiles on a
   large population (shared-memory transport of the technology columns;
   the speedup only shows on a multi-core machine).

Run with:  python examples/tiled_sweep.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import (
    Axis,
    CMOS035,
    HistogramReducer,
    MeanReducer,
    MemmapExecutor,
    PercentileReducer,
    ProcessExecutor,
    RingConfiguration,
    Sweep,
    sample_technology_array,
)
from repro.engine import plan_tiles


def build_sweep(population, temperatures):
    return (
        Sweep(technology=CMOS035, configuration=RingConfiguration.parse("2INV+3NAND2"))
        .over(Axis.sample(population))
        .over(Axis.temperature(temperatures))
    )


def main() -> None:
    temperatures = np.linspace(-50.0, 150.0, 41)

    # ------------------------------------------------------------------ #
    # 1. out-of-core: dense tensor larger than the memory budget
    # ------------------------------------------------------------------ #
    population = sample_technology_array(CMOS035, 4000, seed=77)
    sweep = build_sweep(population, temperatures)
    dense_bytes = len(population) * temperatures.size * 8
    budget = 256 * 1024  # pretend RAM ends at 256 KiB of result
    print("Out-of-core execution")
    print(f"  dense result tensor : {dense_bytes / 1e6:6.2f} MB "
          f"({len(population)} samples x {temperatures.size} temperatures)")
    print(f"  memory budget       : {budget / 1024:6.0f} KiB")

    tiling = plan_tiles(sweep.plan(), memory_budget_bytes=budget)
    print(f"  tiling              : {len(tiling.tiles)} tiles along "
          f"{[b[0] for b in tiling.tiles[0].bounds]}")

    start = time.perf_counter()
    result = sweep.run(executor=MemmapExecutor(memory_budget_bytes=budget))
    elapsed = time.perf_counter() - start
    print(f"  completed in        : {elapsed * 1e3:7.1f} ms  "
          f"dims={result.dims} shape={result.shape}")
    # The values are a disk-backed memmap view; label queries work as on
    # any other SweepResult.
    at_25c = result.select(temperature=25.0).values
    print(f"  period @ 25 C       : median {np.median(at_25c) * 1e9:.2f} ns "
          f"across the population")

    # ------------------------------------------------------------------ #
    # 2. streaming reducers: aggregate without the tensor
    # ------------------------------------------------------------------ #
    print("\nStreaming reducers (tensor never materialized)")
    reduced = sweep.reduce(
        {
            "mean": MeanReducer(),
            "p95_per_t": PercentileReducer(95.0, dims=("sample",)),
            "histogram": HistogramReducer(
                bins=12, range=(float(np.min(result.values)),
                                float(np.max(result.values)) * 1.0001)
            ),
        },
        max_tile_elements=budget // 8,
    )
    dense_mean = float(np.mean(result.values))
    print(f"  streamed mean       : {reduced['mean']:.6e} s "
          f"(dense agreement {abs(reduced['mean'] - dense_mean):.2e})")
    p95 = reduced["p95_per_t"]
    print(f"  p95 period spread   : {p95.min() * 1e9:.2f} .. {p95.max() * 1e9:.2f} ns "
          f"across temperature (exact, slab-finalized)")
    counts, _edges = reduced["histogram"]
    print(f"  histogram           : {counts.sum()} values in {counts.size} bins")

    # ------------------------------------------------------------------ #
    # 3. multiprocess fan-out with shared-memory population transport
    # ------------------------------------------------------------------ #
    workers = min(4, os.cpu_count() or 1)
    print(f"\nMultiprocess backend ({workers} workers, "
          f"{os.cpu_count()} cpu(s) visible)")
    big = sample_technology_array(CMOS035, 20000, seed=78)
    big_sweep = build_sweep(big, temperatures)

    start = time.perf_counter()
    serial = big_sweep.run(executor="serial", max_tile_elements=1 << 17)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = big_sweep.run(
        executor=ProcessExecutor(max_workers=workers), max_tile_elements=1 << 17
    )
    parallel_s = time.perf_counter() - start

    identical = np.array_equal(serial.values, parallel.values)
    print(f"  serial tiles        : {serial_s * 1e3:7.1f} ms")
    print(f"  {workers}-worker pool       : {parallel_s * 1e3:7.1f} ms  "
          f"(speedup {serial_s / parallel_s:4.2f}x, bitwise identical: {identical})")
    if workers < 2:
        print("  (run on a multi-core machine to see the speedup)")


if __name__ == "__main__":
    main()
