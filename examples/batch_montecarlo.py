#!/usr/bin/env python3
"""Batch Monte-Carlo with the vectorized evaluation engine.

The paper's calibration argument rests on a population statement: process
variation shifts the *absolute* ring period strongly (so the sensor needs
calibration) but leaves the *linearity* nearly untouched (so one cheap
calibration point suffices).  Checking that statement well needs many
Monte-Carlo samples over a dense temperature grid — exactly the workload
the batch engine accelerates.

This example

1. runs a 200-sample x 41-temperature Monte-Carlo study through
   ``run_monte_carlo`` — one ``sample x temperature`` sweep over a
   population drawn in struct-of-arrays form — and times it,
2. prints the population summary the paper's argument is built on, and
3. shows the stacked sample axis directly: a 1000-sample population
   drawn as one struct-of-arrays ``TechnologyArray``
   (``sample_technology_array``) and evaluated as a single
   ``(sample x temperature)`` broadcast, declared as a ``Sweep``.

The scalar loops these broadcasts replaced live in the test suite
(``tests/oracles/``), which pins every path to them at 1e-9 relative.

Run with:  python examples/batch_montecarlo.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    CMOS035,
    Axis,
    RingConfiguration,
    RingOscillator,
    Sweep,
    default_library,
    sample_technology_array,
)
from repro.analysis import run_monte_carlo


def main() -> None:
    configuration = RingConfiguration.parse("2INV+3NAND2")
    temperatures = np.linspace(-50.0, 150.0, 41)
    samples = 200

    print(f"Configuration : {configuration.label()}")
    print(f"Workload      : {samples} Monte-Carlo samples x {temperatures.size} temperatures")

    start = time.perf_counter()
    study = run_monte_carlo(
        CMOS035, configuration, sample_count=samples,
        temperatures_c=temperatures, seed=1234,
    )
    study_s = time.perf_counter() - start
    print(f"Wall clock    : {study_s * 1e3:7.1f} ms")

    print()
    print("Population summary (the paper's calibration argument):")
    print(f"  period spread at 25 C : {study.period_spread_percent:6.2f} % "
          "(large -> calibration needed)")
    print(f"  worst non-linearity   : mean {study.nonlinearity_percent.mean:.3f} %, "
          f"max {study.nonlinearity_percent.maximum:.3f} % "
          "(small -> one-point calibration suffices)")
    print(f"  mean sensitivity      : {study.sensitivity_s_per_k.mean * 1e15:.2f} fs/K")

    # ------------------------------------------------------------------ #
    # The stacked sample axis, hands on
    # ------------------------------------------------------------------ #
    print()
    print("Stacked sample axis (struct-of-arrays technologies):")
    ring = RingOscillator(default_library(CMOS035), configuration)
    population = sample_technology_array(CMOS035, 1000, seed=1234)

    start = time.perf_counter()
    result = (
        Sweep(ring=ring)
        .over(Axis.sample(population))
        .over(Axis.temperature(temperatures))
        .run()
    )
    stacked_s = time.perf_counter() - start

    periods_25c = result.select(temperature=25.0).values
    print(f"  population    : {len(population)} samples x {temperatures.size} temperatures")
    print(f"  result        : dims {result.dims}, shape {result.shape}")
    print(f"  wall clock    : {stacked_s * 1e3:7.1f} ms  (one broadcast, no per-sample loop)")
    print(f"  throughput    : {result.values.size / stacked_s / 1e6:7.2f} M periods/s")
    print(f"  period @ 25 C : {periods_25c.mean() * 1e12:.1f} ps mean, "
          f"{(periods_25c.max() - periods_25c.min()) / periods_25c.mean() * 100:.2f} % spread")


if __name__ == "__main__":
    main()
