"""DTM oracles: one closed loop per policy, one scalar FSM step per reading."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core import DtmResult, DtmTracePoint, DynamicThermalManager, ThrottlingPolicy
from repro.thermal import TemperatureMap, ThermalGrid, ThermalOperator


def next_state_index(
    policy: ThrottlingPolicy, current_index: int, hottest_reading_c: float
) -> int:
    """Oracle of :meth:`repro.core.PolicyBank.next_state_indices` for one
    policy: the new state index given the hottest sensor reading."""
    last = len(policy.states) - 1
    if hottest_reading_c >= policy.emergency_threshold_c:
        return last
    if hottest_reading_c >= policy.throttle_threshold_c:
        return min(current_index + 1, last)
    if hottest_reading_c <= policy.release_threshold_c:
        return max(current_index - 1, 0)
    return current_index


def run_policy_loop(
    manager: DynamicThermalManager,
    policy: ThrottlingPolicy,
    duration_s: float = 2.0,
    control_interval_s: float = 0.02,
    limit_c: float = 115.0,
    workload_scale: float = 1.0,
) -> DtmResult:
    """Oracle of :meth:`repro.core.DynamicThermalManager.run_bank` for one
    policy.

    Each control interval advances the die by one single-column
    backward-Euler step, reads every sensor at its local junction
    temperature through one bank scan, and steps the scalar FSM.
    """
    monitor = manager.monitor
    base_power = manager.base_power_map
    grid = ThermalGrid.for_power_map(base_power, monitor.thermal_parameters)
    stepper = ThermalOperator.for_grid(grid).stepper(control_interval_s)
    site_xs, site_ys = monitor.bank.positions()

    steps = int(np.ceil(duration_s / control_interval_s))
    state_index = 0
    rise = np.zeros(grid.nx * grid.ny)
    trace: List[DtmTracePoint] = []
    for step in range(1, steps + 1):
        state = policy.states[state_index]
        power = base_power.scaled(workload_scale * state.power_scale)
        rise = stepper.step(rise, power.values_w.reshape(-1))
        die_map = TemperatureMap(
            grid.width_mm,
            grid.height_mm,
            rise.reshape((grid.ny, grid.nx)) + manager.ambient_c,
        )
        scan = monitor.bank.scan(die_map.sample_points(site_xs, site_ys))
        hottest = max(float(estimate) for estimate in scan.estimates_c)
        trace.append(
            DtmTracePoint(
                time_s=step * control_interval_s,
                state_name=state.name,
                state_index=state_index,
                power_w=power.total_power_w(),
                true_peak_c=die_map.max_c(),
                hottest_reading_c=hottest,
                performance=state.performance,
            )
        )
        state_index = next_state_index(policy, state_index, hottest)
    return DtmResult(trace=tuple(trace), limit_c=limit_c, final_map=die_map)
