"""Reference oracles: the loops the broadcast evaluation paths replaced.

Every workload in :mod:`repro` has one evaluation path, written on the
sweep API (or on a stacked broadcast underneath it).  The loops that
path replaced live here, outside the package, as the references the
equivalence suites and the engine benchmarks compare against:

* :mod:`.rings` — one :meth:`~repro.oscillator.RingOscillator.period`
  call per temperature (and one ring rebind per technology sample),
  the per-sample ``period_matrix`` loop, the per-configuration loop of
  a :class:`~repro.oscillator.ConfigurationBank`, plus the studies
  built on them: Monte-Carlo, the Fig. 2 sizing sweep, the Fig. 3
  cell-mix candidate, the supply finite difference and the per-node
  scaling study;
* :mod:`.sensors` — one counter conversion per temperature, one smart
  sensor per bank site, the per-site period loop, the multiplexer scan
  and the per-sample calibration study;
* :mod:`.thermal` — one CG run per column of a multigrid block solve
  and one steady-state solve per self-heating duty cycle;
* :mod:`.dtm` — one closed loop per throttling policy (the scalar FSM
  step, a single-column backward-Euler step and one sensor-bank scan
  per control interval).

Each oracle returns the same result type as the function it pins, so a
test compares the two field by field.
"""

from .rings import (
    analytical_response_scalar,
    configuration_period_tensor_loop,
    evaluate_configuration_scalar,
    period_matrix_loop,
    period_matrix_scalar,
    period_series_scalar,
    run_monte_carlo_scalar,
    run_scaling_study_loop,
    supply_sensitivity_scalar,
    sweep_width_ratio_scalar,
)
from .sensors import (
    measurement_errors_scalar,
    monitor_scan_scalar,
    run_calibration_study_scalar,
    scan_loop,
    site_period_tensor_loop,
    transfer_function_scalar,
    worst_case_error_c_scalar,
)
from .dtm import next_state_index, run_policy_loop
from .thermal import (
    duty_cycle_study_scalar,
    run_selfheating_study_scalar,
    solve_columns_loop,
)

__all__ = [
    "analytical_response_scalar",
    "configuration_period_tensor_loop",
    "duty_cycle_study_scalar",
    "evaluate_configuration_scalar",
    "measurement_errors_scalar",
    "monitor_scan_scalar",
    "next_state_index",
    "period_matrix_loop",
    "period_matrix_scalar",
    "period_series_scalar",
    "run_calibration_study_scalar",
    "run_monte_carlo_scalar",
    "run_policy_loop",
    "run_scaling_study_loop",
    "run_selfheating_study_scalar",
    "scan_loop",
    "site_period_tensor_loop",
    "solve_columns_loop",
    "supply_sensitivity_scalar",
    "sweep_width_ratio_scalar",
    "transfer_function_scalar",
    "worst_case_error_c_scalar",
]
