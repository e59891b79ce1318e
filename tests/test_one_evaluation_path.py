"""Regression guard: every public capability has one evaluation path.

The loops the broadcast paths replaced are reference oracles in
``tests/oracles/``; no public function or method of :mod:`repro` may
grow a switch back to them, and no public class may keep one as a
``*_loop`` method.  Each setting likewise has one channel: an explicit
argument (or a ``repro-serve`` flag), never an environment variable.
The thermal solver has one way in, :class:`repro.thermal.ThermalOperator`,
whose grid size picks the solver: no entry point takes a solve method.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.engine
import repro.serve
import repro.thermal
import repro.thermal.operator
import repro.thermal.solver
from repro.core import DynamicThermalManager, ThrottlingPolicy
from repro.engine import Axis
from repro.experiments.placement_study import run_placement_study
from repro.experiments.runner import main as runner_main
from repro.thermal import ThermalOperator, solve_transient

#: Parameter names that select an evaluation mode instead of an input.
MODE_SWITCHES = {
    "scalar",
    "vectorized",
    "evaluator",
    "use_technology_axis",
    "solve_method",
}

#: ``*_loop`` methods the package may keep (none: every oracle loop
#: lives in ``tests/oracles/``).
ALLOWED_LOOP_METHODS = set()

#: Every entry point that reaches the thermal solver.
THERMAL_ENTRY_POINTS = {
    "ThermalOperator": ThermalOperator,
    "ThermalOperator.for_grid": ThermalOperator.for_grid,
    "solve_transient": solve_transient,
    "Axis.resolution": Axis.resolution,
    "DynamicThermalManager": DynamicThermalManager,
    "run_placement_study": run_placement_study,
}


def _public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        parts = info.name.split(".")
        if any(part.startswith("_") for part in parts):
            continue  # private modules and ``__main__`` entry points
        yield importlib.import_module(info.name)


def _public_callables():
    seen = set()
    for module in [repro, *_public_modules()]:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    function = getattr(member, "__func__", member)
                    if callable(function) and id(function) not in seen:
                        seen.add(id(function))
                        yield f"{module.__name__}.{name}.{attr}", function
            elif callable(obj) and id(obj) not in seen:
                seen.add(id(obj))
                yield f"{module.__name__}.{name}", obj


def test_no_public_callable_takes_an_evaluation_mode_switch():
    offenders = []
    checked = 0
    for qualname, function in _public_callables():
        try:
            parameters = inspect.signature(function).parameters
        except (TypeError, ValueError):
            continue
        checked += 1
        switches = MODE_SWITCHES.intersection(parameters)
        if switches:
            offenders.append(f"{qualname}({', '.join(sorted(switches))})")
    assert checked > 300  # the walk really reached the package's API
    assert offenders == []


def test_no_public_class_keeps_a_loop_method():
    classes = set()
    loops = set()
    for module in [repro, *_public_modules()]:
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isclass(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("repro."):
                continue
            classes.add(obj)
            loops.update(
                f"{obj.__name__}.{attr}"
                for attr in vars(obj)
                if attr.endswith("_loop") and not attr.startswith("_")
            )
    assert len(classes) > 50  # the walk really reached the package's classes
    assert sorted(loops - ALLOWED_LOOP_METHODS) == []


@pytest.mark.parametrize("package", [repro, repro.engine], ids=lambda p: p.__name__)
def test_batch_evaluator_is_not_exported(package):
    assert "BatchEvaluator" not in package.__all__
    assert not hasattr(package, "BatchEvaluator")


def test_no_module_reads_the_environment():
    root = Path(repro.__path__[0])
    sites = [
        f"{path.relative_to(root.parent)}:{number}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "os.environ" in line or "getenv" in line
    ]
    assert sites == []


@pytest.mark.parametrize(
    "module", [repro.serve, repro.thermal.operator], ids=lambda m: m.__name__
)
def test_no_environment_variable_name_is_exported(module):
    assert [name for name in module.__all__ if name.endswith("_ENV")] == []


def test_runner_offers_only_experiment_options(capsys):
    with pytest.raises(SystemExit) as exit_info:
        runner_main(["--help"])
    assert exit_info.value.code == 0
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"--help", "--technology", "--experiment", "--list", "--output"}


@pytest.mark.parametrize("name", sorted(THERMAL_ENTRY_POINTS))
def test_no_thermal_entry_point_takes_a_solver_or_policy_switch(name):
    parameters = inspect.signature(THERMAL_ENTRY_POINTS[name]).parameters
    assert {"method", "solve_method", "policy"}.isdisjoint(parameters)


def test_deleted_solver_paths_are_absent():
    assert not hasattr(repro.thermal.solver, "solve_steady_state")
    for package in (repro, repro.thermal):
        assert "solve_steady_state" not in package.__all__
        assert "SOLVE_METHODS" not in package.__all__
    assert not hasattr(repro.thermal.operator, "SOLVE_METHODS")
    assert not hasattr(DynamicThermalManager, "run")
    assert not hasattr(ThrottlingPolicy, "next_state_index")
    root = Path(repro.__path__[0])
    pattern = re.compile(r"\b(SOLVE_METHODS|spilu|solve_columns_loop|next_state_index)\b")
    sites = [
        f"{path.relative_to(root.parent)}:{number}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert sites == []
