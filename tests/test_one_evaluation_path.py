"""Regression guard: every public capability has one evaluation path.

The loops the broadcast paths replaced are reference oracles in
``tests/oracles/``; no public function or method of :mod:`repro` may
grow a switch back to them, and no public class may keep one as a
``*_loop`` method.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
import repro.engine

#: Parameter names that select an evaluation mode instead of an input.
MODE_SWITCHES = {"scalar", "vectorized", "evaluator", "use_technology_axis"}

#: The one ``*_loop`` method the package keeps: the thermal operator's
#: column-at-a-time solve, whose oracle needs the iterative solver's
#: private CG state.
ALLOWED_LOOP_METHODS = {"ThermalOperator.solve_columns_loop"}


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
