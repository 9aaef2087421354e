"""The benchmark's tracer wraps resgrass functions by module and name.

A function deleted or renamed in the package would make `perfbench/run.py
--trace 1` fail when the tracer installs itself, so every target it lists
must still resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_is_a_callable_of_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for mod, names in tracer.TARGETS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
