"""The benchmark's tracer finds every function it wraps.

``perfbench/tracer.py`` looks up each name in its ``TRACED`` list with
``getattr`` when a traced run starts, so renaming or deleting one of
those functions breaks ``--trace 1`` runs without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for qualified in tracer.TRACED:
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"kappacov.{module_name}")
        assert callable(getattr(module, func_name, None)), qualified
