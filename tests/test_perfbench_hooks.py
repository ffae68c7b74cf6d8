"""The benchmark's span recorder finds every function it traces by name.

``perfbench/spans.py`` wraps the public functions of each layer module and,
by name, a few private ones (``PRIVATE``); ``harness._transmit_once`` is the
one whose calls count ``harness.frames``.  A renamed or deleted hook would
leave that count at 0 without any error, so each name is checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_private_hook_is_a_function_of_its_module():
    spans = _spans_module()
    assert spans.PRIVATE, "no private hook is traced"
    for layer, names in spans.PRIVATE.items():
        assert layer in spans.LAYERS, layer
        module = importlib.import_module(f"dmtlink.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"dmtlink.{layer}.{name}"
            assert fn.__module__ == module.__name__, f"dmtlink.{layer}.{name}"
