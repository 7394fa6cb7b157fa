"""The benchmark's per-layer spans (e2ebench/tracing.py) still find what they wrap.

tracing.WRAPPED lists the module attributes a traced benchmark run rebinds.
One that is gone makes that run report the layer as unmeasured and the run
as incorrect, so each must resolve.  The module is only read here; no
wrapper is installed in the test process.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "e2ebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("e2ebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for module_name, attr, span, _ in tracing.WRAPPED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}, wrapped as {span}, is gone"
