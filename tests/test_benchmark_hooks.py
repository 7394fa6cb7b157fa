"""The benchmark's per-layer spans (e2ebench/tracing.py) still find what they wrap.

tracing.WRAPPED lists the module attributes a traced benchmark run rebinds.
One that is gone makes that run report the layer as unmeasured and the run
as incorrect, so each must resolve.  The tracing module is only read here;
its wrappers are not installed in the test process.  A solve must also
still call the attributes it rebinds, which counting wrappers check.  The
environment record of a benchmark run (e2ebench/checks.py) reads the
package too, and must still be built.
"""

import importlib
import importlib.util
import json
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_e2ebench(name):
    """The module e2ebench/<name>.py, loaded from its file without running the benchmark."""
    path = ROOT / "e2ebench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"e2ebench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    tracing = load_e2ebench("tracing")
    assert tracing.WRAPPED
    for module_name, attr, span, _ in tracing.WRAPPED:
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert callable(fn), f"{module_name}.{attr}, wrapped as {span}, is gone"


def test_solve_calls_gradient_and_oracle_through_module_attributes(monkeypatch, tmp_path):
    # The benchmark times solver.gradient and polytope.lmo_blocks by rebinding
    # seqalign.solver.gradient and seqalign.solver.lmo_blocks; a solve that
    # reached them another way would leave those spans empty.
    from dataclasses import replace

    from seqalign import pipeline, solver
    from seqalign.supervision import assemble

    calls = {"gradient": 0, "lmo_blocks": 0}
    iterates = []

    def counting(name):
        fn = getattr(solver, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "gradient":
                iterates.append(args[1])
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    manifest = pipeline.run_synth(tmp_path, n_streams=3, sentences=2, intervals=12, seed=0)
    hp = replace(manifest.hyperparameters, max_iter=50)
    inst = assemble(pipeline.load_streams(manifest), hp)
    res = solver.solve(inst, max_iter=hp.max_iter, gap_tol=hp.gap_tol)
    assert res.iterations > 1
    assert calls == {"gradient": res.iterations + 1, "lmo_blocks": res.iterations + 1}
    # The benchmark's flop count reads the shape of the dense iterate the
    # gradient gets, which solve rebuilds in place: one array for the solve.
    layout = inst.layout
    for y in iterates:
        assert y is res.y_relaxed
        assert y.dtype == np.float64 and y.flags.c_contiguous
        assert y.shape == (layout.j_total, layout.i_total)


def test_environment_record_names_the_numpy_dp():
    # A benchmark run records its environment only from run.main, which the
    # smoke test does not reach.
    record = load_e2ebench("checks").environment(ROOT, dict(os.environ))
    assert record["dp_backend"] == "numpy"
    assert json.loads(json.dumps(record)) == record
