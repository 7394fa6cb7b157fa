"""The benchmark's per-layer spans (e2ebench/tracing.py) still find what they wrap.

tracing.WRAPPED lists the module attributes a traced benchmark run rebinds.
One that is gone makes that run report the layer as unmeasured and the run
as incorrect, so each must resolve.  The tracing module is only read here;
its wrappers are not installed in the test process.  A solve must also
still call the attributes it rebinds, which counting wrappers check.
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


def test_solve_calls_gradient_and_oracle_through_module_attributes(monkeypatch, tmp_path):
    # The benchmark times solver.gradient and polytope.lmo_blocks by rebinding
    # seqalign.solver.gradient and seqalign.solver.lmo_blocks; a solve that
    # reached them another way would leave those spans empty.
    from dataclasses import replace

    from seqalign import pipeline, solver
    from seqalign.supervision import assemble

    calls = {"gradient": 0, "lmo_blocks": 0}

    def counting(name):
        fn = getattr(solver, name)

        def counted(*args, **kwargs):
            calls[name] += 1
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
