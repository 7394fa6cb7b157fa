"""Spans around seqalign's layers, installed by rebinding module attributes.

Callers inside seqalign look their collaborators up as module globals
(``solver.solve`` calls ``solver.gradient``, ``polytope.minimize_linear``
calls ``polytope.dp_align``, ...).  Replacing those attributes with timing
wrappers records one span per call without editing the package.  This is
only ever done in a process of its own (see worker.py), so untraced timings
never run through a wrapper.

A span is ``[name, start, end, parent_index, count]``; ``count`` is a number
read from the call's arguments or result (columns swept, bytes read, step
size, ...).  Spans are kept in memory and summarised per align.

A wrapped attribute that this version of seqalign lacks, or a counter that
raises, is recorded in ``Recorder.problems``: the layer's metric would read
0 without having been measured, so such a run is reported as incorrect.
"""

import importlib
import os
from time import perf_counter

# (module, attribute looked up by the caller, span name, counter)
# The counter maps (args, kwargs, result) to the span's count.


def _columns(args, kwargs, result):
    return args[0].shape[1]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _q_bytes(args, kwargs, result):
    # Size of the dense (I_total, I_total) float64 kernel, computed from phi.
    return 8 * args[0].shape[1] ** 2


def _iterations(args, kwargs, result):
    return result.iterations


def _gradient_flops(args, kwargs, result):
    # Nominal count of the dense formula psi^T (psi Y) Q plus the prior terms.
    instance, y = args[0], args[1]
    e = instance.psi.shape[0]
    j, i = y.shape
    return 4 * e * j * i + 2 * j * i * i + 4 * j * i


def _pinned(args, kwargs, result):
    fixed = kwargs.get("fixed", args[3] if len(args) > 3 else None)
    return 0 if fixed is None else sum(p is not None for p in fixed)


def _step(args, kwargs, result):
    return result


WRAPPED = (
    ("seqalign.pipeline", "load_streams", "data.load_streams", None),
    ("seqalign.data", "read_matrix", "data.read_matrix", _file_bytes),
    ("seqalign.data", "read_annotations", "data.read_annotations", _file_bytes),
    ("seqalign.pipeline", "assemble", "supervision.assemble", None),
    ("seqalign.supervision", "compute_q", "core.compute_q", _q_bytes),
    ("seqalign.pipeline", "solve", "solver.solve", _iterations),
    ("seqalign.solver", "gradient", "solver.gradient", _gradient_flops),
    ("seqalign.solver", "lmo_blocks", "polytope.lmo_blocks", _pinned),
    ("seqalign.solver", "minimize_linear", "polytope.minimize_linear", None),
    ("seqalign.polytope", "minimize_linear", "polytope.minimize_linear", None),
    ("seqalign.rounding", "minimize_linear", "polytope.minimize_linear", None),
    ("seqalign.polytope", "dp_align", "_kernels.dp_align", _columns),
    ("seqalign.solver", "blocks_to_matrix", "polytope.blocks_to_matrix", None),
    ("seqalign.solver", "exact_line_search", "solver.line_search", _step),
    ("seqalign.solver", "objective", "solver.objective", None),
    ("seqalign.solver", "fit_model", "core.fit_model", None),
    ("seqalign.pipeline", "round_stream", "rounding.round", None),
    ("seqalign.data", "write_predictions", "data.write_predictions", None),
)

# Spans that split one align into phases; a span belongs to its nearest
# enclosing phase.
PHASES = (
    "data.load_streams",
    "supervision.assemble",
    "solver.solve",
    "rounding.round",
    "data.write_predictions",
)


class Recorder:
    """Collects spans for the calls made through installed wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.problems = []  # layers this run cannot measure
        self._failed_counters = set()

    def reset(self):
        """Forget the recorded spans; the installed wrappers keep recording."""
        self.spans.clear()
        self._stack.clear()

    def _counter_failed(self, name, error):
        if name not in self._failed_counters:
            self._failed_counters.add(name)
            self.problems.append(f"the count of {name} could not be read: {error!r}")

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, kwargs, result)
                except Exception as e:
                    self._counter_failed(name, e)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every attribute in WRAPPED; report those seqalign no longer has."""
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.problems.append(f"{module_name}.{attr} is gone, so {name} is not measured")
                continue
            setattr(module, attr, self.wrap(name, fn, counter))


def summarise(spans):
    """Per-layer metrics of one align from its spans (see README.md)."""
    n = len(spans)
    child_s = [0.0] * n
    phase = [None] * n
    for k, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            phase[k] = phase[parent]
        if name in PHASES:
            phase[k] = name

    total, calls, self_s, counts = {}, {}, {}, {}
    oracle_calls = {}
    steps = {"full": 0, "zero": 0}
    for k, (name, start, end, parent, count) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[k]
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if name == "polytope.minimize_linear":
            oracle_calls[phase[k]] = oracle_calls.get(phase[k], 0) + 1
        if name == "solver.line_search" and isinstance(count, float):
            if count >= 1.0:
                steps["full"] += 1
            elif count <= 0.0:
                steps["zero"] += 1

    read_bytes = sum(
        spans[k][4] or 0
        for k in range(n)
        if spans[k][0] in ("data.read_matrix", "data.read_annotations")
        and phase[k] == "data.load_streams"
    )
    return {
        "kernels.dp_s": total.get("_kernels.dp_align", 0.0),
        "kernels.dp_columns": counts.get("_kernels.dp_align", 0),
        "polytope.oracle_calls": oracle_calls.get("solver.solve", 0),
        "polytope.lmo_blocks_s": total.get("polytope.lmo_blocks", 0.0),
        "polytope.pinned_blocks": counts.get("polytope.lmo_blocks", 0),
        "polytope.blocks_to_matrix_s": total.get("polytope.blocks_to_matrix", 0.0),
        "solver.solve_s": total.get("solver.solve", 0.0),
        "solver.gradient_s": total.get("solver.gradient", 0.0),
        "solver.gradient_calls": calls.get("solver.gradient", 0),
        "solver.gradient_flops": counts.get("solver.gradient", 0),
        "solver.line_search_s": total.get("solver.line_search", 0.0),
        "solver.objective_s": total.get("solver.objective", 0.0),
        "solver.self_s": self_s.get("solver.solve", 0.0),
        "solver.iterations": counts.get("solver.solve", 0),
        "solver.full_steps": steps["full"],
        "solver.zero_steps": steps["zero"],
        "core.compute_q_s": total.get("core.compute_q", 0.0),
        "core.q_bytes": counts.get("core.compute_q", 0),
        "core.fit_model_s": total.get("core.fit_model", 0.0),
        "supervision.assemble_s": self_s.get("supervision.assemble", 0.0),
        "data.load_streams_s": total.get("data.load_streams", 0.0),
        "data.bytes_read": read_bytes,
        "data.write_predictions_s": total.get("data.write_predictions", 0.0),
        "rounding.round_s": total.get("rounding.round", 0.0),
        "rounding.oracle_calls": oracle_calls.get("rounding.round", 0),
    }


def solve_breakdown(spans):
    """Seconds of each solve's direct children by name, plus its self time.

    The self time is the solve's wall time minus its direct children, so the
    parts add up to ``solver.solve_s`` by definition; the layer totals in
    ``summarise`` also count calls made deeper down.
    """
    parts, solve_s = {}, 0.0
    for name, start, end, parent, _ in spans:
        if name == "solver.solve":
            solve_s += end - start
        if parent >= 0 and spans[parent][0] == "solver.solve":
            parts[name] = parts.get(name, 0.0) + end - start
    parts["self"] = solve_s - sum(parts.values())
    return parts

