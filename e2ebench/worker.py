"""One measuring process: aligns suites through ``seqalign.cli.main``.

Run as ``python3 worker.py CONFIG.json``; run.py writes the config and
reads the JSON result the worker writes to ``config["result_path"]``.
Each worker is a fresh process, so its peak resident memory after the
first align is that of a process that aligned one suite, and the rebinding
done by a traced or set-up worker cannot reach an untraced worker's timings.

Modes:
  untraced  aligns round-robin over the suites
  traced    rebinds seqalign's layers (tracing.py), then aligns suite 0
  setup     times ``seqalign align`` on suite 0 up to its call of
            ``seqalign.pipeline.solve``, which is rebound to stop it there
"""

import contextlib
import gzip
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing


def _import_seqalign(src):
    sys.path.insert(0, src)
    import seqalign

    where = Path(seqalign.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"seqalign imported from {where}, not from {src}")


def _cli(argv):
    """seqalign's own entry point; returns (exit code or None, error text)."""
    from seqalign import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        return None, traceback.format_exc(limit=4)
    return rc, err.getvalue().strip() or None


class _SolveReached(BaseException):
    """Raised by the stand-in for ``pipeline.solve``; carries the time it was called."""


def _stop_at_solve(*args, **kwargs):
    raise _SolveReached(perf_counter())


def _setup_times(config):
    """Wall times of ``seqalign align`` from its start to its first FW step.

    The align command runs as usual (``cli.main``, same flags) until it calls
    ``pipeline.solve``, so set-up is whatever the program does before solving:
    today reading the manifest, ``load_streams`` and ``assemble``.
    """
    from seqalign import cli, pipeline

    suite = config["suites"][0]
    argv = ["align", "--manifest", suite["manifest"],
            "--out-dir", str(Path(suite["out_base"]) / "setup")] + config["align_flags"]
    pipeline.solve = _stop_at_solve
    times = []
    start = perf_counter()
    while len(times) < config["min_reps"] or perf_counter() - start < config["seconds"]:
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except _SolveReached as reached:
            times.append(reached.args[0] - t0)
        else:
            raise RuntimeError(f"seqalign align exited {rc} without calling seqalign.pipeline.solve")
    return times


def _mean_jaccard(out_dir):
    for line in (Path(out_dir) / "scores.csv").read_text().splitlines():
        key, _, value = line.partition(",")
        if key == "mean":
            return float(value)
    raise ValueError(f"{out_dir}/scores.csv has no mean line")


def _write_spans(path, spans):
    with gzip.open(path, "wt") as f:
        f.write("index,name,start_s,end_s,parent,count\n")
        t0 = spans[0][1] if spans else 0.0
        for k, (name, start, end, parent, count) in enumerate(spans):
            f.write(f"{k},{name},{start - t0!r},{end - t0!r},{parent},{count!r}\n")


def _align(config, recorder, rep, evaluated):
    """One align of suite ``rep % len(suites)``, its checks' inputs, and its eval."""
    suites = config["suites"]
    k = rep % len(suites)
    out = str(Path(suites[k]["out_base"]) / f"rep{rep:03d}")
    argv = ["align", "--manifest", suites[k]["manifest"], "--out-dir", out]
    if recorder is not None:
        recorder.reset()
    t0 = perf_counter()
    rc, error = _cli(argv + config["align_flags"])
    record = {"suite": k, "out": out, "seconds": perf_counter() - t0, "rc": rc, "error": error}
    if recorder is not None:
        spans = recorder.spans
        record["layers"] = tracing.summarise(spans)
        record["solve_breakdown"] = tracing.solve_breakdown(spans)
        if rep == 0 and config.get("spans_path"):
            _write_spans(config["spans_path"], spans)

    if rc == 0 and k not in evaluated:
        evaluated.add(k)
        t0 = perf_counter()
        rc_eval, error = _cli(["eval", "--manifest", suites[k]["manifest"], "--out-dir", out])
        record["eval"] = {"seconds": perf_counter() - t0, "rc": rc_eval, "error": error}
        if rc_eval == 0:
            record["eval"]["mean_jaccard"] = _mean_jaccard(out)
    return record


def run(config):
    _import_seqalign(config["src"])
    if config["mode"] == "setup":
        return {"mode": "setup", "setup_s": _setup_times(config)}
    recorder = None
    if config["mode"] == "traced":
        recorder = tracing.Recorder()
        recorder.install()

    evaluated = set()
    aligns = [_align(config, recorder, 0, evaluated)]
    # Peak memory of a fresh process that has aligned one suite, taken before
    # the other aligns can change the allocator's history (they moved it by
    # one 21 MB array from run to run).
    result = {
        "mode": config["mode"],
        "aligns": aligns,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    start = perf_counter() - aligns[0]["seconds"]
    while len(aligns) < config["min_aligns"] or perf_counter() - start < config["seconds"]:
        aligns.append(_align(config, recorder, len(aligns), evaluated))

    if recorder is not None:
        result["trace_problems"] = recorder.problems
    return result


def main(argv):
    config = json.loads(Path(argv[1]).read_text())
    result = run(config)
    Path(config["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
