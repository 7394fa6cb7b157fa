"""End-to-end and per-layer benchmark of ``seqalign align``.

    python3 e2ebench/run.py --workload converge-4x60 --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each run synthesises its suites from ``--seed``
(untimed), measures them in fresh worker processes (worker.py), checks
every align's outputs, and prints a metric table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` aligns suite 0
once untraced and once with every layer wrapped (tracing.py), each in its
own process, and reports the per-layer metrics.  A record of the run, with
the environment, fingerprints and every align's time, is written to
``.e2ebench/results/`` at the checkout's root.  README.md describes the
workloads and what each metric should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "align_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "solve_iters": "count",
    "final_gap": "1",
    "mean_jaccard": "1",
}
# Printed and recorded, but not in the JSON line: the objective's level
# depends on the suite, and its quartile spread over ten seeds of
# converge-4x60 (0.20 of the median, six suites a run) would use up any
# bound it could have.  final_gap bounds the same solve's suboptimality.
UNBOUNDED = {"final_objective": "1"}

PER_LAYER = {
    "kernels.dp_s": "s",
    "kernels.dp_columns": "count",
    "polytope.oracle_calls": "count",
    "polytope.lmo_blocks_s": "s",
    "polytope.pinned_blocks": "count",
    "polytope.blocks_to_matrix_s": "s",
    "solver.solve_s": "s",
    "solver.gradient_s": "s",
    "solver.gradient_calls": "count",
    "solver.gradient_flops": "flop",
    "solver.line_search_s": "s",
    "solver.objective_s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.full_steps": "count",
    "solver.zero_steps": "count",
    "core.compute_q_s": "s",
    "core.q_bytes": "B",
    "core.fit_model_s": "s",
    "supervision.assemble_s": "s",
    "data.load_streams_s": "s",
    "data.bytes_read": "B",
    "data.write_predictions_s": "s",
    "rounding.round_s": "s",
    "rounding.oracle_calls": "count",
    "evaluation.eval_s": "s",
    "trace.overhead_s": "s",
}

SETUP_MIN_REPS = 7
# Share of --seconds spent on set-up repetitions, in a worker of their own.
SETUP_SHARE = 0.1
# A run must end within 180 s; leave room for synthesis and the checks.
DEADLINE_S = 165.0
# Workers run BLAS on one thread.  With OpenBLAS's default of one thread per
# core, a second process taking one of the two cores stalls every product:
# measured on a 2-core machine, an align of kernel-16x250 went from 3.3 s to
# 8 s and one of converge-4x60 from 4 s to as much as 27 s, while with one
# thread the same contention cost 10 to 50 %.
WORKER_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure anything (as opposed to a failed check)."""


def _import_seqalign():
    src = ROOT / "src"
    if not (src / "seqalign" / "__init__.py").is_file():
        raise BenchmarkError(f"no seqalign sources under {src}")
    sys.path.insert(0, str(src))
    import seqalign

    if src.resolve() not in Path(seqalign.__file__).resolve().parents:
        raise BenchmarkError(f"seqalign resolves to {seqalign.__file__}, not to {src}")


def _run_worker(config, work, tag, deadline):
    config_path = work / f"{tag}.config.json"
    config["result_path"] = str(work / f"{tag}.result.json")
    config["src"] = str(ROOT / "src")
    config_path.write_text(json.dumps(config))
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {tag} worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config_path)],
            capture_output=True, text=True, timeout=timeout,
            env=dict(os.environ, **WORKER_THREADS),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{tag} worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{tag} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(config["result_path"]).read_text())


def _check_aligns(workload, suites, aligns):
    """Failed-check messages per align; repeats of a suite must match its first run."""
    first_preds = {}
    failures = []
    reports = {}
    for a in aligns:
        problems = []
        if a["rc"] != 0:
            problems.append(f"align exited {a['rc']}: {a['error']}")
        else:
            found, fields = checks.check_align(a["out"], suites[a["suite"]]["manifest"],
                                               workload.max_iter)
            problems += found
            a["pred_sha256"] = checks.fingerprint(Path(a["out"]).glob("pred_*.csv"))
            expected = first_preds.setdefault(a["suite"], a["pred_sha256"])
            if a["pred_sha256"] != expected:
                problems.append("prediction files differ from the first align of this suite")
            if fields is not None:
                reports.setdefault(a["suite"], fields)
        if "eval" in a and a["eval"]["rc"] != 0:
            problems.append(f"eval exited {a['eval']['rc']}: {a['eval']['error']}")
        a["problems"] = problems
        failures.append(problems)
    return failures, reports, first_preds


def _median(values):
    if not values:
        return float("nan")
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # a count stays a whole number
    return statistics.median(values)


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def measure(workload, seed, seconds, trace, work_root, spans_path=None):
    """Synthesise, measure and check one run; returns the full run record.

    Suites and align outputs live in a directory under ``work_root`` that
    is removed when the run ends.  A traced run writes the spans of its
    first traced align to ``spans_path`` (gzipped CSV) when one is given.
    """
    from seqalign.pipeline import run_synth

    t_start = perf_counter()
    deadline = t_start + DEADLINE_S
    work = Path(work_root) / f"{workload.name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        suites = []
        seeds = workload.suite_seeds(seed)
        # A traced run compares one suite with and without the wrappers.
        for k, suite_seed in enumerate(seeds[:1] if trace else seeds):
            suite_dir = work / f"suite{k}"
            run_synth(suite_dir, seed=suite_seed, **workload.synth)
            suites.append({
                "manifest": str(suite_dir / "manifest.json"),
                "out_base": str(work / f"out{k}"),
                "seed": suite_seed,
                "input_sha256": checks.fingerprint(p for p in suite_dir.iterdir() if p.is_file()),
            })
        flags = workload.align_flags()
        record = {"workload": workload.name, "seed": seed, "seconds": seconds,
                  "trace": trace, "suites": suites}
        if trace:
            half = seconds / 2
            plain = _run_worker(
                {"mode": "untraced", "suites": suites, "align_flags": flags,
                 "seconds": half, "min_aligns": 1},
                work, "untraced", deadline)
            traced = _run_worker(
                {"mode": "traced", "suites": suites, "align_flags": flags,
                 "seconds": half, "min_aligns": 1,
                 "spans_path": spans_path and str(spans_path)},
                work, "traced", deadline)
            aligns = plain["aligns"] + traced["aligns"]
        else:
            setup = _run_worker(
                {"mode": "setup", "suites": suites, "align_flags": flags,
                 "seconds": SETUP_SHARE * seconds, "min_reps": SETUP_MIN_REPS},
                work, "setup", deadline)
            plain = _run_worker(
                {"mode": "untraced", "suites": suites, "align_flags": flags,
                 "seconds": seconds, "min_aligns": len(suites) + 1},
                work, "untraced", deadline)
            aligns = plain["aligns"]

        failures, reports, preds = _check_aligns(workload, suites, aligns)
        for k, suite in enumerate(suites):
            suite["pred_sha256"] = preds.get(k)

        record["problems"] = [p for f in failures for p in f]
        if trace:
            metrics = _layer_metrics(plain, traced)
            record["solve_breakdown"] = traced["aligns"][0].get("solve_breakdown")
            record["problems"] += traced["trace_problems"]
        else:
            metrics = _end_to_end_metrics(plain, setup["setup_s"], reports)
        record["metrics"] = metrics
        record["aligns"] = aligns
        record["attempted"] = len(failures)
        record["failed"] = sum(1 for f in failures if f)
        record["wall_s"] = perf_counter() - t_start
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end_metrics(plain, setup_s, reports):
    # The suites differ in cost, and how many aligns fit in a run depends on
    # the code's speed.  Each suite's median, averaged over the suites, keeps
    # align_s from depending on which suites happened to be run again.
    per_suite = {}
    for a in plain["aligns"]:
        per_suite.setdefault(a["suite"], []).append(a["seconds"])
    evals = [a["eval"]["mean_jaccard"] for a in plain["aligns"]
             if "mean_jaccard" in a.get("eval", {})]
    fields = list(reports.values())
    return {
        "align_s": _mean([statistics.median(t) for t in per_suite.values()]),
        "setup_s": _median(setup_s),
        "peak_rss_mb": plain["peak_rss_kib"] / 1024,
        "solve_iters": _mean([f["iterations"] for f in fields]),
        "final_gap": _mean([f["final_gap"] for f in fields]),
        "final_objective": _mean([f["final_objective"] for f in fields]),
        "mean_jaccard": _mean(evals),
    }


def _layer_metrics(plain, traced):
    reps = [a["layers"] for a in traced["aligns"] if "layers" in a]
    metrics = {name: _median([r[name] for r in reps]) for name in reps[0]} if reps else {}
    evals = [a["eval"]["seconds"] for a in traced["aligns"] if "eval" in a]
    metrics["evaluation.eval_s"] = _median(evals)
    metrics["trace.overhead_s"] = _median([a["seconds"] for a in traced["aligns"]]) - _median(
        [a["seconds"] for a in plain["aligns"]]
    )
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def _number(value):
    # A metric nothing could be measured for (every align failed) is
    # reported as 0; such a run is never correct.
    return value if math.isfinite(value) else 0.0


def result_line(record):
    units = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": _number(record["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def _print_table(record):
    trace = record["trace"]
    print(
        f"e2ebench {record['workload']} seed {record['seed']} trace {trace}: "
        f"{len(record['suites'])} suite(s), {len(record['aligns'])} aligns, "
        f"{record['failed']} of {record['attempted']} checked runs failed, "
        f"{record['wall_s']:.1f} s"
    )
    for name, unit in (PER_LAYER if trace else {**END_TO_END, **UNBOUNDED}).items():
        print(f"  {name:<28} {record['metrics'][name]:>14.6g} {unit}")
    if not trace:
        share = record["failed"] / record["attempted"]
        print(f"  {'ops_failed':<28} {share:>14.6g} share of {record['attempted']} runs")
    else:
        # The breakdown is that of the first traced align, as a share of its own solve.
        breakdown = record["solve_breakdown"] or {}
        solve = sum(breakdown.values())
        for name, seconds in sorted(breakdown.items(), key=lambda kv: -kv[1]):
            print(f"  solve <- {name:<26} {seconds:>12.6g} s {100 * seconds / solve:5.1f} %")
    for problem in record["problems"][:20]:
        print(f"  FAILED: {problem}")
    print("environment " + json.dumps(record["environment"]))
    print("fingerprints " + json.dumps(
        {f"suite{k}": {key: s[key] for key in ("seed", "input_sha256", "pred_sha256")}
         for k, s in enumerate(record["suites"])}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark seqalign align end to end.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    results = ROOT / ".e2ebench" / "results"
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        _import_seqalign()
        results.mkdir(parents=True, exist_ok=True)
        record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            ROOT / ".e2ebench" / "work",
            spans_path=results / f"{stem}.spans.csv.gz" if args.trace else None,
        )
    except BenchmarkError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 2
    record["environment"] = checks.environment(ROOT, dict(os.environ, **WORKER_THREADS))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    _print_table(record)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
