"""End-to-end runs: ingest, align, round, score, synthesize, sweep."""

import json
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as io
from .evaluation import jaccard_score
from .rounding import ROUNDINGS, round_feature, round_model, round_nearest
from .solver import solve
from .supervision import Stream, assemble


def load_streams(manifest):
    """Read every stream in the manifest and interleave background columns."""
    streams = []
    for rec in manifest.streams:
        sid = rec["id"]
        try:
            phi = io.read_matrix(manifest.resolve(rec["phi_path"]))
            psi_raw = io.read_matrix(manifest.resolve(rec["psi_path"]))
            psi, background = io.interleave_background(psi_raw)
            if psi.shape[1] > phi.shape[1]:
                raise ValueError(
                    f"infeasible stream: J={psi.shape[1]} > I={phi.shape[1]}"
                )
            ann = None
            if rec.get("annotation_path"):
                ann = io.read_annotations(
                    manifest.resolve(rec["annotation_path"]),
                    j_count=psi.shape[1],
                    i_count=phi.shape[1],
                )
            streams.append(
                Stream(
                    id=sid,
                    phi=phi,
                    psi=psi,
                    background=background,
                    annotation=ann,
                    supervised=bool(rec.get("supervised", False)),
                )
            )
        except ValueError as e:
            raise ValueError(f"stream {sid}: {e}") from None
    return streams


def round_stream(instance, result, n, rounding):
    """Round stream n of a solve result with the requested procedure."""
    layout = instance.layout
    i0, j0 = layout.i_offsets[n], layout.j_offsets[n]
    In, Jn = layout.i_sizes[n], layout.j_sizes[n]
    psi_n = instance.psi[:, j0 : j0 + Jn]
    phi_n = instance.phi[:, i0 : i0 + In]
    y_n = layout.block(result.y_relaxed, n)
    mask = instance.masks[n]
    if rounding == "nearest":
        return round_nearest(y_n, mask)
    if rounding == "feature":
        return round_feature(y_n, psi_n, mask)
    if rounding == "model":
        return round_model(result.w_star, psi_n, phi_n, mask)
    raise ValueError(f"unknown rounding {rounding!r}; expected one of {ROUNDINGS}")


def align_streams(streams, hp, timings=None):
    """Assemble, solve and round under hp; returns (instance, result, predictions).

    A dict passed as timings receives the seconds of the three stages as
    assemble_s, solve_s and round_s.
    """
    stage = "assemble"
    t0 = time.perf_counter()
    try:
        instance = assemble(streams, hp)
        t1 = time.perf_counter()
        stage = "solve"
        result = solve(instance, max_iter=hp.max_iter, gap_tol=hp.gap_tol)
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        # Re-raised as its type, with the values the user can change.
        named = ", ".join(f"{key}={value!r}" for key, value in hp.to_json().items())
        raise type(e)(f"{e} in {stage} with hyperparameters {named}") from None
    t2 = time.perf_counter()
    preds = [round_stream(instance, result, n, hp.rounding) for n in range(len(streams))]
    if timings is not None:
        timings.update(assemble_s=t1 - t0, solve_s=t2 - t1, round_s=time.perf_counter() - t2)
    return instance, result, preds


def run_align(manifest, out_dir, overrides=None):
    """The align command: solve a manifest and persist predictions and report.

    overrides maps Hyperparameters fields to values that replace the manifest's.
    The report's timings are the seconds of each stage in order: load_s,
    assemble_s, solve_s, round_s and write_s (predictions and trace.csv).
    """
    hp = replace(manifest.hyperparameters, **(overrides or {}))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    streams = load_streams(manifest)
    timings = {"load_s": time.perf_counter() - t0}
    _, result, preds = align_streams(streams, hp, timings)

    t0 = time.perf_counter()
    for s, p in zip(streams, preds):
        io.write_predictions(out_dir / f"pred_{s.id}.csv", p)
    trace_lines = ["iteration,objective,gap"]
    for t, (o, g) in enumerate(zip(result.objective_trace, result.gap_trace)):
        trace_lines.append(f"{t},{o!r},{g!r}")
    (out_dir / "trace.csv").write_text("\n".join(trace_lines) + "\n")
    timings["write_s"] = time.perf_counter() - t0
    report = {
        "hyperparameters": hp.to_json(),
        "streams": [s.id for s in streams],
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "final_objective": result.objective_trace[-1],
        "final_gap": result.gap_trace[-1],
        "timings": timings,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_eval(manifest, out_dir):
    """The eval command: score prediction files against manifest annotations."""
    out_dir = Path(out_dir)
    streams = load_streams(manifest)
    rows = []
    for s in streams:
        if s.annotation is None:
            continue
        pred = io.read_predictions(out_dir / f"pred_{s.id}.csv")
        if pred.i_count != s.i_count:
            raise ValueError(f"stream {s.id}: prediction has wrong length")
        if pred.j_count != s.j_count:
            raise ValueError(
                f"stream {s.id}: prediction ends on row {pred.j_count - 1}, "
                f"not on the last row {s.j_count - 1}"
            )
        rows.append((s.id, jaccard_score(pred, s.annotation, s.background)))
    if not rows:
        raise ValueError("no annotated streams to evaluate")
    lines = ["stream,jaccard"] + [f"{sid},{score!r}" for sid, score in rows]
    mean = float(np.mean([sc for _, sc in rows]))
    lines.append(f"mean,{mean!r}")
    (out_dir / "scores.csv").write_text("\n".join(lines) + "\n")
    return mean, rows


def run_synth(out_dir, hyperparameters=None, **cfg):
    """The synth command: generate a suite of streams plus its manifest.

    cfg holds the io.SynthConfig fields to set; the others keep its defaults.
    The manifest records hyperparameters (io.Hyperparameters, the defaults
    if None) with the suite's seed.
    """
    config = io.SynthConfig(**cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ss = np.random.SeedSequence(config.seed)
    # One linear map for the whole suite: streams share the ground-truth model.
    master = np.random.default_rng(ss)
    a_map = master.standard_normal((config.video_dim, config.text_dim)) / np.sqrt(config.text_dim)
    children = ss.spawn(config.n_streams)
    n_sup = int(round(config.supervised_fraction * config.n_streams))
    records = []
    for n in range(config.n_streams):
        s = io.synthesize(config, rng=np.random.default_rng(children[n]), a_map=a_map)
        sid = f"stream_{n:02d}"
        io.write_matrix(out_dir / f"{sid}.phi.csv", s.phi)
        io.write_matrix(out_dir / f"{sid}.psi.csv", s.psi_raw)
        io.write_annotations(out_dir / f"{sid}.gt.csv", s.annotation)
        records.append(
            {
                "id": sid,
                "phi_path": f"{sid}.phi.csv",
                "psi_path": f"{sid}.psi.csv",
                "annotation_path": f"{sid}.gt.csv",
                "supervised": n < n_sup,
            }
        )
    hp = replace(hyperparameters or io.Hyperparameters(), seed=config.seed)
    manifest = io.Manifest(
        streams=records, hyperparameters=hp, synth=asdict(config), base_dir=out_dir
    )
    io.write_manifest(out_dir / "manifest.json", manifest)
    return manifest


SWEEP_PARAMS = {"sigma": ("sigma",), "alpha-beta": ("alpha", "beta"), "kappa": ("kappa",)}


def run_sweep(manifest, param, values, seeds, out_dir):
    """The sweep command: align+eval per grid value per seed.

    The suite of each seed is synthesised once, from the manifest's synth
    section, into ``suite_seed_<s>/``; grid value k is aligned and scored
    on it into ``<param>_<k>/seed_<s>/``.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}")
    if not values:
        raise ValueError("empty sweep grid")
    if not seeds:
        raise ValueError("empty seed list")
    synth = asdict(io.check_synth(manifest.synth))
    keys = SWEEP_PARAMS[param]
    points = [value if isinstance(value, tuple) else (value,) for value in values]
    for value, point in zip(values, points):
        if len(point) != len(keys):
            raise ValueError(f"sweep value {value!r} does not match {keys}")
        # Its range is checked before any suite is written.
        replace(manifest.hyperparameters, **dict(zip(keys, point)))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suites = [
        run_synth(
            out_dir / f"suite_seed_{seed}",
            hyperparameters=manifest.hyperparameters,
            **{**synth, "seed": seed},
        )
        for seed in seeds
    ]

    rows = []
    for vi, point in enumerate(points):
        scores = []
        for seed, m in zip(seeds, suites):
            run_dir = out_dir / f"{param}_{vi}" / f"seed_{seed}"
            run_align(m, run_dir, overrides=dict(zip(keys, point)))
            mean, _ = run_eval(m, run_dir)
            scores.append(mean)
        mean = float(np.mean(scores))
        stderr = float(np.std(scores, ddof=1) / np.sqrt(len(scores))) if len(scores) > 1 else 0.0
        rows.append((point, mean, stderr, len(scores)))

    header = ",".join(keys) + ",mean_jaccard,stderr,n_seeds"
    lines = [header]
    for point, mean, stderr, n in rows:
        lines.append(",".join(repr(float(v)) for v in point) + f",{mean!r},{stderr!r},{n}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows
