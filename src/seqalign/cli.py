"""Command-line surface: synth / align / eval / sweep."""

import argparse
import sys

from . import pipeline
from .data import read_manifest
from .rounding import ROUNDINGS
from .supervision import SUPERVISION_MODES


def _add_manifest_flags(p):
    p.add_argument("--manifest", required=True, help="path to manifest.json")
    p.add_argument("--out-dir", required=True, help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqalign",
        description="Temporal alignment of ordered feature streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic stream suite")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--streams", type=int, default=4)
    p.add_argument("--sentences", type=int, default=5)
    p.add_argument("--intervals", type=int, default=60)
    p.add_argument("--text-dim", type=int, default=8)
    p.add_argument("--video-dim", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--concentration", type=float, default=5.0)
    p.add_argument("--supervised-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("align", help="solve a manifest and write predictions")
    _add_manifest_flags(p)
    p.add_argument("--rounding", choices=ROUNDINGS)
    p.add_argument("--supervision", choices=SUPERVISION_MODES)
    p.add_argument("--gap-tol", type=float, dest="gap_tol")
    p.add_argument("--max-iter", type=int, dest="max_iter")

    p = sub.add_parser("eval", help="score predictions against annotations")
    _add_manifest_flags(p)

    p = sub.add_parser("sweep", help="grid search with align+eval per seed")
    _add_manifest_flags(p)
    p.add_argument("--param", required=True, choices=list(pipeline.SWEEP_PARAMS))
    p.add_argument(
        "--values",
        required=True,
        help="comma-separated grid; alpha-beta points as alpha:beta pairs",
    )
    p.add_argument("--seeds", default="0", help="comma-separated seeds")

    return parser


def _parse_values(param, text):
    points = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if param == "alpha-beta":
            a, b = tok.split(":")
            points.append((float(a), float(b)))
        else:
            points.append(float(tok))
    return points


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            manifest = pipeline.run_synth(
                args.out_dir,
                n_streams=args.streams,
                supervised_fraction=args.supervised_fraction,
                sentences=args.sentences,
                intervals=args.intervals,
                text_dim=args.text_dim,
                video_dim=args.video_dim,
                noise=args.noise,
                concentration=args.concentration,
                seed=args.seed,
            )
            print(f"wrote {len(manifest.streams)} streams to {args.out_dir}")
        elif args.command == "align":
            manifest = read_manifest(args.manifest)
            overrides = {
                "rounding": args.rounding,
                "supervision": args.supervision,
                "gap_tol": args.gap_tol,
                "max_iter": args.max_iter,
            }
            report = pipeline.run_align(manifest, args.out_dir, overrides)
            print(
                f"solved {len(report['streams'])} streams: "
                f"objective {report['final_objective']:.6g}, "
                f"gap {report['final_gap']:.3g}, "
                f"iterations {report['iterations']}"
            )
        elif args.command == "eval":
            manifest = read_manifest(args.manifest)
            mean, rows = pipeline.run_eval(manifest, args.out_dir)
            for sid, score in rows:
                print(f"{sid}: {score:.4f} ({100 * score:.1f}%)")
            print(f"mean: {mean:.4f} ({100 * mean:.1f}%)")
        elif args.command == "sweep":
            manifest = read_manifest(args.manifest)
            values = _parse_values(args.param, args.values)
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
            rows = pipeline.run_sweep(manifest, args.param, values, seeds, args.out_dir)
            for point, mean, stderr, n in rows:
                label = ",".join(f"{v:g}" for v in point)
                print(f"{args.param}={label}: {mean:.4f} +/- {stderr:.4f} (n={n})")
    except (ValueError, OSError, KeyError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
