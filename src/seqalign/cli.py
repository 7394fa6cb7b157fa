"""Command-line surface: synth / align / eval / sweep."""

import argparse
import ctypes
import functools
import sys

import numpy as np

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

    # A flag left out is absent from the namespace, so data.SynthConfig's default holds.
    p = sub.add_parser(
        "synth", help="generate a synthetic stream suite", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument("--streams", type=int, dest="n_streams")
    p.add_argument("--sentences", type=int)
    p.add_argument("--intervals", type=int)
    p.add_argument("--text-dim", type=int)
    p.add_argument("--video-dim", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--concentration", type=float)
    p.add_argument("--supervised-fraction", type=float)
    p.add_argument("--seed", type=int)

    # A flag left out is absent from the namespace, so the manifest's value holds.
    p = sub.add_parser(
        "align", help="solve a manifest and write predictions", argument_default=argparse.SUPPRESS
    )
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


def _parse(flag, tok, kind):
    try:
        return kind(tok)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{flag}: {tok!r} is not {noun}") from None


def _parse_values(param, text):
    points = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if param == "alpha-beta":
            pair = tok.split(":")
            if len(pair) != 2:
                raise ValueError(f"--values: {tok!r} is not an alpha:beta pair")
            points.append(tuple(_parse("--values", t, float) for t in pair))
        else:
            points.append(_parse("--values", tok, float))
    return points


# glibc serves an allocation above its mmap threshold from a mapping of its
# own, and on the first free of one raises the threshold to that size (up to
# 32 MiB).  The iterate Y, the one (J, I) array of the solve (the gradient
# and the band are per-stream blocks), 20 MiB on kernel-16x250, then comes
# from the heap, whose freed memory stays resident and may be filled to
# whole huge pages by the kernel, so that one align's peak RSS differed by
# 18 MiB from run to run.  Fixed thresholds (trim at twice the mmap
# threshold, as glibc's own raise sets it) return every array of 4 MiB or
# more to the system when it is freed.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 << 20


@functools.cache  # once per process
def _unmap_large_arrays_on_free():
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


# A float that overflows, or an operation invalid on floats, raises instead of warning.
@np.errstate(over="raise", divide="raise", invalid="raise")
def main(argv=None):
    args = build_parser().parse_args(argv)
    _unmap_large_arrays_on_free()
    try:
        if args.command == "synth":
            cfg = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
            manifest = pipeline.run_synth(args.out_dir, **cfg)
            print(f"wrote {len(manifest.streams)} streams to {args.out_dir}")
        elif args.command == "align":
            manifest = read_manifest(args.manifest)
            paths = ("command", "manifest", "out_dir")
            flags = {k: v for k, v in vars(args).items() if k not in paths}
            report = pipeline.run_align(manifest, args.out_dir, flags)
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
            seeds = [_parse("--seeds", s, int) for s in args.seeds.split(",") if s.strip()]
            rows = pipeline.run_sweep(manifest, args.param, values, seeds, args.out_dir)
            for point, mean, stderr, n in rows:
                label = ",".join(f"{v:g}" for v in point)
                print(f"{args.param}={label}: {mean:.4f} +/- {stderr:.4f} (n={n})")
    except (ValueError, OSError, KeyError, ArithmeticError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
