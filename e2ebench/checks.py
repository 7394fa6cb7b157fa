"""Output checks, fingerprints and the environment record of a run.

The checks read only what ``seqalign align`` wrote (prediction files,
``trace.csv``, ``report.json``) plus the suite's own input files, and return
a list of problems, empty when the align is correct.
"""

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

# Same slack as the package's own monotonicity criterion (criterion 05).
TRACE_SLACK = 1e-12


def _header_cols(path):
    with open(path) as f:
        return int(f.readline().split(",")[1])


def check_align(out_dir, manifest_path, max_iter):
    """Problems with one align's outputs, and the report fields the metrics use."""
    from seqalign.data import read_manifest, read_predictions

    out_dir = Path(out_dir)
    problems = []
    try:
        report = json.loads((out_dir / "report.json").read_text())
        iterations = report["iterations"]
        gap = report["final_gap"]
        objective = report["final_objective"]
    except (OSError, ValueError, KeyError) as e:
        return [f"report.json: {e}"], None
    if not 0 <= iterations <= max_iter:
        problems.append(f"iterations {iterations} outside [0, {max_iter}]")

    try:
        rows = [r.split(",") for r in (out_dir / "trace.csv").read_text().splitlines()[1:] if r]
        objectives = [float(r[1]) for r in rows]
        gaps = [float(r[2]) for r in rows]
    except (OSError, ValueError, IndexError) as e:
        problems.append(f"trace.csv: {e}")
        objectives, gaps = [], [gap]
    if not min(gaps + [gap]) >= -TRACE_SLACK:
        problems.append(f"a duality gap is negative: {min(gaps + [gap])!r}")
    rises = [b - a for a, b in zip(objectives, objectives[1:]) if b - a > TRACE_SLACK]
    if rises:
        problems.append(f"objective trace rises {len(rises)} times, by up to {max(rises)!r}")

    manifest = read_manifest(manifest_path)
    for rec in manifest.streams:
        i_count = _header_cols(manifest.resolve(rec["phi_path"]))
        j_count = 2 * _header_cols(manifest.resolve(rec["psi_path"])) + 1
        path = out_dir / f"pred_{rec['id']}.csv"
        try:
            pred = read_predictions(path)
        except (OSError, ValueError) as e:
            problems.append(f"{path.name}: {e}")
            continue
        if pred.i_count != i_count or pred.j_count != j_count:
            problems.append(
                f"{path.name}: path is {pred.j_count}x{pred.i_count}, stream is {j_count}x{i_count}"
            )

    # The objective never rises, so every gap in the trace bounds the final
    # iterate's suboptimality; the smallest is its tightest certificate.
    fields = {
        "iterations": iterations,
        "final_gap": min(gaps or [gap]),
        "report_final_gap": gap,
        "final_objective": objective,
    }
    return problems, fields


def fingerprint(paths):
    """sha256 over the names and bytes of the given files, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root, worker_env):
    """What a reader needs to compare this run's figures with another's.

    ``worker_env`` is the environment the measuring processes ran with.
    """
    import numpy
    import scipy
    from seqalign import _kernels

    root = Path(root)
    return {
        "dp_backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
        "SEQALIGN_DISABLE_NUMBA": worker_env.get("SEQALIGN_DISABLE_NUMBA"),
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "thread_env": {v: worker_env.get(v) for v in _THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": fingerprint((root / "src" / "seqalign").glob("*.py")),
    }
