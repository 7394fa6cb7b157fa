"""Check that two copies of seqalign's source write the same outputs on the benchmark's suites.

Usage:

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are ``src`` directories, for example a parent
commit's, extracted with ``git archive <parent> src | tar -x -C <dir>``,
and the working tree's ``src``.  Each source synthesises the seed-0 suites
of every workload in e2ebench/workloads.py, as the benchmark synthesises
its inputs with the checkout's code, then aligns its own suite, with the
workload's ``align_flags()``, and evaluates it, every command in a
subprocess of its own with one BLAS thread.  Compared byte for byte: the
suite files, the exit codes and stderr, the prediction files,
``trace.csv``, ``report.json`` less its ``timings``, and ``scores.csv``.
Prints one line per suite and exits 1 on any difference.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Run in the subprocesses, with argv[1] the source directory: import seqalign
# from it alone, then synthesise a suite or run the CLI.
_IMPORT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import seqalign
if Path(sys.argv[1]).resolve() not in Path(seqalign.__file__).resolve().parents:
    sys.exit(f"seqalign imported from {seqalign.__file__}, not from {sys.argv[1]}")
"""
_SYNTH = _IMPORT + """
from seqalign.pipeline import run_synth
run_synth(sys.argv[2], seed=int(sys.argv[3]), **json.loads(sys.argv[4]))
"""
_CLI = _IMPORT + """
from seqalign.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _workloads():
    """e2ebench/workloads.py's WORKLOADS, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "e2ebench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _python(code, src, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ONE_THREAD)
    return subprocess.run(
        [sys.executable, "-c", code, str(src), *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def _outputs(src, manifest, out_dir, flags):
    """Exit codes, stderr and compared file contents of one align and its eval."""
    align = _python(_CLI, src, "align", "--manifest", manifest, "--out-dir", out_dir, *flags)
    run = {"align": (align.returncode, align.stderr)}
    if align.returncode == 0:
        ev = _python(_CLI, src, "eval", "--manifest", manifest, "--out-dir", out_dir)
        run["eval"] = (ev.returncode, ev.stderr)
    if out_dir.exists():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            if path.name == "report.json":
                report = json.loads(data)
                report.pop("timings")
                data = json.dumps(report, sort_keys=True)
            run[path.name] = data
    return run


def _synth_and_outputs(src, root, k, side, seed, workload):
    """One source's synthesis of a suite, its files, and _outputs of its align and eval."""
    suite = root / f"suite{k}-{side}"
    synth = _python(_SYNTH, src, suite, seed, json.dumps(workload.synth))
    run = {"synth": (synth.returncode, synth.stderr)}
    if synth.returncode == 0:
        run.update({f"suite/{p.name}": p.read_bytes() for p in sorted(suite.iterdir())})
        out_dir = root / f"out{k}-{side}"
        run.update(_outputs(src, suite / "manifest.json", out_dir, workload.align_flags()))
    return run


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv[1:])
    differs = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for workload in _workloads().values():
            for k, seed in enumerate(workload.suite_seeds(0)):
                name = f"{workload.name} suite {k} (synth seed {seed})"
                a, b = (
                    _synth_and_outputs(src, tmp / workload.name, k, side, seed, workload)
                    for side, src in (("parent", parent), ("change", change))
                )
                failed = [run["synth"][1].strip() for run in (a, b) if run["synth"][0]]
                if failed:
                    print(f"{name}: synthesis failed: {failed[0]}")
                    differs += 1
                    continue
                unequal = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
                suite_files = sum(key.startswith("suite/") for key in a)
                files = len(a) - suite_files - sum(key in ("synth", "align", "eval") for key in a)
                if unequal:
                    differs += 1
                    print(f"{name}: DIFFERS in {', '.join(unequal)}")
                else:
                    print(f"{name}: identical, {suite_files} suite files, "
                          f"align exit {a['align'][0]}, {files} files")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
