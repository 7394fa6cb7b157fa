"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest -q e2ebench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tmp_path):
    run._import_seqalign()
    spans = tmp_path / "spans.csv.gz"
    record = run.measure(tiny(WORKLOADS[name]), 3, 0.2, trace, tmp_path / "work", spans)
    line = run.result_line(record)

    assert line["correct"], record["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert spans.exists()
        assert line["metrics"]["solver.iterations"]["value"] >= 1
        assert line["metrics"]["kernels.dp_columns"]["value"] > 0
    else:
        assert line["metrics"]["setup_s"]["value"] > 0
        assert all(s["pred_sha256"] for s in record["suites"])
        assert line["metrics"]["solve_iters"]["value"] <= WORKLOADS[name].max_iter
    json.dumps(line)
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_unmeasured_layers_are_problems(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", (("seqalign.solver", "no_such_layer", "x.y", None),))
    recorder = tracing.Recorder()
    recorder.install()
    traced = recorder.wrap("a.b", lambda: 1, counter=lambda args, kwargs, result: 1 / 0)
    assert traced() == 1 and traced() == 1
    assert len(recorder.problems) == 2
    assert "no_such_layer" in recorder.problems[0] and "a.b" in recorder.problems[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "converge-4x60",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
