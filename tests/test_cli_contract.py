"""The CLI's one-line error contract, as a property of mutated input suites.

Whatever is wrong with a suite's manifest, its CSV files or the prediction
files, ``seqalign align`` and ``seqalign eval`` exit 0 with nothing on
stderr, or exit 1 with one ``ErrorType: message`` line; no exception
escapes ``cli.main``, and a failed align leaves no output directory.  The
per-case tests in test_data.py pin the wording of each message; this one
checks the contract alone.
"""

import json
import re
import shutil
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqalign import cli, pipeline

SUITE_FILES = [f"stream_0{n}.{kind}.csv" for n in range(2) for kind in ("phi", "psi", "gt")]
PREDICTION_FILES = ["pred_stream_00.csv", "pred_stream_01.csv"]

_TOKENS = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "1e300", "-1e300", "1e-320", "", " ", "x", "0x1",
     "-1", "0", "1", "2", "11", "12", "99", "2.5", "1,2"]
)
_VALUES = st.one_of(
    st.sampled_from(
        [None, True, False, 0, -1, 1, 2.5, 1e300, -1e300, 1e-300, "", "x", "soft", "hard",
         "none", "nearest", "stream_00", "stream_00.phi.csv", [], {}, [1], {"a": 1}]
    ),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)


@st.composite
def mutations(draw):
    """One edit of the suite: (file name, operation, its arguments)."""
    target = draw(st.sampled_from(["manifest.json"] + SUITE_FILES + PREDICTION_FILES))
    if target == "manifest.json":
        op = draw(st.sampled_from(["set", "drop", "add"]))
        return target, op, (draw(st.integers(0, 999)), draw(_VALUES), draw(st.text(max_size=6)))
    op = draw(
        st.sampled_from(["token", "extra-column", "drop", "duplicate", "truncate", "delete"])
    )
    return target, op, (draw(st.integers(0, 999)), draw(st.integers(0, 999)), draw(_TOKENS))


def _containers(node):
    """Every (container, key) pair of a parsed JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _containers(node[key])


def _mutate_manifest(path, op, args):
    where, value, name = args
    raw = json.loads(path.read_text())
    pairs = list(_containers(raw))
    container, key = pairs[where % len(pairs)]
    if op == "set":
        container[key] = value
    elif op == "drop":
        del container[key]
    elif isinstance(container, dict):
        container[f"extra{name}"] = value
    else:
        container.append(value)
    path.write_text(json.dumps(raw))


def _mutate_csv(path, op, args):
    line, column, token = args
    if op == "delete":
        path.unlink()
        return
    text = path.read_text()
    if op == "truncate":
        path.write_text(text[: (line * 1000 + column) % (len(text) + 1)])
        return
    lines = text.split("\n")
    k = line % len(lines)
    if op == "token":
        tokens = lines[k].split(",")
        tokens[column % len(tokens)] = token
        lines[k] = ",".join(tokens)
    elif op == "extra-column":
        lines[k] += f",{token}"
    elif op == "drop":
        del lines[k]
    else:
        lines.insert(k, lines[k])
    path.write_text("\n".join(lines))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A 2-stream suite of 2 sentences x 12 intervals, and the predictions of its align."""
    root = tmp_path_factory.mktemp("contract")
    manifest = pipeline.run_synth(root / "suite", n_streams=2, sentences=2, intervals=12, seed=0)
    pipeline.run_align(manifest, root / "pred")
    return root


def assert_one_line_contract(code, err):
    assert code in (0, 1)
    if code == 0:
        assert err == []
    else:
        assert len(err) == 1 and re.match(r"^[A-Za-z]\w*: ", err[0]), err


_CASES = count()


@settings(
    max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=mutations())
def test_align_and_eval_keep_the_one_line_contract(base, tmp_path, capsys, mutation):
    case = tmp_path / f"case{next(_CASES)}"
    shutil.copytree(base / "suite", case / "suite")
    shutil.copytree(base / "pred", case / "pred")
    target, op, args = mutation
    path = case / ("pred" if target in PREDICTION_FILES else "suite") / target
    if target == "manifest.json":
        _mutate_manifest(path, op, args)
    else:
        _mutate_csv(path, op, args)
    manifest = str(case / "suite" / "manifest.json")
    capsys.readouterr()

    out = case / "out"
    code = cli.main(["align", "--manifest", manifest, "--out-dir", str(out)])
    assert_one_line_contract(code, capsys.readouterr().err.splitlines())
    if code == 1:
        assert not out.exists()

    code = cli.main(["eval", "--manifest", manifest, "--out-dir", str(case / "pred")])
    assert_one_line_contract(code, capsys.readouterr().err.splitlines())
