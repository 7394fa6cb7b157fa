import json
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqalign import cli, pipeline
from seqalign.data import (
    Hyperparameters,
    Manifest,
    SynthConfig,
    interleave_background,
    read_annotations,
    read_manifest,
    read_matrix,
    read_predictions,
    synthesize,
    write_annotations,
    write_manifest,
    write_matrix,
    write_predictions,
)
from seqalign.polytope import AlignmentPath
from seqalign.rounding import ROUNDINGS
from seqalign.supervision import Annotation, annotation_to_path


class TestMatrixIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-8, 8, size=(4, 7))
        f = tmp_path / "m.csv"
        write_matrix(f, m)
        back = read_matrix(f)
        np.testing.assert_array_equal(back, m)  # exact, not approx

    def test_header_records_shape(self, tmp_path):
        f = tmp_path / "m.csv"
        write_matrix(f, np.zeros((2, 3)))
        assert f.read_text().splitlines()[0] == "2,3"

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_matrix(f)

    def test_ragged_row_rejected_with_line_number(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("2,3\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match=":3"):
            read_matrix(f)

    @pytest.mark.parametrize("token, error", [("x", "non-numeric token"),
                                              ("nan", "non-finite value")])
    def test_line_number_counts_blank_lines(self, tmp_path, token, error):
        f = tmp_path / "m.csv"
        f.write_text(f"2,2\n\n1.0,2.0\n3.0,{token}\n")
        with pytest.raises(ValueError, match=f":4: {error}"):
            read_matrix(f)

    def test_non_numeric_token_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n1.0,abc\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_matrix(f)

    def test_missing_rows_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("3,2\n1.0,2.0\n")
        with pytest.raises(ValueError, match="expected 3 data lines"):
            read_matrix(f)

    def test_column_count_checked_before_allocation(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("2,1000000000000\n1.0\n2.0\n")
        with pytest.raises(ValueError, match=":2: expected 1000000000000 values"):
            read_matrix(f)


class TestAnnotationIO:
    def test_round_trip(self, tmp_path):
        ann = Annotation(((1, 0, 3), (3, 4, 6)))
        f = tmp_path / "a.csv"
        write_annotations(f, ann)
        assert read_annotations(f).entries == ann.entries

    def test_missing_header_rejected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1,0,3\n")
        with pytest.raises(ValueError, match="header"):
            read_annotations(f)

    def test_unordered_triple_rejected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("j,i_start,i_end\n1,4,2\n")
        with pytest.raises(ValueError):
            read_annotations(f)

    def test_range_checked_when_sizes_given(self, tmp_path):
        f = tmp_path / "a.csv"
        write_annotations(f, Annotation(((1, 0, 6),)))
        read_annotations(f, j_count=2, i_count=6)
        with pytest.raises(ValueError):
            read_annotations(f, j_count=2, i_count=5)

    def test_line_number_counts_blank_lines(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("j,i_start,i_end\n\n1,x,3\n")
        with pytest.raises(ValueError, match=":3: non-integer token"):
            read_annotations(f)


class TestPredictionIO:
    def test_round_trip(self, tmp_path):
        p = AlignmentPath(np.array([0, 0, 1, 2, 2]), j_count=3)
        f = tmp_path / "p.csv"
        write_predictions(f, p)
        back = read_predictions(f)
        np.testing.assert_array_equal(back.assignment, p.assignment)
        assert back.j_count == 3

    def test_gap_in_indices_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("i,j\n0,0\n2,1\n")
        with pytest.raises(ValueError, match=":3"):
            read_predictions(f)

    def test_header_only_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("i,j\n")
        with pytest.raises(ValueError, match="no prediction lines"):
            read_predictions(f)

    def test_line_number_counts_blank_lines(self, tmp_path):
        f = tmp_path / "p.csv"
        # Column i is the i-th data line: the blank line takes no column.
        f.write_text("i,j\n0,0\n\n1,1\n")
        np.testing.assert_array_equal(read_predictions(f).assignment, [0, 1])
        f.write_text("i,j\n0,0\n\n1,x\n")
        with pytest.raises(ValueError, match=":4: malformed prediction line"):
            read_predictions(f)


# Tokens near the readers' edge cases: small and out-of-range integers,
# floats of every kind and numeric-looking noise.
_TOKEN = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.text(alphabet="0123456789-+.eEinfINFaN _x", max_size=6),
)
_LINE = st.lists(_TOKEN, max_size=5).map(",".join)


def _csv(*headers):
    """File bytes: a known header or a noise line, then noise lines, or raw bytes."""
    first = st.one_of(st.sampled_from(headers), _LINE) if headers else _LINE
    text = st.builds(lambda h, body: "\n".join([h, *body]), first, st.lists(_LINE, max_size=6))
    return st.one_of(
        text.map(str.encode),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=30).map(str.encode),
        st.binary(max_size=30),
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_RECORD = st.fixed_dictionaries(
    {},
    optional={
        key: st.one_of(st.text(max_size=6), _JSON)
        for key in ("id", "phi_path", "psi_path", "annotation_path", "supervised")
    },
)
_MANIFEST = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "streams": st.one_of(st.lists(st.one_of(_RECORD, _JSON), max_size=3), _JSON),
            "hyperparameters": st.one_of(st.dictionaries(st.text(max_size=6), _JSON), _JSON),
            "synth": _JSON,
        },
    ),
    _JSON,
).map(json.dumps).map(str.encode)

# The errors a reader may raise; cli.main reports each as one line with exit code 1.
_REPORTED = (ValueError, OSError, KeyError)
_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestReadersFuzz:
    """Any file content parses or raises one of the errors the CLI reports."""

    @_FUZZ
    @given(content=_csv("2,3", "0,0", "1,2"))
    def test_read_matrix(self, tmp_path, content):
        f = tmp_path / "m.csv"
        f.write_bytes(content)
        try:
            read_matrix(f)
        except _REPORTED:
            pass

    @_FUZZ
    @given(
        content=_csv("j,i_start,i_end"),
        sizes=st.none() | st.tuples(st.integers(0, 6), st.integers(0, 12)),
    )
    def test_read_annotations(self, tmp_path, content, sizes):
        f = tmp_path / "a.csv"
        f.write_bytes(content)
        j_count, i_count = sizes or (None, None)
        try:
            read_annotations(f, j_count=j_count, i_count=i_count)
        except _REPORTED:
            pass

    @_FUZZ
    @given(content=_csv("i,j"))
    def test_read_predictions(self, tmp_path, content):
        f = tmp_path / "p.csv"
        f.write_bytes(content)
        try:
            read_predictions(f)
        except _REPORTED:
            pass

    @_FUZZ
    @given(content=st.one_of(_MANIFEST, _csv()))
    def test_read_manifest(self, tmp_path, content):
        f = tmp_path / "manifest.json"
        f.write_bytes(content)
        try:
            # A manifest that loads has the shape load_streams walks, so
            # only the stream files' own errors can follow.
            pipeline.load_streams(read_manifest(f))
        except _REPORTED:
            pass


class TestInterleaveBackground:
    def test_layout(self):
        psi_raw = np.arange(6.0).reshape(2, 3)
        psi, background = interleave_background(psi_raw)
        assert psi.shape == (2, 7)
        assert background == frozenset({0, 2, 4, 6})
        np.testing.assert_array_equal(psi[:, 1::2], psi_raw)
        np.testing.assert_array_equal(psi[:, 0::2], 0.0)

    def test_single_sentence(self):
        psi, background = interleave_background(np.ones((3, 1)))
        assert psi.shape == (3, 3)
        assert background == frozenset({0, 2})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interleave_background(np.ones((3, 0)))


class TestSynthesize:
    def test_durations_partition_intervals(self):
        cfg = SynthConfig(sentences=4, intervals=20, seed=1)
        s = synthesize(cfg)
        assert s.durations.sum() == 20
        assert np.all(s.durations > 0)
        assert s.phi.shape == (8, 20)
        assert s.psi_raw.shape == (8, 4)
        # Annotation intervals tile [0, I) contiguously on odd rows.
        starts = [a for _, a, _ in s.annotation.entries]
        ends = [b for _, _, b in s.annotation.entries]
        assert starts[0] == 0 and ends[-1] == 20
        assert starts[1:] == ends[:-1]
        assert [j for j, _, _ in s.annotation.entries] == [1, 3, 5, 7]

    def test_zero_noise_repeats_sentence_image(self):
        cfg = SynthConfig(sentences=1, intervals=5, noise=0.0, seed=2)
        s = synthesize(cfg)
        # Every interval feature equals the single sentence's image.
        np.testing.assert_array_equal(s.phi, np.tile(s.phi[:, :1], (1, 5)))

    def test_fixed_seed_is_deterministic(self):
        a = synthesize(SynthConfig(seed=3))
        b = synthesize(SynthConfig(seed=3))
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.psi_raw, b.psi_raw)
        assert a.annotation.entries == b.annotation.entries

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(sentences=5, intervals=3)
        with pytest.raises(ValueError):
            SynthConfig(noise=-0.1)
        for bad in ({"n_streams": 0}, {"supervised_fraction": 1.5}, {"supervised_fraction": -0.5},
                    {"sentences": "2"}, {"seed": 1.0}, {"noise": float("nan")}):
            with pytest.raises(ValueError):
                SynthConfig(**bad)


class TestManifest:
    def test_defaults_merged(self):
        m = Manifest(streams=[], hyperparameters=Hyperparameters.from_json({"sigma": 3.0}))
        assert m.hyperparameters.sigma == 3.0
        assert m.hyperparameters.lam == 0.01
        assert m.hyperparameters.rounding == "model"

    @pytest.mark.parametrize(
        "hp",
        [{"lambda": None}, {"sigma": "x"}, {"alpha": True}, {"max_iter": 2.5},
         {"max_iter": -1}, {"mu": [2.0]}, {"mu_background": "1"}, {"rounding": "best"},
         {"supervision": None}, {"lamda": 5}, {"lambda": float("inf")},
         {"sigma": float("nan")}, {"lambda": 0}, {"sigma": 1e200}, {"sigma": 10**200},
         {"sigma": 10**400}, {"sigma": 1e-200}, {"mu": 0.5}, {"mu": -1, "mu_background": None},
         {"mu_background": 0}, {"alpha": -0.1}, {"beta": 2}, {"kappa": -1}, {"sigma": 0},
         {"sigma": -1}],
    )
    def test_bad_hyperparameter_values_rejected(self, tmp_path, hp):
        with pytest.raises(ValueError, match="hyperparameter"):
            Hyperparameters.from_json(hp)
        # read_manifest builds its record the same way, so it rejects them too.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"streams": [], "hyperparameters": hp}))
        with pytest.raises(ValueError, match="hyperparameter"):
            read_manifest(path)

    def test_round_trip(self, tmp_path):
        m = Manifest(
            streams=[{"id": "s", "phi_path": "s.phi.csv", "psi_path": "s.psi.csv"}],
            hyperparameters=Hyperparameters(alpha=0.2),
            synth={"n_streams": 1},
        )
        f = tmp_path / "manifest.json"
        write_manifest(f, m)
        back = read_manifest(f)
        assert back.streams == m.streams
        assert back.hyperparameters == m.hyperparameters
        assert back.synth == {"n_streams": 1}
        assert back.base_dir == tmp_path


class TestPipeline:
    def test_synth_writes_suite(self, tmp_path):
        manifest = pipeline.run_synth(
            tmp_path, n_streams=2, sentences=2, intervals=10, seed=5
        )
        assert len(manifest.streams) == 2
        for rec in manifest.streams:
            for key in ("phi_path", "psi_path", "annotation_path"):
                assert (tmp_path / rec[key]).exists()
        raw = json.loads((tmp_path / "manifest.json").read_text())
        assert raw["synth"]["intervals"] == 10

    def test_streams_share_one_generating_map(self, tmp_path):
        # With zero noise, phi columns of every stream are exact images of
        # sentence features under one common map, so lstsq from one stream
        # reconstructs another stream's phi exactly.
        manifest = pipeline.run_synth(
            tmp_path,
            n_streams=2,
            sentences=3,
            intervals=9,
            text_dim=2,
            video_dim=3,
            noise=0.0,
            seed=6,
        )
        streams = pipeline.load_streams(manifest)
        maps = []
        for s in streams:
            # Annotated intervals tile every column; label each with its sentence.
            labels = np.empty(s.i_count, dtype=int)
            for j, a, b in s.annotation.entries:
                labels[a:b] = (j - 1) // 2
            psi_raw = s.psi[:, 1::2]
            a_fit, *_ = np.linalg.lstsq(psi_raw[:, labels].T, s.phi.T, rcond=None)
            maps.append(a_fit.T)
        np.testing.assert_allclose(maps[0], maps[1], atol=1e-8)

    def test_infeasible_stream_reports_id(self, tmp_path):
        write_matrix(tmp_path / "s.phi.csv", np.zeros((2, 3)))
        write_matrix(tmp_path / "s.psi.csv", np.zeros((2, 2)))  # J=5 > I=3
        m = Manifest(
            streams=[{"id": "tiny", "phi_path": "s.phi.csv", "psi_path": "s.psi.csv"}],
            base_dir=tmp_path,
        )
        with pytest.raises(ValueError, match="stream tiny"):
            pipeline.load_streams(m)

    def test_hard_supervision_returns_annotation_expansion(self, tmp_path):
        manifest = pipeline.run_synth(
            tmp_path,
            n_streams=1,
            supervised_fraction=1.0,
            sentences=2,
            intervals=8,
            seed=7,
        )
        streams = pipeline.load_streams(manifest)
        _, _, preds = pipeline.align_streams(
            streams, replace(manifest.hyperparameters, supervision="hard")
        )
        s = streams[0]
        expect = annotation_to_path(s.annotation, s.j_count, s.i_count, s.background)
        np.testing.assert_array_equal(preds[0].assignment, expect.assignment)


# A hyperparameter value of any JSON type, numbers at the edges of the float range among them.
_HP_VALUE = st.one_of(
    st.sampled_from([1e308, 1e300, 1e200, 1e-160, 1e-300, 5e-324, 0.0, -0.0, -1e308, 10**200,
                     10**400, -(10**400), 0, -1, 8, 0.5]),
    st.floats(),
    st.integers(),
    st.none(),
    st.booleans(),
    st.sampled_from(("model", "nearest", "feature", "none", "soft", "hard")),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# align flags in the forms argparse accepts, "--gap-tol=-inf" among them.
_ALIGN_FLAGS = st.lists(
    st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "-1", "0", "1e-6"]).map(
            "--gap-tol={}".format
        ),
        st.sampled_from(["-1", "0", "3", str(10**30)]).map("--max-iter={}".format),
        st.sampled_from(["nearest", "feature", "model"]).map("--rounding={}".format),
        st.sampled_from(["none", "soft", "hard"]).map("--supervision={}".format),
    ),
    max_size=3,
)


class TestCli:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edit=st.dictionaries(st.sampled_from(list(Hyperparameters().to_json())), _HP_VALUE,
                                max_size=3),
           flags=_ALIGN_FLAGS)
    def test_align_fuzz_exits_0_or_prints_one_error_line(self, tmp_path, capsys, edit, flags):
        suite = tmp_path / "suite"
        if not suite.exists():
            pipeline.run_synth(suite, n_streams=2, sentences=2, intervals=6, seed=1,
                               supervised_fraction=0.5)
        raw = json.loads((suite / "manifest.json").read_text())
        raw["hyperparameters"].update(edit)
        path = suite / "fuzz.json"
        path.write_text(json.dumps(raw))
        argv = ["align", "--manifest", str(path), "--out-dir", str(tmp_path / "out")] + flags
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning is one more stderr line
            code = cli.main(argv)
        err = capsys.readouterr().err.splitlines()
        if code != 0:
            assert code == 1 and len(err) == 1 and re.fullmatch(r"\w+Error: .+", err[0]), err
        else:
            assert err == []

    @pytest.mark.parametrize(
        "argv, error",
        [(["align", "--manifest", "m.json", "--out-dir", "out", "--max-iter", "1e3"],
          "argument --max-iter: invalid int value: '1e3'"),
         (["synth", "--out-dir", "out", "--noise", "high"],
          "argument --noise: invalid float value: 'high'"),
         (["eval", "--out-dir", "out"], "the following arguments are required: --manifest")],
        ids=["bad-int", "bad-float", "missing-manifest"],
    )
    def test_a_flag_argparse_rejects_exits_1_with_one_line(
        self, tmp_path, monkeypatch, capsys, argv, error
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"ValueError: {error}"] and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["align", "-h"])
        assert e.value.code == 0 and "--manifest" in capsys.readouterr().out

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_synth_align_eval_smoke(self, tmp_path, capsys, rounding):
        suite = tmp_path / "suite"
        assert (
            cli.main(
                [
                    "synth",
                    "--out-dir",
                    str(suite),
                    "--streams",
                    "2",
                    "--sentences",
                    "2",
                    "--intervals",
                    "12",
                    "--noise",
                    "0.05",
                    "--seed",
                    "11",
                ]
            )
            == 0
        )
        run = tmp_path / "run"
        assert (
            cli.main(
                [
                    "align",
                    "--manifest",
                    str(suite / "manifest.json"),
                    "--out-dir",
                    str(run),
                    "--max-iter",
                    "300",
                    "--rounding",
                    rounding,
                ]
            )
            == 0
        )
        assert (run / "pred_stream_00.csv").exists()
        assert (run / "trace.csv").exists()
        report = json.loads((run / "report.json").read_text())
        assert report["converged"] and report["stop_reason"] == "gap_tol"
        for line in (run / "trace.csv").read_text().splitlines()[1:]:
            _, objective, gap, active_set, face_steps = line.split(",")
            float(objective), float(gap), int(active_set), int(face_steps)
        assert (
            cli.main(
                ["eval", "--manifest", str(suite / "manifest.json"), "--out-dir", str(run)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean:" in out
        assert (run / "scores.csv").exists()

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        code = cli.main(
            ["align", "--manifest", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "Error" in capsys.readouterr().err

    def test_eval_on_header_only_predictions_exits_1(self, tmp_path, capsys):
        pipeline.run_synth(tmp_path, n_streams=1, sentences=2, intervals=6, seed=1)
        (tmp_path / "pred_stream_00.csv").write_text("i,j\n")
        code = cli.main(
            ["eval", "--manifest", str(tmp_path / "manifest.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: ")

    def test_eval_of_a_suite_without_annotations_exits_1(self, tmp_path, capsys):
        pipeline.run_synth(tmp_path, n_streams=2, sentences=2, intervals=6, seed=1)
        manifest = tmp_path / "manifest.json"
        raw = json.loads(manifest.read_text())
        for stream in raw["streams"]:
            del stream["annotation_path"]
        manifest.write_text(json.dumps(raw))
        code = cli.main(["eval", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ValueError: no annotated streams to evaluate"]

    @pytest.mark.parametrize(
        "lines, error",
        [([f"{i},0" for i in range(7)], "stream stream_00: prediction has wrong length"),
         (["0,0", "1,2"], "pred_stream_00.csv:3: row 2 out of range"),
         (["0,0", "1,0", "2,0", "3,2"],
          "pred_stream_00.csv:5: row 2 after row 0: path steps must be 0 or 1")],
        ids=["wrong-length", "row-out-of-range", "step-of-two"],
    )
    def test_eval_of_a_malformed_prediction_exits_1(self, tmp_path, capsys, lines, error):
        # The stream has 8 intervals; a prediction's row is at most its column.
        pipeline.run_synth(tmp_path, n_streams=1, sentences=2, intervals=8, seed=1)
        (tmp_path / "pred_stream_00.csv").write_text("\n".join(["i,j", *lines]) + "\n")
        code = cli.main(
            ["eval", "--manifest", str(tmp_path / "manifest.json"), "--out-dir", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: ") and err[0].endswith(error), err
        assert not (tmp_path / "scores.csv").exists()

    def test_eval_of_a_path_that_stops_short_of_the_last_row_exits_1(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        assert cli.main(["synth", "--out-dir", str(suite), "--streams", "1", "--sentences", "3",
                         "--intervals", "12", "--seed", "0"]) == 0
        manifest = str(suite / "manifest.json")
        run = tmp_path / "run"
        assert cli.main(["align", "--manifest", manifest, "--out-dir", str(run)]) == 0
        # A valid path of 12 columns, but over 3 of the stream's 7 rows.
        rows = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        (run / "pred_stream_00.csv").write_text(
            "i,j\n" + "".join(f"{i},{j}\n" for i, j in enumerate(rows))
        )
        capsys.readouterr()
        assert cli.main(["eval", "--manifest", manifest, "--out-dir", str(run)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: stream stream_00: "), err
        assert "mean" not in captured.out and not (run / "scores.csv").exists()

    def test_report_timings_split_the_align(self, tmp_path):
        manifest = pipeline.run_synth(tmp_path / "suite", n_streams=2, sentences=2,
                                      intervals=12, seed=3)
        t0 = time.perf_counter()
        report = pipeline.run_align(manifest, tmp_path / "run")
        wall = time.perf_counter() - t0
        timings = report["timings"]
        keys = ["load_s", "assemble_s", "solve_s", "round_s", "write_s"]
        assert list(timings) == keys
        assert all(timings[k] >= 0 for k in keys)
        assert sum(timings.values()) <= wall
        written = json.loads((tmp_path / "run" / "report.json").read_text())
        assert written["timings"] == timings

    def test_report_records_blas_thread_variables(self, tmp_path, monkeypatch):
        manifest = pipeline.run_synth(tmp_path / "suite", n_streams=1, sentences=2,
                                      intervals=8, seed=3)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        pipeline.run_align(manifest, tmp_path / "run")
        written = json.loads((tmp_path / "run" / "report.json").read_text())
        assert written["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
        }

    def test_report_records_each_librarys_blas(self, tmp_path):
        manifest = pipeline.run_synth(tmp_path / "suite", n_streams=1, sentences=2,
                                      intervals=8, seed=3)
        pipeline.run_align(manifest, tmp_path / "run")
        written = json.loads((tmp_path / "run" / "report.json").read_text())
        for name, module in (("numpy", np), ("scipy", scipy)):
            blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert written["blas"][name] == f"{blas['name']} {blas['version']}"

    def test_report_records_the_final_active_set(self, tmp_path):
        manifest = pipeline.run_synth(tmp_path / "suite", n_streams=3, sentences=3,
                                      intervals=12, seed=5)
        report = pipeline.run_align(manifest, tmp_path / "run")
        written = json.loads((tmp_path / "run" / "report.json").read_text())
        trace = (tmp_path / "run" / "trace.csv").read_text().splitlines()
        last = dict(zip(trace[0].split(","), trace[-1].split(",")))
        assert written["active_set"] == report["active_set"] == int(last["active_set"])
        assert written["active_set"] >= 3  # at least one vertex per stream

    @pytest.mark.parametrize(
        "content",
        ["[]", '{"streams": 3}', '{"streams": [{"id": "a", "phi_path": 1, "psi_path": "b"}]}',
         '{"streams": [{"id": "a", "phi_path": "a", "psi_path": "b", "annotation_path": 3}]}',
         '{"streams": [], "hyperparameters": [1]}', "[" * 100_000],
        ids=["array", "int-streams", "int-path", "int-annotation-path", "list-hyperparameters",
             "deep-nesting"],
    )
    def test_malformed_manifest_exits_1(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(content)
        code = cli.main(["align", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: ")

    @pytest.mark.parametrize("command", ["align", "eval"])
    def test_repeated_stream_id_exits_1(self, tmp_path, capsys, command):
        # Predictions are files named by id: the second stream would overwrite
        # the first's, and eval would score both against it.
        suite = tmp_path / "suite"
        pipeline.run_synth(suite, n_streams=3, sentences=2, intervals=8, seed=1)
        path = suite / "manifest.json"
        raw = json.loads(path.read_text())
        raw["streams"][2]["id"] = "stream_00"
        path.write_text(json.dumps(raw))
        code = cli.main([command, "--manifest", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: "), err
        assert "'stream_00'" in err[0] and "streams[0]" in err[0] and "streams[2]" in err[0]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def run_edited(tmp_path, capsys, command, edit):
        """Exit code, stderr lines and predictions written of a command on an edited suite.

        edit(raw, suite) changes the manifest ``raw`` or the files of the
        2-stream suite in ``suite``; the command writes to tmp_path / "out".
        """
        suite = tmp_path / "suite"
        pipeline.run_synth(suite, n_streams=2, sentences=2, intervals=8, seed=1)
        path = suite / "manifest.json"
        raw = json.loads(path.read_text())
        edit(raw, suite)
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        code = cli.main([command, "--manifest", str(path), "--out-dir", str(out)])
        return code, capsys.readouterr().err.splitlines(), list(out.glob("pred_*.csv"))

    @pytest.mark.parametrize("sid", ["../escaped", "a/b", "", "a\0b"],
                             ids=["parent-dir", "slash", "empty", "nul"])
    @pytest.mark.parametrize("command", ["align", "eval"])
    def test_stream_id_that_is_not_a_plain_file_name_exits_1(self, tmp_path, capsys, command,
                                                             sid):
        # pred_<id>.csv must be one file in the output directory.
        code, err, preds = self.run_edited(
            tmp_path, capsys, command, lambda raw, suite: raw["streams"][1].update(id=sid))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("ValueError: ") and "streams[1]: 'id'" in err[0], err
        assert preds == []

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_supervised_that_is_not_a_boolean_exits_1(self, tmp_path, capsys, value):
        code, err, preds = self.run_edited(
            tmp_path, capsys, "align",
            lambda raw, suite: raw["streams"][1].update(supervised=value))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("ValueError: ") and "streams[1]: 'supervised'" in err[0], err
        assert preds == []

    @pytest.mark.parametrize("name, row, token",
                             [("psi", 1, "inf"), ("psi", 0, "nan"), ("phi", 2, "nan"),
                              ("phi", 0, "-inf")])
    def test_non_finite_feature_exits_1_naming_stream_file_and_line(self, tmp_path, capsys,
                                                                    name, row, token):
        def edit(raw, suite):
            f = suite / f"stream_01.{name}.csv"
            lines = f.read_text().splitlines()
            lines[row + 1] = lines[row + 1].rsplit(",", 1)[0] + f",{token}"
            f.write_text("\n".join(lines) + "\n")

        code, err, preds = self.run_edited(tmp_path, capsys, "align", edit)
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("ValueError: stream stream_01: "), err
        assert err[0].endswith(f"stream_01.{name}.csv:{row + 2}: non-finite value"), err
        assert preds == []
        assert not (tmp_path / "out").exists()  # made only once the solve has returned

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("1,5,5", 2, "row 1: empty interval [5, 5)"),
            ("1,-1,3", 2, "row 1: interval [-1, 3) starts before column 0"),
            ("1,0,5\n3,4,7", 3, "row 3: intervals out of order or overlapping"),
            ("1,0,3\n1,2,7", 3, "row 1: overlapping intervals"),
            ("1,0,5\n9,6,8", 3, "annotation (9,6,8) out of range for J=5, I=8"),
        ],
        ids=["empty", "negative-start", "out-of-order", "overlap", "out-of-range"],
    )
    @pytest.mark.parametrize("command", ["align", "eval"])
    def test_bad_annotation_entry_exits_1_naming_stream_file_and_line(self, tmp_path, capsys,
                                                                     command, body, line,
                                                                     message):
        def edit(raw, suite):
            (suite / "stream_00.gt.csv").write_text(f"j,i_start,i_end\n{body}\n")

        code, err, preds = self.run_edited(tmp_path, capsys, command, edit)
        gt = tmp_path / "suite" / "stream_00.gt.csv"
        assert code == 1
        assert err == [f"ValueError: stream stream_00: {gt}:{line}: {message}"]
        assert preds == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("supervision", ["soft", "hard"])
    def test_infeasible_annotation_exits_1_naming_the_stream(self, tmp_path, capsys,
                                                             supervision):
        def edit(raw, suite):
            # Row 1 confined to column 0, which every path gives to row 0.
            (suite / "stream_00.gt.csv").write_text("j,i_start,i_end\n1,0,1\n3,5,8\n")
            raw["streams"][0]["supervised"] = True
            raw["hyperparameters"]["supervision"] = supervision

        code, err, _ = self.run_edited(tmp_path, capsys, "align", edit)
        assert code == 1
        assert err == ["InfeasibleError: stream stream_00: "
                       "annotated intervals admit no monotone path"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["phi", "psi"])
    def test_feature_file_without_rows_exits_1(self, tmp_path, capsys, name):
        def edit(raw, suite):
            f = suite / f"stream_01.{name}.csv"
            columns = f.read_text().split("\n", 1)[0].split(",")[1]
            f.write_text(f"0,{columns}\n")

        code, err, preds = self.run_edited(tmp_path, capsys, "align", edit)
        assert code == 1
        assert err == [f"ValueError: stream stream_01: {name} has no rows"]
        assert preds == []

    def test_synth_too_few_intervals_for_the_background_rows_exits_1(self, tmp_path, capsys):
        # 5 sentences interleave to 11 rows, so 10 intervals admit no path.
        suite = tmp_path / "suite"
        argv = ["synth", "--out-dir", str(suite), "--sentences", "5", "--intervals", "10"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: "), err
        assert "intervals=10" in err[0] and "sentences=5" in err[0]
        assert not (suite / "manifest.json").exists()
        assert cli.main(argv[:-1] + ["11"]) == 0

    @pytest.mark.parametrize(
        "command, edit, error",
        [
            ("align", {"lambda": None}, "ValueError"),
            ("align", {"sigma": "x"}, "ValueError"),
            ("align", {"max_iter": None}, "ValueError"),
            ("align", {"max_iter": 2.5}, "ValueError"),
            ("align", {"kappa": [1]}, "ValueError"),
            ("align", {"beta": True}, "ValueError"),
            ("align", {"mu": "2"}, "ValueError"),
            ("align", {"rounding": "best"}, "ValueError"),
            ("align", {"supervision": "all"}, "ValueError"),
            ("align", {"mu": 2.0}, "ValueError"),
            ("align", {"lamda": 5}, "ValueError"),
            ("align", {"lambda": float("inf")}, "ValueError"),
            ("align", {"sigma": float("nan")}, "ValueError"),
            ("align", {"sigma": 1e-200}, "ValueError"),
            ("align", {"sigma": 1e200}, "ValueError"),
            # Finite values whose arithmetic overflows in the solve.
            ("align", {"mu": 1e300, "mu_background": None}, "FloatingPointError"),
            ("align", {"kappa": 1e300}, "FloatingPointError"),
            ("align", {"sigma": 1e-160}, "FloatingPointError"),
            ("align", {"lambda": 1e-300}, "LinAlgError"),
            ("sweep", 3, "ValueError"),
            ("sweep", {"n_streams": 1}, "ValueError"),
            ("sweep", "unknown-key", "ValueError"),
            ("sweep", "string-size", "ValueError"),
        ],
        ids=["null-lambda", "string-sigma", "null-max-iter", "fractional-max-iter",
             "list-kappa", "bool-beta", "string-mu", "unknown-rounding",
             "unknown-supervision", "mu-with-mu-background", "misspelt-lambda",
             "infinite-lambda", "nan-sigma", "underflowing-sigma", "overflowing-sigma",
             "huge-mu", "huge-kappa", "tiny-sigma", "tiny-lambda", "int-synth",
             "synth-missing-keys", "synth-unknown-key", "synth-string-size"],
    )
    @pytest.mark.filterwarnings("error")  # a warning is one more stderr line
    def test_malformed_manifest_values_exit_1(self, tmp_path, capsys, command, edit, error):
        # align edits the hyperparameters of a 1-stream suite, sweep its synth section.
        # The stream is supervised, so that kappa scales it.
        suite = tmp_path / "suite"
        pipeline.run_synth(suite, n_streams=1, sentences=2, intervals=6, seed=1,
                           supervised_fraction=1.0)
        path = suite / "manifest.json"
        raw = json.loads(path.read_text())
        if command == "align":
            raw["hyperparameters"].update(edit)
        elif edit == "unknown-key":
            raw["synth"]["seeds"] = 3
        elif edit == "string-size":
            raw["synth"]["sentences"] = "2"
        else:
            raw["synth"] = edit
        path.write_text(json.dumps(raw))
        argv = [command, "--manifest", str(path), "--out-dir", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "sigma", "--values", "2"]
        code = cli.main(argv)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"{error}: ")
        if error in ("FloatingPointError", "LinAlgError"):
            # The line names the stage, and every value the arithmetic read.
            assert " in assemble with " in err[0] or " in solve with " in err[0]
            for key, value in edit.items():
                assert f"{key}={value!r}" in err[0]

    @pytest.mark.parametrize("edit", [{"beta": 2}, {"kappa": -1}, {"lambda": 0}],
                             ids=["beta", "kappa", "lambda"])
    def test_range_error_precedes_reading_streams(self, tmp_path, capsys, edit):
        # The stream files do not exist: the range error must come first.
        manifest = tmp_path / "manifest.json"
        stream = {"id": "a", "phi_path": "a.phi.csv", "psi_path": "a.psi.csv"}
        manifest.write_text(json.dumps({"streams": [stream], "hyperparameters": edit}))
        code = cli.main(["align", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        key = next(iter(edit))
        assert len(err) == 1 and err[0].startswith("ValueError: ") and repr(key) in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--param", "sigma", "--values", "2", "--seeds", ""],
            ["sweep", "--param", "sigma", "--values", "2", "--seeds", "1,1"],
            ["sweep", "--param", "sigma", "--values", "1e200"],
            ["synth", "--streams", "0"],
            ["synth", "--supervised-fraction", "2"],
            ["align", "--max-iter", "-1"],
        ],
        ids=["sweep-empty-seeds", "sweep-repeated-seed", "sweep-overflowing-sigma",
             "synth-zero-streams", "synth-fraction-above-one", "align-negative-max-iter"],
    )
    def test_out_of_range_command_inputs_exit_1(self, tmp_path, capsys, argv):
        if argv[0] != "synth":
            pipeline.run_synth(tmp_path, n_streams=1, sentences=2, intervals=6, seed=1)
            argv = argv + ["--manifest", str(tmp_path / "manifest.json")]
        code = cli.main(argv + ["--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: ")

    @pytest.mark.parametrize(
        "flags, flag, token",
        [
            (["--param", "alpha-beta", "--values", "1"], "--values", "'1'"),
            (["--param", "alpha-beta", "--values", "0.1:0.2,1:2:3"], "--values", "'1:2:3'"),
            (["--param", "alpha-beta", "--values", "1:x"], "--values", "'x'"),
            (["--param", "sigma", "--values", "2,x"], "--values", "'x'"),
            (["--param", "sigma", "--values", "2", "--seeds", "0,x"], "--seeds", "'x'"),
        ],
        ids=["short-pair", "long-pair", "non-numeric-pair", "non-numeric-value",
             "non-integer-seed"],
    )
    def test_sweep_token_errors_name_flag_and_token(self, tmp_path, capsys, flags, flag, token):
        pipeline.run_synth(tmp_path, n_streams=1, sentences=2, intervals=6, seed=1)
        argv = ["sweep", "--manifest", str(tmp_path / "manifest.json"),
                "--out-dir", str(tmp_path / "out")]
        assert cli.main(argv + flags) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ValueError: ")
        assert flag in err[0] and token in err[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hard_supervised_align_passes_output_checks(self, tmp_path, seed):
        # The checks e2ebench makes on every align, on a smaller pinned-32x40:
        # half the streams admit one path each.
        suite = tmp_path / "suite"
        manifest = pipeline.run_synth(suite, n_streams=8, sentences=3, intervals=40,
                                      supervised_fraction=0.5, seed=seed)
        flags = ["--supervision", "hard", "--max-iter", "100", "--gap-tol", "1e-6",
                 "--rounding", "model"]
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            argv = ["align", "--manifest", str(suite / "manifest.json"), "--out-dir", str(run)]
            assert cli.main(argv + flags) == 0
        report = json.loads((runs[0] / "report.json").read_text())
        assert report["iterations"] <= 100 and report["stop_reason"] == "gap_tol"
        rows = [r.split(",") for r in (runs[0] / "trace.csv").read_text().splitlines()[1:]]
        objectives = [float(r[1]) for r in rows]
        gaps = [float(r[2]) for r in rows] + [report["final_gap"]]
        assert min(gaps) >= -1e-12
        assert all(b - a <= 1e-12 for a, b in zip(objectives, objectives[1:]))
        # The telemetry columns are integers, and repeat from align to align.
        traces = [(run / "trace.csv").read_text() for run in runs]
        assert traces[0] == traces[1]
        header, *lines = traces[0].splitlines()
        assert header == "iteration,objective,gap,active_set,face_steps"
        active_set, face_steps = zip(*((int(r[3]), int(r[4])) for r in rows))
        assert active_set[0] == 8 and all(a >= 8 for a in active_set)
        assert face_steps[-1] == 0 and all(s >= 0 for s in face_steps)
        # The first three columns are written as they were before the telemetry.
        hp = replace(manifest.hyperparameters, supervision="hard", max_iter=100, gap_tol=1e-6,
                     rounding="model")
        _, result, _ = pipeline.align_streams(pipeline.load_streams(manifest), hp)
        assert [",".join(r.split(",")[:3]) for r in lines] == [
            f"{t},{o!r},{g!r}"
            for t, (o, g) in enumerate(zip(result.objective_trace, result.gap_trace))
        ]
        for n in range(8):
            name = f"pred_stream_{n:02d}.csv"
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    def test_sweep_smoke(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        cli.main(
            [
                "synth",
                "--out-dir",
                str(suite),
                "--streams",
                "2",
                "--sentences",
                "2",
                "--intervals",
                "10",
                "--seed",
                "13",
            ]
        )
        out_dir = tmp_path / "sweep"
        code = cli.main(
            [
                "sweep",
                "--manifest",
                str(suite / "manifest.json"),
                "--out-dir",
                str(out_dir),
                "--param",
                "sigma",
                "--values",
                "2,8",
                "--seeds",
                "0,1",
            ]
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sigma,mean_jaccard,stderr,n_seeds"
        assert len(lines) == 3
        # One suite per seed, shared by every grid value.
        assert sorted(p.parent.name for p in out_dir.rglob("manifest.json")) == [
            "suite_seed_0",
            "suite_seed_1",
        ]
        for k in range(2):
            for seed in (0, 1):
                assert (out_dir / f"sigma_{k}" / f"seed_{seed}" / "scores.csv").exists()
                # Each suite and its runs record the suite's seed, not that of --manifest.
                report = json.loads((out_dir / f"sigma_{k}" / f"seed_{seed}" / "report.json")
                                    .read_text())
                assert report["hyperparameters"]["seed"] == seed
        for seed in (0, 1):
            raw = json.loads((out_dir / f"suite_seed_{seed}" / "manifest.json").read_text())
            assert raw["hyperparameters"]["seed"] == raw["synth"]["seed"] == seed

    def test_align_is_bit_deterministic(self, tmp_path):
        suite = tmp_path / "suite"
        pipeline.run_synth(suite, n_streams=2, sentences=2, intervals=12, seed=17)
        manifest = read_manifest(suite / "manifest.json")
        a, b = tmp_path / "a", tmp_path / "b"
        pipeline.run_align(manifest, a, overrides={"max_iter": 200})
        pipeline.run_align(manifest, b, overrides={"max_iter": 200})
        for n in range(2):
            name = f"pred_stream_{n:02d}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()
