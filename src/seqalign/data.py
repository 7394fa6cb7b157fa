"""File formats, background interleaving and synthetic stream generation.

All artifacts are headered comma-separated text so that desk-scale runs
stay human-inspectable.  Matrix values are written with Python's shortest
round-trip float rendering, so write/read cycles are bit-exact and runs
with a fixed seed produce bit-identical files.
"""

import json
import math
import sys
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .polytope import AlignmentPath
from .rounding import ROUNDINGS
from .supervision import SUPERVISION_MODES, Annotation, check_entry

ANNOTATION_HEADER = "j,i_start,i_end"
PREDICTION_HEADER = "i,j"


def write_matrix(path, m):
    m = np.asarray(m, dtype=np.float64)
    lines = [f"{m.shape[0]},{m.shape[1]}"]
    for row in m:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path):
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, malformed header")
    try:
        rows, cols = (int(tok) for tok in lines[0].split(","))
    except ValueError:
        raise ValueError(f"{path}:1: malformed header {lines[0]!r}") from None
    # The data lines with their line numbers; blank lines are skipped.
    body = [(k, ln) for k, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != rows:
        raise ValueError(f"{path}: expected {rows} data lines, found {len(body)}")
    if cols < 0:
        raise ValueError(f"{path}:1: negative column count {cols}")
    values = []
    for k, ln in body:
        toks = ln.split(",")
        if len(toks) != cols:
            raise ValueError(f"{path}:{k}: expected {cols} values, found {len(toks)}")
        try:
            values.append([float(t) for t in toks])
        except ValueError:
            raise ValueError(f"{path}:{k}: non-numeric token") from None
    # Allocated only now: the header's column count is not trusted until
    # the lines bear it out.
    m = np.array(values, dtype=np.float64).reshape(rows, cols)
    finite = np.isfinite(m).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{body[int(np.argmin(finite))][0]}: non-finite value")
    return m


def write_annotations(path, ann):
    lines = [ANNOTATION_HEADER]
    for j, a, b in ann.entries:
        lines.append(f"{j},{a},{b}")
    Path(path).write_text("\n".join(lines) + "\n")


def _nonblank_lines(path):
    """The (line number, line) pairs of a text file's non-blank lines, numbered from 1."""
    lines = Path(path).read_text().splitlines()
    return [(k, ln) for k, ln in enumerate(lines, start=1) if ln.strip()]


def read_annotations(path, j_count=None, i_count=None):
    lines = _nonblank_lines(path)
    if not lines or lines[0][1] != ANNOTATION_HEADER:
        raise ValueError(f"{path}: missing '{ANNOTATION_HEADER}' header")
    entries, prev = [], None
    for k, ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != 3:
            raise ValueError(f"{path}:{k}: expected 'j,i_start,i_end'")
        try:
            entry = tuple(int(t) for t in toks)
        except ValueError:
            raise ValueError(f"{path}:{k}: non-integer token") from None
        try:
            check_entry(entry, prev, j_count, i_count)
        except ValueError as e:
            raise ValueError(f"{path}:{k}: {e}") from None
        entries.append(entry)
        prev = entry
    return Annotation(tuple(entries))


def write_predictions(path, pred):
    lines = [PREDICTION_HEADER]
    for i, j in enumerate(pred.assignment):
        lines.append(f"{i},{j}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_predictions(path):
    lines = _nonblank_lines(path)
    if not lines or lines[0][1] != PREDICTION_HEADER:
        raise ValueError(f"{path}: missing '{PREDICTION_HEADER}' header")
    if len(lines) == 1:
        raise ValueError(f"{path}: no prediction lines")
    assignment = []
    for k, ln in lines[1:]:
        try:
            i, j = (int(t) for t in ln.split(","))
        except ValueError:
            raise ValueError(f"{path}:{k}: malformed prediction line") from None
        # Column i is the i-th data line, blank lines not counted.
        if i != len(assignment):
            raise ValueError(f"{path}:{k}: malformed prediction line")
        # A path starts at row 0 and steps by at most 1, so row j <= column i.
        if not 0 <= j <= i:
            raise ValueError(f"{path}:{k}: row {j} out of range")
        if assignment and j - assignment[-1] not in (0, 1):
            prev = assignment[-1]
            raise ValueError(f"{path}:{k}: row {j} after row {prev}: path steps must be 0 or 1")
        assignment.append(j)
    a = np.asarray(assignment, dtype=np.int64)
    return AlignmentPath(a, j_count=int(a[-1]) + 1)


def interleave_background(psi_raw):
    """Insert zero background columns around and between the K sentences.

    Returns (psi with 2K+1 columns, background index set {0, 2, ..., 2K});
    sentence k lands at column 2k+1.
    """
    psi_raw = np.asarray(psi_raw, dtype=np.float64)
    E, K = psi_raw.shape
    if K < 1:
        raise ValueError("need at least one sentence column")
    psi = np.zeros((E, 2 * K + 1))
    psi[:, 1::2] = psi_raw
    return psi, frozenset(range(0, 2 * K + 1, 2))


def _is_integer(v):
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_number(v):
    # A finite float, or an integer a float can hold: math.isfinite raises on larger ones.
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _key(f):
    """The manifest key of a record's field: its name, unless its metadata gives another."""
    return f.metadata.get("key", f.name)


def _check_types(record, kind):
    """Raise ValueError unless each field holds a value of its annotated type.

    An int field takes an integer, a float field a finite number and a
    ``float | None`` field either that or null; a bool is none of them.
    """
    for f in fields(record):
        v = getattr(record, f.name)
        if f.type is int and not _is_integer(v):
            raise ValueError(f"{kind} {_key(f)!r} must be an integer, got {v!r}")
        if f.type is float and not _is_number(v):
            raise ValueError(f"{kind} {_key(f)!r} must be a finite number, got {v!r}")
        if f.type == float | None and not (v is None or _is_number(v)):
            raise ValueError(f"{kind} {_key(f)!r} must be a finite number or null, got {v!r}")


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings of a synthetic suite and of each of its streams.

    A manifest's "synth" section is this record as a dict, in this order.
    """

    n_streams: int = 4
    supervised_fraction: float = 0.0
    sentences: int = 5
    intervals: int = 60
    text_dim: int = 8
    video_dim: int = 8
    noise: float = 0.1
    concentration: float = 5.0
    seed: int = 0

    def __post_init__(self):
        _check_types(self, "synth")
        if self.n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        if not 0.0 <= self.supervised_fraction <= 1.0:
            raise ValueError("supervised_fraction must lie in [0, 1]")
        if min(self.sentences, self.intervals, self.text_dim, self.video_dim) < 1:
            raise ValueError("all sizes must be positive")
        # Background interleaving gives each stream 2 sentences + 1 rows, each
        # of which needs an interval.
        if self.intervals < 2 * self.sentences + 1:
            raise ValueError(
                f"intervals must be at least 2 * sentences + 1 = {2 * self.sentences + 1}, "
                f"got intervals={self.intervals} for sentences={self.sentences}"
            )
        if self.noise < 0 or self.concentration <= 0:
            raise ValueError("noise must be >= 0 and concentration > 0")


@dataclass(frozen=True)
class Hyperparameters:
    """Settings of an align: the objective's weights, the rounding and the solve's budget.

    A manifest's "hyperparameters" section is this record as a dict in field
    order, keyed by field name but for ``lam``, whose key is "lambda".  Every
    range that depends on the values alone is checked here, before any stream
    file is read.  ``seed`` records the suite's synth seed; align ignores it.
    """

    lam: float = field(default=0.01, metadata={"key": "lambda"})  # ridge weight
    sigma: float = 8.0  # spread of the duration prior
    mu: float | None = None  # duration target of every row
    mu_background: float | None = 1.0  # duration target of the background rows
    alpha: float = 0.05  # weight of the band prior
    beta: float = 0.15  # half-width of the band
    kappa: float = 1.0  # feature scale of supervised streams
    rounding: str = "model"
    supervision: str = "soft"
    gap_tol: float = 1e-6
    max_iter: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_types(self, "hyperparameter")
        sigma2 = float(self.sigma) * float(self.sigma)  # it divides, so 0 and inf are out
        mu, mu_bg = self.mu, self.mu_background
        for key, value, ok, rule in (
            ("lambda", self.lam, self.lam > 0, "be positive"),
            ("sigma", self.sigma, self.sigma > 0 and 0 < sigma2 < math.inf,
             "be positive with a positive, finite square"),
            ("mu", mu, mu is None or mu > 0, "be positive or null"),
            ("mu_background", mu_bg, mu_bg is None or mu_bg > 0, "be positive or null"),
            ("mu_background", mu_bg, mu is None or mu_bg is None, "be null when mu is set"),
            ("alpha", self.alpha, self.alpha >= 0, "be non-negative"),
            ("beta", self.beta, 0 <= self.beta <= 1, "lie in [0, 1]"),
            ("kappa", self.kappa, self.kappa >= 0, "be non-negative"),
            ("rounding", self.rounding, self.rounding in ROUNDINGS, f"be one of {ROUNDINGS}"),
            ("supervision", self.supervision, self.supervision in SUPERVISION_MODES,
             f"be one of {SUPERVISION_MODES}"),
            ("max_iter", self.max_iter, self.max_iter >= 0, "be non-negative"),
        ):
            if not ok:
                raise ValueError(f"hyperparameter {key!r} must {rule}, got {value!r}")

    @classmethod
    def from_json(cls, section):
        """The record of a manifest's "hyperparameters" object; keys left out take the defaults."""
        names = {_key(f): f.name for f in fields(cls)}
        unknown = section.keys() - names.keys()
        if unknown:
            raise ValueError(f"unknown hyperparameters {sorted(unknown)}")
        return cls(**{names[k]: v for k, v in section.items()})

    def to_json(self):
        """The manifest's "hyperparameters" object, every key in field order."""
        return {_key(f): getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SynthStream:
    phi: np.ndarray  # (D, I)
    psi_raw: np.ndarray  # (E, K)
    annotation: Annotation  # in interleaved row indices (sentence k -> 2k+1)
    durations: np.ndarray  # (K,), sums to I


def _round_durations(weights, total):
    """Largest-remainder rounding of weights * total to integers summing to total."""
    scaled = weights * total
    base = np.floor(scaled).astype(int)
    short = total - base.sum()
    order = np.argsort(scaled - base)[::-1]
    base[order[:short]] += 1
    return base


def synthesize(config, rng=None, a_map=None):
    """Draw one stream: interval features are a noisy linear image of their sentence.

    Sentence features are spherical normal; durations follow a symmetric
    Dirichlet scaled to the interval count; each interval feature is
    A @ psi_sentence + noise.  The map A is drawn here unless passed in;
    streams of one suite must share A so that a single model can fit them.
    """
    rng = np.random.default_rng(config.seed if rng is None else rng)
    K, I = config.sentences, config.intervals
    E, D = config.text_dim, config.video_dim
    if a_map is None:
        a_map = rng.standard_normal((D, E)) / np.sqrt(E)
    psi_raw = rng.standard_normal((E, K))
    durations = None
    for _ in range(100):
        w = rng.dirichlet(np.full(K, config.concentration))
        d = _round_durations(w, I)
        if np.all(d > 0):
            durations = d
            break
    if durations is None:
        raise ValueError("could not draw positive durations in 100 attempts")
    labels = np.repeat(np.arange(K), durations)
    phi = a_map @ psi_raw[:, labels] + config.noise * rng.standard_normal((D, I))
    bounds = np.concatenate([[0], np.cumsum(durations)])
    entries = tuple(
        (2 * k + 1, int(bounds[k]), int(bounds[k + 1])) for k in range(K)
    )
    return SynthStream(
        phi=phi, psi_raw=psi_raw, annotation=Annotation(entries), durations=durations
    )


def check_synth(synth):
    """The SynthConfig of a manifest's "synth" section.

    Raises ValueError unless the section is one run_synth could have written.
    """
    if not isinstance(synth, dict):
        raise ValueError(f"the manifest's 'synth' section must be an object, got {synth!r}")
    expected = {f.name for f in fields(SynthConfig)}
    missing, unknown = expected - synth.keys(), synth.keys() - expected
    if missing:
        raise ValueError(f"'synth' lacks {sorted(missing)}")
    if unknown:
        raise ValueError(f"'synth' has unknown keys {sorted(unknown)}")
    return SynthConfig(**synth)


@dataclass
class Manifest:
    """Run description: stream files, the Hyperparameters of an align, a suite's synth section."""

    streams: list
    hyperparameters: Hyperparameters = Hyperparameters()
    synth: dict = None
    base_dir: Path = Path(".")

    def resolve(self, rel):
        return self.base_dir / rel


def read_manifest(path):
    """Load a manifest; a file of the wrong shape raises ValueError.

    The file must hold a JSON object whose "streams" is a list of objects,
    each naming "id", "phi_path" and "psi_path" as strings, no two the same
    "id", and whose "hyperparameters", if present, is an object.  An id is
    a plain file name: not empty, with no "/" or NUL.  "supervised", if
    present, is true or false.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    streams = raw.get("streams")
    if not isinstance(streams, list):
        raise ValueError(f"{path}: 'streams' must be a list")
    first = {}  # id -> index of the stream that first names it
    for k, rec in enumerate(streams):
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: streams[{k}] must be an object")
        for key in ("id", "phi_path", "psi_path"):
            if not isinstance(rec.get(key), str):
                raise ValueError(f"{path}: streams[{k}] needs a string {key!r}")
        if not isinstance(rec.get("annotation_path", ""), (str, type(None))):
            raise ValueError(f"{path}: streams[{k}]: 'annotation_path' must be a string")
        if not isinstance(rec.get("supervised", False), bool):
            raise ValueError(
                f"{path}: streams[{k}]: 'supervised' must be true or false, "
                f"got {rec['supervised']!r}"
            )
        # Predictions are written and read by id, as pred_<id>.csv in the
        # output directory: an id names one stream, and one file there.
        if not rec["id"] or "/" in rec["id"] or "\0" in rec["id"]:
            raise ValueError(
                f"{path}: streams[{k}]: 'id' must be a plain file name, got {rec['id']!r}"
            )
        j = first.setdefault(rec["id"], k)
        if j != k:
            raise ValueError(f"{path}: streams[{k}] repeats the id {rec['id']!r} of streams[{j}]")
    hp = raw.get("hyperparameters", {})
    if not isinstance(hp, dict):
        raise ValueError(f"{path}: 'hyperparameters' must be an object")
    return Manifest(
        streams=streams,
        hyperparameters=Hyperparameters.from_json(hp),
        synth=raw.get("synth"),
        base_dir=path.parent,
    )


def write_manifest(path, manifest):
    payload = {
        "streams": manifest.streams,
        "hyperparameters": manifest.hyperparameters.to_json(),
    }
    if manifest.synth is not None:
        payload["synth"] = manifest.synth
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
