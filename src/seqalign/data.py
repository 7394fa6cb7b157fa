"""File formats, background interleaving and synthetic stream generation.

All artifacts are headered comma-separated text so that desk-scale runs
stay human-inspectable.  Matrix values are written with Python's shortest
round-trip float rendering, so write/read cycles are bit-exact and runs
with a fixed seed produce bit-identical files.
"""

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .rounding import ROUNDINGS
from .supervision import SUPERVISION_MODES, Annotation

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
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != rows:
        raise ValueError(f"{path}: expected {rows} data lines, found {len(body)}")
    if cols < 0:
        raise ValueError(f"{path}:1: negative column count {cols}")
    values = []
    for r, ln in enumerate(body):
        toks = ln.split(",")
        if len(toks) != cols:
            raise ValueError(f"{path}:{r + 2}: expected {cols} values, found {len(toks)}")
        try:
            values.append([float(t) for t in toks])
        except ValueError:
            raise ValueError(f"{path}:{r + 2}: non-numeric token") from None
    # Allocated only now: the header's column count is not trusted until
    # the lines bear it out.
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def write_annotations(path, ann):
    lines = [ANNOTATION_HEADER]
    for j, a, b in ann.entries:
        lines.append(f"{j},{a},{b}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_annotations(path, j_count=None, i_count=None):
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != ANNOTATION_HEADER:
        raise ValueError(f"{path}: missing '{ANNOTATION_HEADER}' header")
    entries = []
    for k, ln in enumerate(lines[1:], start=2):
        toks = ln.split(",")
        if len(toks) != 3:
            raise ValueError(f"{path}:{k}: expected 'j,i_start,i_end'")
        try:
            entries.append(tuple(int(t) for t in toks))
        except ValueError:
            raise ValueError(f"{path}:{k}: non-integer token") from None
    ann = Annotation(tuple(entries))
    if j_count is not None and i_count is not None:
        ann.validate_range(j_count, i_count)
    return ann


def write_predictions(path, pred):
    lines = [PREDICTION_HEADER]
    for i, j in enumerate(pred.assignment):
        lines.append(f"{i},{j}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_predictions(path):
    from .polytope import AlignmentPath

    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != PREDICTION_HEADER:
        raise ValueError(f"{path}: missing '{PREDICTION_HEADER}' header")
    if len(lines) == 1:
        raise ValueError(f"{path}: no prediction lines")
    assignment = []
    for k, ln in enumerate(lines[1:], start=2):
        try:
            i, j = (int(t) for t in ln.split(","))
        except ValueError:
            raise ValueError(f"{path}:{k}: malformed prediction line") from None
        if i != k - 2:
            raise ValueError(f"{path}:{k}: malformed prediction line")
        # A path starts at row 0 and steps by at most 1, so row j <= column i.
        if not 0 <= j <= i:
            raise ValueError(f"{path}:{k}: row {j} out of range")
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
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and not _is_integer(v):
                raise ValueError(f"synth {f.name!r} must be an integer, got {v!r}")
            if f.type is float and not _is_number(v):
                raise ValueError(f"synth {f.name!r} must be a finite number, got {v!r}")
        if self.n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        if not 0.0 <= self.supervised_fraction <= 1.0:
            raise ValueError("supervised_fraction must lie in [0, 1]")
        if min(self.sentences, self.intervals, self.text_dim, self.video_dim) < 1:
            raise ValueError("all sizes must be positive")
        if self.sentences > self.intervals:
            raise ValueError("sentences must not exceed intervals")
        if self.noise < 0 or self.concentration <= 0:
            raise ValueError("noise must be >= 0 and concentration > 0")


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


DEFAULT_HYPERPARAMETERS = {
    "lambda": 0.01,
    "sigma": 8.0,
    "mu": None,
    "mu_background": 1.0,
    "alpha": 0.05,
    "beta": 0.15,
    "kappa": 1.0,
    "rounding": "model",
    "supervision": "soft",
    "gap_tol": 1e-6,
    "max_iter": 2000,
    "seed": 0,
}


def check_hyperparameters(hp):
    """Raise ValueError for an unknown hyperparameter or one whose value has the wrong type.

    Numbers must be finite.  Ranges (sigma > 0, beta in [0, 1], ...) are
    checked where each value is used.
    """
    unknown = hp.keys() - DEFAULT_HYPERPARAMETERS.keys()
    if unknown:
        raise ValueError(f"unknown hyperparameters {sorted(unknown)}")
    for key in ("lambda", "sigma", "alpha", "beta", "kappa", "gap_tol"):
        if not _is_number(hp[key]):
            raise ValueError(f"hyperparameter {key!r} must be a finite number, got {hp[key]!r}")
    for key in ("mu", "mu_background"):
        if hp[key] is not None and not _is_number(hp[key]):
            raise ValueError(
                f"hyperparameter {key!r} must be a finite number or null, got {hp[key]!r}"
            )
    if not _is_integer(hp["max_iter"]) or hp["max_iter"] < 0:
        raise ValueError(
            f"hyperparameter 'max_iter' must be a non-negative integer, got {hp['max_iter']!r}"
        )
    for key, allowed in (("rounding", ROUNDINGS), ("supervision", SUPERVISION_MODES)):
        if hp[key] not in allowed:
            raise ValueError(f"hyperparameter {key!r} must be one of {allowed}, got {hp[key]!r}")


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
    """Run description: stream files plus global hyperparameters.

    Unspecified hyperparameters take DEFAULT_HYPERPARAMETERS; the merged
    values are checked by check_hyperparameters.
    """

    streams: list
    hyperparameters: dict = field(default_factory=dict)
    synth: dict = None
    base_dir: Path = Path(".")

    def __post_init__(self):
        hp = dict(DEFAULT_HYPERPARAMETERS)
        hp.update(self.hyperparameters)
        check_hyperparameters(hp)
        self.hyperparameters = hp

    def resolve(self, rel):
        return self.base_dir / rel


def read_manifest(path):
    """Load a manifest; a file of the wrong shape raises ValueError.

    The file must hold a JSON object whose "streams" is a list of objects,
    each naming "id", "phi_path" and "psi_path" as strings, and whose
    "hyperparameters", if present, is an object.
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
    for k, rec in enumerate(streams):
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: streams[{k}] must be an object")
        for key in ("id", "phi_path", "psi_path"):
            if not isinstance(rec.get(key), str):
                raise ValueError(f"{path}: streams[{k}] needs a string {key!r}")
        if not isinstance(rec.get("annotation_path", ""), (str, type(None))):
            raise ValueError(f"{path}: streams[{k}]: 'annotation_path' must be a string")
    hp = raw.get("hyperparameters", {})
    if not isinstance(hp, dict):
        raise ValueError(f"{path}: 'hyperparameters' must be an object")
    return Manifest(
        streams=streams,
        hyperparameters=hp,
        synth=raw.get("synth"),
        base_dir=path.parent,
    )


def write_manifest(path, manifest):
    payload = {
        "streams": manifest.streams,
        "hyperparameters": manifest.hyperparameters,
    }
    if manifest.synth is not None:
        payload["synth"] = manifest.synth
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
