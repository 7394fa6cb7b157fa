"""Semi-supervised instance assembly: annotations, masks and feature scaling.

Supervision enters the problem in two ways: ground-truth interval
annotations become cell masks on the assignment (hard: the block is pinned
to one vertex; soft: each annotated row may only occupy columns inside its
interval), and supervised streams' features are scaled by kappa so their
squared loss is weighted by kappa^2.
"""

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .core import augment_affine, compute_q
from .polytope import InfeasibleError, StreamLayout, band_indicator, minimize_linear
from .solver import ProblemInstance

SUPERVISION_MODES = ("none", "soft", "hard")


def check_entry(entry, prev=None, j_count=None, i_count=None):
    """Raise ValueError unless the annotation entry (j, i0, i1) may follow the entry prev.

    prev is the entry before it, None for the first.  Entries are ordered
    by row, and a row's intervals by start, without overlap.  With j_count
    and i_count, the entry must also lie inside a (J, I) stream.
    """
    j, a, b = entry
    prev_j, _, prev_end = prev or (-1, -1, -1)
    if a >= b:
        raise ValueError(f"row {j}: empty interval [{a}, {b})")
    if a < 0:
        raise ValueError(f"row {j}: interval [{a}, {b}) starts before column 0")
    if j < prev_j or (j > prev_j and a < prev_end):
        raise ValueError(f"row {j}: intervals out of order or overlapping")
    if j == prev_j and a < prev_end:
        raise ValueError(f"row {j}: overlapping intervals")
    if j_count is not None and not (0 <= j < j_count and 0 <= a < b <= i_count):
        raise ValueError(f"annotation ({j},{a},{b}) out of range for J={j_count}, I={i_count}")


@dataclass(frozen=True)
class Annotation:
    """Ground-truth intervals: (row j, start i0, end i1), 0-based, end-exclusive."""

    entries: tuple  # of (j, i0, i1)

    def __post_init__(self):
        entries = tuple((int(j), int(a), int(b)) for j, a, b in self.entries)
        object.__setattr__(self, "entries", entries)
        self.validate_range()

    def validate_range(self, j_count=None, i_count=None):
        """Check every entry with check_entry, inside a (J, I) stream when sizes are given."""
        prev = None
        for entry in self.entries:
            check_entry(entry, prev, j_count, i_count)
            prev = entry


@dataclass(frozen=True)
class Stream:
    """One (video, text) pair ready for assembly.

    phi is the raw (D, I) interval feature matrix; psi the (E, J) text
    matrix with background zero-columns already interleaved; background
    holds the interleaved background row indices.
    """

    id: str
    phi: np.ndarray
    psi: np.ndarray
    background: frozenset = frozenset()
    annotation: Annotation = None
    supervised: bool = False

    @property
    def i_count(self):
        return self.phi.shape[1]

    @property
    def j_count(self):
        return self.psi.shape[1]


def _interval_mask(ann, j_count, i_count, background_set):
    """The mask that confines annotated non-background rows to their intervals, unchecked."""
    ann.validate_range(j_count, i_count)
    mask = np.zeros((j_count, i_count), dtype=bool)
    for j, intervals in groupby(ann.entries, key=itemgetter(0)):
        if j in background_set:
            continue
        mask[j] = True
        for _, a, b in intervals:
            mask[j, a:b] = False
    return mask


def _feasible_minimizer(cost, mask):
    """minimize_linear(cost, mask)'s path; InfeasibleError names the annotation if none exists."""
    try:
        path, _ = minimize_linear(cost, mask)
    except InfeasibleError:
        raise InfeasibleError("annotated intervals admit no monotone path") from None
    return path


def build_interval_mask(ann, j_count, i_count, background_set=frozenset()):
    """Soft supervision: annotated non-background rows confined to their intervals."""
    mask = _interval_mask(ann, j_count, i_count, background_set)
    _feasible_minimizer(np.zeros((j_count, i_count)), mask)
    return mask


def fix_assignment_mask(y_s):
    """Hard supervision: forbid every cell off the given path."""
    mask = np.ones((y_s.j_count, y_s.i_count), dtype=bool)
    mask[y_s.assignment, np.arange(y_s.i_count)] = False
    return mask


def annotation_to_path(ann, j_count, i_count, background_set=frozenset()):
    """Canonical path expansion of an annotation.

    Among paths respecting the interval mask, picks the one maximizing the
    number of columns placed inside annotated intervals (background rows
    absorb the rest), deterministically via the oracle's tie-breaking.  The
    one DP of the oracle is also the mask's feasibility check.
    """
    mask = _interval_mask(ann, j_count, i_count, background_set)
    reward = np.zeros((j_count, i_count))
    for j, a, b in ann.entries:
        if j not in background_set:
            reward[j, a:b] = -1.0
    return _feasible_minimizer(reward, mask)


def resolve_mu(layout, backgrounds, mu=None, mu_background=None):
    """Per-row duration targets for the concatenated problem.

    Default: I_n / J_n for every row of stream n.  A scalar mu applies to
    all rows.  mu_background sets background rows explicitly; sentence
    rows then share the remaining mass (I_n - B_n * mu_background) / S_n.
    The two are exclusive: mu with mu_background set raises ValueError.
    """
    if mu is not None and mu_background is not None:
        raise ValueError(
            "mu and mu_background are exclusive; set mu_background to null to use mu"
        )
    out = np.empty(layout.j_total)
    for n in range(layout.n_streams):
        I, J = layout.i_sizes[n], layout.j_sizes[n]
        j0 = layout.j_offsets[n]
        if mu_background is not None:
            bg = backgrounds[n]
            n_bg = len(bg)
            n_sent = J - n_bg
            if n_sent <= 0:
                raise ValueError(f"stream {n}: no sentence rows")
            mu_sent = (I - n_bg * mu_background) / n_sent
            if mu_sent <= 0:
                raise ValueError(f"stream {n}: mu_background leaves no sentence mass")
            row_mu = np.full(J, mu_sent)
            row_mu[sorted(bg)] = mu_background
        elif mu is not None:
            row_mu = np.full(J, float(mu))
        else:
            row_mu = np.full(J, I / J)
        out[j0 : j0 + J] = row_mu
    return out


def assemble(streams, hp):
    """Build a ProblemInstance from a list of streams under data.Hyperparameters hp.

    phi is augmented with a row of ones.  Supervised streams have psi and
    phi scaled by hp.kappa and carry either a soft interval mask or
    (hp.supervision "hard") a mask that admits only the ground-truth path
    derived from their annotation; "none" ignores annotations entirely.
    """
    if not streams:
        raise ValueError("at least one stream is required")
    e_dims = {s.psi.shape[0] for s in streams}
    d_dims = {s.phi.shape[0] for s in streams}
    if len(e_dims) != 1 or len(d_dims) != 1:
        raise ValueError("inconsistent feature dimensions across streams")

    phis, psis, masks = [], [], []
    for s in streams:
        phi = augment_affine(s.phi)
        psi = np.asarray(s.psi, dtype=np.float64)
        if s.supervised and hp.supervision != "none":
            if s.annotation is None:
                raise ValueError(f"stream {s.id}: supervised but has no annotation")
            phi = hp.kappa * phi
            psi = hp.kappa * psi
            try:
                if hp.supervision == "hard":
                    y_s = annotation_to_path(s.annotation, s.j_count, s.i_count, s.background)
                    masks.append(fix_assignment_mask(y_s))
                else:
                    masks.append(
                        build_interval_mask(s.annotation, s.j_count, s.i_count, s.background)
                    )
            except InfeasibleError as e:
                raise InfeasibleError(f"stream {s.id}: {e}") from None
        else:
            masks.append(None)
        phis.append(phi)
        psis.append(psi)

    layout = StreamLayout(
        i_sizes=[s.i_count for s in streams], j_sizes=[s.j_count for s in streams]
    )
    phi_all = np.hstack(phis)
    psi_all = np.hstack(psis)
    return ProblemInstance(
        psi=psi_all,
        phi=phi_all,
        layout=layout,
        kernel=compute_q(phi_all, hp.lam),
        mu=resolve_mu(layout, [s.background for s in streams], hp.mu, hp.mu_background),
        sigma=hp.sigma,
        alpha=hp.alpha,
        band=tuple(band_indicator(s.j_count, s.i_count, hp.beta) for s in streams),
        masks=tuple(masks),
    )
