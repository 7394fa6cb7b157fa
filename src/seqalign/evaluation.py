"""Alignment scoring and the diagonal / random reference baselines."""

from itertools import groupby
from operator import itemgetter

import numpy as np

from .polytope import AlignmentPath


def jaccard_score(pred, gt, background_set=frozenset()):
    """Mean per-row precision of a predicted path against annotated rows.

    For each non-background row j of the annotation, the row score is
    |pred_j inter gt_j| / |pred_j| where pred_j is the set of columns the
    path assigns to j and gt_j the union of j's intervals; rows the path
    never visits score 0.  Returns the mean over scorable rows, in [0, 1].
    """
    assignment = pred.assignment
    scores = []
    for j, intervals in groupby(gt.entries, key=itemgetter(0)):
        if j in background_set:
            continue
        size = int(np.count_nonzero(assignment == j))
        # A row's intervals are disjoint, so their hits add up.
        hits = int(sum(np.count_nonzero(assignment[a:b] == j) for _, a, b in intervals))
        scores.append(hits / size if size else 0.0)
    if not scores:
        raise ValueError("no scorable rows: every annotated row is background")
    return float(np.mean(scores))


def diagonal_path(i_count, j_count):
    """Uniform path splitting the columns as evenly as possible across rows."""
    if j_count > i_count:
        raise ValueError(f"no path exists for J={j_count} > I={i_count}")
    assignment = (np.arange(i_count) * j_count) // i_count
    return AlignmentPath(assignment.astype(np.int64), j_count=j_count)


def random_path(i_count, j_count, rng):
    """Uniform sample over the C(I-1, J-1) vertices of the polytope.

    rng is a seed or a numpy Generator; results are deterministic for a
    fixed seed.
    """
    if j_count > i_count:
        raise ValueError(f"no path exists for J={j_count} > I={i_count}")
    rng = np.random.default_rng(rng)
    steps = rng.choice(i_count - 1, size=j_count - 1, replace=False) + 1
    assignment = np.zeros(i_count, dtype=np.int64)
    for s in np.sort(steps):
        assignment[s:] += 1
    return AlignmentPath(assignment, j_count=j_count)
