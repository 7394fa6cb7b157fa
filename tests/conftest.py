import os

import numpy as np
import scipy

from seqalign.data import Hyperparameters
from seqalign.pipeline import BLAS_THREAD_VARS, _blas
from seqalign.supervision import Stream, assemble


def pytest_terminal_summary(terminalreporter):
    """Name the BLAS builds and thread variables: the bit-for-bit checks hold for these only.

    A summary section, unlike the report header, is printed under -q too.
    """
    threads = ", ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    terminalreporter.section("blas")
    terminalreporter.write_line(f"numpy {_blas(np)}, scipy {_blas(scipy)}; {threads}")


def random_small_shapes(rng, max_i=8, max_j=4):
    i = int(rng.integers(1, max_i + 1))
    j = int(rng.integers(1, min(i, max_j) + 1))
    return i, j


def make_stream(rng, i_count, n_sentences, e_dim=3, d_dim=3, noise=0.3):
    """A small single stream with interleaved background columns."""
    from seqalign.data import interleave_background

    psi_raw = rng.standard_normal((e_dim, n_sentences))
    psi, background = interleave_background(psi_raw)
    phi = rng.standard_normal((d_dim, i_count))
    return Stream(id="s", phi=phi, psi=psi, background=background)


def make_instance(
    rng,
    i_count=6,
    n_sentences=1,
    e_dim=3,
    d_dim=3,
    lam=0.1,
    sigma=2.0,
    alpha=0.1,
    beta=0.3,
):
    stream = make_stream(rng, i_count, n_sentences, e_dim, d_dim)
    hp = Hyperparameters(lam=lam, sigma=sigma, alpha=alpha, beta=beta, mu_background=None)
    return assemble([stream], hp)
