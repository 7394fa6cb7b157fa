"""The benchmark's workloads: one synthetic suite shape per bottleneck.

Each workload is a ``run_synth`` configuration plus the ``seqalign align``
settings it is solved with.  The settings are always passed as flags, so a
change of the package defaults does not change the workload.  A run with
``--seed s`` generates ``suites`` independent suites with synthesis seeds
``s * suites + k``; quality metrics are averaged over them, so that one
draw of a small suite does not decide the run's figure.  README.md says why
each shape was chosen and which per-layer metric should move on it.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict  # keyword arguments of seqalign.pipeline.run_synth, minus the seed
    supervision: str
    max_iter: int
    suites: int

    def suite_seeds(self, seed):
        return [seed * self.suites + k for k in range(self.suites)]

    def align_flags(self):
        """The ``seqalign align`` flags this workload is solved with."""
        return [
            "--supervision", self.supervision,
            "--max-iter", str(self.max_iter),
            "--gap-tol", "1e-6",
            "--rounding", "model",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="converge-4x60",
            synth=dict(
                n_streams=4, sentences=5, intervals=60, noise=1.0, supervised_fraction=0.25
            ),
            supervision="soft",
            max_iter=2000,
            suites=6,
        ),
        Workload(
            name="kernel-16x250",
            synth=dict(n_streams=16, sentences=20, intervals=250, supervised_fraction=0.0),
            supervision="none",
            max_iter=8,
            suites=2,
        ),
        Workload(
            name="pinned-32x40",
            synth=dict(n_streams=32, sentences=3, intervals=40, supervised_fraction=0.5),
            supervision="hard",
            max_iter=100,
            suites=3,
        ),
    )
}


def tiny(workload):
    """The same workload at a size that aligns in well under a second."""
    synth = dict(
        workload.synth,
        n_streams=min(workload.synth["n_streams"], 4),
        sentences=2,
        intervals=12,
    )
    return replace(workload, synth=synth, max_iter=5)
