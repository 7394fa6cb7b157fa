import numpy as np
import pytest

from seqalign.core import compute_q, discriminative_cost
from seqalign.polytope import AlignmentPath, InfeasibleError
from seqalign.supervision import (
    Annotation,
    Stream,
    annotation_to_path,
    assemble,
    build_interval_mask,
    fix_assignment_mask,
    resolve_mu,
)

from conftest import make_stream
from oracles import enumerate_paths


class TestAnnotation:
    def test_normalizes_and_orders(self):
        ann = Annotation(((0, 0, 2), (1, 2, 4)))
        assert ann.entries == ((0, 0, 2), (1, 2, 4))
        assert ann.rows() == {0: {0, 1}, 1: {2, 3}}

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Annotation(((0, 3, 3),))

    def test_out_of_order_rows_rejected(self):
        with pytest.raises(ValueError):
            Annotation(((1, 0, 2), (0, 2, 4)))

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError):
            Annotation(((0, 0, 3), (1, 2, 4)))
        with pytest.raises(ValueError):
            Annotation(((0, 0, 3), (0, 2, 4)))

    def test_range_validation(self):
        ann = Annotation(((1, 2, 4),))
        ann.validate_range(3, 6)
        with pytest.raises(ValueError):
            ann.validate_range(3, 3)  # interval end beyond I
        with pytest.raises(ValueError):
            ann.validate_range(1, 6)  # row beyond J


class TestIntervalMask:
    def test_confines_annotated_row(self):
        mask = build_interval_mask(Annotation(((1, 2, 4),)), j_count=3, i_count=6)
        expect = np.zeros((3, 6), dtype=bool)
        expect[1, [0, 1, 4, 5]] = True
        np.testing.assert_array_equal(mask.forbidden, expect)

    def test_background_rows_left_free(self):
        mask = build_interval_mask(
            Annotation(((1, 2, 4),)), j_count=3, i_count=6, background_set={1}
        )
        assert not mask.forbidden.any()

    def test_infeasible_intervals_raise(self):
        # Row 0 confined away from column 0 leaves no path starting at row 0.
        with pytest.raises(InfeasibleError):
            build_interval_mask(Annotation(((0, 1, 2),)), j_count=2, i_count=2)

    def test_paths_respect_intervals(self):
        mask = build_interval_mask(Annotation(((1, 2, 4),)), j_count=3, i_count=6)
        for p in enumerate_paths(6, 3, mask):
            cols = np.flatnonzero(p.assignment == 1)
            assert set(cols) <= {2, 3}


class TestFixAssignmentMask:
    def test_pinned_path_is_unique_survivor(self):
        pinned = AlignmentPath(np.array([0, 1, 1, 2, 2]), j_count=3)
        mask = fix_assignment_mask(pinned)
        survivors = enumerate_paths(5, 3, mask)
        assert len(survivors) == 1
        np.testing.assert_array_equal(survivors[0].assignment, pinned.assignment)


class TestAnnotationToPath:
    def test_covers_all_annotated_columns(self):
        ann = Annotation(((1, 1, 3), (3, 4, 6)))
        path = annotation_to_path(ann, j_count=5, i_count=7)
        assert set(np.flatnonzero(path.assignment == 1)) == {1, 2}
        assert set(np.flatnonzero(path.assignment == 3)) == {4, 5}

    def test_full_annotation_pins_exactly(self):
        ann = Annotation(((0, 0, 2), (1, 2, 3), (2, 3, 5)))
        path = annotation_to_path(ann, j_count=3, i_count=5)
        np.testing.assert_array_equal(path.assignment, [0, 0, 1, 2, 2])

    def test_deterministic(self):
        ann = Annotation(((1, 2, 4),))
        a = annotation_to_path(ann, j_count=3, i_count=6)
        b = annotation_to_path(ann, j_count=3, i_count=6)
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestResolveMu:
    def _layout(self, i_sizes, j_sizes):
        from seqalign.polytope import StreamLayout

        return StreamLayout(i_sizes=i_sizes, j_sizes=j_sizes)

    def test_default_is_uniform_per_stream(self):
        layout = self._layout([6, 8], [3, 2])
        mu = resolve_mu(layout, [frozenset(), frozenset()])
        np.testing.assert_allclose(mu, [2.0, 2.0, 2.0, 4.0, 4.0])

    def test_scalar_override(self):
        layout = self._layout([6], [3])
        np.testing.assert_allclose(resolve_mu(layout, [frozenset()], mu=1.5), 1.5)

    def test_background_rows_get_explicit_target(self):
        layout = self._layout([10], [3])
        mu = resolve_mu(layout, [frozenset({0, 2})], mu_background=1.0)
        # Two background rows take 1 each; the sentence row gets the rest.
        np.testing.assert_allclose(mu, [1.0, 8.0, 1.0])

    def test_mu_with_mu_background_rejected(self):
        # mu_background would silently override mu on every row.
        layout = self._layout([10], [3])
        with pytest.raises(ValueError, match="mu_background to null"):
            resolve_mu(layout, [frozenset({0, 2})], mu=2.0, mu_background=1.0)

    def test_background_exhausting_mass_rejected(self):
        layout = self._layout([4], [3])
        with pytest.raises(ValueError):
            resolve_mu(layout, [frozenset({0, 2})], mu_background=2.0)


class TestAssemble:
    def test_unsupervised_ignores_annotations(self):
        rng = np.random.default_rng(0)
        base = make_stream(rng, i_count=6, n_sentences=1)
        ann = Annotation(((1, 2, 4),))
        tagged = Stream(
            id="s",
            phi=base.phi,
            psi=base.psi,
            background=base.background,
            annotation=ann,
            supervised=True,
        )
        inst_none = assemble([tagged], lam=0.1, sigma=2.0, mode="none", kappa=3.0)
        plain = assemble([base], lam=0.1, sigma=2.0)
        np.testing.assert_array_equal(inst_none.psi, plain.psi)
        np.testing.assert_array_equal(inst_none.phi, plain.phi)
        assert inst_none.masks == (None,)

    def test_soft_mode_attaches_interval_mask(self):
        rng = np.random.default_rng(1)
        base = make_stream(rng, i_count=6, n_sentences=1)
        tagged = Stream(
            id="s",
            phi=base.phi,
            psi=base.psi,
            background=base.background,
            annotation=Annotation(((1, 2, 4),)),
            supervised=True,
        )
        inst = assemble([tagged], lam=0.1, sigma=2.0, mode="soft")
        expect = np.zeros((3, 6), dtype=bool)
        expect[1, [0, 1, 4, 5]] = True
        np.testing.assert_array_equal(inst.masks[0].forbidden, expect)

    def test_hard_mode_pins_annotation_path(self):
        rng = np.random.default_rng(2)
        base = make_stream(rng, i_count=5, n_sentences=1)
        ann = Annotation(((1, 2, 4),))
        tagged = Stream(
            id="s",
            phi=base.phi,
            psi=base.psi,
            background=base.background,
            annotation=ann,
            supervised=True,
        )
        inst = assemble([tagged], lam=0.1, sigma=2.0, mode="hard")
        expect = annotation_to_path(ann, 3, 5, base.background)
        survivors = enumerate_paths(5, 3, inst.masks[0])
        assert len(survivors) == 1
        np.testing.assert_array_equal(survivors[0].assignment, expect.assignment)

    def test_kappa_scales_supervised_blocks_only(self):
        rng = np.random.default_rng(3)
        a = make_stream(rng, i_count=5, n_sentences=1)
        b = make_stream(rng, i_count=5, n_sentences=1)
        sup = Stream(
            id="sup",
            phi=b.phi,
            psi=b.psi,
            background=b.background,
            annotation=Annotation(((1, 1, 3),)),
            supervised=True,
        )
        inst = assemble([a, sup], lam=0.1, sigma=2.0, kappa=0.0)
        layout = inst.layout
        i0 = layout.i_offsets[1]
        # Supervised block (including the affine ones row) is zeroed out...
        np.testing.assert_array_equal(inst.phi[:, i0:], 0.0)
        assert inst.psi[:, layout.j_offsets[1] :].sum() == 0.0
        # ...while the unsupervised block is untouched.
        np.testing.assert_array_equal(inst.phi[:-1, :i0], a.phi)

    def test_kappa_squares_into_the_loss(self):
        # Scaling psi and phi by kappa multiplies the reduced cost by kappa^2
        # at regularization lam / kappa^2.
        rng = np.random.default_rng(4)
        psi = rng.standard_normal((3, 2))
        phi = rng.standard_normal((3, 6))
        y = rng.random((2, 6))
        kappa, lam = 2.5, 0.1
        scaled = discriminative_cost(kappa * psi, y, compute_q(kappa * phi, lam))
        plain = discriminative_cost(psi, y, compute_q(phi, lam / kappa**2))
        assert scaled == pytest.approx(kappa**2 * plain, rel=1e-10)

    def test_validation_errors(self):
        rng = np.random.default_rng(5)
        s = make_stream(rng, i_count=5, n_sentences=1)
        with pytest.raises(ValueError):
            assemble([], lam=0.1, sigma=2.0)
        with pytest.raises(ValueError):
            assemble([s], lam=0.1, sigma=2.0, kappa=-1.0)
        with pytest.raises(ValueError):
            assemble([s], lam=0.1, sigma=2.0, mode="loud")
        sup = Stream(id="s", phi=s.phi, psi=s.psi, supervised=True)
        with pytest.raises(ValueError):
            assemble([sup], lam=0.1, sigma=2.0)
        other = make_stream(rng, i_count=5, n_sentences=1, e_dim=4)
        with pytest.raises(ValueError):
            assemble([s, other], lam=0.1, sigma=2.0)

    def test_layout_and_mu_assembled_per_stream(self):
        rng = np.random.default_rng(6)
        a = make_stream(rng, i_count=6, n_sentences=1)
        b = make_stream(rng, i_count=8, n_sentences=2)
        inst = assemble([a, b], lam=0.1, sigma=2.0)
        assert inst.layout.i_sizes == (6, 8)
        assert inst.layout.j_sizes == (3, 5)
        np.testing.assert_allclose(
            inst.priors.mu, [2.0, 2.0, 2.0, 1.6, 1.6, 1.6, 1.6, 1.6]
        )
