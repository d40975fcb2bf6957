"""Separable-bound optimizers: published values, invariants, determinism."""

import itertools
import math

import numpy as np
import pytest

from twodesign import (
    EnumerationCapExceededError,
    OptimizerOptions,
    closed_form_mub_upper,
    compute_bound_record,
    d4_family_scan,
    design_closed_bounds,
    mub_triple_family_d4,
    separable_lower_bound,
    separable_upper_bound,
    sic_povm,
    standard_mubs,
    subset_bound_spectrum,
)
from twodesign.bounds import (
    ProductState,
    _params_mod_pi,
    _polish_two_vector,
    _random_unit,
    _two_vector_iterate,
    design_vectors,
)
from twodesign.core import random_state_vector

OPTS = OptimizerOptions(seed=0)


def objective(vectors, e, f):
    """Direct evaluation of the correlation sum at a product state."""
    v = design_vectors(vectors)
    return float(np.sum(np.abs(v.conj() @ e) ** 2 * np.abs(v.conj() @ f) ** 2))


class TestLowerBound:
    def test_d2_pair(self):
        res = separable_lower_bound(standard_mubs(2).subset([0, 1]), OPTS)
        assert abs(res.value - 0.5) < 1e-6

    def test_d3_pair(self):
        res = separable_lower_bound(standard_mubs(3).subset([0, 1]), OPTS)
        assert abs(res.value - 0.211) < 5e-4
        # the converged optimum agrees with (3 - sqrt(3))/6 to machine
        # precision; pinned as a regression value
        assert abs(res.value - (3 - math.sqrt(3)) / 6) < 1e-10

    def test_hesse_six_leading(self):
        res = separable_lower_bound(sic_povm(3).subset(range(6)), OPTS)
        assert res.value < 1e-8

    def test_hesse_six_special(self):
        res = separable_lower_bound(sic_povm(3).subset([0, 1, 2, 3, 4, 6]), OPTS)
        assert abs(res.value - 0.1123) < 5e-4

    def test_minimizer_is_feasible_and_achieves_value(self):
        design = sic_povm(3).subset([0, 1, 2, 3, 4, 6])
        res = separable_lower_bound(design, OPTS)
        assert abs(np.linalg.norm(res.minimizer.e) - 1) < 1e-12
        assert abs(objective(design, res.minimizer.e, res.minimizer.f) - res.value) < 1e-12


class TestUpperBound:
    def test_d2_sic_pair(self):
        res = separable_upper_bound(sic_povm(2).subset([0, 1]), OPTS)
        assert abs(res.value - (math.sqrt(3) + 1) ** 2 / 6) < 1e-5

    def test_hesse_triple_symmetric(self):
        res = separable_upper_bound(sic_povm(3).subset([0, 1, 2]), OPTS)
        assert abs(res.value - 9 / 8) < 1e-6

    def test_hesse_triple_generic(self):
        res = separable_upper_bound(sic_povm(3).subset([0, 1, 3]), OPTS)
        assert abs(res.value - 1.25414) < 5e-5

    def test_d3_mub_pair_closed_form(self):
        res = separable_upper_bound(standard_mubs(3).subset([0, 1]), OPTS)
        assert abs(res.value - 4 / 3) < 1e-6

    def test_single_equals_two_vector(self):
        # reference: the direct two-vector maximization over e, f, whose
        # maximum the mean inequality says is the single-vector one
        rng = np.random.default_rng(0)
        for design in (sic_povm(3).subset(range(5)), standard_mubs(2).subset(range(2))):
            v = design_vectors(design)
            starts = _random_unit(rng, (2, 64, v.shape[1]))
            e, f, obj, *_ = _two_vector_iterate(
                v[None], starts[0], starts[1], minimize=False, tol=1e-12, max_sweeps=2000
            )
            best = int(np.argmax(obj))
            reference = _polish_two_vector(v, e[best], f[best], minimize=False)[2]
            res = separable_upper_bound(design, OPTS)
            assert abs(res.value - reference) < 1e-7


#: Designs whose product-state maximum is flat and equals the level-2 eigenvalue.
FLAT_CELLS = (
    [sic_povm(2).subset(c) for c in itertools.combinations(range(4), 3)]
    + [sic_povm(3).subset(c) for m in (7, 8) for c in itertools.combinations(range(9), m)]
    + [sic_povm(2), sic_povm(3), standard_mubs(3)]
)


class TestUpperStopReasons:
    def test_flat_cells_certified(self):
        for design in FLAT_CELLS:
            res = separable_upper_bound(design, OPTS)
            name = design.provenance
            assert res.stop_reason == "certified" and res.converged, name
            assert abs(res.value - res.certificate) <= 1e-12, name
            assert abs(objective(design, res.maximizer, res.maximizer) - res.value) <= 1e-12, name
            assert res.sweeps < 100, name

    def test_loose_certificate_stops_stationary(self):
        res = separable_upper_bound(sic_povm(3).subset([0, 1, 2, 3]), OPTS)
        assert res.stop_reason == "stationary" and res.converged
        assert abs(res.certificate - 1.5) < 1e-12
        assert abs(res.value - 1.29270) < 1e-5

    def test_max_sweeps_is_not_converged(self):
        res = separable_upper_bound(
            sic_povm(3).subset([0, 1, 2, 3]), OptimizerOptions(seed=0, max_sweeps=3)
        )
        assert res.stop_reason == "max_sweeps"
        assert res.sweeps == 3
        assert not res.converged


class TestLowerStopReasons:
    def test_batch_matches_single_starts(self):
        # a retired restart ends exactly as the same start run alone, and the
        # batch reports the sweeps of its longest restart
        for design in (sic_povm(3).subset(range(5)), mub_triple_family_d4(*[np.pi / 2] * 3)):
            v = design_vectors(design)
            rng = np.random.default_rng(0)  # the starts of separable_lower_bound at seed 0
            e0 = _random_unit(rng, (8, v.shape[1]))
            f0 = _random_unit(rng, (8, v.shape[1]))
            e, f, obj, *_ = _two_vector_iterate(
                v[None], e0, f0, minimize=True, tol=1e-12, max_sweeps=2000
            )
            longest = 0
            for i in range(8):
                e1, f1, obj1, _, used1, _ = _two_vector_iterate(
                    v[None], e0[i : i + 1], f0[i : i + 1], minimize=True, tol=1e-12, max_sweeps=2000
                )
                np.testing.assert_array_equal(e1[0], e[i])
                np.testing.assert_array_equal(f1[0], f[i])
                assert obj1[0] == obj[i]
                longest = max(longest, int(used1[0]))
            res = separable_lower_bound(design, OptimizerOptions(seed=0, restarts=8))
            assert res.sweeps == longest

    def test_max_sweeps_is_not_converged(self):
        res = separable_lower_bound(
            sic_povm(3).subset([0, 1, 2, 3]), OptimizerOptions(seed=0, max_sweeps=3)
        )
        assert res.stop_reason == "max_sweeps"
        assert res.sweeps == 3
        assert not res.converged

    def test_d3_mub_pair_stationary(self):
        res = separable_lower_bound(standard_mubs(3).subset([0, 1]), OPTS)
        assert res.stop_reason == "stationary" and res.converged

    def test_symmetric_triple_floor(self):
        design = mub_triple_family_d4(np.pi / 2, np.pi / 2, np.pi / 2)
        res = separable_lower_bound(design, OPTS)
        assert abs(res.value - 0.25) <= 1e-12
        assert abs(objective(design, res.minimizer.e, res.minimizer.f) - res.value) <= 1e-12


class TestClosedForms:
    def test_mub_upper_values(self):
        assert closed_form_mub_upper(2, 2) == 1.5
        for d in (2, 3, 4):
            assert closed_form_mub_upper(d + 1, d) == 2.0

    def test_uniform_decrement(self):
        for d in (2, 3, 4):
            for m in range(2, d + 1):
                diff = closed_form_mub_upper(m + 1, d) - closed_form_mub_upper(m, d)
                assert abs(diff - 1 / d) < 1e-15

    def test_design_closed_bounds(self):
        assert design_closed_bounds(3, "sic") == (0.75, 1.5)
        assert design_closed_bounds(2, "mub") == (1.0, 2.0)

    def test_optimizers_reproduce_full_design_bounds_d2(self):
        for kind, design in (("mub", standard_mubs(2)), ("sic", sic_povm(2))):
            l_ref, u_ref = design_closed_bounds(2, kind)
            assert abs(separable_lower_bound(design, OPTS).value - l_ref) < 1e-6
            assert abs(separable_upper_bound(design, OPTS).value - u_ref) < 1e-6


class TestSubsetSpectrum:
    def test_hesse_seven(self):
        spec = subset_bound_spectrum(sic_povm(3), 7, OPTS)
        assert abs(spec.l_minus - 3 / 20) < 1e-5
        assert abs(spec.l_plus - 3 / 20) < 1e-5
        assert abs(spec.u_minus - 1.5) < 1e-5
        assert abs(spec.u_plus - 1.5) < 1e-5
        assert len(spec.per_subset) == 36

    def test_hesse_four_split(self):
        spec = subset_bound_spectrum(sic_povm(3), 4, OPTS)
        assert abs(spec.u_plus - 1.39952) < 5e-5

    def test_d2_three_identical_across_subsets(self):
        spec = subset_bound_spectrum(sic_povm(2), 3, OPTS)
        lows = [r.lower for r in spec.per_subset]
        highs = [r.upper for r in spec.per_subset]
        assert len(spec.per_subset) == 4
        assert max(lows) - min(lows) < 1e-9
        assert max(highs) - min(highs) < 1e-9
        assert abs(spec.l_minus - 4 / 15) < 1e-6
        assert abs(spec.u_plus - 4 / 3) < 1e-6

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapExceededError):
            subset_bound_spectrum(sic_povm(4), 8, OptimizerOptions(seed=0, subset_cap=100))


class TestPublishedTableDefects:
    """Cells where correct global optimization contradicts the printed values.

    Each check is a feasibility certificate: the optimizer's own reported
    state is re-evaluated directly, so the achieved value is real, not an
    optimizer artifact.  The corrected references and the published numbers
    they replace are in `twodesign.tables` (``SIC_D3_PUBLISHED``,
    ``SIC_D4_PUBLISHED``, ``FIGURE_Q_PUBLISHED``); the README section
    "Reference tables and corrected reference values" explains them.
    """

    def test_hesse_four_leading_subset_beats_printed_minimum_split(self):
        design = sic_povm(3).subset([0, 1, 2, 3])
        res = separable_upper_bound(design, OPTS)
        achieved = objective(design, res.maximizer, res.maximizer)
        assert achieved > 1.2926  # printed split value is 1.25414
        assert abs(res.value - 1.29270) < 5e-5

    def test_d4_lex_subsets_beat_printed_cells(self):
        sic = sic_povm(4)
        opts = OptimizerOptions(seed=0, restarts=128)
        up5 = separable_upper_bound(sic.subset(range(5)), opts)
        achieved = objective(sic.subset(range(5)), up5.maximizer, up5.maximizer)
        assert achieved > 1.3850  # printed 1.3766
        for size, printed, true_floor in ((7, 0.0067, 0.0013), (8, 0.0279, 0.0148), (10, 0.0693, 0.0591)):
            lo = separable_lower_bound(sic.subset(range(size)), opts)
            achieved = objective(sic.subset(range(size)), lo.minimizer.e, lo.minimizer.f)
            assert achieved < printed - 1e-3
            assert abs(lo.value - true_floor) < 5e-4


class TestOptimizerProperties:
    def test_monotone_descent_history(self):
        res = separable_lower_bound(sic_povm(3).subset(range(5)), OPTS)
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_determinism(self):
        design = sic_povm(3).subset([0, 1, 3, 5])
        a = separable_lower_bound(design, OptimizerOptions(seed=7))
        b = separable_lower_bound(design, OptimizerOptions(seed=7))
        assert a.value == b.value
        np.testing.assert_array_equal(a.minimizer.e, b.minimizer.e)
        np.testing.assert_array_equal(a.minimizer.f, b.minimizer.f)
        ua = separable_upper_bound(design, OptimizerOptions(seed=7))
        ub = separable_upper_bound(design, OptimizerOptions(seed=7))
        assert ua.value == ub.value
        np.testing.assert_array_equal(ua.maximizer, ub.maximizer)

    def test_conjugation_invariance(self):
        for design in (standard_mubs(3).subset(range(2)), sic_povm(3).subset(range(6))):
            plain = separable_lower_bound(design, OPTS).value
            conj = separable_lower_bound(design, OPTS, conjugate_second=True).value
            assert abs(plain - conj) < 1e-8

    def test_monotone_in_design_nesting(self):
        sic = sic_povm(3)
        small = compute_bound_record(sic.subset(range(4)), OPTS)
        large = compute_bound_record(sic.subset(range(6)), OPTS)
        assert small.lower <= large.lower + 1e-9
        assert small.upper <= large.upper + 1e-9

    def test_random_separable_within_bounds(self, rng):
        design = sic_povm(3).subset(range(6))
        rec = compute_bound_record(design, OPTS)
        v = design_vectors(design)
        for _ in range(200):
            e = random_state_vector(3, rng)
            f = random_state_vector(3, rng)
            val = float(np.sum(np.abs(v.conj() @ e) ** 2 * np.abs(v.conj() @ f) ** 2))
            assert rec.lower - 1e-8 <= val <= rec.upper + 1e-8

    def test_product_state_validation(self):
        with pytest.raises(ValueError):
            ProductState(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_bound_record_fields(self):
        rec = compute_bound_record(sic_povm(2).subset(range(3)), OPTS)
        assert rec.design_kind == "sic" and rec.dim == 2 and rec.size == 3
        assert 0 <= rec.lower <= rec.upper <= rec.size
        assert rec.converged


class TestTripleFamilyBounds:
    def test_extendible_triple_value(self):
        res = separable_lower_bound(
            mub_triple_family_d4(np.pi / 2, np.pi / 2, np.pi / 2),
            OptimizerOptions(seed=0, restarts=128),
        )
        assert abs(res.value - 0.25) < 1e-4

    def test_plus_triple_value(self):
        res = separable_lower_bound(
            mub_triple_family_d4(np.pi / 2, 0.0, 0.0),
            OptimizerOptions(seed=0, restarts=128),
        )
        assert abs(res.value - 0.5) < 1e-4

    def test_pi_shift_keeps_the_triple(self):
        # shifting x, y or z from 0 to pi permutes vectors within one basis
        def rays(params):
            v = design_vectors(mub_triple_family_d4(*params))
            return np.einsum("ni,nj->nij", v, v.conj())

        for k in range(3):
            at0 = [0.3, 1.1, 2.0]
            at0[k] = 0.0
            at_pi = list(at0)
            at_pi[k] = np.pi
            a, b = rays(at0), rays(at_pi)
            dist = np.abs(a[:, None] - b[None, :]).max(axis=(2, 3))
            assert dist.min(axis=1).max() < 1e-12
            assert dist.min(axis=0).max() < 1e-12

    def test_params_mod_pi(self):
        half = np.pi / 2
        assert _params_mod_pi((half, np.pi, 0.0)) == (half, 0.0, 0.0)
        assert _params_mod_pi((half, np.pi, np.pi)) == (half, 0.0, 0.0)
        assert _params_mod_pi((np.pi + 0.25, -0.5, 0.1)) == pytest.approx(
            (0.25, np.pi - 0.5, 0.1), abs=1e-15
        )

    def test_small_scan_recovers_extrema(self):
        res = d4_family_scan(
            9, OptimizerOptions(seed=0, restarts=64), grid_restarts=8, refine_count=3
        )
        assert abs(res.l_plus - 0.5) < 5e-3
        assert abs(res.l_minus - 0.25) < 5e-3
        assert len(res.per_point) == 9**3

    def test_pi_faces_repeat_zero_faces(self):
        res = d4_family_scan(9, OPTS, refine_count=1)
        grid = np.array(res.per_point).reshape(9, 9, 9, 4)
        values = grid[..., 3]
        for axis in range(3):
            np.testing.assert_array_equal(values.take(8, axis=axis), values.take(0, axis=axis))
        assert np.allclose(grid[-1, -1, -1, :3], np.pi)
        assert abs(res.l_minus - 0.25) < 1e-12 and abs(res.l_plus - 0.5) < 1e-12
        assert res.argmin_params == pytest.approx((np.pi / 2,) * 3, abs=1e-12)
        assert res.argmax_params == pytest.approx((np.pi / 2, 0.0, 0.0), abs=1e-12)
