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
from twodesign import bounds
from twodesign.bounds import (
    SUBSET_CAP,
    ProductState,
    _cube,
    _grid_lower_bounds,
    _orbit_key,
    _params_mod_pi,
    _polish_two_vector,
    _random_unit,
    _two_vector_iterate,
)
from twodesign.core import random_state_vector
from twodesign.correlations import CorrelationSpec
from twodesign.designs import Design, _d4_triple

OPTS = OptimizerOptions(seed=0)


def objective(design, e, f):
    """Direct evaluation of the correlation sum at a product state."""
    v = design.vectors
    return float(np.sum(np.abs(v.conj() @ e) ** 2 * np.abs(v.conj() @ f) ** 2))


def ray_distances(a, b):
    """Largest entry distance between the projectors of rows of ``a`` and of ``b``."""
    pa, pb = (np.einsum("ni,nj->nij", v, v.conj()) for v in (a, b))
    return np.abs(pa[:, None] - pb[None, :]).max(axis=(2, 3))


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
            v = design.vectors
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

    @pytest.mark.parametrize("sweeps", [1, 5, 20])
    def test_kernel_from_equal_starts_is_the_ascent(self, sweeps):
        # maximizing from f = e, each half-step is one step of the ascent
        # a -> top eigenvector of sum_v |<v|a>|^2 |v><v|, so k sweeps end at
        # the 2k-th ascent iterate
        designs = (
            sic_povm(3).subset(range(4)), sic_povm(3).subset(range(5)),
            sic_povm(4).subset(range(7)), standard_mubs(3).subset([0, 1]),
        )
        for design in designs:
            v = design.vectors
            a = e0 = _random_unit(np.random.default_rng(0), (8, v.shape[1]))
            for _ in range(2 * sweeps):
                w = np.abs(a @ v.conj().T) ** 2
                a = np.linalg.eigh(np.einsum("bn,ni,nj->bij", w, v, v.conj()))[1][..., -1]
            # tol -inf: no restart retires before its k-th sweep
            f = _two_vector_iterate(
                v[None], e0, e0, minimize=False, tol=-np.inf, max_sweeps=sweeps
            )[1]
            assert ray_distances(a, f).diagonal().max() < 1e-12, design.provenance

    def test_d4_mub_triple_stationary(self):
        design = standard_mubs(4).subset(range(3))
        res = separable_upper_bound(design, OPTS)
        assert res.stop_reason == "stationary" and res.converged
        assert abs(res.value - 1.5) < 1e-12
        assert abs(objective(design, res.maximizer, res.maximizer) - res.value) < 1e-12


class TestLowerStopReasons:
    def test_batch_matches_single_starts(self):
        # a retired restart ends exactly as the same start run alone, and the
        # batch reports the sweeps of its longest restart
        for design in (sic_povm(3).subset(range(5)), mub_triple_family_d4(*[np.pi / 2] * 3)):
            v = design.vectors
            rng = np.random.default_rng(0)  # the starts of separable_lower_bound at seed 0
            e0 = _random_unit(rng, (8, v.shape[1]))
            f0 = _random_unit(rng, (8, v.shape[1]))
            e, f, obj, *_ = _two_vector_iterate(
                v[None], e0, f0, minimize=True, tol=1e-12, max_sweeps=2000
            )
            longest = 0
            for i in range(8):
                e1, f1, obj1, _, used1 = _two_vector_iterate(
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
        # C(25, 12) = 5,200,300 subsets; the cap is checked before any work
        vectors = _random_unit(np.random.default_rng(0), (25, 5))
        assert math.comb(25, 12) > SUBSET_CAP
        with pytest.raises(EnumerationCapExceededError, match=str(SUBSET_CAP)):
            subset_bound_spectrum(Design("sic", 5, vectors), 12, OPTS)

    @pytest.mark.parametrize("size", [0, 10])
    def test_subset_size_out_of_range(self, size):
        with pytest.raises(ValueError, match="subset size"):
            subset_bound_spectrum(sic_povm(3), size, OPTS)


def _label(combo):
    return "(" + ",".join(str(i + 1) for i in combo) + ")"


def _reaches(record, design):
    """|argmin value - lower| and |argmax value - upper| on ``design``."""
    e, f, top = record.argmin.e, record.argmin.f, record.argmax
    return abs(objective(design, e, f) - record.lower), abs(objective(design, top, top) - record.upper)


class TestSubsetOrbits:
    """Subsets are enumerated by orbit of the design's symmetry group."""

    @pytest.mark.parametrize("size", [4, 6])
    def test_matches_full_enumeration(self, size):
        sic = sic_povm(3)
        spec = subset_bound_spectrum(sic, size, OPTS)
        combos = list(itertools.combinations(range(9), size))
        seeds = np.random.SeedSequence(OPTS.seed).spawn(len(combos))
        full = [
            compute_bound_record(sic.subset(c), OptimizerOptions(seed=s), label=_label(c))
            for c, s in zip(combos, seeds)
        ]
        assert [r.subset_or_params for r in spec.per_subset] == [r.subset_or_params for r in full]
        assert [r.indices for r in spec.per_subset] == [r.indices for r in full]
        assert [r.provenance for r in spec.per_subset] == [r.provenance for r in full]
        for got, want in zip(spec.per_subset, full):
            assert abs(got.lower - want.lower) < 1e-12 and abs(got.upper - want.upper) < 1e-12
        source, _ = bounds._orbits(np.array(combos), bounds._symmetry_group(sic.vectors)[0])
        reps = np.flatnonzero(source == np.arange(len(combos)))
        assert len(reps) == 2
        for k in reps:
            got, want = spec.per_subset[k], full[k]
            assert (got.lower, got.upper, got.restarts, got.converged) == (
                want.lower, want.upper, want.restarts, want.converged
            )
            np.testing.assert_array_equal(got.argmin.e, want.argmin.e)
            np.testing.assert_array_equal(got.argmin.f, want.argmin.f)
            np.testing.assert_array_equal(got.argmax, want.argmax)

    @pytest.mark.parametrize("d, size", [(2, 2), (3, 3), (3, 4), (3, 5), (3, 8)])
    def test_moved_states_reach_their_values(self, d, size):
        sic = sic_povm(d)
        spec = subset_bound_spectrum(sic, size, OPTS)
        source, _ = bounds._orbits(
            np.array([r.indices for r in spec.per_subset]), bounds._symmetry_group(sic.vectors)[0]
        )
        for k, record in enumerate(spec.per_subset):
            design = sic.subset(record.indices)
            assert max(_reaches(record, design)) < 1e-12, record.subset_or_params
            if source[k] != k:
                # a moved record carries the objective at its own states, bit for bit
                v, e, f = design.vectors, record.argmin.e, record.argmin.f
                assert record.lower == bounds._product_value(v, e, f)
                assert record.upper == bounds._product_value(v, record.argmax, record.argmax)

    @pytest.mark.parametrize("d, order", [(2, 24), (3, 432), (4, 96)])
    def test_group_orders_and_unitaries(self, d, order):
        v = sic_povm(d).vectors
        perms, unitaries, anti = bounds._symmetry_group(v)
        assert len(perms) == order and len({tuple(p) for p in perms}) == order
        assert anti.sum() == order // 2
        assert (perms == np.arange(len(v))).all(axis=1).any()
        eye = np.eye(d)
        for p, u, a in zip(perms, unitaries, anti):
            assert np.abs(u @ u.conj().T - eye).max() < 1e-12
            moved = (v.conj() if a else v) @ u.T
            # each moved vector is its image up to a phase
            overlap = np.abs(np.sum(v[p].conj() * moved, axis=1))
            assert np.abs(overlap - 1).max() < 1e-12

    def test_orbit_counts(self):
        perms = bounds._symmetry_group(sic_povm(3).vectors)[0]
        counts = []
        for size in range(3, 10):
            combos = np.array(list(itertools.combinations(range(9), size)))
            source, _ = bounds._orbits(combos, perms)
            counts.append(int((source == np.arange(len(combos))).sum()))
        assert counts == [2, 2, 2, 2, 1, 1, 1]

    def test_permutation_outside_the_group_changes_a_value(self):
        sic = sic_povm(3)
        perms = bounds._symmetry_group(sic.vectors)[0]
        upper = {r.indices: r.upper for r in subset_bound_spectrum(sic, 4, OPTS).per_subset}
        assert sorted({round(u, 5) for u in upper.values()}) == [1.2927, 1.39952]
        for p in perms:  # every element keeps every value
            assert max(abs(upper[tuple(sorted(p[list(s)]))] - u) for s, u in upper.items()) < 1e-12
        swap = np.arange(9)
        swap[[0, 8]] = [8, 0]
        assert not (perms == swap).all(axis=1).any()
        change = max(abs(upper[tuple(sorted(swap[list(s)]))] - u) for s, u in upper.items())
        assert change > 1e-3


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
        # the same starts run for 1, 2, ..., 40 sweeps: no restart's objective
        # ever rises from one budget to the next
        v = sic_povm(3).subset(range(5)).vectors
        rng = np.random.default_rng(0)
        e0, f0 = _random_unit(rng, (8, 3)), _random_unit(rng, (8, 3))
        hist = np.array([
            _two_vector_iterate(v[None], e0, f0, minimize=True, tol=1e-12, max_sweeps=k)[2]
            for k in range(1, 41)
        ])
        assert np.all(np.diff(hist, axis=0) <= 1e-12)
        assert np.all(hist[-1] < hist[0] - 1e-6)

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

    def test_conjugation_invariance(self, rng):
        # f -> conj(f) maps the conjugated witness's product values onto the
        # plain objective, so the plain bound is the conjugated one too
        for design in (standard_mubs(3).subset(range(2)), sic_povm(3).subset(range(6))):
            res = separable_lower_bound(design, OPTS)
            w = CorrelationSpec(design, conjugate_second=True).witness
            k = np.kron(res.minimizer.e, res.minimizer.f.conj())
            assert abs(np.vdot(k, w @ k).real - res.value) < 1e-12
            e, f = _random_unit(rng, (2, 500, 3))
            k = (e[:, :, None] * f[:, None, :]).reshape(500, 9)
            values = np.einsum("ni,ij,nj->n", k.conj(), w, k).real
            assert values.min() >= res.value - 1e-12

    def test_monotone_in_design_nesting(self):
        sic = sic_povm(3)
        small = compute_bound_record(sic.subset(range(4)), OPTS)
        large = compute_bound_record(sic.subset(range(6)), OPTS)
        assert small.lower <= large.lower + 1e-9
        assert small.upper <= large.upper + 1e-9

    def test_random_separable_within_bounds(self, rng):
        design = sic_povm(3).subset(range(6))
        rec = compute_bound_record(design, OPTS)
        v = design.vectors
        for _ in range(200):
            e = random_state_vector(3, rng)
            f = random_state_vector(3, rng)
            val = float(np.sum(np.abs(v.conj() @ e) ** 2 * np.abs(v.conj() @ f) ** 2))
            assert rec.lower - 1e-8 <= val <= rec.upper + 1e-8

    @pytest.mark.parametrize("field, value", [("restarts", 0), ("restarts", -1), ("max_sweeps", 0)])
    def test_options_validation(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            OptimizerOptions(**{field: value})

    def test_product_state_validation(self):
        with pytest.raises(ValueError):
            ProductState(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_bound_record_fields(self):
        rec = compute_bound_record(sic_povm(2).subset(range(3)), OPTS)
        assert rec.design_kind == "sic" and rec.dim == 2 and rec.size == 3
        assert 0 <= rec.lower <= rec.upper <= rec.size
        assert rec.converged
        assert rec.indices == (0, 1, 2)

    def test_bound_record_indices(self):
        assert compute_bound_record(standard_mubs(2), OPTS).indices is None
        rec = compute_bound_record(standard_mubs(3).subset([3, 1]), OPTS)
        assert rec.indices == (3, 1) and rec.subset_or_params == "standard[4,2]"
        spec = subset_bound_spectrum(sic_povm(2), 2, OPTS)
        for r in spec.per_subset:
            assert r.subset_or_params == "(" + ",".join(str(i + 1) for i in r.indices) + ")"


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
        for k in range(3):
            at0 = [0.3, 1.1, 2.0]
            at0[k] = 0.0
            at_pi = list(at0)
            at_pi[k] = np.pi
            dist = ray_distances(
                mub_triple_family_d4(*at0).vectors, mub_triple_family_d4(*at_pi).vectors
            )
            assert dist.min(axis=1).max() < 1e-12
            assert dist.min(axis=0).max() < 1e-12

    def test_params_mod_pi(self):
        half = np.pi / 2
        assert _params_mod_pi((half, np.pi, 0.0)) == (half, 0.0, 0.0)
        assert _params_mod_pi((half, np.pi, np.pi)) == (half, 0.0, 0.0)
        assert _params_mod_pi((np.pi + 0.25, -0.5, 0.1)) == pytest.approx(
            (0.25, np.pi - 0.5, 0.1), abs=1e-15
        )

    def test_orbit_key_sends_near_pi_to_zero(self):
        half = np.pi / 2
        assert _params_mod_pi((np.pi - 1e-12, 0.0, half)) == (0.0, 0.0, half)
        assert _params_mod_pi((-1e-12, 0.0, half)) == (0.0, 0.0, half)
        near = np.array([[np.pi - 1e-12, 0.0, half], [1e-12, np.pi, half], [0.0, 0.0, half]])
        keys, reps = _orbit_key(near)
        np.testing.assert_array_equal(keys, np.tile(keys[:1], (3, 1)))
        assert np.abs(reps - [0.0, 0.0, half]).max() < 1e-11

    def test_orbit_maps_move_the_rays(self):
        # complex conjugation: (x, y, z) -> (pi - x, pi - y, pi - z), b3's
        # vectors 1<->2 and 3<->4 swapped; s -> P conj(s), P swapping basis
        # states 0<->2 and 1<->3: (x, y, z) -> (x, z, y)
        p_swap = np.eye(4)[[2, 3, 0, 1]]
        conj = [0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 11, 10]
        swap = [2, 3, 0, 1, 4, 5, 6, 7, 11, 10, 9, 8]
        for x, y, z in np.random.default_rng(3).uniform(0.0, np.pi, (4, 3)):
            v = mub_triple_family_d4(x, y, z).vectors
            for moved, image, perm in (
                (v.conj(), (np.pi - x, np.pi - y, np.pi - z), conj),
                (v.conj() @ p_swap.T, (x, z, y), swap),
            ):
                dist = ray_distances(moved, mub_triple_family_d4(*image).vectors)
                assert np.diagonal(dist[:, perm]).max() < 1e-12

    def test_orbit_shares_the_floor(self):
        opts = OptimizerOptions(seed=0, restarts=64)

        def floor(*p):
            return separable_lower_bound(mub_triple_family_d4(*p), opts).value

        not_a_symmetry = []
        for x, y, z in np.random.default_rng(3).uniform(0.0, np.pi, (4, 3)):
            images = [(x, y, z), (x, z, y)]
            images += [(np.pi - a, np.pi - b, np.pi - c) for a, b, c in images]
            values = [floor(*p) for p in images]
            assert max(values) - min(values) < 1e-12
            assert len({tuple(k) for k in _orbit_key(np.array(images))[0]}) == 1
            not_a_symmetry.append(abs(floor(np.pi - x, y, z) - values[0]))
        # (pi - x, y, z) is no symmetry; at one point it moves L by only 7.9e-5
        assert max(not_a_symmetry) > 1e-3

    @pytest.mark.parametrize("steps, orbits", [(9, 150), (25, 3614)])
    def test_grid_pass_evaluates_one_point_per_orbit(self, monkeypatch, steps, orbits):
        sent = []

        def kernel(v, e, f, **kwargs):
            sent.append(v.shape[0])
            return None, None, np.zeros(e.shape[:-1]), None, None

        monkeypatch.setattr(bounds, "_two_vector_iterate", kernel)
        points = _cube(np.linspace(0.0, np.pi, steps))
        values = bounds._grid_lower_bounds(points, 0, 2, 1)
        assert sum(sent) == orbits
        assert values.shape == (steps**3,)

    def test_compass_skips_clipped_steps(self, monkeypatch):
        # at (pi/2, 0, 0) the steps y - r and z - r clip onto the candidate
        start = np.array([[np.pi / 2, 0.0, 0.0]])
        sent = []

        def grid_pass(params, *args, **kwargs):
            sent.append(np.array(params))
            return np.zeros(len(params))

        monkeypatch.setattr(bounds, "_grid_lower_bounds", grid_pass)
        out = bounds._refine(start, np.array([-1.0]), np.pi / 8, 0)
        np.testing.assert_array_equal(out, start)
        levels = sent[1:]
        assert len(levels) == 19  # r halves from pi/8 to below 1e-6
        for trial in levels:
            assert trial.shape == (4, 3)
            assert not (trial == start).all(axis=1).any()

    def test_small_scan_recovers_extrema(self):
        res = d4_family_scan(9, OptimizerOptions(seed=0, restarts=64), refine_count=3)
        assert abs(res.l_plus - 0.5) < 5e-3
        assert abs(res.l_minus - 0.25) < 5e-3
        assert len(res.per_point) == 9**3

    def test_off_grid_extrema_are_refined(self):
        # on a 10-step grid neither extremum is a grid point; the best grid
        # points read 0.25190 and 0.46761, so only the refinement reaches them
        res = d4_family_scan(10, OptimizerOptions(seed=0, restarts=64), refine_count=1)
        assert abs(res.l_minus - 0.25) < 1e-6
        assert abs(res.l_plus - 0.5) < 1e-6
        half = np.pi / 2
        for at, want in ((res.argmin_params, (half, half, half)), (res.argmax_params, (half, 0, 0))):
            gap = (np.subtract(at, want) + half) % np.pi - half  # distance modulo pi
            assert np.abs(gap).max() < 1e-3, at

    def test_pi_faces_repeat_zero_faces(self, scan9):
        res, _ = scan9
        grid = np.array(res.per_point).reshape(9, 9, 9, 4)
        values = grid[..., 3]
        for axis in range(3):
            np.testing.assert_array_equal(values.take(8, axis=axis), values.take(0, axis=axis))
        assert np.allclose(grid[-1, -1, -1, :3], np.pi)
        assert abs(res.l_minus - 0.25) < 1e-12 and abs(res.l_plus - 0.5) < 1e-12
        assert res.argmin_params == pytest.approx((np.pi / 2,) * 3, abs=1e-12)
        assert res.argmax_params == pytest.approx((np.pi / 2, 0.0, 0.0), abs=1e-12)

    @pytest.mark.parametrize("count", [0, -1])
    def test_refine_count_checked_before_the_grid(self, monkeypatch, count):
        def grid_pass(*args, **kwargs):
            raise AssertionError("the grid pass ran")

        monkeypatch.setattr(bounds, "_grid_lower_bounds", grid_pass)
        with pytest.raises(ValueError, match="refine_count"):
            d4_family_scan(9, OPTS, refine_count=count)

    def test_per_point_constant_on_orbits(self, scan9):
        res, _ = scan9
        grid = np.array(res.per_point)
        keys = _orbit_key(grid[:, :3])[0]
        _, orbit = np.unique(keys, axis=0, return_inverse=True)
        assert orbit.max() + 1 == 150
        for k in range(150):
            values = grid[orbit == k, 3]
            assert (values == values[0]).all()
        assert grid[:, 3].min() >= 0.25 - 1e-12

    def test_each_point_confirmed_once(self, scan9):
        # both extrema of the 9-step grid are grid points; refinement returns
        # to them, and each distinct point is confirmed once
        _, confirmations = scan9
        assert confirmations <= 2


class _Refining(Exception):
    """Raised by a stub to stop a scan once the grid pass is done."""


def refine_args(steps):
    """The arguments ``d4_family_scan(steps, OPTS, refine_count=1)`` hands ``_refine``."""
    seen = []

    def stop(*args):
        seen.append(args)
        raise _Refining

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_refine", stop)
        with pytest.raises(_Refining):
            d4_family_scan(steps, OPTS, refine_count=1)
    return seen[0]


def uncut_grid_pass(params, *args, threshold=None, **kwargs):
    """``_grid_lower_bounds`` with the threshold dropped: every orbit runs in full."""
    return _grid_lower_bounds(params, *args, **kwargs)


class TestCompassCut:
    """A maximum candidate's compass step stops once it cannot win; no move changes."""

    def test_kernel_cuts_only_rows_that_reach_their_threshold(self):
        # (pi/2, 0, 0) has L = 0.5; the next two are compass steps from it
        points = np.array([[np.pi / 2, 0, 0], [5 * np.pi / 8, 0, 0], [np.pi / 2, np.pi / 8, 0],
                           [1.0, 2.0, 0.5]])
        v = _d4_triple(*points.T)[:, None]
        rng = np.random.default_rng(0)
        e0, f0 = _random_unit(rng, (4, 24, 4)), _random_unit(rng, (4, 24, 4))
        kw = dict(minimize=True, tol=1e-11, max_sweeps=120)
        plain = _two_vector_iterate(v, e0, f0, **kw)
        threshold = np.array([0.5, 0.5, -np.inf, plain[2][3].min() - 1e-12])
        e, f, obj, stationary, used = _two_vector_iterate(v, e0, f0, threshold=threshold, **kw)
        for row in (2, 3):  # never reach their thresholds
            for got, want in zip((e, f, obj, stationary, used), plain):
                np.testing.assert_array_equal(got[row], want[row])
        for row in (0, 1):
            assert obj[row].min() <= threshold[row]
            assert not stationary[row].any()
            assert used[row].max() < plain[4][row].max()

    @pytest.mark.parametrize("steps", [9, 10])
    def test_refine_moves_as_without_the_cut(self, monkeypatch, steps):
        args = refine_args(steps)
        cut = bounds._refine(*args)
        monkeypatch.setattr(bounds, "_grid_lower_bounds", uncut_grid_pass)
        np.testing.assert_array_equal(cut, bounds._refine(*args))

    def test_cut_saves_two_thirds_of_the_maximum_steps(self, monkeypatch):
        real = bounds._eig_extreme
        matrices = []

        def counted(m, maximize):
            matrices.append(math.prod(m.shape[:-2]))
            return real(m, maximize)

        monkeypatch.setattr(bounds, "_eig_extreme", counted)
        args = (np.array([[np.pi / 2, 0.0, 0.0]]), np.array([-1.0]), np.pi / 8, 0)
        out = bounds._refine(*args)
        with_cut = sum(matrices)
        matrices.clear()
        monkeypatch.setattr(bounds, "_grid_lower_bounds", uncut_grid_pass)
        np.testing.assert_array_equal(out, bounds._refine(*args))
        assert with_cut <= sum(matrices) / 3, (with_cut, sum(matrices))


@pytest.fixture(scope="module")
def scan9():
    """``d4_family_scan(9, OPTS, refine_count=1)`` and its number of confirmations."""
    calls = []
    real = bounds.separable_lower_bound

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "separable_lower_bound", counted)
        res = d4_family_scan(9, OPTS, refine_count=1)
    return res, len(calls)
