"""Separable-bound optimizers: published values, invariants, determinism."""

import dataclasses
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
import twodesign
from twodesign import bounds
from twodesign.bounds import (
    SUBSET_CAP,
    BoundEnd,
    BoundRecord,
    ProductState,
    _cube,
    _grid_lower_bounds,
    _orbit_key,
    _params_mod_pi,
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


class TestRecordTypes:
    """Non-finite values are rejected, though every comparison with NaN is false."""

    @pytest.mark.parametrize("e", [[np.nan, 0], [np.inf, 0], [0, 0]], ids=["nan", "inf", "zero"])
    def test_product_state_rejects_a_non_unit_factor(self, e):
        with pytest.raises(ValueError, match="factor e is not a finite unit vector"):
            ProductState(np.array(e, dtype=complex), np.array([1, 0], dtype=complex))

    @pytest.mark.parametrize("lower, upper", [
        (np.nan, np.nan), (np.nan, 2.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 2.0),
        (np.inf, np.inf),
    ])
    def test_bound_record_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError):
            BoundRecord("mub", 2, 3, "", lower, upper, None, None, restarts=0, converged=True)


#: Designs whose floor and ceiling are checked as :class:`BoundEnd` records; the
#: complete d = 3 MUB set's ceiling stops ``certified``.
BOUND_END_DESIGNS = {
    "mub-d2-pair": standard_mubs(2).subset([0, 1]),
    "sic-d3-1234": sic_povm(3).subset([0, 1, 2, 3]),
    "mub-d4-m3": standard_mubs(4).subset(range(3)),
    "mub-d3-complete": standard_mubs(3),
}


class TestBoundEnd:
    @pytest.mark.parametrize("name", list(BOUND_END_DESIGNS))
    def test_both_ends_are_bound_ends_at_their_states(self, name):
        design = BOUND_END_DESIGNS[name]
        floor, ceiling = separable_lower_bound(design, OPTS), separable_upper_bound(design, OPTS)
        for end in (floor, ceiling):
            assert type(end) is BoundEnd
            assert end.value == bounds._product_value(design.vectors, end.state.e, end.state.f)
        np.testing.assert_array_equal(ceiling.state.e, ceiling.state.f)
        assert floor.certificate is None
        assert ceiling.certificate >= ceiling.value - bounds.CERTIFY_TOL
        if name == "mub-d3-complete":
            assert ceiling.stop_reason == "certified"  # the state is the certificate's maximizer

    @pytest.mark.parametrize("name", ["LowerBoundResult", "UpperBoundResult"])
    def test_per_end_result_types_are_gone(self, name):
        assert not hasattr(twodesign, name) and not hasattr(bounds, name)


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
        assert abs(np.linalg.norm(res.state.e) - 1) < 1e-12
        assert abs(objective(design, res.state.e, res.state.f) - res.value) < 1e-12


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
            reference = _two_vector_iterate(
                v[None], e[best][None], f[best][None], minimize=False, tol=1e-15, max_sweeps=5000
            )[2][0]
            res = separable_upper_bound(design, OPTS)
            assert abs(res.value - reference) < 1e-7


#: Designs whose product-state maximum is flat and equals the level-2 eigenvalue.
FLAT_CELLS = (
    [sic_povm(2).subset(c) for c in itertools.combinations(range(4), 3)]
    + [sic_povm(3).subset(c) for m in (7, 8) for c in itertools.combinations(range(9), m)]
    + [sic_povm(2), sic_povm(3), standard_mubs(3)]
)


#: Designs on which the maximizing kernel is checked against the ascent.
ASCENT_DESIGNS = (
    sic_povm(3).subset(range(4)), sic_povm(3).subset(range(5)),
    sic_povm(4).subset(range(7)), standard_mubs(3).subset([0, 1]),
)


class TestUpperStopReasons:
    def test_flat_cells_certified(self):
        for design in FLAT_CELLS:
            res = separable_upper_bound(design, OPTS)
            name = design.provenance
            assert res.stop_reason == "certified" and res.converged, name
            assert abs(res.value - res.certificate) <= 1e-12, name
            assert abs(objective(design, res.state.e, res.state.e) - res.value) <= 1e-12, name
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

    @pytest.mark.parametrize("sweeps", [1, 5, bounds._NEWTON_AFTER])
    def test_kernel_from_equal_starts_is_the_ascent(self, sweeps):
        # maximizing from f = e, each half-step is one step of the ascent
        # a -> top eigenvector of sum_v |<v|a>|^2 |v><v|, so k sweeps end at
        # the 2k-th ascent iterate until Newton steps may start
        for design in ASCENT_DESIGNS:
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

    def test_kernel_reaches_the_ascent_limit(self):
        # with Newton steps each restart ends where 5,000 sweeps of the pure
        # ascent (10,000 steps) end
        for design in ASCENT_DESIGNS:
            v = design.vectors
            a = e0 = _random_unit(np.random.default_rng(0), (8, v.shape[1]))
            for _ in range(10000):
                w = np.abs(a @ v.conj().T) ** 2
                a = np.linalg.eigh(np.einsum("bn,ni,nj->bij", w, v, v.conj()))[1][..., -1]
            limit = np.sum(np.abs(a @ v.conj().T) ** 4, axis=-1)
            obj = _two_vector_iterate(
                v[None], e0, e0, minimize=False, tol=bounds.TOL, max_sweeps=2000
            )[2]
            assert np.abs(obj - limit).max() <= 1e-12, design.provenance

    def test_d4_mub_triple_stationary_within_100_sweeps(self):
        design = standard_mubs(4).subset(range(3))
        res = separable_upper_bound(design, OPTS)
        assert res.stop_reason == "stationary" and res.sweeps < 100, res.sweeps
        assert abs(res.value - 1.5) <= 1e-12

    def test_d3_sic_pair_stationary(self):
        # a degenerate maximum, 9/8, which first-order sweeps never settled
        res = separable_upper_bound(sic_povm(3).subset([0, 1]), OPTS)
        assert res.stop_reason == "stationary" and res.converged
        assert abs(res.value - 9 / 8) <= 1e-9

    def test_d4_mub_triple_stationary(self):
        design = standard_mubs(4).subset(range(3))
        res = separable_upper_bound(design, OPTS)
        assert res.stop_reason == "stationary" and res.converged
        assert abs(res.value - 1.5) < 1e-12
        assert abs(objective(design, res.state.e, res.state.e) - res.value) < 1e-12


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

    @pytest.mark.parametrize("minimize", [True, False])
    def test_stacked_copies_match_one_design(self, minimize):
        # K copies of one design, (K, 1, n, d) against (K, R, d) starts: each
        # row ends bit for bit as the one design from the same starts
        v = _d4_triple(1.0, 2.0, 0.5)
        rng = np.random.default_rng(0)
        e0 = _random_unit(rng, (3, 8, 4))
        f0 = _random_unit(rng, (3, 8, 4)) if minimize else e0
        kw = dict(minimize=minimize, tol=1e-12, max_sweeps=2000)
        stacked = _two_vector_iterate(np.stack([v] * 3)[:, None], e0, f0, **kw)
        for k in range(3):
            alone = _two_vector_iterate(v[None], e0[k], f0[k], **kw)
            for got, want in zip(stacked, alone):  # e, f, objective, stationary, used
                np.testing.assert_array_equal(got[k], want)

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
        assert abs(objective(design, res.state.e, res.state.f) - res.value) <= 1e-12

    def test_symmetric_triple_floor_stops_stationary(self):
        # the flat minimum's first-order tail is finished by Newton steps
        res = separable_lower_bound(mub_triple_family_d4(*[np.pi / 2] * 3), OPTS)
        assert res.stop_reason == "stationary" and res.converged
        assert abs(res.value - 0.25) <= 1e-12
        assert res.sweeps < 200, res.sweeps


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

    def test_seed_sequence_seed(self):
        # a SeedSequence seed is read, not spawned from, so a second call agrees
        seq = np.random.SeedSequence(5)
        a, b = (subset_bound_spectrum(sic_povm(3), 3, OptimizerOptions(seed=seq)) for _ in "ab")
        def bounds_of(spectrum):
            return [(r.lower, r.upper) for r in spectrum.per_subset]

        assert bounds_of(a) == bounds_of(b)
        assert seq.n_children_spawned == 0

    def test_int_seed_children_unchanged(self, monkeypatch):
        # each orbit representative k runs with SeedSequence(seed).spawn(n)[k]
        seeds = {}
        real = bounds.compute_bound_record

        def record(design, opts, *, label):
            seeds[design.indices] = opts.seed
            return real(design, opts, label=label)

        monkeypatch.setattr(bounds, "compute_bound_record", record)
        subset_bound_spectrum(sic_povm(3), 3, OptimizerOptions(seed=4))
        combos = list(itertools.combinations(range(9), 3))
        children = np.random.SeedSequence(4).spawn(len(combos))
        assert len(seeds) > 1
        for indices, seed in seeds.items():
            child = children[combos.index(indices)]
            assert (seed.entropy, seed.spawn_key, seed.pool_size) == (
                child.entropy, child.spawn_key, child.pool_size
            )
            np.testing.assert_array_equal(seed.generate_state(8), child.generate_state(8))

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

    def test_rejects_a_mub_design(self):
        with pytest.raises(ValueError, match="'mub'"):
            subset_bound_spectrum(standard_mubs(3), 2, OPTS)

    @pytest.mark.parametrize("size", [1, 2])
    def test_orthogonal_pair_is_enumerated_subset_by_subset(self, size):
        # a vanishing Gram entry drops every group element, silently, so
        # every subset is its own representative
        pair = Design("sic", 2, [[1, 0], [0, 1]])
        spec = subset_bound_spectrum(pair, size, OPTS)
        combos = list(itertools.combinations(range(2), size))
        seeds = np.random.SeedSequence(OPTS.seed).spawn(len(combos))
        for got, combo, seed in zip(spec.per_subset, combos, seeds):
            want = compute_bound_record(
                pair.subset(combo), OptimizerOptions(seed=seed), label=_label(combo)
            )
            assert (got.subset_or_params, got.provenance, got.indices) == (
                want.subset_or_params, want.provenance, want.indices
            )
            assert (got.lower, got.upper, got.converged) == (want.lower, want.upper, want.converged)


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


def _mapped_reference(rep, sic, combo, u, anti):
    """A mapped record as the loop over subsets made it: its own design and
    the representative's states moved one at a time."""
    design = sic.subset(combo)

    def move(x):
        return bounds._canonical_vector(u @ (x.conj() if anti else x))

    e, f, top = move(rep.argmin.e), move(rep.argmin.f), move(rep.argmax)
    value = bounds._product_value
    return dataclasses.replace(
        rep, subset_or_params=_label(combo), lower=value(design.vectors, e, f),
        upper=value(design.vectors, top, top), argmin=ProductState(e, f), argmax=top,
        provenance=design.provenance, indices=design.indices,
    )


class TestSubsetGroupReuse:
    """The group is searched once per design; the mapped subsets move in one batch."""

    def test_group_searched_once_per_vector_set(self, monkeypatch):
        calls = []
        real = bounds._symmetry_group

        def counted(v):
            calls.append(v.shape)
            return real(v)

        monkeypatch.setattr(bounds, "_symmetry_group", counted)
        bounds._design_group.cache_clear()
        sic = sic_povm(3)
        for size in range(1, 10):
            subset_bound_spectrum(sic, size, OPTS)
        assert calls == [(9, 3)]
        subset_bound_spectrum(sic_povm(3), 4, OPTS)  # built afresh, same vectors
        assert calls == [(9, 3)]

    def test_cached_group_is_read_only(self):
        v = sic_povm(2).vectors
        for a in bounds._design_group(v.tobytes(), v.shape):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]

    @pytest.mark.parametrize(
        "d, size", [(2, m) for m in range(1, 5)] + [(3, m) for m in range(1, 10)] + [(4, 2), (4, 3)]
    )
    def test_batched_move_matches_the_loop(self, d, size):
        sic = sic_povm(d)
        spec = subset_bound_spectrum(sic, size, OPTS)
        perms, unitaries, anti = bounds._symmetry_group(sic.vectors)
        combos = list(itertools.combinations(range(d * d), size))
        source, element = bounds._orbits(np.array(combos), perms)
        meta = ("design_kind", "dim", "size", "subset_or_params", "restarts", "converged",
                "provenance", "indices")
        for k, (got, combo) in enumerate(zip(spec.per_subset, combos)):
            if source[k] == k:
                continue
            g = element[k]
            want = _mapped_reference(spec.per_subset[source[k]], sic, combo, unitaries[g], anti[g])
            assert [getattr(got, n) for n in meta] == [getattr(want, n) for n in meta]
            assert abs(got.lower - want.lower) <= 1e-14 and abs(got.upper - want.upper) <= 1e-14
            for x, y in ((got.argmin.e, want.argmin.e), (got.argmin.f, want.argmin.f),
                         (got.argmax, want.argmax)):
                assert 1 - abs(np.vdot(x, y)) <= 1e-12, got.subset_or_params
                assert np.abs(bounds._canonical_vector(x) - x).max() <= 1e-15  # phase fixed

    @pytest.mark.parametrize("labels", [(1, 2, 3, 5, 6, 8, 9), (2, 3, 4, 5, 6, 8, 9),
                                        (2, 3, 5, 6, 7, 8, 9)])
    def test_mapped_vectors_equal_the_loop_raw(self, labels):
        # subsets whose moved states have a component near 1e-8: the phase
        # rule must not pick it, or rounding turns the whole vector
        sic = sic_povm(3)
        spec = subset_bound_spectrum(sic, 7, OPTS)
        perms, unitaries, anti = bounds._symmetry_group(sic.vectors)
        combos = list(itertools.combinations(range(9), 7))
        source, element = bounds._orbits(np.array(combos), perms)
        k = combos.index(tuple(i - 1 for i in labels))
        assert source[k] != k
        got = spec.per_subset[k]
        want = _mapped_reference(spec.per_subset[source[k]], sic, combos[k],
                                 unitaries[element[k]], anti[element[k]])
        for x, y in ((got.argmin.e, want.argmin.e), (got.argmin.f, want.argmin.f),
                     (got.argmax, want.argmax)):
            assert np.abs(x - y).max() <= 1e-14

    def test_canonical_vector_on_a_stack(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
        stack[0, :, 0] = 4.8e-8 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))  # below the floor
        got = bounds._canonical_vector(stack)
        for idx in np.ndindex(stack.shape[:-1]):
            np.testing.assert_array_equal(got[idx], bounds._canonical_vector(stack[idx]))
        assert np.all(got[0, :, 1].real > 0) and np.abs(got[0, :, 1].imag).max() <= 1e-15


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
        achieved = objective(design, res.state.e, res.state.e)
        assert achieved > 1.2926  # printed split value is 1.25414
        assert abs(res.value - 1.29270) < 5e-5

    def test_d4_lex_subsets_beat_printed_cells(self):
        sic = sic_povm(4)
        opts = OptimizerOptions(seed=0, restarts=128)
        up5 = separable_upper_bound(sic.subset(range(5)), opts)
        achieved = objective(sic.subset(range(5)), up5.state.e, up5.state.e)
        assert achieved > 1.3850  # printed 1.3766
        for size, printed, true_floor in ((7, 0.0067, 0.0013), (8, 0.0279, 0.0148), (10, 0.0693, 0.0591)):
            lo = separable_lower_bound(sic.subset(range(size)), opts)
            achieved = objective(sic.subset(range(size)), lo.state.e, lo.state.f)
            assert achieved < printed - 1e-3
            assert abs(lo.value - true_floor) < 5e-4


class TestOptimizerProperties:
    def test_each_bound_is_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = bounds._two_vector_iterate

        def counting(*args, **kwargs):
            calls.append(kwargs["minimize"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(bounds, "_two_vector_iterate", counting)
        design = sic_povm(3).subset(range(4))
        separable_lower_bound(design, OPTS)
        assert calls == [True]
        separable_upper_bound(design, OPTS)
        assert calls == [True, False]

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

    @pytest.mark.parametrize("point", [(np.pi / 2,) * 3, (1.0, 2.0, 0.5)])
    def test_monotone_descent_history_with_newton_steps(self, point):
        # Newton steps engage within 60 sweeps on the symmetric triple's flat
        # floor and at a generic family point, where most of them, from these
        # starts, would raise the objective; only steps that lower it are kept
        v = _d4_triple(*point)
        rng = np.random.default_rng(0)
        e0, f0 = _random_unit(rng, (8, 4)), _random_unit(rng, (8, 4))
        hist = np.array([
            _two_vector_iterate(v[None], e0, f0, minimize=True, tol=1e-12, max_sweeps=k)[2]
            for k in range(1, 61)
        ])
        assert np.all(np.diff(hist, axis=0) <= 1e-12)
        assert np.all(hist[-1] < hist[0] - 1e-6)

    def test_determinism(self):
        design = sic_povm(3).subset([0, 1, 3, 5])
        a = separable_lower_bound(design, OptimizerOptions(seed=7))
        b = separable_lower_bound(design, OptimizerOptions(seed=7))
        assert a.value == b.value
        np.testing.assert_array_equal(a.state.e, b.state.e)
        np.testing.assert_array_equal(a.state.f, b.state.f)
        ua = separable_upper_bound(design, OptimizerOptions(seed=7))
        ub = separable_upper_bound(design, OptimizerOptions(seed=7))
        assert ua.value == ub.value
        np.testing.assert_array_equal(ua.state.e, ub.state.e)

    def test_conjugation_invariance(self, rng):
        # f -> conj(f) maps the conjugated witness's product values onto the
        # plain objective, so the plain bound is the conjugated one too
        for design in (standard_mubs(3).subset(range(2)), sic_povm(3).subset(range(6))):
            res = separable_lower_bound(design, OPTS)
            w = CorrelationSpec(design, conjugate_second=True).witness
            k = np.kron(res.state.e, res.state.f.conj())
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


def test_singular_hessian_takes_no_step(monkeypatch):
    # a chunk whose solve fails is solved one restart at a time: a singular
    # restart keeps its state and objective, the others step as in the chunk
    v = _d4_triple(1.0, 2.0, 0.5)
    vc = v.conj()
    w_f = bounds._amps_sq(vc, _random_unit(np.random.default_rng(0), (4, 4)))
    e, _, frame_e = bounds._eig_extreme(bounds._weighted_frame(w_f, v, vc), False)
    w_e = bounds._amps_sq(vc, e)
    f, vals_f, frame_f = bounds._eig_extreme(bounds._weighted_frame(w_e, v, vc), False)
    w_f = bounds._amps_sq(vc, f)
    args = (vc, frame_e, frame_f, vals_f, w_f, np.sum(w_e * w_f, axis=-1))
    want = bounds._newton_step(*args)
    real, calls = np.linalg.solve, []

    def solve(a, b):
        calls.append(a.ndim)
        if len(calls) in (1, 3):  # the chunk, then restart 1 alone
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    got = bounds._newton_step(*args)
    assert calls == [3, 2, 2, 2, 2]
    for i in (0, 2, 3):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a[i], b[i])
    np.testing.assert_array_equal(got[0][1], e[1])
    np.testing.assert_array_equal(got[1][1], f[1])
    assert got[3][1] == args[5][1]


def test_family_scan_work_guard(monkeypatch):
    # matrices the 9-step scan hands the eigensolver, noise-free: 318,162 with
    # first-order tails only; and no confirmation runs out of sweeps
    real_eig, real_lower = bounds._eig_extreme, bounds.separable_lower_bound
    matrices, stops = [], []

    def counted(m, maximize):
        matrices.append(math.prod(m.shape[:-2]))
        return real_eig(m, maximize)

    def confirmed(*args, **kwargs):
        res = real_lower(*args, **kwargs)
        stops.append(res.stop_reason)
        return res

    monkeypatch.setattr(bounds, "_eig_extreme", counted)
    monkeypatch.setattr(bounds, "separable_lower_bound", confirmed)
    d4_family_scan(9, OPTS, refine_count=1)
    assert sum(matrices) <= 200_000, sum(matrices)
    assert stops and "max_sweeps" not in stops, stops


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
