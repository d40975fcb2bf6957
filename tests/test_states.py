"""Symmetric state families, the positive-approximation witness, detection."""

import dataclasses
import re

import numpy as np
import pytest

from twodesign import (
    BoundRecord,
    CorrelationSpec,
    DesignMismatchError,
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    OptimizerOptions,
    ParameterOutOfRangeError,
    SymmetricStateSpec,
    Verdict,
    closed_form_correlation,
    compute_bound_record,
    correlation_sum,
    design_closed_bounds,
    detect,
    isotropic_state,
    partial_transpose,
    permutation_operator,
    scan_family,
    separable_lower_bound,
    sic_povm,
    spa_witness,
    standard_mubs,
    symmetric_state,
    symmetry_projectors,
    validate_density,
    werner_state,
    witness_expectation,
)
from twodesign import states, tables
from twodesign.states import _classify
from twodesign.tables import ScanRow
from twodesign.core import random_bipartite_density, random_state_vector

OPTS = OptimizerOptions(seed=0)


class TestWernerState:
    def test_p1_is_normalized_symmetric_projector(self):
        p_sym, _ = symmetry_projectors(2)
        np.testing.assert_allclose(werner_state(2, 1.0).matrix, p_sym / 3, atol=1e-14)

    def test_boundary_pt_eigenvalue(self):
        rho = werner_state(3, 0.5)
        eigs = np.linalg.eigvalsh(partial_transpose(rho))
        assert abs(eigs.min()) < 1e-10

    def test_entangled_region_pt_negative(self):
        eigs = np.linalg.eigvalsh(partial_transpose(werner_state(3, 0.3)))
        assert eigs.min() < -1e-3

    def test_parameter_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            werner_state(3, 1.2)


class TestIsotropicState:
    def test_q0_maximally_mixed(self):
        np.testing.assert_allclose(isotropic_state(3, 0.0).matrix, np.eye(9) / 9, atol=0)

    def test_boundary_pt_eigenvalue(self):
        rho = isotropic_state(3, 0.25)
        eigs = np.linalg.eigvalsh(partial_transpose(rho))
        assert abs(eigs.min()) < 1e-10

    def test_entangled_region_pt_negative(self):
        eigs = np.linalg.eigvalsh(partial_transpose(isotropic_state(2, 0.5)))
        assert eigs.min() < -1e-3

    def test_parameter_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            isotropic_state(2, -0.1)


class TestClosedFormCorrelation:
    def test_werner_full_design(self, rng):
        for d in (2, 3, 4):
            for p in rng.uniform(size=3):
                cf = closed_form_correlation(SymmetricStateSpec("werner", d, p), "mub", d + 1)
                assert abs(cf.value - 2 * p) < 1e-14
                assert not cf.conjugate_second

    def test_isotropic_full_sic_at_q1(self):
        cf = closed_form_correlation(SymmetricStateSpec("isotropic", 3, 1.0), "sic", 9)
        assert abs(cf.value - 3) < 1e-14
        assert cf.conjugate_second

    def test_isotropic_mub_matches_numeric_oracle(self):
        cf = closed_form_correlation(SymmetricStateSpec("isotropic", 3, 1.0), "mub", 4)
        spec = CorrelationSpec(standard_mubs(3), conjugate_second=True)
        numeric = correlation_sum(isotropic_state(3, 1.0), spec)
        assert abs(cf.value - 4) < 1e-14
        assert abs(cf.value - numeric) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", ["werner", "isotropic"])
    @pytest.mark.parametrize("kind", ["mub", "sic"])
    def test_all_combinations_match_numeric(self, d, family, kind, rng):
        design = standard_mubs(d) if kind == "mub" else sic_povm(d)
        for x in rng.uniform(size=5):
            spec = SymmetricStateSpec(family, d, x)
            cf = closed_form_correlation(spec, kind, design.count)
            numeric = correlation_sum(
                symmetric_state(spec),
                CorrelationSpec(design, conjugate_second=cf.conjugate_second),
            )
            assert abs(cf.value - numeric) < 1e-10


class TestSpaWitness:
    def test_d2_operator_and_floor(self):
        w, floor = spa_witness(2)
        p_sym, _ = symmetry_projectors(2)
        np.testing.assert_allclose(w, p_sym / 3, atol=1e-14)
        assert abs(floor - 1 / 6) < 1e-15

    def test_unit_trace(self):
        w, _ = spa_witness(3)
        assert abs(np.trace(w) - 1) < 1e-12

    def test_floor_respected_by_random_products(self, rng):
        w, floor = spa_witness(3)
        for _ in range(2000):
            e = random_state_vector(3, rng)
            f = random_state_vector(3, rng)
            k = np.kron(e, f)
            assert np.real(k.conj() @ w @ k) >= floor - 1e-9

    def test_floor_equals_scaled_design_lower_bound(self):
        # the separable floor is the full-design lower bound divided by the
        # number of design projectors d(d+1)
        for d in (2, 3, 4):
            _, floor = spa_witness(d)
            lower, _ = design_closed_bounds(d, "mub")
            assert abs(floor - lower / (d * (d + 1))) < 1e-15


class TestWitnessExpectation:
    def test_identity(self, rng):
        rho = random_bipartite_density(3, rng)
        assert abs(witness_expectation(np.eye(9), rho) - 1) < 1e-12

    def test_swap_on_antisymmetric_state_is_negative(self):
        swap = permutation_operator(2)
        assert witness_expectation(swap, werner_state(2, 0.0)) < -0.9

    def test_spa_matches_scaled_correlation_sum(self, rng):
        w, _ = spa_witness(3)
        spec = CorrelationSpec(standard_mubs(3))
        for _ in range(10):
            rho = random_bipartite_density(3, rng)
            lhs = witness_expectation(w, rho)
            rhs = correlation_sum(rho, spec) / 12  # d(d+1) = 12
            assert abs(lhs - rhs) < 1e-12

    def test_not_hermitian_rejected(self, rng):
        rho = random_bipartite_density(2, rng)
        w = np.eye(4, dtype=complex)
        w[0, 1] = 1j
        with pytest.raises(NotHermitianError):
            witness_expectation(w, rho)


@pytest.fixture(scope="module")
def full_mub3_record():
    return compute_bound_record(standard_mubs(3), OPTS)


class TestDetect:
    def test_werner_by_lower(self, full_mub3_record):
        spec = CorrelationSpec(standard_mubs(3))
        verdict = detect(werner_state(3, 0.3), spec, full_mub3_record)
        assert verdict.verdict is Verdict.ENTANGLED_BY_LOWER
        assert abs(verdict.value - 0.6) < 1e-10

    def test_isotropic_by_upper(self, full_mub3_record):
        spec = CorrelationSpec(standard_mubs(3), conjugate_second=True)
        verdict = detect(isotropic_state(3, 0.5), spec, full_mub3_record)
        assert verdict.verdict is Verdict.ENTANGLED_BY_UPPER
        assert abs(verdict.value - 8 / 3) < 1e-10

    def test_maximally_mixed_inconclusive(self, full_mub3_record):
        rho = validate_density(np.eye(9) / 9, 3)
        verdict = detect(rho, CorrelationSpec(standard_mubs(3)), full_mub3_record)
        assert verdict.verdict is Verdict.INCONCLUSIVE

    def test_design_mismatch(self, full_mub3_record):
        spec = CorrelationSpec(sic_povm(3))
        with pytest.raises(DesignMismatchError):
            detect(isotropic_state(3, 0.5), spec, full_mub3_record)

    def test_subset_mismatch(self):
        # a record of subset (1,2,3,4,5,7) must not judge data of (1,2,3,4,5,6):
        # that subset's product-state minimizer lies far below the record's floor
        sic = sic_povm(3)
        record = compute_bound_record(sic.subset([0, 1, 2, 3, 4, 6]), OPTS)
        assert record.provenance == "explicit[1,2,3,4,5,7]"
        other = sic.subset(range(6))
        low = separable_lower_bound(other, OPTS)
        k = np.kron(low.state.e, low.state.f)
        rho = validate_density(np.outer(k, k.conj()), 3)
        with pytest.raises(DesignMismatchError):
            detect(rho, CorrelationSpec(other), record)
        own = compute_bound_record(other, OPTS)
        assert detect(rho, CorrelationSpec(other), own).verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("tol", [-5.0, -1e-12, np.nan, np.inf])
    def test_rejects_a_negative_or_non_finite_tol(self, tol):
        # a negative band would flag the floor itself: werner p = 0.5 sits on it
        spec = CorrelationSpec(standard_mubs(2))
        record = closed_form_record(standard_mubs(2), "mub")
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            detect(werner_state(2, 0.5), spec, record, tol)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            scan_family("werner", 2, spec, record, tol=tol)
        assert detect(werner_state(2, 0.5), spec, record, 0.0).value == pytest.approx(1.0)

    def test_subsets_from_generators_mismatch(self):
        # each generator is read once, so the two pairs of bases keep their
        # own provenance and the record of one cannot judge the other
        mubs = standard_mubs(3)
        record = compute_bound_record(mubs.subset(i for i in (0, 1)), OPTS)
        spec = CorrelationSpec(mubs.subset(i for i in (2, 3)))
        with pytest.raises(DesignMismatchError):
            detect(werner_state(3, 0), spec, record)


def closed_form_record(design, kind):
    lower, upper = design_closed_bounds(design.dim, kind)
    return BoundRecord(
        design_kind=kind, dim=design.dim, size=design.count,
        subset_or_params="closed-form(full design)", lower=lower, upper=upper,
        argmin=None, argmax=None, restarts=0, converged=True,
    )


def assert_rows_match_detect(scan, family, spec, record, indices):
    """Rows at ``indices`` equal the per-point path detect(symmetric_state(...))."""
    for i in indices:
        row = scan.rows[i]
        x = min(max(row.parameter, 0.0), 1.0)
        point = detect(symmetric_state(SymmetricStateSpec(family, spec.dim, x)), spec, record)
        assert row.verdict == point.verdict.value, (family, row.parameter)
        assert abs(row.value - point.value) <= 1e-12, (family, row.parameter)


class TestScanFamily:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mub", "sic"])
    def test_matches_per_point_detect(self, d, kind):
        design = standard_mubs(d) if kind == "mub" else sic_povm(d)
        record = closed_form_record(design, kind)
        for family, conj, threshold in (("werner", False, 0.5), ("isotropic", True, 1 / (d + 1))):
            spec = CorrelationSpec(design, conjugate_second=conj)
            scan = scan_family(family, d, spec, record)
            params = [row.parameter for row in scan.rows]
            assert params == [k * 1e-3 for k in range(1001)]
            assert_rows_match_detect(scan, family, spec, record, range(len(params)))
            flip = scan.first_flip
            assert abs(flip[0] - threshold) <= 1e-3 + 1e-12
            k = params.index(flip[0])
            assert {row.verdict for row in scan.rows[:k]} == {flip[1]}
            assert scan.rows[k].verdict == flip[2]

    def test_every_row_of_a_fine_scan(self):
        design = sic_povm(3)
        record = closed_form_record(design, "sic")
        spec = CorrelationSpec(design, conjugate_second=True)
        scan = scan_family("isotropic", 3, spec, record, step=1e-4)
        n = len(scan.rows)
        assert n == 10001
        assert_rows_match_detect(scan, "isotropic", spec, record, range(n))
        k = next(i for i, row in enumerate(scan.rows) if row.verdict != scan.rows[0].verdict)
        assert scan.first_flip == (scan.rows[k].parameter, scan.rows[0].verdict, scan.rows[k].verdict)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mub", "sic"])
    def test_first_flip_at_the_first_crossing(self, d, kind):
        # the closed-form sums give the line; its first crossing of [L, U]
        # inside [0, 1] is where the verdict must first change, to one step
        design = standard_mubs(d) if kind == "mub" else sic_povm(d)
        record = closed_form_record(design, kind)
        step = 1e-3
        for family, conj in (("werner", False), ("isotropic", True)):
            at0, at1 = (closed_form_correlation(SymmetricStateSpec(family, d, x), kind,
                                                design.count).value for x in (0.0, 1.0))
            crossings = [(b - at0) / (at1 - at0) for b in (record.lower, record.upper)]
            first = min(c for c in crossings if 0 <= c <= 1)
            scan = scan_family(family, d, CorrelationSpec(design, conjugate_second=conj), record,
                               step=step)
            assert abs(scan.first_flip[0] - first) <= step + 1e-12, (family, scan.first_flip)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mub", "sic"])
    def test_end_rows_are_detect_values(self, d, kind):
        # the rows at 0 and 1 are detect's values on the end states, to the bit
        design = standard_mubs(d) if kind == "mub" else sic_povm(d)
        record = closed_form_record(design, kind)
        for family in ("werner", "isotropic"):
            for conj in (False, True):
                spec = CorrelationSpec(design, conjugate_second=conj)
                scan = scan_family(family, d, spec, record)
                ends = [scan.rows[0], scan.rows[-1]]
                assert [row.parameter for row in ends] == [0.0, 1.0]
                assert [row.value for row in ends] == [
                    detect(symmetric_state(SymmetricStateSpec(family, d, x)), spec, record).value
                    for x in (0.0, 1.0)], (family, conj)

    def test_validates_the_end_states(self, monkeypatch):
        # a family whose x = 1 end is not positive: the scan must refuse it
        def stub(family, d, x):
            bad = np.diag([2.0, -1.0] + [0.0] * (d * d - 2))
            return x * bad + (1 - x) * np.eye(d * d) / (d * d)

        monkeypatch.setattr(states, "_family_matrix", stub)
        design = standard_mubs(3)
        with pytest.raises(NotPositiveError):
            scan_family("werner", 3, CorrelationSpec(design), closed_form_record(design, "mub"))

    @staticmethod
    def _no_scan(family, d, spec):
        raise AssertionError("the range check let the scan start")

    @pytest.mark.parametrize("arg", ["start", "stop", "step"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_range(self, monkeypatch, full_mub3_record, arg, bad):
        monkeypatch.setattr(tables, "_family_line", self._no_scan)
        with pytest.raises(ValueError, match=f"^{arg} must be finite"):
            scan_family("werner", 3, CorrelationSpec(standard_mubs(3)), full_mub3_record,
                        **{arg: bad})

    def test_row_cap_is_checked_before_the_scan(self, monkeypatch, full_mub3_record):
        monkeypatch.setattr(tables, "_family_line", self._no_scan)
        spec = CorrelationSpec(standard_mubs(3))
        cap = tables.MAX_SCAN_ROWS
        # the exact count, or inf once the span overflows
        too_long = (({"stop": cap, "step": 1.0}, str(cap + 1)), ({"step": 1e-300}, r"\d+"),
                    ({"start": -1e308, "stop": 1e308}, "inf"))
        for kwargs, need in too_long:
            message = f"^start, stop and step need {need} rows, over {cap}$"
            with pytest.raises(ValueError, match=message):
                scan_family("werner", 3, spec, full_mub3_record, **kwargs)
        # exactly ``cap`` rows passes the check and reaches the end states
        with pytest.raises(AssertionError, match="let the scan start"):
            scan_family("werner", 3, spec, full_mub3_record, stop=cap - 1, step=1.0)

    def test_rejects_mismatched_design_and_dimension(self, full_mub3_record):
        with pytest.raises(DesignMismatchError):
            scan_family("werner", 3, CorrelationSpec(sic_povm(3)), full_mub3_record)
        with pytest.raises(DimensionMismatchError):
            scan_family("werner", 2, CorrelationSpec(standard_mubs(3)), full_mub3_record)
        with pytest.raises(ValueError):
            scan_family("bell", 3, CorrelationSpec(standard_mubs(3)), full_mub3_record)


def loop_scan(scan, record, tol=1e-9):
    """Verdicts and first flip of ``scan``'s values by a loop over ``_classify``."""
    verdicts = [_classify(row.value, record, tol).value for row in scan.rows]
    flips = [(row.parameter, verdicts[k - 1], verdicts[k])
             for k, row in enumerate(scan.rows) if k and verdicts[k] != verdicts[k - 1]]
    return verdicts, (flips[0] if flips else None)


class TestVectorizedScan:
    """The scan's verdicts, taken for the whole line at once, are the ones
    ``_classify`` gives row by row, ties at both band edges included."""

    @staticmethod
    def werner_mub2(record=None, **kwargs):
        design = standard_mubs(2)
        record = record or closed_form_record(design, "mub")
        return scan_family("werner", 2, CorrelationSpec(design), record, **kwargs), record

    def assert_matches_loop(self, scan, record, tol=1e-9):
        assert type(scan.rows) is tuple and all(type(r) is ScanRow for r in scan.rows)
        verdicts, flip = loop_scan(scan, record, tol)
        assert [row.verdict for row in scan.rows] == verdicts
        assert scan.first_flip == flip

    def test_ties_at_both_edges_are_inconclusive(self):
        # lower - tol and upper + tol land exactly on the values of rows 3 and 7
        tol = 2.0 ** -20
        base, record = self.werner_mub2(step=0.125)
        values = [row.value for row in base.rows]
        lower, upper = values[3] + tol, values[7] - tol
        assert (lower - tol, upper + tol) == (values[3], values[7])
        tied = dataclasses.replace(record, lower=lower, upper=upper)
        scan, _ = self.werner_mub2(tied, step=0.125, tol=tol)
        self.assert_matches_loop(scan, tied, tol)
        verdicts = [row.verdict for row in scan.rows]
        assert verdicts == (["EntangledByLower"] * 3 + ["Inconclusive"] * 5
                            + ["EntangledByUpper"])
        assert scan.first_flip == (0.375, "EntangledByLower", "Inconclusive")

    def test_no_flip(self):
        _, record = self.werner_mub2()
        wide = dataclasses.replace(record, lower=0.0, upper=3.0)
        scan, _ = self.werner_mub2(wide)
        self.assert_matches_loop(scan, wide)
        assert {row.verdict for row in scan.rows} == {"Inconclusive"} and scan.first_flip is None

    def test_flip_at_the_first_row(self):
        base, record = self.werner_mub2(step=0.1)
        first = dataclasses.replace(record, lower=(base.rows[0].value + base.rows[1].value) / 2)
        scan, _ = self.werner_mub2(first, step=0.1)
        self.assert_matches_loop(scan, first)
        assert scan.first_flip == (scan.rows[1].parameter, "EntangledByLower", "Inconclusive")

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mub", "sic"])
    def test_full_scans_match_the_loop(self, d, kind):
        design = standard_mubs(d) if kind == "mub" else sic_povm(d)
        record = closed_form_record(design, kind)
        for family, conj in (("werner", False), ("isotropic", True)):
            scan = scan_family(family, d, CorrelationSpec(design, conjugate_second=conj), record)
            self.assert_matches_loop(scan, record)

    @pytest.mark.parametrize("start, stop, step, params", [
        (0.0, 1.0, 0.35, [0.0, 0.35, 0.7]),               # 1.05 used to be reported
        (0.2, 0.5, 0.2, [0.2, 0.4]),
        (0.2, 0.5, 0.1, [0.2, 0.2 + 0.1, 0.2 + 2 * 0.1, 0.2 + 3 * 0.1]),  # 0.3 / 0.1 < 3
        (0.6, 0.6, 1e-3, [0.6]),
    ])
    def test_no_row_past_stop(self, start, stop, step, params):
        scan, _ = self.werner_mub2(start=start, stop=stop, step=step)
        assert [row.parameter for row in scan.rows] == params
        assert scan.rows[-1].parameter <= stop + 1e-9 * step

    def test_row_cap_counts_the_same_rows(self, monkeypatch):
        # stop = cap - 0.5 at step 1 has rows 0 .. cap - 1: exactly the cap, so it passes
        monkeypatch.setattr(tables, "_family_line", TestScanFamily._no_scan)
        cap = tables.MAX_SCAN_ROWS
        with pytest.raises(AssertionError, match="let the scan start"):
            self.werner_mub2(stop=cap - 0.5, step=1.0)
        with pytest.raises(ValueError, match=f"rows, over {cap}"):
            self.werner_mub2(stop=float(cap), step=1.0)


class TestDetectDescriptor:
    def test_fresh_equal_dict_per_call(self):
        spec = CorrelationSpec(standard_mubs(3), conjugate_second=True)
        first, second = spec.descriptor(), spec.descriptor()
        assert first == second == {"kind": "mub", "dim": 3, "size": 4,
                                   "provenance": "standard", "conjugate_second": True}
        assert first is not second

    def test_mutating_a_verdict_leaves_the_next_unchanged(self, full_mub3_record):
        spec = CorrelationSpec(standard_mubs(3))
        verdict = detect(werner_state(3, 0.3), spec, full_mub3_record)
        want = dict(verdict.design_descriptor)
        verdict.design_descriptor["kind"] = "sic"
        verdict.design_descriptor.clear()
        again = detect(werner_state(3, 0.3), spec, full_mub3_record)
        assert again.design_descriptor == want == spec.descriptor()


@pytest.mark.parametrize("call, error, message", [
    (lambda: SymmetricStateSpec("bell", 2, 0.5), ValueError,
     "family must be 'werner' or 'isotropic'"),
    (lambda: closed_form_correlation(SymmetricStateSpec("werner", 2, 0.5), "povm", 4),
     ValueError, "design_kind must be 'mub' or 'sic'"),
    (lambda: spa_witness(1), ValueError, "need d >= 2"),
    (lambda: witness_expectation(np.eye(9), werner_state(2, 0.5)), DimensionMismatchError,
     "operator shape (9, 9) vs state (4, 4)"),
    (lambda: witness_expectation(np.diag([np.nan, 1, 1, 1]), werner_state(2, 0.5)), ValueError,
     "non-finite entries"),
    (lambda: witness_expectation(np.diag([np.inf, 1, 1, 1]), werner_state(2, 0.5)), ValueError,
     "non-finite entries"),
], ids=["unknown family", "unknown kind", "witness d=1", "witness shape", "witness NaN",
        "witness inf"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: tables.reproduce_table("VII"), "unknown table id 'VII'"),
    (lambda: scan_family("werner", 3, CorrelationSpec(standard_mubs(3)),
                         closed_form_record(standard_mubs(3), "mub"), step=0.0),
     "step must be positive"),
    (lambda: scan_family("werner", 3, CorrelationSpec(standard_mubs(3)),
                         closed_form_record(standard_mubs(3), "mub"), step=-1e-3),
     "step must be positive"),
], ids=["table VII", "step 0", "step -1e-3"])
def test_table_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
