"""Core linear algebra: Kronecker products, partial transpose, projectors."""

import json
import re
import warnings

import numpy as np
import pytest

from twodesign import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
    UnsupportedDimensionError,
    kron,
    load_density,
    max_entangled_state,
    partial_transpose,
    permutation_operator,
    save_density,
    symmetry_projectors,
    validate_density,
    werner_state,
)
from twodesign.core import (
    PSD_FLOOR,
    STRUCTURAL_TOL,
    _check_densities,
    density_from_json_obj,
    density_to_json_obj,
    random_bipartite_density,
    random_density,
    random_state_vector,
)

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    """Entrywise four-loop Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projector(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1  # |01>
        np.testing.assert_allclose(out, expected, atol=0)

    def test_pauli_matches_oracle(self):
        np.testing.assert_array_equal(kron(X2, Z2), kron_oracle(X2, Z2))

    def test_bilinear_and_associative_vs_oracle(self, rng):
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            np.testing.assert_allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)
            np.testing.assert_allclose(
                kron(a + c, b), kron(a, b) + kron(c, b), atol=1e-12
            )
            np.testing.assert_allclose(
                kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12
            )

    def test_size_cap(self):
        with pytest.raises(DimensionMismatchError):
            kron(np.eye(9), np.eye(9))


class TestPartialTranspose:
    def test_product_state(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = np.kron(a, b)
        np.testing.assert_allclose(
            partial_transpose(m, "B", local_dim=3), np.kron(a, b.T), atol=1e-13
        )
        np.testing.assert_allclose(
            partial_transpose(m, "A", local_dim=3), np.kron(a.T, b), atol=1e-13
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_transpose_is_max_entangled(self, d):
        swap = permutation_operator(d)
        phi = max_entangled_state(d)
        np.testing.assert_allclose(
            partial_transpose(swap, "B", local_dim=d) / d,
            np.outer(phi, phi.conj()),
            atol=1e-13,
        )

    def test_entangled_werner_has_negative_pt_eigenvalue(self):
        rho = werner_state(2, 0.0)
        eigs = np.linalg.eigvalsh(partial_transpose(rho))
        assert eigs.min() < -1e-3

    def test_involution_and_trace(self, rng):
        rho = random_bipartite_density(3, rng)
        pt = partial_transpose(rho)
        np.testing.assert_allclose(
            partial_transpose(pt, "B", local_dim=3), rho.matrix, atol=0
        )
        assert abs(np.trace(pt) - 1) < 1e-13


class TestSymmetryProjectors:
    def test_traces_d2(self):
        p_sym, p_asym = symmetry_projectors(2)
        assert abs(np.trace(p_sym) - 3) < 1e-13
        assert abs(np.trace(p_asym) - 1) < 1e-13

    def test_resolution_of_identity_d3(self):
        p_sym, p_asym = symmetry_projectors(3)
        np.testing.assert_allclose(p_sym + p_asym, np.eye(9), atol=1e-14)

    def test_orthogonality_d4(self):
        p_sym, p_asym = symmetry_projectors(4)
        assert np.abs(p_sym @ p_asym).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projector_algebra_and_ranks(self, d):
        for proj, rank in zip(symmetry_projectors(d), (d * (d + 1) // 2, d * (d - 1) // 2)):
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-13)
            np.testing.assert_allclose(proj, proj.conj().T, atol=1e-14)
            assert int((np.linalg.eigvalsh(proj) > 0.5).sum()) == rank


class TestMaxEntangled:
    def test_d2_definition(self):
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(max_entangled_state(2), expected, atol=0)

    def test_reduced_state_is_maximally_mixed(self):
        phi = max_entangled_state(3)
        rho = np.outer(phi, phi.conj()).reshape(3, 3, 3, 3)
        reduced = np.einsum("ikjk->ij", rho)
        np.testing.assert_allclose(reduced, np.eye(3) / 3, atol=1e-14)

    def test_overlap_with_conjugated_product(self, rng):
        phi = max_entangled_state(4)
        for _ in range(100):
            b = random_state_vector(4, rng)
            amp = phi.conj() @ np.kron(b, b.conj())
            assert abs(amp - 1 / 2) < 1e-13  # 1/sqrt(d) with d = 4


class TestValidateDensity:
    def test_maximally_mixed_accepted(self):
        rho = validate_density(np.eye(9) / 9, 3)
        assert rho.local_dim == 3

    def test_unit_trace_violation(self):
        with pytest.raises(NotUnitTraceError) as err:
            validate_density(np.eye(4) / 4 * 1.1, 2)
        assert abs(err.value.violation - 0.1) < 1e-12

    def test_werner_composition_accepted(self):
        rho = werner_state(3, 0.3)
        again = validate_density(rho.matrix, 3)
        assert again.local_dim == 3

    def test_not_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.5j
        with pytest.raises(NotHermitianError):
            validate_density(m, 2)

    def test_not_positive(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(NotPositiveError):
            validate_density(m, 2)


class TestDensityStackChecks:
    BAD = {
        NotHermitianError: np.eye(4) / 4 + 0.5j * np.eye(4, k=1),
        NotUnitTraceError: np.eye(4) / 4 * 1.1,
        NotPositiveError: np.diag([0.6, 0.5, -0.05, -0.05]),
    }

    @pytest.mark.parametrize("error", list(BAD))
    def test_same_error_and_violation_as_one_matrix(self, error, rng):
        bad = self.BAD[error].astype(complex)
        with pytest.raises(error) as alone:
            validate_density(bad, 2)
        good = [random_bipartite_density(2, rng).matrix for _ in range(5)]
        stack = np.stack(good[:3] + [bad] + good[3:])
        with pytest.raises(error) as stacked:
            _check_densities(stack)
        assert stacked.value.violation == alone.value.violation

    def test_first_failing_matrix_wins(self, rng):
        good = random_bipartite_density(2, rng).matrix
        stack = np.stack([good, self.BAD[NotUnitTraceError], self.BAD[NotHermitianError]])
        with pytest.raises(NotUnitTraceError):
            _check_densities(stack.astype(complex))

    def test_valid_stack_passes(self, rng):
        _check_densities(np.stack([random_bipartite_density(3, rng).matrix for _ in range(70)]))


class TestRealStack:
    BAD = TestDensityStackChecks.BAD

    @pytest.mark.parametrize("error", list(BAD))
    def test_same_outcome_as_complex_copy(self, error):
        # scan_family checks its real end states as a stack, without a complex copy
        good = [np.eye(4) / 4, np.diag([0.5, 0.5, 0.0, 0.0])]
        _check_densities(np.stack(good))
        bad = np.eye(4) / 4 + 0.5 * np.eye(4, k=1) if error is NotHermitianError else self.BAD[error]
        stack = np.stack(good + [bad])
        with pytest.raises(error) as real:
            _check_densities(stack)
        with pytest.raises(error) as complex_:
            _check_densities(stack.astype(complex))
        assert real.value.violation == complex_.value.violation


class TestValidationThresholds:
    """Each check accepts half its documented tolerance and rejects twice it:
    1e-10 for hermiticity and trace, -1e-9 for the smallest eigenvalue."""

    @staticmethod
    def deviated(error, scale):
        """A d = 2 state off by ``scale`` tolerances in ``error``'s check alone."""
        dev, floor = scale * 1e-10, scale * -1e-9
        return {
            NotHermitianError: np.eye(4) / 4 + dev * np.eye(4, k=1),
            NotUnitTraceError: np.diag([0.25 + dev, 0.25, 0.25, 0.25]),
            NotPositiveError: np.diag([0.5 - floor, 0.25, 0.25, floor]),
        }[error].astype(complex)

    @pytest.mark.parametrize("error", [NotHermitianError, NotUnitTraceError, NotPositiveError])
    def test_half_accepted_twice_rejected(self, error):
        validate_density(self.deviated(error, 0.5), 2)
        _check_densities(self.deviated(error, 0.5)[None])
        with pytest.raises(error):
            validate_density(self.deviated(error, 2.0), 2)
        with pytest.raises(error):
            _check_densities(self.deviated(error, 2.0)[None])


def _no_eigvalsh(*args, **kwargs):
    raise AssertionError("eigvalsh called")


class TestDenseValidationThresholds:
    """The same thresholds on dense d = 3 and d = 4 states: a seeded
    Haar-rotated spectrum, checked alone and in the middle of a stack of
    valid states."""

    @staticmethod
    def deviated(error, scale, d, rng):
        """A dense state off by ``scale`` tolerances in ``error``'s check alone."""
        dev, floor = scale * 1e-10, scale * -1e-9
        n = d * d
        spectrum = rng.dirichlet(np.ones(n))
        if error is NotUnitTraceError:
            spectrum *= 1 + dev
        if error is NotPositiveError:
            spectrum = np.concatenate([[floor], spectrum[1:] * (1 - floor) / spectrum[1:].sum()])
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        m = (u * spectrum) @ u.conj().T
        m = (m + m.conj().T) / 2
        if error is NotHermitianError:
            m[0, 1] += dev
        return m

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("error", [NotHermitianError, NotUnitTraceError, NotPositiveError])
    def test_half_accepted_twice_rejected_alone_and_stacked(self, monkeypatch, error, d):
        rng = np.random.default_rng(100 + d)
        good = [random_bipartite_density(d, rng).matrix for _ in range(6)]
        half, twice = (self.deviated(error, scale, d, rng) for scale in (0.5, 2.0))
        with pytest.raises(error) as alone:
            validate_density(twice, d)
        with pytest.raises(error) as stacked:
            _check_densities(np.stack(good[:3] + [twice] + good[3:]))
        assert stacked.value.violation == alone.value.violation
        # accepted by the factorization itself, not by the eigenvalues of a failure
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        validate_density(half, d)
        _check_densities(np.stack(good[:3] + [half] + good[3:]))

    @pytest.mark.parametrize("d", [3, 4])
    def test_nine_tenths_of_the_floor_factor(self, monkeypatch, d):
        # lambda_min = 0.9 * PSD_FLOOR lies between the floor and half of it, so
        # only the documented shift of -2 * PSD_FLOOR factors it
        rng = np.random.default_rng(200 + d)
        good = [random_bipartite_density(d, rng).matrix for _ in range(6)]
        near = self.deviated(NotPositiveError, 0.9, d, rng)
        assert np.linalg.eigvalsh(near)[0] == pytest.approx(-0.9e-9, rel=1e-6)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        validate_density(near, d)
        _check_densities(np.stack(good[:3] + [near] + good[3:]))


class TestEigenvaluesOnlyForFailures:
    """Positivity is decided without eigenvalues; one is computed only to
    report the violation of a failing state."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_valid_inputs_call_no_eigvalsh(self, monkeypatch, rng, d):
        stack = np.stack([random_bipartite_density(d, rng).matrix for _ in range(64)])
        bad = np.diag([1.1] + [0.0] * (d * d - 2) + [-0.1]).astype(complex)
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
        for m in stack[:4]:
            validate_density(m, d)
        _check_densities(stack)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            validate_density(bad, d)
        monkeypatch.undo()
        with pytest.raises(NotPositiveError) as err:
            validate_density(bad, d)
        assert err.value.violation == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entries(self, entry):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = entry
        with pytest.raises(ValueError) as err:
            validate_density(m, 2)
        assert type(err.value) is ValueError and str(err.value) == "non-finite entries"


class TestFiniteScreen:
    """Finiteness is screened by sum |m_ij|^2 and, when that is not finite,
    decided entry by entry: huge finite entries get the outcome the exact
    checks give them, and no warning is raised on the way."""

    @pytest.mark.parametrize("matrix, error, message", [
        (np.diag([1e200, -1e200, 0.5, 0.5]), NotPositiveError,
         "matrix has a negative eigenvalue (violation 1.000e+200)"),
        (np.eye(4) * 1e200, NotUnitTraceError,
         "matrix does not have unit trace (violation 4.000e+200)"),
        (np.eye(4) / 4 + 1e200 * np.eye(4, k=1), NotHermitianError,
         "matrix is not Hermitian (violation 1.000e+200)"),
        (np.full((4, 4), 1e300 + 1e300j), NotHermitianError,
         "matrix is not Hermitian (violation 2.000e+300)"),
    ], ids=["negative", "trace", "hermiticity", "complex"])
    def test_huge_finite_entries(self, matrix, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                validate_density(matrix.astype(complex), 2)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                       complex(np.inf, 1.0), complex(0.0, -np.inf)])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_non_finite_entries(self, entry, scale):
        # at scale 1e200 the screen overflows and the entrywise check decides;
        # a symmetric pair of infinities must fail before m - m^H forms inf - inf
        m = np.eye(4, dtype=complex) * scale
        m[0, 3] = m[3, 0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                validate_density(m, 2)
            with pytest.raises(ValueError, match="^non-finite entries$"):
                kron(m, np.eye(2))
        assert type(err.value) is ValueError and str(err.value) == "non-finite entries"


def _reference_outcome(matrix, d):
    """What validation must decide, from max-entry checks and ``eigvalsh`` alone."""
    m = np.array(matrix, dtype=complex)
    if not np.isfinite(m).all():
        return ValueError, None
    if m.shape != (d * d, d * d):
        return DimensionMismatchError, None
    adj = m.conj().T
    herm = np.abs(m - adj).max()
    if herm > STRUCTURAL_TOL:
        return NotHermitianError, herm
    tr_dev = abs(np.trace(m) - 1.0)
    if tr_dev > STRUCTURAL_TOL:
        return NotUnitTraceError, tr_dev
    min_eig = np.linalg.eigvalsh((m + adj) / 2)[0]
    if min_eig < PSD_FLOOR:
        return NotPositiveError, -min_eig
    return None, None


def _outcome(matrix, d):
    try:
        validate_density(matrix, d)
    except ValueError as exc:
        return type(exc), getattr(exc, "violation", None)
    return None, None


def _boundary_battery(d, rng, per_kind=12):
    """Seeded (kind, matrix) pairs at and across each threshold of validation."""
    n = d * d

    def rotated(spectrum):
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        m = (u * spectrum) @ u.conj().T
        return (m + m.conj().T) / 2

    cases = []
    for _ in range(per_kind):
        cases.append(("valid", random_density(n, rng)))
        cases.append(("rank-deficient", random_density(n, rng, rank=int(rng.integers(1, n)))))
        # every entry above the diagonal off by 0.3e-10 to 0.9e-10 or 1.5e-10, in a
        # random phase: the max-entry and Frobenius tests disagree on most of them
        m = random_density(n, rng)
        upper = np.triu_indices(n, 1)
        size = len(upper[0])
        error = rng.uniform(0.3e-10, rng.choice([0.9e-10, 1.5e-10]), size)
        m[upper] += error * np.exp(2j * np.pi * rng.uniform(size=size))
        cases.append(("hermiticity", m))
        trace = 1 + rng.choice([-2e-10, -0.5e-10, 0.5e-10, 2e-10])
        cases.append(("trace", rotated(rng.dirichlet(np.ones(n)) * trace)))
        floor = PSD_FLOOR + rng.choice([-3e-12, 3e-12])
        rest = rng.dirichlet(np.ones(n - 1)) * (1 - floor)
        cases.append(("floor", rotated(np.concatenate([[floor], rest]))))
        m = random_density(n, rng)
        m[tuple(rng.integers(0, n, 2))] = rng.choice([np.nan, np.inf, -np.inf, complex(0, np.nan)])
        cases.append(("non-finite", m))
        wrong = np.eye(n + 1, dtype=complex) / (n + 1)
        cases.append(("wrong shape", wrong))
        wrong = wrong.copy()
        wrong[0, -1] = np.nan
        cases.append(("wrong shape and NaN", wrong))
    return cases


class TestFastAcceptance:
    """A valid state is accepted with one Cholesky factorization; the decision
    on every matrix is the one max-entry checks and eigenvalues give."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_decisions_match_the_exact_reference(self, d):
        rng = np.random.default_rng(3000 + d)
        seen = set()
        for kind, m in _boundary_battery(d, rng):
            want = _reference_outcome(m, d)
            assert _outcome(m, d) == want, kind
            if kind == "hermiticity" and want[0] is None:
                assert np.linalg.norm(m - m.conj().T) > STRUCTURAL_TOL
            seen.add((kind, want[0]))
        # each threshold is crossed both ways, and the hermiticity cases include
        # matrices that pass the entry test but not the Frobenius one
        for kind, outcome in [("valid", None), ("rank-deficient", None),
                              ("hermiticity", None), ("hermiticity", NotHermitianError),
                              ("trace", None), ("trace", NotUnitTraceError),
                              ("floor", None), ("floor", NotPositiveError),
                              ("non-finite", ValueError), ("wrong shape", DimensionMismatchError),
                              ("wrong shape and NaN", ValueError)]:
            assert (kind, outcome) in seen

    @staticmethod
    def counting(monkeypatch):
        calls = {"cholesky": 0, "eigvalsh": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_valid_state_costs_one_cholesky_and_no_eigenvalues(self, monkeypatch, rng, d):
        # full rank, rank one, and lambda_min = 0.9 PSD_FLOOR, which factors only when shifted
        near_floor = TestDenseValidationThresholds.deviated(NotPositiveError, 0.9, d, rng)
        states = [random_density(d * d, rng), random_density(d * d, rng, rank=1), near_floor]
        calls = self.counting(monkeypatch)
        for m in states:
            validate_density(m, d)
        assert calls == {"cholesky": len(states), "eigvalsh": 0}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_state_below_the_floor_costs_one_cholesky_and_one_eigvalsh(self, monkeypatch, d):
        bad = np.diag([1.1] + [0.0] * (d * d - 2) + [-0.1]).astype(complex)
        calls = self.counting(monkeypatch)
        with pytest.raises(NotPositiveError):
            validate_density(bad, d)
        assert calls == {"cholesky": 1, "eigvalsh": 1}


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        rho = random_bipartite_density(2, rng)
        path = tmp_path / "state.json"
        save_density(path, rho)
        loaded = load_density(path)
        np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=0)

    def test_json_obj_schema(self, rng):
        rho = random_bipartite_density(2, rng)
        obj = density_to_json_obj(rho)
        assert obj["local_dim"] == 2
        assert len(obj["matrix"]) == 4 and len(obj["matrix"][0]) == 4
        assert json.loads(json.dumps(obj)) == obj
        np.testing.assert_allclose(density_from_json_obj(obj).matrix, rho.matrix, atol=0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: kron(np.ones(2), np.ones(2)), ValueError, "kron expects 2-D operands"),
    (lambda: symmetry_projectors(9), UnsupportedDimensionError, "2 <= d <= 8, got 9"),
    (lambda: max_entangled_state(1), UnsupportedDimensionError, "need d >= 2"),
    (lambda: partial_transpose(np.eye(4)), ValueError, "local_dim required for a bare array"),
    (lambda: partial_transpose(np.eye(4), local_dim=3), DimensionMismatchError,
     "expected shape (9, 9), got (4, 4)"),
    (lambda: partial_transpose(np.eye(4) / 4, "C", local_dim=2), ValueError,
     "subsystem must be 'A' or 'B'"),
    (lambda: validate_density(np.eye(4) / 4, 3), DimensionMismatchError,
     "expected shape (9, 9), got (4, 4)"),
    (lambda: density_from_json_obj({"local_dim": 2}), ValueError,
     "malformed density-matrix object"),
], ids=["kron 1-D", "projectors d=9", "max entangled d=1", "bare array", "wrong shape",
        "subsystem C", "density shape", "malformed object"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
