"""Core linear algebra: Kronecker products, partial transpose, projectors."""

import json

import numpy as np
import pytest

from twodesign import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NotUnitTraceError,
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
    _check_densities,
    density_from_json_obj,
    density_to_json_obj,
    random_bipartite_density,
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
