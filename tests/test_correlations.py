"""Correlation sums, witness operators, and the device-independent conversion."""

import re

import numpy as np
import pytest

from twodesign import (
    CorrelationSpec,
    DimensionMismatchError,
    coincidence_probability,
    correlation_sum,
    design_witness_operator,
    isotropic_state,
    max_entangled_state,
    mdi_conversion,
    partial_transpose,
    sic_povm,
    standard_mubs,
    symmetry_projectors,
    validate_density,
    werner_state,
)
from twodesign.core import (
    random_bipartite_density,
    random_density,
    random_state_vector,
)


def pure_density(vec, d):
    return validate_density(np.outer(vec, vec.conj()), d)


class TestCoincidenceProbability:
    def test_projector_on_itself(self, rng):
        u = random_state_vector(3, rng)
        v = random_state_vector(3, rng)
        rho = pure_density(np.kron(u, v), 3)
        assert abs(coincidence_probability(rho, u, v) - 1) < 1e-12

    def test_maximally_mixed(self, rng):
        for d in (2, 3):
            rho = validate_density(np.eye(d * d) / d**2, d)
            u = random_state_vector(d, rng)
            v = random_state_vector(d, rng)
            assert abs(coincidence_probability(rho, u, v) - 1 / d**2) < 1e-12

    def test_max_entangled_with_conjugate(self, rng):
        phi = max_entangled_state(3)
        rho = pure_density(phi, 3)
        for _ in range(50):
            u = random_state_vector(3, rng)
            assert abs(coincidence_probability(rho, u, u.conj()) - 1 / 3) < 1e-12

    def test_dimension_mismatch(self, rng):
        rho = validate_density(np.eye(4) / 4, 2)
        with pytest.raises(DimensionMismatchError):
            coincidence_probability(rho, random_state_vector(3, rng), random_state_vector(3, rng))

    @pytest.mark.parametrize("u, v, message", [
        ([np.nan, 0], [1, 0], "non-finite entries"),
        ([1, 0], [0, np.inf], "non-finite entries"),
        ([2, 0], [1, 0], "u must be a unit vector, got norm 2.0"),
        ([1, 0], [0, 1 + 1e-9], "v must be a unit vector"),
    ], ids=["u NaN", "v inf", "u norm 2", "v norm 1 + 1e-9"])
    def test_rejects_non_finite_and_non_unit_vectors(self, u, v, message):
        rho = validate_density(np.eye(4) / 4, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            coincidence_probability(rho, u, v)


class TestCorrelationSums:
    def test_mub_maximally_mixed(self):
        for d, m in ((2, 2), (3, 4), (4, 3)):
            rho = validate_density(np.eye(d * d) / d**2, d)
            spec = CorrelationSpec(standard_mubs(d).subset(range(m)))
            assert abs(correlation_sum(rho, spec) - m / d) < 1e-12

    def test_mub_werner_closed_form(self, rng):
        spec = CorrelationSpec(standard_mubs(3))
        for p in rng.uniform(size=5):
            value = correlation_sum(werner_state(3, p), spec)
            assert abs(value - 2 * p) < 1e-12

    def test_mub_max_entangled_conjugated(self):
        phi = max_entangled_state(3)
        spec = CorrelationSpec(standard_mubs(3), conjugate_second=True)
        value = correlation_sum(pure_density(phi, 3), spec)
        assert abs(value - 4) < 1e-12

    def test_sic_werner_closed_form(self, rng):
        spec = CorrelationSpec(sic_povm(3))
        for p in rng.uniform(size=5):
            value = correlation_sum(werner_state(3, p), spec)
            assert abs(value - 3 * p / 2) < 1e-12

    def test_sic_isotropic_conjugated(self, rng):
        spec = CorrelationSpec(sic_povm(3), conjugate_second=True)
        for q in rng.uniform(size=5):
            value = correlation_sum(isotropic_state(3, q), spec)
            assert abs(value - (2 * q + 1)) < 1e-12

    def test_sic_maximally_mixed(self):
        for d, mt in ((2, 3), (3, 7)):
            rho = validate_density(np.eye(d * d) / d**2, d)
            spec = CorrelationSpec(sic_povm(d).subset(range(mt)))
            assert abs(correlation_sum(rho, spec) - mt / d**2) < 1e-12

    def test_linearity(self, rng):
        spec = CorrelationSpec(sic_povm(2).subset([0, 1, 3]))
        r1 = random_bipartite_density(2, rng)
        r2 = random_bipartite_density(2, rng)
        alpha = 0.3
        mix = validate_density(alpha * r1.matrix + (1 - alpha) * r2.matrix, 2)
        lhs = correlation_sum(mix, spec)
        rhs = alpha * correlation_sum(r1, spec) + (1 - alpha) * correlation_sum(r2, spec)
        assert abs(lhs - rhs) < 1e-12

    def test_range(self, rng):
        for spec in (
            CorrelationSpec(standard_mubs(3).subset(range(2))),
            CorrelationSpec(sic_povm(3).subset(range(5))),
        ):
            cap = spec.size if spec.kind != "mub" else spec.size
            for _ in range(20):
                value = correlation_sum(random_bipartite_density(3, rng), spec)
                assert -1e-12 <= value <= cap + 1e-12


class TestWitnessOperator:
    def test_cached_witness_is_read_only(self):
        spec = CorrelationSpec(sic_povm(3), conjugate_second=True)
        assert spec.witness is spec.witness
        with pytest.raises(ValueError):
            spec.witness[0, 0] = 0
        copy = design_witness_operator(spec)
        copy[0, 0] = 0  # the public operator is a writable copy
        assert spec.witness[0, 0] != 0

    def test_full_mub_design_is_scaled_symmetric_projector(self):
        spec = CorrelationSpec(standard_mubs(2))
        p_sym, _ = symmetry_projectors(2)
        np.testing.assert_allclose(design_witness_operator(spec), 2 * p_sym, atol=1e-13)

    def test_single_basis_diagonal(self):
        spec = CorrelationSpec(standard_mubs(2).subset([0]))
        np.testing.assert_allclose(
            design_witness_operator(spec), np.diag([1, 0, 0, 1]), atol=0
        )

    def test_trace_against_correlation_sum(self, rng):
        spec = CorrelationSpec(sic_povm(3).subset(range(5)))
        w = design_witness_operator(spec)
        for _ in range(20):
            rho = random_bipartite_density(3, rng)
            assert abs(np.trace(w @ rho.matrix).real - correlation_sum(rho, spec)) < 1e-12


class TestMdiConversion:
    def test_standard_basis_factor_unchanged(self):
        # computational-basis projectors are real, so transposition fixes them
        spec = CorrelationSpec(standard_mubs(3).subset([0]))
        w = design_witness_operator(spec)
        w_mdi, preps = mdi_conversion(spec)
        np.testing.assert_allclose(w_mdi, w, atol=0)
        assert len(preps) == 3

    def test_double_transpose_involution(self):
        spec = CorrelationSpec(sic_povm(2))
        w = design_witness_operator(spec)
        w_mdi, _ = mdi_conversion(spec)
        d = spec.dim
        again = partial_transpose(
            partial_transpose(w_mdi, "A", local_dim=d), "B", local_dim=d
        )
        np.testing.assert_allclose(again, w, atol=1e-14)

    def test_transpose_pairing_identity(self, rng):
        spec = CorrelationSpec(sic_povm(2))
        w = design_witness_operator(spec)
        w_mdi, _ = mdi_conversion(spec)
        assert abs(np.trace(w_mdi) - np.trace(w)) < 1e-13
        for _ in range(20):
            rho = random_bipartite_density(2, rng)
            rho_tt = partial_transpose(
                partial_transpose(rho, "A"), "B", local_dim=2
            )
            lhs = np.trace(w_mdi @ rho_tt).real
            rhs = np.trace(w @ rho.matrix).real
            assert abs(lhs - rhs) < 1e-12

    def test_preparations_are_conjugated_design(self):
        spec = CorrelationSpec(sic_povm(2))
        _, preps = mdi_conversion(spec)
        for (a, b), v in zip(preps, spec.design.vectors):
            np.testing.assert_allclose(a, v.conj(), atol=0)
            np.testing.assert_allclose(b, v.conj(), atol=0)


class TestPurityIdentities:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mub_purity_sum(self, d, rng):
        vectors = standard_mubs(d).vectors
        for _ in range(20):
            rho = random_density(d, rng)
            purity = np.trace(rho @ rho).real
            total = sum(np.real(v.conj() @ rho @ v) ** 2 for v in vectors)
            assert abs(total - (1 + purity)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sic_purity_sum(self, d, rng):
        vectors = sic_povm(d).vectors
        for _ in range(20):
            rho = random_density(d, rng)
            purity = np.trace(rho @ rho).real
            total = sum(np.real(v.conj() @ rho @ v) ** 2 for v in vectors)
            assert abs(total - d * d * (1 + purity) / (d * (d + 1))) < 1e-10


def test_correlation_sum_rejects_another_dimension():
    with pytest.raises(DimensionMismatchError, match="state has local dimension 2, design has 3"):
        correlation_sum(werner_state(2, 0.5), CorrelationSpec(standard_mubs(3)))
