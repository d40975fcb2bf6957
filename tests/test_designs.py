"""Design constructions and their verifiers."""

import itertools
import re

import numpy as np
import pytest

from twodesign import (
    Design,
    UnsupportedDimensionError,
    hw_displacement,
    hw_sic,
    mub_triple_family_d4,
    sic_fiducial,
    sic_povm,
    standard_mubs,
    verify_2design,
    verify_mub,
    verify_sic,
)
from twodesign.designs import _d4_triple

OMEGA = np.exp(2j * np.pi / 3)


# The hand-typed lists the phase rule and the d = 3 orbit replaced, kept as
# reference data: the bases' columns are their vectors.
def _listed_mubs_d2():
    s = 1 / np.sqrt(2)
    b1 = np.eye(2, dtype=complex)
    b2 = s * np.array([[1, 1], [1, -1]], dtype=complex)
    b3 = s * np.array([[1, 1], [1j, -1j]], dtype=complex)
    return np.concatenate([b.T for b in (b1, b2, b3)])


def _listed_mubs_d3():
    w = OMEGA
    s = 1 / np.sqrt(3)
    b1 = np.eye(3, dtype=complex)
    b2 = s * np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]])
    b3 = s * np.array([[1, 1, 1], [w, w ** 2, 1], [w, 1, w ** 2]])
    b4 = s * np.array([[1, 1, 1], [w ** 2, 1, w], [w ** 2, w, 1]])
    return np.concatenate([b.T for b in (b1, b2, b3, b4)])


def _listed_sic_d3():
    w = OMEGA
    rows = [
        [0, 1, -1],
        [-1, 0, 1],
        [1, -1, 0],
        [0, w, -w ** 2],
        [-w, 0, 1],
        [w ** 2, -1, 0],
        [0, w ** 2, -w],
        [-w ** 2, 0, 1],
        [w, -1, 0],
    ]
    return np.array(rows, dtype=complex) / np.sqrt(2)


class TestDesignsFromRules:
    def test_prime_rule_reproduces_the_d2_and_d3_lists_bit_for_bit(self):
        assert np.array_equal(standard_mubs(2).vectors, _listed_mubs_d2())
        assert np.array_equal(standard_mubs(3).vectors, _listed_mubs_d3())

    @pytest.mark.parametrize("p", [5, 7])
    def test_prime_rule_beyond_the_lists(self, p):
        mubs = standard_mubs(p)
        assert mubs.count == p + 1 and mubs.provenance == "standard"
        assert verify_mub(mubs, tol=1e-12).passed
        assert verify_2design(mubs.vectors) < 1e-13

    @pytest.mark.parametrize("d", [1, 8, 9])  # d = 6 in TestStandardMubs
    def test_no_rule_for_other_dimensions(self, d):
        with pytest.raises(UnsupportedDimensionError):
            standard_mubs(d)

    def test_d3_sic_orbit_matches_the_list(self):
        sic = sic_povm(3)
        assert np.abs(sic.vectors - _listed_sic_d3()).max() <= 1e-15
        assert sic.labels is None and sic.provenance == "explicit"


class TestStandardMubs:
    def test_d2_overlaps(self):
        mubs = standard_mubs(2)
        assert mubs.count == 3
        for a, b in itertools.combinations(mubs.groups, 2):
            ov = np.abs(a.conj() @ b.T) ** 2
            np.testing.assert_allclose(ov, 0.5, atol=1e-14)

    def test_d3_matches_printed_matrices(self):
        # columns of these matrices are the basis vectors
        s = 1 / np.sqrt(3)
        expected = [
            np.eye(3, dtype=complex),
            s * np.array([[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]),
            s * np.array([[1, 1, 1], [OMEGA, OMEGA**2, 1], [OMEGA, 1, OMEGA**2]]),
            s * np.array([[1, 1, 1], [OMEGA**2, 1, OMEGA], [OMEGA**2, OMEGA, 1]]),
        ]
        mubs = standard_mubs(3)
        for basis, mat in zip(mubs.groups, expected):
            np.testing.assert_allclose(basis, mat.T, atol=0)

    def test_d4_passes_verifier(self):
        report = verify_mub(standard_mubs(4), tol=1e-12)
        assert report.passed and report.max_deviation < 1e-12
        assert standard_mubs(4).count == 5

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            standard_mubs(6)


class TestTripleFamily:
    def test_extendible_triple_matches_standard(self):
        triple = mub_triple_family_d4(np.pi / 2, np.pi / 2, np.pi / 2)
        std = standard_mubs(4)
        # same bases up to per-column phases: every vector matches one vector
        # of the corresponding standard basis with overlap^2 = 1
        for fam_b, std_b in zip(triple.groups, std.groups[:3]):
            ov = np.abs(fam_b.conj() @ std_b.T) ** 2
            np.testing.assert_allclose(np.sort(ov.max(axis=1)), 1.0, atol=1e-13)

    @pytest.mark.parametrize("xyz", [(0.0, 0.0, 0.0), (np.pi / 2, 0.0, 0.0), (0.3, 1.1, 2.2)])
    def test_valid_for_all_parameters(self, xyz):
        report = verify_mub(mub_triple_family_d4(*xyz), tol=1e-12)
        assert report.passed

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            mub_triple_family_d4(4.0, 0.0, 0.0)

    def test_batched_build_equals_each_point(self):
        # the grid pass and the compass search build the family on batches
        x = np.array([[0.0, np.pi / 2, np.pi], [0.3, np.pi, 1.1]])
        y = np.array([[np.pi, 0.0, np.pi / 2], [2.2, 0.0, np.pi]])
        z = np.array([[np.pi / 2, np.pi, 0.0], [np.pi, 1.7, 0.4]])
        batch = _d4_triple(x, y, z)
        assert batch.shape == (2, 3, 12, 4)
        for idx in np.ndindex(2, 3):
            want = mub_triple_family_d4(x[idx], y[idx], z[idx]).vectors
            np.testing.assert_array_equal(batch[idx], want)
            for part in (np.real, np.imag):  # signed zeros too
                np.testing.assert_array_equal(np.signbit(part(batch[idx])), np.signbit(part(want)))


class TestVerifyMub:
    def test_standard_d3_tight(self):
        report = verify_mub(standard_mubs(3), tol=1e-10)
        assert report.passed and report.max_deviation < 1e-14

    def test_single_perturbed_vector_cannot_form_a_basis(self):
        mubs = standard_mubs(3)
        vecs = mubs.groups[1].copy()
        vecs[0] = vecs[0] + np.array([1e-3, 0, 0])
        vecs[0] /= np.linalg.norm(vecs[0])
        with pytest.raises(ValueError):
            Design("mub", 3, vecs)

    def test_rotated_basis_fails_unbiasedness(self, rng):
        # perturb a whole basis by a small unitary: orthonormality survives,
        # the 1/d cross overlaps do not
        mubs = standard_mubs(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (g + g.conj().T) / 2
        vals, u0 = np.linalg.eigh(h)
        rot = (u0 * np.exp(1e-3j * vals)) @ u0.conj().T
        rotated = mubs.groups[1] @ rot.T
        bad = Design("mub", 3, np.concatenate([mubs.groups[0], rotated]), provenance="custom")
        result = verify_mub(bad, tol=1e-10)
        assert not result.passed
        assert 1e-5 < result.max_deviation < 1e-2

    def test_single_basis_vacuous(self):
        single = standard_mubs(3).subset([0])
        assert verify_mub(single, tol=1e-12).passed


class TestHwDisplacement:
    def test_zero_powers_identity(self):
        for d in (2, 3, 4):
            np.testing.assert_allclose(hw_displacement(d, 0, 0), np.eye(d), atol=0)

    def test_shift(self):
        out = hw_displacement(2, 1, 0) @ np.array([1, 0], dtype=complex)
        np.testing.assert_allclose(out, [0, 1], atol=0)

    def test_d3_matches_entrywise_oracle(self):
        w = np.exp(2j * np.pi / 3)
        z = np.diag([1, w, w**2])
        x = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        expected = np.exp(-1j * np.pi / 3) * x @ z
        got = hw_displacement(3, 1, 1)
        np.testing.assert_allclose(got, expected, atol=1e-15)
        np.testing.assert_allclose(got @ got.conj().T, np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitary_everywhere(self, d):
        for a in range(d):
            for b in range(d):
                u = hw_displacement(d, a, b)
                np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-14)


class TestSicSets:
    def test_d2_tetrahedron_overlaps(self):
        sic = sic_povm(2)
        assert sic.count == 4
        ov = np.abs(sic.vectors.conj() @ sic.vectors.T) ** 2
        np.testing.assert_allclose(ov[~np.eye(4, dtype=bool)], 1 / 3, atol=1e-14)

    def test_d3_first_vector_entrywise(self):
        sic = sic_povm(3)
        np.testing.assert_allclose(
            sic.vectors[0], np.array([0, 1, -1]) / np.sqrt(2), atol=0
        )
        assert verify_sic(sic, tol=1e-13).passed

    def test_d4_orbit_passes(self):
        report = verify_sic(sic_povm(4), tol=1e-9)
        assert report.passed
        assert sic_povm(4).count == 16
        assert sic_povm(4).labels[:5] == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0))

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            sic_povm(5)

    def test_subset_still_passes(self):
        assert verify_sic(sic_povm(2).subset([0, 2]), tol=1e-12).passed

    def test_repeated_vector_fails(self):
        v = sic_povm(2).vectors
        bad = Design("sic", 2, np.array([v[0], v[0], v[1]]), provenance="custom")
        report = verify_sic(bad, tol=1e-10)
        assert not report.passed
        np.testing.assert_allclose(report.max_deviation, 1 - 1 / 3, atol=1e-12)


class TestOrbitProperty:
    def test_d3_orbit_reproduces_hesse_up_to_phases(self):
        orbit = hw_sic(3)
        stored = sic_povm(3)
        # index map: label (a, b) lands on stored vector 3b + a
        for (a, b), vec in zip(orbit.labels, orbit.vectors):
            target = stored.vectors[3 * b + a]
            assert abs(abs(np.vdot(vec, target)) ** 2 - 1) < 1e-13

    def test_d4_orbit_is_stored_set(self):
        np.testing.assert_allclose(hw_sic(4).vectors, sic_povm(4).vectors, atol=0)

    def test_d2_fiducial_orbit_is_a_valid_sic(self):
        # the stored d=2 tetrahedron is not displacement-covariant, so the
        # orbit is a different (equivalent) SIC; both must verify
        assert verify_sic(hw_sic(2), tol=1e-13).passed
        assert abs(np.linalg.norm(sic_fiducial(2)) - 1) < 1e-14


class TestVerify2Design:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_full_sets_are_2designs(self, d):
        assert verify_2design(standard_mubs(d).vectors) < 1e-13
        assert verify_2design(sic_povm(d).vectors) < 1e-13

    def test_single_basis_d2_deviation(self):
        # hand oracle: frame average (|00><00| + |11><11|)/2 versus
        # (1/3) P_sym; the largest entry deviation is 1/6, attained at
        # (00,00) and at the (01,01) block of the symmetric projector
        frame = np.zeros((4, 4))
        frame[0, 0] = frame[3, 3] = 0.5
        p_sym = np.array(
            [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]]
        )
        oracle = np.abs(frame - p_sym / 3).max()
        assert abs(oracle - 1 / 6) < 1e-15
        got = verify_2design(np.eye(2, dtype=complex))
        np.testing.assert_allclose(got, oracle, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_removing_any_vector_breaks_it(self, d):
        for vectors in (standard_mubs(d).vectors, sic_povm(d).vectors):
            n = len(vectors)
            for drop in range(n):
                kept = np.delete(vectors, drop, axis=0)
                assert verify_2design(kept) > 1e-3


class TestConstructorInvariants:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_everything_passes_its_verifier(self, d):
        assert verify_mub(standard_mubs(d), tol=1e-10).passed
        assert verify_sic(sic_povm(d), tol=1e-10).passed

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            Design("mub", 2, np.array([[1, 0], [1, 0]], dtype=complex))

    def test_shape_validation(self):
        v = sic_povm(2).vectors
        for kind, dim, vectors in (
            ("mub", 3, standard_mubs(3).vectors[:4]),   # not whole bases
            ("sic", 2, np.concatenate([v, v[:1]])),     # more than d^2 vectors
            ("sic", 3, v),                              # wrong dimension
            ("sic", 2, 2 * v),                          # not unit vectors
            ("povm", 2, v),                             # unknown kind
        ):
            with pytest.raises(ValueError):
                Design(kind, dim, vectors)
        with pytest.raises(ValueError):
            Design("sic", 2, v, labels=((0, 0),))

    def test_vectors_are_read_only(self):
        for design in (standard_mubs(3), sic_povm(3), standard_mubs(3).subset([1, 2])):
            assert not design.vectors.flags.writeable


class TestSubset:
    def test_groups_and_counts(self):
        mubs, sic = standard_mubs(4), sic_povm(4)
        sub = mubs.subset([3, 0])
        assert sub.count == 2 and sub.vectors.shape == (8, 4)
        np.testing.assert_array_equal(sub.vectors, np.concatenate([mubs.groups[3], mubs.groups[0]]))
        assert sub.indices == (3, 0) and sub.provenance == "standard[4,1]"
        part = sic.subset(range(2, 5))
        assert part.count == 3 and part.indices == (2, 3, 4)
        assert part.labels == sic.labels[2:5]
        np.testing.assert_array_equal(part.vectors, sic.vectors[2:5])
        assert mubs.indices is None and sic.indices is None

    def test_generator_read_once(self):
        mubs = standard_mubs(3)
        first = mubs.subset(i for i in (0, 1))
        second = mubs.subset(i for i in (2, 3))
        assert first.provenance == "standard[1,2]" and first.indices == (0, 1)
        assert second.provenance == "standard[3,4]" and second.indices == (2, 3)
        np.testing.assert_array_equal(second.vectors, mubs.vectors[6:])

    @pytest.mark.parametrize("indices", [[-1], [0, 0], [4], [1, 2, 1]])
    def test_bad_indices(self, indices):
        with pytest.raises(ValueError):
            standard_mubs(3).subset(indices)
        with pytest.raises(ValueError):
            sic_povm(2).subset(indices)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Design("sic", 2, np.zeros((0, 2))), ValueError, "expected a non-empty stack of vectors"),
    (lambda: hw_displacement(3, 3, 0), ValueError, "need 0 <= a, b < 3"),
    (lambda: hw_displacement(3, 0, -1), ValueError, "need 0 <= a, b < 3"),
    (lambda: sic_fiducial(5), UnsupportedDimensionError, "no fiducial stored for d=5"),
    # a negative tolerance would fail every design, an infinite one pass every one
    (lambda: verify_mub(standard_mubs(2), -1.0), ValueError, "non-negative, got -1.0"),
    (lambda: verify_mub(standard_mubs(2), float("inf")), ValueError, "non-negative, got inf"),
    (lambda: verify_sic(sic_povm(2), float("nan")), ValueError, "non-negative, got nan"),
    # a NaN entry would pass as a design and verify as nan; an inf one warns in the norm
    (lambda: Design("sic", 2, [[np.nan, 0], [0, 1]]), ValueError, "non-finite entries"),
    (lambda: Design("sic", 2, [[np.inf, 0], [0, 1]]), ValueError, "non-finite entries"),
    (lambda: verify_2design([[np.nan, 0], [0, 1]]), ValueError, "non-finite entries"),
    (lambda: verify_2design([[1, 0], [0, -np.inf]]), ValueError, "non-finite entries"),
], ids=["empty stack", "a out of range", "b out of range", "fiducial d=5",
        "verify_mub tol -1", "verify_mub tol inf", "verify_sic tol nan",
        "Design nan", "Design inf", "verify_2design nan", "verify_2design -inf"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
