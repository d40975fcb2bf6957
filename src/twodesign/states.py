"""Symmetric state families, closed-form correlation values, and detection.

Werner and isotropic states have closed-form correlation sums; the Werner
forms hold for the plain same-vector convention and the isotropic forms for
the conjugated second party, so closed-form results carry the convention
they were derived under.  ``detect`` compares a measured correlation sum
against both separable bounds, using one dataset twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DensityMatrix,
    DimensionMismatchError,
    NotHermitianError,
    ParameterOutOfRangeError,
    _as_complex,
    _check_tol,
    max_entangled_state,
    symmetry_projectors,
    validate_density,
)
from .correlations import CorrelationSpec, correlation_sum
from .bounds import BoundRecord


@dataclass(frozen=True)
class SymmetricStateSpec:
    """One-parameter symmetric family member: Werner or isotropic."""

    family: str      # "werner" | "isotropic"
    dim: int
    parameter: float

    def __post_init__(self):
        if self.family not in ("werner", "isotropic"):
            raise ValueError("family must be 'werner' or 'isotropic'")
        if not 0.0 <= self.parameter <= 1.0:
            raise ParameterOutOfRangeError(f"parameter must lie in [0, 1], got {self.parameter}")


class Verdict(str, Enum):
    ENTANGLED_BY_LOWER = "EntangledByLower"
    ENTANGLED_BY_UPPER = "EntangledByUpper"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DetectionVerdict:
    value: float
    lower_used: float
    upper_used: float
    verdict: Verdict
    design_descriptor: dict
    conjugate_second: bool


class DesignMismatchError(ValueError):
    """The supplied bounds were computed for a different design."""


def _family_matrices(family: str, d: int, params) -> np.ndarray:
    """Unvalidated (n, d^2, d^2) stack of Werner or isotropic matrices, one per parameter."""
    x = np.asarray(params, dtype=float)[:, None, None]
    if family == "werner":
        p_sym, p_asym = symmetry_projectors(d)
        return x * 2 / (d * (d + 1)) * p_sym + (1 - x) * 2 / (d * (d - 1)) * p_asym
    if family != "isotropic":
        raise ValueError("family must be 'werner' or 'isotropic'")
    phi = max_entangled_state(d)
    return x * np.outer(phi, phi.conj()) + (1 - x) * np.eye(d * d) / (d * d)


def werner_state(d: int, p: float) -> DensityMatrix:
    """Mixture of the normalized symmetric and antisymmetric projectors.

    Entangled exactly when p < 1/2.
    """
    return symmetric_state(SymmetricStateSpec("werner", d, p))


def isotropic_state(d: int, q: float) -> DensityMatrix:
    """q |Phi+><Phi+| + (1-q) 1/d^2; entangled exactly when q > 1/(d+1)."""
    return symmetric_state(SymmetricStateSpec("isotropic", d, q))


def symmetric_state(spec: SymmetricStateSpec) -> DensityMatrix:
    return validate_density(_family_matrices(spec.family, spec.dim, [spec.parameter])[0], spec.dim)


@dataclass(frozen=True)
class ClosedFormCorrelation:
    value: float
    conjugate_second: bool


def closed_form_correlation(spec: SymmetricStateSpec, design_kind: str, size: int) -> ClosedFormCorrelation:
    """Closed-form correlation sum for the supported family/design pairs.

    Werner values hold for the plain convention; isotropic values hold with
    the second party conjugated, and the result records that.
    """
    d, x = spec.dim, spec.parameter
    if design_kind not in ("mub", "sic"):
        raise ValueError("design_kind must be 'mub' or 'sic'")
    if spec.family == "werner":
        if design_kind == "mub":
            return ClosedFormCorrelation(2 * x * size / (d + 1), conjugate_second=False)
        return ClosedFormCorrelation(2 * x * size / (d * (d + 1)), conjugate_second=False)
    if design_kind == "sic":
        return ClosedFormCorrelation(size * (x * (d - 1) + 1) / (d * d), conjugate_second=True)
    return ClosedFormCorrelation(size * (x * (d - 1) + 1) / d, conjugate_second=True)


def spa_witness(d: int) -> tuple[np.ndarray, float]:
    """Positive approximation of the transpose-map witness and its floor.

    Returns the normalized symmetric projector 2 P_sym / (d(d+1)) together
    with the separable floor 1/(d(d+1)): every separable state's expectation
    stays at or above the floor, while some entangled states dip below.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    p_sym, _ = symmetry_projectors(d)
    return 2.0 / (d * (d + 1)) * p_sym, 1.0 / (d * (d + 1))


def witness_expectation(w: np.ndarray, rho: DensityMatrix) -> float:
    """tr[W rho] for a Hermitian operator W."""
    w = _as_complex(w)  # a non-finite entry fails here, not in w - w^H below
    if w.shape != rho.matrix.shape:
        raise DimensionMismatchError(f"operator shape {w.shape} vs state {rho.matrix.shape}")
    herm = float(np.abs(w - w.conj().T).max())
    if not herm <= 1e-10:
        raise NotHermitianError(herm)
    return float(np.vdot(w, rho.matrix).real)


def _check_bounds_match(spec: CorrelationSpec, bounds: BoundRecord) -> None:
    """Raise :class:`DesignMismatchError` unless ``bounds`` belong to ``spec``'s design."""
    if bounds.design_kind != spec.kind or bounds.dim != spec.dim or bounds.size != spec.size:
        raise DesignMismatchError(
            f"bounds are for {bounds.design_kind}(d={bounds.dim}, size={bounds.size}), "
            f"spec is {spec.kind}(d={spec.dim}, size={spec.size})"
        )
    if bounds.provenance is not None and bounds.provenance != spec.design.provenance:
        raise DesignMismatchError(
            f"bounds are for design {bounds.provenance}, spec is {spec.design.provenance}"
        )


def _classify(value: float, bounds: BoundRecord, tol: float = 1e-9) -> Verdict:
    """The verdict on one correlation sum: entangled beyond either bound by ``tol``."""
    if value < bounds.lower - tol:
        return Verdict.ENTANGLED_BY_LOWER
    if value > bounds.upper + tol:
        return Verdict.ENTANGLED_BY_UPPER
    return Verdict.INCONCLUSIVE


def detect(
    rho: DensityMatrix,
    spec: CorrelationSpec,
    bounds: BoundRecord,
    tol: float = 1e-9,
) -> DetectionVerdict:
    """Evaluate the correlation sum and compare against both separable bounds.

    A value below ``lower - tol`` or above ``upper + tol`` certifies
    entanglement; anything within the band is inconclusive.  Bounds that
    name their design's provenance must name the spec's.  ``tol`` must be
    finite and non-negative.
    """
    _check_tol(tol)
    _check_bounds_match(spec, bounds)
    value = correlation_sum(rho, spec)
    return DetectionVerdict(value, bounds.lower, bounds.upper, _classify(value, bounds, tol),
                            spec.descriptor(), spec.conjugate_second)
