"""Dense complex linear algebra and the fixed bipartite operators.

All vectors and operators are plain numpy arrays (complex128); vectors are
1-D, operators 2-D.  Bipartite indices follow the row-major convention
(i, j) -> i*d + j everywhere, so ``kron`` and the partial operations are
mutually consistent.  Everything here is a pure function on immutable
inputs and is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Largest total (bipartite) dimension the package handles.  All operators in
#: scope live on at most C^8 x C^8.
MAX_TOTAL_DIM = 64

#: Largest admissible hermiticity and trace deviation of a state,
STRUCTURAL_TOL = 1e-10
#: and its smallest admissible eigenvalue.
PSD_FLOOR = -1e-9


class DimensionMismatchError(ValueError):
    """Operands act on incompatible Hilbert spaces."""


class UnsupportedDimensionError(ValueError):
    """No construction is available in the requested dimension."""


class ParameterOutOfRangeError(ValueError):
    """A family parameter lies outside its admissible interval."""


class ValidationError(ValueError):
    """A matrix failed validation; ``violation`` holds the measured magnitude."""

    def __init__(self, message: str, violation: float):
        super().__init__(f"{message} (violation {violation:.3e})")
        self.violation = float(violation)


class NotHermitianError(ValidationError):
    def __init__(self, violation: float):
        super().__init__("matrix is not Hermitian", violation)


class NotUnitTraceError(ValidationError):
    def __init__(self, violation: float):
        super().__init__("matrix does not have unit trace", violation)


class NotPositiveError(ValidationError):
    def __init__(self, violation: float):
        super().__init__("matrix has a negative eigenvalue", violation)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated bipartite density matrix on C^d x C^d.

    ``matrix`` is a read-only (d^2, d^2) complex array that is Hermitian,
    unit-trace and positive semidefinite within ``STRUCTURAL_TOL`` and
    ``PSD_FLOOR``.  Use :func:`validate_density` to construct one.
    """

    local_dim: int
    matrix: np.ndarray


def _as_complex(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product with the package's size cap enforced."""
    a = _as_complex(a)
    b = _as_complex(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects 2-D operands")
    if a.shape[0] * b.shape[0] > MAX_TOTAL_DIM or a.shape[1] * b.shape[1] > MAX_TOTAL_DIM:
        raise DimensionMismatchError(
            f"kron result exceeds the supported total dimension {MAX_TOTAL_DIM}"
        )
    return np.kron(a, b)


def permutation_operator(d: int) -> np.ndarray:
    """Swap operator on C^d x C^d: (i, j) -> (j, i)."""
    eye = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    return eye.transpose(1, 0, 2, 3).reshape(d * d, d * d)


def symmetry_projectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the symmetric and antisymmetric subspaces of C^d x C^d.

    Returns (P_sym, P_asym) = ((1 +/- swap)/2) with traces d(d+1)/2 and
    d(d-1)/2.
    """
    if not 2 <= d <= 8:
        raise UnsupportedDimensionError(f"symmetry projectors support 2 <= d <= 8, got {d}")
    eye = np.eye(d * d, dtype=complex)
    swap = permutation_operator(d)
    return (eye + swap) / 2, (eye - swap) / 2


def max_entangled_state(d: int) -> np.ndarray:
    """The maximally entangled vector (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise UnsupportedDimensionError("need d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def partial_transpose(rho, subsystem: str = "B", local_dim: int | None = None) -> np.ndarray:
    """Transpose one tensor factor of a bipartite operator.

    ``rho`` may be a :class:`DensityMatrix` or a (d^2, d^2) array together
    with ``local_dim``.  The operation is an involution and preserves trace
    and hermiticity.
    """
    if isinstance(rho, DensityMatrix):
        d, m = rho.local_dim, rho.matrix
    else:
        if local_dim is None:
            raise ValueError("local_dim required for a bare array")
        d, m = local_dim, _as_complex(rho)
    if m.shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {m.shape}")
    if subsystem not in ("A", "B"):
        raise ValueError("subsystem must be 'A' or 'B'")
    t = m.reshape(d, d, d, d)
    t = t.transpose(2, 1, 0, 3) if subsystem == "A" else t.transpose(0, 3, 2, 1)
    return t.reshape(d * d, d * d)


def _check_densities(m: np.ndarray) -> None:
    """Run :func:`validate_density`'s checks on a finite (n, D, D) stack.

    The first failing matrix raises what :func:`validate_density` raises for it alone.
    """
    adj = np.conj(np.swapaxes(m, -1, -2))
    herm = np.abs(m - adj).max(axis=(-2, -1))
    tr_dev = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    min_eig = np.linalg.eigvalsh((m + adj) / 2)[:, 0]
    fails = (herm > STRUCTURAL_TOL) | (tr_dev > STRUCTURAL_TOL) | (min_eig < PSD_FLOOR)
    bad = np.flatnonzero(fails)
    if bad.size:
        i = bad[0]
        if herm[i] > STRUCTURAL_TOL:
            raise NotHermitianError(herm[i])
        if tr_dev[i] > STRUCTURAL_TOL:
            raise NotUnitTraceError(tr_dev[i])
        raise NotPositiveError(-min_eig[i])


def validate_density(matrix, local_dim: int) -> DensityMatrix:
    """Validate a candidate bipartite density matrix.

    Raises :class:`NotHermitianError`, :class:`NotUnitTraceError` or
    :class:`NotPositiveError`, each carrying the measured violation.
    """
    d = int(local_dim)
    m = _as_complex(matrix)
    if m.shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {m.shape}")
    _check_densities(m[None])
    out = m.copy()
    out.setflags(write=False)
    return DensityMatrix(local_dim=d, matrix=out)


# -- state-file serialization -------------------------------------------------
#
# On disk a density matrix is {"local_dim": d, "matrix": [[[re, im], ...], ...]}
# with d^2 rows of d^2 [re, im] pairs.

def density_to_json_obj(rho: DensityMatrix) -> dict:
    mat = [[[float(z.real), float(z.imag)] for z in row] for row in rho.matrix]
    return {"local_dim": rho.local_dim, "matrix": mat}


def density_from_json_obj(obj: dict) -> DensityMatrix:
    try:
        d = int(obj["local_dim"])
        rows = obj["matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed density-matrix object: {exc}") from exc
    return validate_density(m, d)


def save_density(path, rho: DensityMatrix) -> None:
    Path(path).write_text(json.dumps(density_to_json_obj(rho)))


def load_density(path) -> DensityMatrix:
    return density_from_json_obj(json.loads(Path(path).read_text()))


# -- random samplers (test and demo plumbing) ---------------------------------

def random_state_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full-rank (or fixed-rank) density matrix on C^d via Ginibre."""
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_bipartite_density(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank bipartite density matrix on C^d x C^d."""
    return validate_density(random_density(d * d, rng), d)


def random_separable_density(
    d: int, rng: np.random.Generator, terms: int | None = None
) -> DensityMatrix:
    """Random mixture of at most d^2 product states."""
    k = terms if terms is not None else int(rng.integers(1, d * d + 1))
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        a = random_state_vector(d, rng)
        b = random_state_vector(d, rng)
        v = np.kron(a, b)
        m += w * np.outer(v, v.conj())
    return validate_density(m, d)
