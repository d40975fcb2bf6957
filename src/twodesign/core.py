"""Dense complex linear algebra and the fixed bipartite operators.

All vectors and operators are plain numpy arrays (complex128); vectors are
1-D, operators 2-D.  Bipartite indices follow the row-major convention
(i, j) -> i*d + j everywhere, so ``kron`` and the partial operations are
mutually consistent.  One Cholesky factorization accepts a valid state, exact
checks run only on what it rejects, and everything here is a pure function on
immutable inputs, safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
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

    ``matrix`` is a read-only, finite (d^2, d^2) complex array, Hermitian and
    unit-trace within ``STRUCTURAL_TOL``, whose Hermitian part has no eigenvalue
    below ``PSD_FLOOR`` (to rounding).  Use :func:`validate_density` to make one.
    """

    local_dim: int
    matrix: np.ndarray


def _as_complex(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    # sum |m_ij|^2 is finite iff every entry is, unless it overflows
    if not (np.vdot(m, m).real < np.inf or np.isfinite(m).all()):
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


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and non-negative.

    A negative band flags values inside the separable bounds, or fails every design check.
    """
    if not 0 <= tol < np.inf:  # stated as the range that must hold, so NaN fails it
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def _accepts(m: np.ndarray) -> bool:
    """Whether one finite (D, D) matrix passes the fast test: ||m - m^H||_F (it bounds every
    entry), the trace, and a Cholesky factorization of m + m^H - 2 PSD_FLOOR I, which exists
    iff lambda_min((m + m^H)/2) > ``PSD_FLOOR`` (to rounding)."""
    adj = np.ascontiguousarray(m.conj().T, dtype=complex)  # h is complex even for a real m
    dev = m - adj
    if not (np.vdot(dev, dev).real <= STRUCTURAL_TOL**2 and abs(m.trace() - 1.0) <= STRUCTURAL_TOL):
        return False
    h = m + adj
    h += _floor_shift(len(h))  # one shared array per size, never written
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


@cache
def _floor_shift(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex) * (-2 * PSD_FLOOR)


def _check_densities(m: np.ndarray) -> None:
    """:func:`validate_density`'s checks on a finite (n, D, D) stack; the first invalid raises."""
    if not all(map(_accepts, m)):
        _exact_checks(m)


def _exact_checks(m: np.ndarray) -> None:
    """Max-entry hermiticity, trace and eigenvalues of a stack; the first failure raises."""
    adj = m.conj().swapaxes(1, 2)
    herm = np.abs(m - adj).max(axis=(-2, -1))
    tr_dev = np.abs(m.trace(axis1=1, axis2=2) - 1.0)
    min_eig = np.linalg.eigvalsh((m + adj) / 2)[:, 0]
    for herm_i, tr_dev_i, min_eig_i in zip(herm, tr_dev, min_eig):
        if herm_i > STRUCTURAL_TOL:
            raise NotHermitianError(herm_i)
        if tr_dev_i > STRUCTURAL_TOL:
            raise NotUnitTraceError(tr_dev_i)
        if min_eig_i < PSD_FLOOR:
            raise NotPositiveError(-min_eig_i)


def validate_density(matrix, local_dim: int) -> DensityMatrix:
    """Validate a candidate bipartite density matrix.

    Non-finite entries raise ``ValueError``; then :class:`NotHermitianError`,
    :class:`NotUnitTraceError` or :class:`NotPositiveError`, each carrying the
    measured violation.  :func:`_accepts` passes a valid state (2-D work, one Cholesky
    factorization), :func:`_exact_checks` decide the rest.  Returns a read-only copy.
    """
    d = int(local_dim)
    m = _as_complex(np.array(matrix, dtype=complex))
    if m.shape != (d * d, d * d):
        raise DimensionMismatchError(f"expected shape {(d * d, d * d)}, got {m.shape}")
    if not _accepts(m):
        _exact_checks(m[None])
    m.setflags(write=False)
    return DensityMatrix(local_dim=d, matrix=m)


# -- state-file serialization -------------------------------------------------
#
# On disk a density matrix is {"local_dim": d, "matrix": [[[re, im], ...], ...]}
# with d^2 rows of d^2 [re, im] pairs.

def density_to_json_obj(rho: DensityMatrix) -> dict:
    mat = [[[float(z.real), float(z.imag)] for z in row] for row in rho.matrix]
    return {"local_dim": rho.local_dim, "matrix": mat}


def density_from_json_obj(obj: dict) -> DensityMatrix:
    try:
        d = obj["local_dim"]
        rows = obj["matrix"]
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed density-matrix object: {exc}") from exc
    if type(d) is not int:
        raise ValueError(f"state field 'local_dim' must be an integer, got {d!r}")
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
