"""Mutually unbiased bases, SIC sets, and 2-design verification.

Explicit constructions are provided for d = 2, 3, 4.  Vectors are stored
with their conventional global phases untouched; every quantity computed
downstream (overlaps squared, projectors, bounds) is phase-invariant, so
the stored phases only matter for reproducible output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import UnsupportedDimensionError, symmetry_projectors

OMEGA3 = np.exp(2j * np.pi / 3)


def _unit_rows(vectors) -> np.ndarray:
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != 2:
        raise ValueError("expected a stack of vectors")
    norms = np.linalg.norm(v, axis=1)
    if np.abs(norms - 1).max() > 1e-12:
        raise ValueError("vectors are not normalized")
    return v


@dataclass(frozen=True)
class OrthonormalBasis:
    """An orthonormal basis of C^d; ``vectors[i]`` is the i-th basis vector."""

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        v = _unit_rows(self.vectors)
        if v.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim} vectors of dimension {self.dim}")
        gram = v.conj() @ v.T
        if np.abs(gram - np.eye(self.dim)).max() > 1e-12:
            raise ValueError("basis is not orthonormal")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def from_columns(cls, matrix) -> "OrthonormalBasis":
        """Build from a unitary whose columns are the basis vectors."""
        m = np.asarray(matrix, dtype=complex)
        return cls(dim=m.shape[0], vectors=m.T)


@dataclass(frozen=True)
class MubSet:
    """An ordered collection of pairwise mutually unbiased bases."""

    dim: int
    bases: tuple[OrthonormalBasis, ...]
    provenance: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(self.bases))
        if any(b.dim != self.dim for b in self.bases):
            raise ValueError("all bases must share one dimension")

    @property
    def count(self) -> int:
        return len(self.bases)

    def vectors(self) -> np.ndarray:
        """All m*d vectors stacked basis by basis."""
        return np.concatenate([b.vectors for b in self.bases])

    def subset(self, indices) -> "MubSet":
        picked = tuple(self.bases[i] for i in indices)
        label = ",".join(str(i + 1) for i in indices)
        return MubSet(self.dim, picked, provenance=f"{self.provenance}[{label}]")


@dataclass(frozen=True)
class SicSet:
    """An ordered set of unit vectors with pairwise overlap^2 = 1/(d+1)."""

    dim: int
    vectors: np.ndarray
    labels: tuple | None = None      # optional Heisenberg-Weyl (a, b) labels
    provenance: str = "custom"

    def __post_init__(self):
        v = _unit_rows(self.vectors).copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        if v.shape[1] != self.dim or v.shape[0] > self.dim ** 2:
            raise ValueError("bad vector shape for a SIC set")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def subset(self, indices) -> "SicSet":
        idx = list(indices)
        labels = tuple(self.labels[i] for i in idx) if self.labels is not None else None
        tag = ",".join(str(i + 1) for i in idx)
        return SicSet(
            self.dim,
            self.vectors[idx],
            labels=labels,
            provenance=f"{self.provenance}[{tag}]",
        )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a design check; failure is data, not an exception."""

    kind: str
    dim: int
    count: int
    max_deviation: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


# -- MUB constructions ---------------------------------------------------------

def _mubs_d2() -> list[np.ndarray]:
    s = 1 / np.sqrt(2)
    b1 = np.eye(2, dtype=complex)
    b2 = s * np.array([[1, 1], [1, -1]], dtype=complex)
    # Third basis: eigenbasis of the y-type operator.  Any completion of the
    # pair is equivalent, so this standard choice is canonical here.
    b3 = s * np.array([[1, 1], [1j, -1j]], dtype=complex)
    return [b1, b2, b3]


def _mubs_d3() -> list[np.ndarray]:
    w = OMEGA3
    s = 1 / np.sqrt(3)
    b1 = np.eye(3, dtype=complex)
    b2 = s * np.array([[1, 1, 1], [1, w, w ** 2], [1, w ** 2, w]])
    b3 = s * np.array([[1, 1, 1], [w, w ** 2, 1], [w, 1, w ** 2]])
    b4 = s * np.array([[1, 1, 1], [w ** 2, 1, w], [w ** 2, w, 1]])
    return [b1, b2, b3, b4]


def _d4_b2(x) -> np.ndarray:
    """Second basis of the family, columns as vectors; shape (..., 4, 4) for array x."""
    e = 1j * np.exp(1j * np.asarray(x, dtype=float))
    one = np.ones_like(e)
    m = np.array(
        [[one, one, one, one], [one, one, -one, -one], [one, -one, e, -e], [one, -one, -e, e]]
    )
    return 0.5 * np.moveaxis(m, (0, 1), (-2, -1))


def _d4_b3(y, z) -> np.ndarray:
    """Third basis of the family, columns as vectors; shape (..., 4, 4) for arrays y, z."""
    ey, ez = np.broadcast_arrays(
        np.exp(1j * np.asarray(y, float)), np.exp(1j * np.asarray(z, float))
    )
    one = np.ones_like(ey)
    m = np.array(
        [[one, one, one, one], [one, one, -one, -one], [-ey, ey, ez, -ez], [ey, -ey, ez, -ez]]
    )
    return 0.5 * np.moveaxis(m, (0, 1), (-2, -1))


_D4_B4 = 0.5 * np.array(
    [[1, 1, 1, 1], [1j, -1j, 1j, -1j], [-1, -1, 1, 1], [1j, -1j, -1j, 1j]]
)
_D4_B5 = 0.5 * np.array(
    [[1, 1, 1, 1], [1j, -1j, 1j, -1j], [1j, -1j, -1j, 1j], [-1, -1, 1, 1]]
)


def mub_triple_family_d4(x: float, y: float, z: float) -> MubSet:
    """The three-parameter family of MUB triples in d = 4.

    Valid for all x, y, z in [0, pi].  The triple at (pi/2, pi/2, pi/2) is
    the unique one extendible to a complete set of five bases.
    """
    for name, val in (("x", x), ("y", y), ("z", z)):
        if not 0 <= val <= np.pi + 1e-12:
            raise ValueError(f"{name} must lie in [0, pi], got {val}")
    bases = (
        OrthonormalBasis.from_columns(np.eye(4, dtype=complex)),
        OrthonormalBasis.from_columns(_d4_b2(x)),
        OrthonormalBasis.from_columns(_d4_b3(y, z)),
    )
    return MubSet(4, bases, provenance=f"family(x={x:.6g},y={y:.6g},z={z:.6g})")


def standard_mubs(d: int) -> MubSet:
    """The complete set of d+1 MUBs for d in {2, 3, 4}.

    For d = 4 the first three bases are the extendible triple at
    (pi/2, pi/2, pi/2); subset selection by index refers to this order.
    """
    if d == 2:
        cols = _mubs_d2()
    elif d == 3:
        cols = _mubs_d3()
    elif d == 4:
        triple = mub_triple_family_d4(np.pi / 2, np.pi / 2, np.pi / 2)
        bases = triple.bases + (
            OrthonormalBasis.from_columns(_D4_B4),
            OrthonormalBasis.from_columns(_D4_B5),
        )
        return MubSet(4, bases, provenance="standard")
    else:
        raise UnsupportedDimensionError(f"no standard MUB set for d={d}")
    return MubSet(d, tuple(OrthonormalBasis.from_columns(c) for c in cols), provenance="standard")


def verify_mub(mubs: MubSet, tol: float = 1e-10) -> VerificationReport:
    """Check orthonormality of each basis and 1/d cross-basis overlaps."""
    d = mubs.dim
    ortho_dev = 0.0
    for b in mubs.bases:
        gram = b.vectors.conj() @ b.vectors.T
        ortho_dev = max(ortho_dev, float(np.abs(gram - np.eye(d)).max()))
    overlap_dev = 0.0
    for a, b in itertools.combinations(mubs.bases, 2):
        ov = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
        overlap_dev = max(overlap_dev, float(np.abs(ov - 1.0 / d).max()))
    dev = max(ortho_dev, overlap_dev)
    return VerificationReport(
        kind="mub",
        dim=d,
        count=mubs.count,
        max_deviation=dev,
        tolerance=tol,
        passed=dev <= tol,
        details={
            "orthonormality_deviation": ortho_dev,
            "overlap_deviation": overlap_dev,
        },
    )


# -- Heisenberg-Weyl displacements and SIC constructions -----------------------

def hw_displacement(d: int, a: int, b: int) -> np.ndarray:
    """Displacement operator exp(-i*a*b*pi/d) X^a Z^b on C^d.

    Z|j> = w^j |j> and X|j> = |j+1 mod d> with w = exp(2*pi*i/d).
    """
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"need 0 <= a, b < {d}")
    omega = np.exp(2j * np.pi / d)
    op = np.zeros((d, d), dtype=complex)
    phase = np.exp(-1j * a * b * np.pi / d)
    for j in range(d):
        op[(j + a) % d, j] = phase * omega ** (b * j)
    return op


def sic_fiducial(d: int) -> np.ndarray:
    """Fiducial vector whose Heisenberg-Weyl orbit is a SIC set (d = 2, 3, 4)."""
    if d == 2:
        return np.array(
            [np.sqrt(3 + np.sqrt(3)), np.exp(1j * np.pi / 4) * np.sqrt(3 - np.sqrt(3))]
        ) / np.sqrt(6)
    if d == 3:
        return np.array([0, 1, -1], dtype=complex) / np.sqrt(2)
    if d == 4:
        g = (np.sqrt(5) - 1) / 2
        alpha_p = 1 + np.exp(-1j * np.pi / 4)
        alpha_m = 1 - np.exp(-1j * np.pi / 4)
        beta_p = np.exp(1j * np.pi / 4) + 1j * g ** (-1.5)
        beta_m = np.exp(1j * np.pi / 4) - 1j * g ** (-1.5)
        return np.array([alpha_p, beta_p, alpha_m, beta_m]) / (2 * np.sqrt(3 + g))
    raise UnsupportedDimensionError(f"no fiducial stored for d={d}")


def hw_sic(d: int) -> SicSet:
    """SIC set as the displacement orbit of the fiducial, (a, b)-lexicographic."""
    f = sic_fiducial(d)
    labels = [(a, b) for a in range(d) for b in range(d)]
    vectors = np.array([hw_displacement(d, a, b) @ f for a, b in labels])
    return SicSet(d, vectors, labels=tuple(labels), provenance=f"fiducial({d})")


def _sic_d2() -> np.ndarray:
    r2 = np.sqrt(2)
    e = np.exp(1j * np.pi / 3)
    return np.array(
        [
            [1, 0],
            [1 / np.sqrt(3), r2 / np.sqrt(3)],
            [e.conj() / np.sqrt(3), r2 * e / np.sqrt(3)],
            [e / np.sqrt(3), r2 * e.conj() / np.sqrt(3)],
        ],
        dtype=complex,
    )


def _sic_d3() -> np.ndarray:
    w = OMEGA3
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


def sic_povm(d: int) -> SicSet:
    """The full d^2-element SIC set for d in {2, 3, 4}.

    d = 2 and d = 3 use the conventional explicit vector lists (the d = 3 set
    is the Hesse configuration in its usual s_1..s_9 order); d = 4 is the
    Heisenberg-Weyl orbit of the golden-ratio fiducial with (a, b) labels in
    lexicographic order.
    """
    if d == 2:
        return SicSet(2, _sic_d2(), provenance="explicit")
    if d == 3:
        return SicSet(3, _sic_d3(), provenance="explicit")
    if d == 4:
        return hw_sic(4)
    raise UnsupportedDimensionError(f"no SIC set stored for d={d}")


def verify_sic(sic: SicSet, tol: float = 1e-10) -> VerificationReport:
    """Check unit norms and pairwise overlap^2 = 1/(d+1)."""
    v = sic.vectors
    d = sic.dim
    norm_dev = float(np.abs(np.linalg.norm(v, axis=1) - 1).max())
    overlap_dev = 0.0
    if sic.count > 1:
        ov = np.abs(v.conj() @ v.T) ** 2
        off = ov[~np.eye(sic.count, dtype=bool)]
        overlap_dev = float(np.abs(off - 1.0 / (d + 1)).max())
    dev = max(norm_dev, overlap_dev)
    return VerificationReport(
        kind="sic",
        dim=d,
        count=sic.count,
        max_deviation=dev,
        tolerance=tol,
        passed=dev <= tol,
        details={"norm_deviation": norm_dev, "overlap_deviation": overlap_dev},
    )


def verify_2design(vectors) -> float:
    """Max-entry deviation of the frame operator from the normalized symmetric projector.

    Returns ``max_entry |(1/n) sum_i |v_i><v_i|^(x2) - (2/(d(d+1))) P_sym|``;
    a value near zero certifies the vectors form a projective 2-design.
    """
    v = _unit_rows(np.asarray(vectors, dtype=complex))
    n, d = v.shape
    frame = np.zeros((d * d, d * d), dtype=complex)
    for vec in v:
        proj = np.outer(vec, vec.conj())
        frame += np.kron(proj, proj)
    frame /= n
    p_sym, _ = symmetry_projectors(d)
    return float(np.abs(frame - 2.0 / (d * (d + 1)) * p_sym).max())
