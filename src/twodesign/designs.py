"""Mutually unbiased bases, SIC sets, and 2-design verification.

Both kinds are one type, :class:`Design`: a read-only stack of unit vectors
whose groups are worked out from its kind (a basis of d vectors for MUBs,
a single vector for SICs), so every consumer reads ``design.vectors`` and
``design.count`` alike.  ``Design.subset`` picks groups and records their
indices.

MUB sets follow the prime phase rule for d = 2, 3, 5, 7; d = 4 is the
three-parameter family, written directly as row vectors, plus two stored
bases, also as rows.  SIC sets are Heisenberg-Weyl
orbits for d = 3, 4 and a stored list for d = 2.  Every downstream quantity is
phase-invariant, so the stored phases only matter for reproducible output.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import UnsupportedDimensionError, _as_complex, _check_tol, symmetry_projectors


def _unit_rows(vectors) -> np.ndarray:
    v = _as_complex(vectors)  # a non-finite entry fails here, not in the norm below
    if v.ndim != 2 or v.shape[0] == 0:
        raise ValueError("expected a non-empty stack of vectors")
    norms = np.linalg.norm(v, axis=1)
    if np.abs(norms - 1).max() > 1e-12:
        raise ValueError("vectors are not normalized")
    return v


@dataclass(frozen=True)
class Design:
    """Unit vectors of (a subset of) a 2-design, taken in groups.

    ``kind`` is ``"mub"`` (each group is one orthonormal basis: ``dim``
    consecutive rows of ``vectors``) or ``"sic"`` (each group is one
    vector).  ``count`` is the number of groups and ``labels`` (optional,
    e.g. Heisenberg-Weyl (a, b)) has one entry per group.  ``indices`` are
    the groups :meth:`subset` picked from its parent design, ``None`` for a
    design built whole.  ``vectors`` is a read-only (n, dim) array.
    """

    kind: str
    dim: int
    vectors: np.ndarray
    labels: tuple | None = None
    provenance: str = "custom"
    indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("mub", "sic"):
            raise ValueError(f"kind must be 'mub' or 'sic', got {self.kind!r}")
        v = _unit_rows(self.vectors).copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        n, d = v.shape
        if d != self.dim or n % self.group_size or (self.kind == "sic" and n > d * d):
            raise ValueError(f"bad vector shape {v.shape} for a {self.kind} design in d={self.dim}")
        if self.kind == "mub":
            groups = self.groups
            gram = groups.conj() @ np.swapaxes(groups, 1, 2)
            if np.abs(gram - np.eye(d)).max() > 1e-12:
                raise ValueError("a basis of the design is not orthonormal")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.count:
                raise ValueError(f"expected {self.count} labels, got {len(self.labels)}")
        if self.indices is not None:
            object.__setattr__(self, "indices", tuple(self.indices))

    @property
    def group_size(self) -> int:
        return self.dim if self.kind == "mub" else 1

    @property
    def count(self) -> int:
        """Number of groups: bases of an MUB design, vectors of a SIC design."""
        return self.vectors.shape[0] // self.group_size

    @property
    def groups(self) -> np.ndarray:
        """Read-only (count, group_size, dim) view of ``vectors``."""
        return self.vectors.reshape(self.count, self.group_size, self.dim)

    def subset(self, indices) -> "Design":
        """The design of the groups at ``indices`` (0-based, in the given order).

        The indices are read once and must be distinct and in
        [0, ``count``); the result records them in ``indices`` and, 1-based,
        in its provenance.
        """
        idx = tuple(operator.index(i) for i in indices)
        if len(set(idx)) != len(idx) or any(not 0 <= i < self.count for i in idx):
            raise ValueError(f"subset indices must be distinct and in [0, {self.count}), got {idx}")
        tag = ",".join(str(i + 1) for i in idx)
        return Design(
            self.kind,
            self.dim,
            self.groups[list(idx)].reshape(-1, self.dim),
            labels=tuple(self.labels[i] for i in idx) if self.labels is not None else None,
            provenance=f"{self.provenance}[{tag}]",
            indices=idx,
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


def _report(kind: str, design: Design, tol: float, **details: float) -> VerificationReport:
    """The report of a check whose worst deviation is the largest of ``details``."""
    _check_tol(tol)
    dev = max(details.values())
    return VerificationReport(kind, design.dim, design.count, dev, tol, dev <= tol, details)


# -- MUB constructions ---------------------------------------------------------

def _prime_mubs(p: int) -> np.ndarray:
    """Row vectors of the p + 1 MUBs of a prime p (Ivanovic; Wootters & Fields).

    The standard basis, then |b_k^j> = p^(-1/2) sum_n z^(k n^2 + c j n) |n>
    for k, j < p, with z = i and c = 2 at p = 2 and z = exp(2 pi i / p) and
    c = 1 at odd p.  Each power of z is read from an exact table, so the
    d = 2 and d = 3 sets are the conventional printed matrices bit for bit.
    """
    z, c, order = (1j, 2, 4) if p == 2 else (np.exp(2j * np.pi / p), 1, p)
    powers = np.array([z ** t for t in range(order)])
    k, j, n = np.ogrid[:p, :p, :p]
    rows = (1 / np.sqrt(p)) * powers[(k * n * n + c * j * n) % order].reshape(p * p, p)
    return np.concatenate([np.eye(p, dtype=complex), rows])


def _d4_triple(x, y, z) -> np.ndarray:
    """Row vectors of the family's three bases; shape (..., 12, 4) for arrays x, y, z."""
    x, y, z = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (x, y, z)))
    e, ey, ez = 1j * np.exp(1j * x), np.exp(1j * y), np.exp(1j * z)
    one = np.ones_like(e)
    rows = 0.5 * np.array([
        [one, one, one, one], [one, one, -one, -one], [one, -one, e, -e], [one, -one, -e, e],
        [one, one, -ey, ey], [one, one, ey, -ey], [one, -one, ez, ez], [one, -one, -ez, -ez],
    ])
    rows = np.moveaxis(rows, (0, 1), (-2, -1))
    eye = np.broadcast_to(np.eye(4, dtype=complex), rows.shape[:-2] + (4, 4))
    return np.concatenate([eye, rows], axis=-2)


# Bases 4 and 5 of standard_mubs(4), completing the triple at (pi/2, pi/2, pi/2)
_D4_BASES_4_5 = 0.5 * np.array([
    [1, 1j, -1, 1j], [1, -1j, -1, -1j], [1, 1j, 1, -1j], [1, -1j, 1, 1j],
    [1, 1j, 1j, -1], [1, -1j, -1j, -1], [1, 1j, -1j, 1], [1, -1j, 1j, 1],
])


def mub_triple_family_d4(x: float, y: float, z: float) -> Design:
    """The three-parameter family of MUB triples in d = 4.

    Valid for all x, y, z in [0, pi].  The triple at (pi/2, pi/2, pi/2) is
    the unique one extendible to a complete set of five bases.
    """
    for name, val in (("x", x), ("y", y), ("z", z)):
        if not 0 <= val <= np.pi + 1e-12:
            raise ValueError(f"{name} must lie in [0, pi], got {val}")
    return Design("mub", 4, _d4_triple(x, y, z), provenance=f"family(x={x:.6g},y={y:.6g},z={z:.6g})")


def standard_mubs(d: int) -> Design:
    """The complete set of d+1 MUBs for d in {2, 3, 4, 5, 7}.

    Prime d follows the phase rule of :func:`_prime_mubs`: the standard
    basis first, then basis k + 1 holds |b_k^0>, ..., |b_k^(d-1)>.  For
    d = 4 the first three bases are the extendible triple at
    (pi/2, pi/2, pi/2); subset selection by index refers to this order.
    """
    if d in (2, 3, 5, 7):
        return Design("mub", d, _prime_mubs(d), provenance="standard")
    if d == 4:
        triple = _d4_triple(np.pi / 2, np.pi / 2, np.pi / 2)
        return Design("mub", 4, np.concatenate([triple, _D4_BASES_4_5]), provenance="standard")
    raise UnsupportedDimensionError(f"no standard MUB set for d={d}")


def verify_mub(mubs: Design, tol: float = 1e-10) -> VerificationReport:
    """Check orthonormality of each basis and 1/d cross-basis overlaps."""
    d = mubs.dim
    gram = mubs.groups.conj() @ np.swapaxes(mubs.groups, 1, 2)
    ortho_dev = float(np.abs(gram - np.eye(d)).max())
    overlap_dev = 0.0
    for a, b in itertools.combinations(mubs.groups, 2):
        ov = np.abs(a.conj() @ b.T) ** 2
        overlap_dev = max(overlap_dev, float(np.abs(ov - 1.0 / d).max()))
    return _report("mub", mubs, tol, orthonormality_deviation=ortho_dev, overlap_deviation=overlap_dev)


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


def hw_sic(d: int) -> Design:
    """SIC set as the displacement orbit of the fiducial, (a, b)-lexicographic."""
    f = sic_fiducial(d)
    labels = [(a, b) for a in range(d) for b in range(d)]
    vectors = np.array([hw_displacement(d, a, b) @ f for a, b in labels])
    return Design("sic", d, vectors, labels=labels, provenance=f"fiducial({d})")


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


def sic_povm(d: int) -> Design:
    """The full d^2-element SIC set for d in {2, 3, 4}.

    d = 2 is the conventional explicit tetrahedron, which is not an orbit of
    ``sic_fiducial(2)``.  d = 3 is the Heisenberg-Weyl orbit of
    ``sic_fiducial(3)`` in the Hesse order s_1..s_9 with stored phases, and
    keeps the unlabelled ``"explicit"`` form of that list.  d = 4 is the
    orbit of the golden-ratio fiducial with (a, b) labels in lexicographic
    order.
    """
    if d == 2:
        return Design("sic", 2, _sic_d2(), provenance="explicit")
    if d == 3:
        # orbit labels (a, b) = (0, 0), (1, 0), (2, 0), (0, 1), ..., each
        # vector times a power of exp(i pi/3) that keeps its printed phase
        phases = np.exp(1j * np.pi / 3 * np.array([0, 0, 0, 0, -1, -2, 0, -2, 2]))
        vectors = hw_sic(3).vectors[[0, 3, 6, 1, 4, 7, 2, 5, 8]] * phases[:, None]
        return Design("sic", 3, vectors, provenance="explicit")
    if d == 4:
        return hw_sic(4)
    raise UnsupportedDimensionError(f"no SIC set stored for d={d}")


def verify_sic(sic: Design, tol: float = 1e-10) -> VerificationReport:
    """Check unit norms and pairwise overlap^2 = 1/(d+1)."""
    v = sic.vectors
    d = sic.dim
    norm_dev = float(np.abs(np.linalg.norm(v, axis=1) - 1).max())
    overlap_dev = 0.0
    if sic.count > 1:
        ov = np.abs(v.conj() @ v.T) ** 2
        off = ov[~np.eye(sic.count, dtype=bool)]
        overlap_dev = float(np.abs(off - 1.0 / (d + 1)).max())
    return _report("sic", sic, tol, norm_deviation=norm_dev, overlap_deviation=overlap_dev)


def verify_2design(vectors) -> float:
    """Max-entry deviation of the frame operator from the normalized symmetric projector.

    Returns ``max_entry |(1/n) sum_i |v_i><v_i|^(x2) - (2/(d(d+1))) P_sym|``;
    a value near zero certifies the vectors form a projective 2-design.
    """
    v = _unit_rows(vectors)
    n, d = v.shape
    pairs = (v[:, :, None] * v[:, None, :]).reshape(n, d * d)  # rows v x v
    frame = pairs.T @ pairs.conj() / n
    p_sym, _ = symmetry_projectors(d)
    return float(np.abs(frame - 2.0 / (d * (d + 1)) * p_sym).max())
