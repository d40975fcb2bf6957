"""Coincidence-probability sums over a design and the associated operators.

The central quantity is the sum of same-outcome coincidence probabilities
when both parties measure along the vectors of a (possibly incomplete)
MUB or SIC design.  With ``conjugate_second`` set, the second party uses
the complex-conjugated vectors; both conventions appear in closed-form
results for symmetric states, so the flag is explicit everywhere.

The sum is linear in the state: it is tr[W rho] for the design's witness
W = sum_v |v w><v w| (w = v, or v* with ``conjugate_second``).  Each
:class:`CorrelationSpec` builds W once, read-only, and every evaluation is
the one contraction sum_ij conj(W_ij) rho_ij; the device-independent form
is the complex conjugate of the same W.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import STRUCTURAL_TOL, DensityMatrix, DimensionMismatchError, _as_complex
from .designs import Design


@dataclass(frozen=True)
class CorrelationSpec:
    """A measurement choice: a design plus the second-party conjugation flag."""

    design: Design
    conjugate_second: bool = False

    @property
    def dim(self) -> int:
        return self.design.dim

    @property
    def kind(self) -> str:
        return self.design.kind

    @property
    def size(self) -> int:
        """Number of bases (MUB) or vectors (SIC) in the design."""
        return self.design.count

    @cached_property
    def witness(self) -> np.ndarray:
        """Read-only W = sum_v |v w><v w|; tr[W rho] is the correlation sum."""
        first, second = _pair_vectors(self)
        d = self.dim
        joint = (first[:, :, None] * second[:, None, :]).reshape(len(first), d * d)
        w = joint.T @ joint.conj()
        w.setflags(write=False)
        return w

    @cached_property
    def _descriptor(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "size": self.size,
                "provenance": self.design.provenance, "conjugate_second": self.conjugate_second}

    def descriptor(self) -> dict:
        """The design and convention as a fresh dict, built once per spec."""
        return self._descriptor.copy()


def coincidence_probability(rho: DensityMatrix, u, v) -> float:
    """tr[(|u><u| x |v><v|) rho] for unit vectors u, v (norm 1 within ``STRUCTURAL_TOL``)."""
    u, v = _as_complex(u), _as_complex(v)
    if u.shape != (rho.local_dim,) or v.shape != (rho.local_dim,):
        raise DimensionMismatchError("vector dimensions do not match the state")
    for name, vec in (("u", u), ("v", v)):
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= STRUCTURAL_TOL:
            raise ValueError(f"{name} must be a unit vector, got norm {norm!r}")
    k = np.kron(u, v)
    return float(np.real(k.conj() @ rho.matrix @ k))


def _pair_vectors(spec: CorrelationSpec) -> tuple[np.ndarray, np.ndarray]:
    first = spec.design.vectors
    second = first.conj() if spec.conjugate_second else first
    return first, second


def correlation_sum(rho: DensityMatrix, spec: CorrelationSpec) -> float:
    """Sum of same-index coincidence probabilities over the design: tr[W rho]."""
    if rho.local_dim != spec.dim:
        raise DimensionMismatchError(f"state has local dimension {rho.local_dim}, design has {spec.dim}")
    return float(np.vdot(spec.witness, rho.matrix).real)


def design_witness_operator(spec: CorrelationSpec) -> np.ndarray:
    """Operator W with tr[W rho] equal to the correlation sum for every rho (a copy)."""
    return spec.witness.copy()


def mdi_conversion(spec: CorrelationSpec) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Transpose each local factor of the witness for device-independent use.

    Transposition is taken in the computational basis, so each rank-one
    factor |v><v| becomes |v*><v*| and the witness becomes its complex
    conjugate.  Returns that operator and, per design index, the pair of
    normalized states the two parties must prepare (the conjugated design
    vectors).  The trace is preserved and tr[W_mdi (rho^{T_A T_B})] =
    tr[W rho] for every state rho.
    """
    preparations = [(u.conj(), v.conj()) for u, v in zip(*_pair_vectors(spec))]
    return spec.witness.conj(), preparations
