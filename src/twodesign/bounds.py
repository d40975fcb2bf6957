"""Separable-state bounds of the correlation sums by product-state optimization.

The objective for a design ``{v}`` is ``sum_v |<v|e>|^2 |<v|f>|^2`` over unit
vectors e, f.  It reads only ``Design.vectors``, so MUB and SIC designs take
the same path.  Substituting f -> conj(f) maps the objective with the second
party's vectors conjugated onto this one, so both conventions share their
bounds and the optimizers take no conjugation option.  For fixed f the
objective is a Hermitian quadratic form in e, so each half-step is solved
exactly by an extremal eigenvector; alternating these exact updates is
monotone and converges fast.

One kernel, :func:`_two_vector_iterate`, runs the alternating updates on a
batch of seeded restarts with stacked eigendecompositions, for both
bounds.  Each restart retires at the first sweep whose improvement falls
below ``TOL`` and keeps its state and objective; later
sweeps compute only the restarts still active, so each ends bit for bit
as it would alone.  The batch stops ``stationary`` when none is active, or
``max_sweeps`` when one still improves after ``OptimizerOptions.max_sweeps``;
the best restart is then polished.

The upper bound equals the maximum of ``F(e) = sum_v |<v|e>|^4``
(arithmetic-geometric mean argument).  The kernel, maximizing and started
at f = e, climbs it: its half-steps are then the fixed-point ascent
``a -> top eigenvector of sum_v |<v|a>|^2 |v><v|`` (e_1 = a_1, f_1 = a_2,
e_2 = a_3, ...), so one sweep is two ascent steps.  The maximum is also
proved from above: F(e) is ``<e e|Q|e e>`` with ``Q = sum_v (|v><v|)^(x2)``,
so no product state exceeds the level-2 eigenvalue
``lambda = lambda_max(P_sym Q P_sym)`` (Doherty & Wehner, arXiv:1210.5048),
the result's ``certificate``.  Once the best active restart comes within
``CERTIFY_WINDOW`` of lambda, a Gauss-Newton step from its f on the
residual ``R^(1/2) (e x e)``, ``R = lambda P_sym - P_sym Q P_sym`` (whose
zeros are exactly the maximizers when lambda is attained), tries to reach
lambda; success is the kernel's one early stop.  Each upper bound names why it
stopped: ``certified`` (the maximizer reaches lambda within
``CERTIFY_TOL``), ``stationary`` or ``max_sweeps``; only the last counts as
not converged.

The d = 4 family scan shares the kernel.  Its lower bound is the same on
each orbit of a group of order 4 (a shift by pi, complex conjugation and
the swap of y and z; :func:`_orbit_key`), so it evaluates one point per
orbit: in a cheap pass over the grid, in a compass search whose every
level is one batched call over all candidates, and in one full lower
bound per distinct candidate.  A maximum candidate's compass step stops
at its first restart that falls to the candidate's value: it cannot win.

A subset enumeration runs both optimizers only on the first subset of
each orbit of the design's symmetry group (the unitaries and
anti-unitaries that permute its vectors up to phases, found from the
triple products).  Every other subset's states are the representative's
moved by a group element and re-evaluated on its own vectors.

All optimizers are multistarted from a seeded generator and deterministic:
a fixed seed yields a bit-identical result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import permutation_operator
from .designs import Design, _d4_triple, mub_triple_family_d4


#: The certificate step is tried once the best restart is this close to lambda,
CERTIFY_WINDOW = 1e-4
#: and it proves the maximum when it reaches lambda this closely.
CERTIFY_TOL = 1e-12
_CERTIFY_ITERATIONS = 16
#: A restart retires once a sweep improves its objective by less than this.
TOL = 1e-12
#: Largest subset enumeration :func:`subset_bound_spectrum` runs.
SUBSET_CAP = 20000


class EnumerationCapExceededError(RuntimeError):
    """Requested subset enumeration is larger than ``SUBSET_CAP``."""


@dataclass(frozen=True)
class OptimizerOptions:
    """Multistart settings; ``restarts=None`` picks 64 for d <= 3, 256 above.

    ``restarts`` (when given) and ``max_sweeps`` must be at least 1.
    """

    restarts: int | None = None
    seed: int | np.random.SeedSequence = 0
    max_sweeps: int = 2000

    def __post_init__(self):
        if self.restarts is not None and self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")

    def restarts_for(self, dim: int) -> int:
        if self.restarts is not None:
            return self.restarts
        return 64 if dim <= 3 else 256


DEFAULT_OPTIONS = OptimizerOptions()


@dataclass(frozen=True)
class ProductState:
    """A product vector pair |e> x |f>, both factors normalized."""

    e: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for name, v in (("e", self.e), ("f", self.f)):
            arr = np.asarray(v, dtype=complex)
            if abs(np.linalg.norm(arr) - 1) > 1e-12:
                raise ValueError(f"factor {name} is not normalized")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LowerBoundResult:
    """``value`` is the objective re-evaluated at ``minimizer``.  ``stop_reason``
    is ``stationary`` (every restart retired) or ``max_sweeps``."""

    value: float
    minimizer: ProductState
    stop_reason: str
    restarts: int
    sweeps: int

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_sweeps"


@dataclass(frozen=True)
class UpperBoundResult:
    """``value`` is the objective re-evaluated at ``maximizer``; no product
    state exceeds ``certificate``.  ``stop_reason`` is ``certified``,
    ``stationary`` or ``max_sweeps``."""

    value: float
    maximizer: np.ndarray
    certificate: float
    stop_reason: str
    restarts: int
    sweeps: int

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_sweeps"


@dataclass(frozen=True)
class BoundRecord:
    """Lower and upper separable bounds for one concrete design."""

    design_kind: str
    dim: int
    size: int
    subset_or_params: str
    lower: float
    upper: float
    argmin: ProductState
    argmax: np.ndarray
    restarts: int
    converged: bool
    provenance: str | None = None  # the design's provenance; None when unknown
    indices: tuple[int, ...] | None = None  # the design's subset indices, if a subset

    def __post_init__(self):
        if self.lower < -1e-12 or self.lower > self.upper + 1e-9:
            raise ValueError(
                f"inconsistent bounds: lower={self.lower!r}, upper={self.upper!r}"
            )
        if self.upper > self.size + 1e-9:
            raise ValueError(f"upper bound {self.upper!r} exceeds design size {self.size}")


# -- batched alternating optimizer ---------------------------------------------

def _random_unit(rng: np.random.Generator, shape) -> np.ndarray:
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _amps_sq(vecs_conj: np.ndarray, x: np.ndarray) -> np.ndarray:
    # |<v|x>|^2 for stacked designs (.., n, d) and states (.., d)
    a = np.einsum("...nd,...d->...n", vecs_conj, x)
    return (a.conj() * a).real


def _weighted_frame(w: np.ndarray, v: np.ndarray, v_conj: np.ndarray) -> np.ndarray:
    # sum_n w_n |v_n><v_n| as (..., d, d); ket amplitudes come from ``v``
    return np.matmul(np.swapaxes(v, -1, -2) * w[..., None, :], v_conj)


def _eig_extreme(m: np.ndarray, maximize: bool) -> np.ndarray:
    vecs = np.linalg.eigh(m)[1]
    return vecs[..., :, -1] if maximize else vecs[..., :, 0]


def _two_vector_iterate(v1, e, f, *, minimize, tol, max_sweeps, certify=None, threshold=None):
    """Alternating exact eigenvector updates on batched starts.

    ``v1`` is the design stack, broadcastable against the batch ``e.shape[:-1]``.
    Each restart retires at the first sweep whose improvement is below
    ``tol`` and keeps its e, f and objective; later sweeps compute only the
    active restarts, so every restart ends exactly as it would run alone.
    With ``certify`` (a :class:`_Level2Certificate`, when maximizing), each
    sweep whose best active restart lies within ``CERTIFY_WINDOW`` of
    ``certify.value`` tries a certificate step from its f; one that succeeds
    ends the call.  With ``threshold`` (minimizing; ``threshold[i]`` for row i
    of the batch less its last axis), a row retires whole, not stationary,
    once one of its restarts reaches it: no objective rises, so the row's
    minimum ends at or below it.  Returns the final (e, f), per-item
    objective, per-item stationarity (retired within ``max_sweeps``) and
    per-item sweeps used.
    """
    batch, d = e.shape[:-1], e.shape[-1]
    count = math.prod(batch)
    e_out, f_out = np.empty((count, d), dtype=complex), np.empty((count, d), dtype=complex)
    obj_out = np.full(count, np.inf if minimize else -np.inf)
    stationary = np.zeros(count, dtype=bool)
    used = np.full(count, max_sweeps)
    # one design for the whole batch is never gathered; per-item designs are
    # gathered only when the active set shrinks
    shared = math.prod(v1.shape[:-2]) == 1
    if shared:
        v1 = v1.reshape(v1.shape[-2:])
    v1c = v1.conj()
    live = np.arange(count).reshape(batch)  # flat indices of the active items
    sign = 1.0 if minimize else -1.0
    prev = np.full(batch, np.inf if minimize else -np.inf)
    w_f = _amps_sq(v1c, f)
    for sweep in range(max_sweeps):
        e = _eig_extreme(_weighted_frame(w_f, v1, v1c), maximize=not minimize)
        w_e = _amps_sq(v1c, e)
        f = _eig_extreme(_weighted_frame(w_e, v1, v1c), maximize=not minimize)
        w_f = _amps_sq(v1c, f)
        obj = np.sum(w_e * w_f, axis=-1)
        obj_out[live] = obj
        if certify is not None:
            best = int(np.argmax(obj))
            if obj[best] >= certify.value - CERTIFY_WINDOW and certify.step(f[best]):
                e_out[live], f_out[live], used[live] = e, f, sweep + 1
                break
        done = settled = sign * (prev - obj) < tol
        if threshold is not None:
            rows = live // batch[-1]
            cut = np.isin(rows, rows[obj <= threshold[rows]])
            done, settled = settled | cut, settled & ~cut
        if done.any():
            retired = live[done]
            e_out[retired], f_out[retired] = e[done], f[done]
            stationary[live[settled]] = True
            used[retired] = sweep + 1
            keep = ~done
            if not shared:
                v1 = np.broadcast_to(v1, done.shape + v1.shape[-2:])[keep]
                v1c = np.broadcast_to(v1c, done.shape + v1c.shape[-2:])[keep]
            live, e, f, w_f, obj = live[keep], e[keep], f[keep], w_f[keep], obj[keep]
            if live.size == 0:
                break
        prev = obj
    else:
        e_out[live], f_out[live] = e, f
    return (
        e_out.reshape(batch + (d,)), f_out.reshape(batch + (d,)),
        obj_out.reshape(batch), stationary.reshape(batch), used.reshape(batch),
    )


class _Level2Certificate:
    """The level-2 eigenvalue bound of one design and its certificate step.

    ``value`` is lambda = lambda_max(P_sym Q P_sym) with
    Q = sum_v (|v><v|)^(x2); Q is supported on the symmetric subspace, so
    this is lambda_max(Q).  ``root`` is R^(1/2) with R = lambda P_sym - Q,
    positive semidefinite, and ||R^(1/2)(e x e)||^2 = lambda - F(e) for unit e.
    ``maximizer`` is the vector of the first :meth:`step` that reached
    lambda, ``None`` before.
    """

    def __init__(self, v: np.ndarray):
        n, d = v.shape
        self.v = v
        self.maximizer = None
        pairs = (v[:, :, None] * v[:, None, :]).reshape(n, d * d)  # rows v x v
        q = pairs.T @ pairs.conj()
        self.value = float(np.linalg.eigvalsh(q)[-1])
        vals, vecs = np.linalg.eigh(self.value * (np.eye(d * d) + permutation_operator(d)) / 2 - q)
        self.root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    def step(self, e: np.ndarray) -> bool:
        """Gauss-Newton on R^(1/2)(e x e) over the unit sphere, from ``e``.

        The step moves in the complex orthogonal complement of ``e`` (the
        sphere's tangent space without the phase) and renormalizes; it is
        repeated while the gap to ``value`` shrinks.  At a flat maximum the
        residual is quadratic in the distance, and each step only quarters
        it.  If the best phase-canonical vector reaches ``value`` within
        ``CERTIFY_TOL``, it becomes ``maximizer``; returns whether it did.
        """
        d = e.shape[0]
        best, best_gap = None, np.inf
        for _ in range(_CERTIFY_ITERATIONS):
            tangent = np.linalg.qr(np.column_stack([e, np.eye(d)]))[0][:, 1:]
            dirs = np.concatenate([tangent, 1j * tangent], axis=1)
            resid = self.root @ np.kron(e, e)
            jac = self.root @ (np.kron(dirs, e[:, None]) + np.kron(e[:, None], dirs))
            step = np.linalg.lstsq(
                np.concatenate([jac.real, jac.imag]),
                -np.concatenate([resid.real, resid.imag]),
                rcond=None,
            )[0]
            e = dirs @ step + e
            e = _canonical_vector(e / np.linalg.norm(e))
            gap = self.value - _product_value(self.v, e, e)
            if gap >= best_gap:
                break
            best, best_gap = e, gap
        if best_gap <= CERTIFY_TOL:
            self.maximizer = best
        return best_gap <= CERTIFY_TOL


def _product_value(v: np.ndarray, e: np.ndarray, f: np.ndarray) -> float:
    """``sum_v |<v|e>|^2 |<v|f>|^2`` for the design vectors ``v`` at one product state."""
    vc = v.conj()
    return float(np.sum(_amps_sq(vc, e) * _amps_sq(vc, f)))


def _canonical_vector(vec: np.ndarray) -> np.ndarray:
    """Fix the global phase: first non-negligible component made real positive."""
    idx = int(np.argmax(np.abs(vec) > 1e-8))
    phase = vec[idx] / abs(vec[idx])
    return vec * phase.conj()


def _resolve_degenerate(m: np.ndarray, minimize: bool) -> np.ndarray:
    """Extreme eigenvector with the documented tie-break.

    Among the solver's eigenvectors within 1e-12 of the extreme eigenvalue,
    take the one whose first component has the largest real part after phase
    canonicalization; this affects only which optimizer is reported, never
    the bound value.
    """
    vals, vecs = np.linalg.eigh(m)
    extreme = vals[0] if minimize else vals[-1]
    cols = [i for i, lam in enumerate(vals) if abs(lam - extreme) <= 1e-12]
    cands = [_canonical_vector(vecs[:, i]) for i in cols]
    return max(cands, key=lambda c: c[0].real)


def _polish_two_vector(v1, e, f, *, minimize):
    """Deep-converge one candidate: (e, f, objective)."""
    e, f, obj, *_ = _two_vector_iterate(
        v1[None], e[None], f[None], minimize=minimize, tol=1e-15, max_sweeps=5000
    )
    return e[0], f[0], float(obj[0])


def separable_lower_bound(
    design: Design, opts: OptimizerOptions = DEFAULT_OPTIONS
) -> LowerBoundResult:
    """Minimize the correlation sum over product states |e> x |f>.

    Alternating exact eigenvector updates (each half-step solves its
    subproblem exactly), multistarted; each restart retires once stationary
    and the best one is polished and returned with its product state.  A
    restart still improving after ``opts.max_sweeps`` makes the stop reason
    ``max_sweeps`` (``converged`` false), which is reported, never raised.
    """
    v = design.vectors
    d = design.dim
    restarts = opts.restarts_for(d)
    rng = np.random.default_rng(opts.seed)
    e0 = _random_unit(rng, (restarts, d))
    f0 = _random_unit(rng, (restarts, d))
    e, f, obj, stationary, used = _two_vector_iterate(
        v[None], e0, f0, minimize=True, tol=TOL, max_sweeps=opts.max_sweeps
    )
    best = int(np.argmin(obj))
    e_b, f_b, _ = _polish_two_vector(v, e[best], f[best], minimize=True)
    # deterministic reported minimizer: re-solve the final half-steps with the
    # documented degeneracy tie-break (value-preserving for the bilinear form)
    w_f = _amps_sq(v.conj(), f_b)
    e_b = _resolve_degenerate(_weighted_frame(w_f, v, v.conj()), minimize=True)
    w_e = _amps_sq(v.conj(), e_b)
    f_b = _resolve_degenerate(_weighted_frame(w_e, v, v.conj()), minimize=True)
    return LowerBoundResult(
        value=_product_value(v, e_b, f_b),
        minimizer=ProductState(_canonical_vector(e_b), _canonical_vector(f_b)),
        stop_reason="stationary" if stationary.all() else "max_sweeps",
        restarts=restarts,
        sweeps=int(used.max()),
    )


def separable_upper_bound(
    design: Design, opts: OptimizerOptions = DEFAULT_OPTIONS
) -> UpperBoundResult:
    """Maximize the correlation sum over product states, proved by lambda.

    Runs the kernel from e = f (on ``sum_v |<v|e>|^4``, which the product-state
    maximum equals by the mean inequality) until the certificate step reaches
    the level-2 eigenvalue, every restart is stationary, or
    ``opts.max_sweeps`` is spent; the latter two polish the best restart.
    """
    v = design.vectors
    cert = _Level2Certificate(v)
    restarts = opts.restarts_for(design.dim)
    rng = np.random.default_rng(opts.seed)
    e0 = _random_unit(rng, (restarts, design.dim))
    _, f, obj, stationary, used = _two_vector_iterate(
        v[None], e0, e0, minimize=False, tol=TOL, max_sweeps=opts.max_sweeps, certify=cert
    )
    if cert.maximizer is not None:
        stop_reason, e_b = "certified", cert.maximizer
    else:
        stop_reason = "stationary" if stationary.all() else "max_sweeps"
        f_b = f[int(np.argmax(obj))]
        e_b = _canonical_vector(_polish_two_vector(v, f_b, f_b, minimize=False)[1])
        # tie-break among the top eigenspace only when it preserves the
        # quartic objective; otherwise keep the polished maximizer
        w = _amps_sq(v.conj(), e_b)
        cand = _resolve_degenerate(_weighted_frame(w, v, v.conj()), minimize=False)
        if _product_value(v, cand, cand) >= _product_value(v, e_b, e_b) - 1e-12:
            e_b = cand
    return UpperBoundResult(
        value=_product_value(v, e_b, e_b),
        maximizer=e_b,
        certificate=cert.value,
        stop_reason=stop_reason,
        restarts=restarts,
        sweeps=int(used.max()),
    )


# -- closed forms ---------------------------------------------------------------

def closed_form_mub_upper(m: int, d: int) -> float:
    """Separable maximum for any m MUBs: 1 + (m-1)/d."""
    if not 2 <= m <= d + 1:
        raise ValueError("need 2 <= m <= d+1")
    return 1.0 + (m - 1) / d


def design_closed_bounds(d: int, kind: str) -> tuple[float, float]:
    """(lower, upper) separable bounds for a full design: the 2-design case."""
    if d < 2:
        raise ValueError("need d >= 2")
    if kind == "mub":
        return 1.0, 2.0
    if kind == "sic":
        return d / (d + 1), 2 * d / (d + 1)
    raise ValueError("kind must be 'mub' or 'sic'")


# -- higher-level drivers --------------------------------------------------------

def compute_bound_record(
    design: Design, opts: OptimizerOptions = DEFAULT_OPTIONS, *, label: str | None = None
) -> BoundRecord:
    """Run both optimizers on one design and package the result."""
    lo = separable_lower_bound(design, opts)
    up = separable_upper_bound(design, opts)
    return BoundRecord(
        design_kind=design.kind,
        dim=design.dim,
        size=design.count,
        subset_or_params=label if label is not None else design.provenance,
        lower=lo.value,
        upper=up.value,
        argmin=lo.minimizer,
        argmax=up.maximizer,
        restarts=lo.restarts,
        converged=lo.converged and up.converged,
        provenance=design.provenance,
        indices=design.indices,
    )


@dataclass(frozen=True)
class SubsetSpectrum:
    """Extremal bounds over all subsets of a fixed size."""

    dim: int
    subset_size: int
    l_minus: float
    l_plus: float
    u_minus: float
    u_plus: float
    per_subset: tuple[BoundRecord, ...]


def _symmetry_group(v: np.ndarray):
    """The unitaries and anti-unitaries that map the vectors ``v`` onto themselves.

    Returns ``(perms, unitaries, anti)``: element g sends a state x to
    ``U_g x``, or to ``U_g conj(x)`` where ``anti[g]``, and vector i to
    ``c_i v[perms[g, i]]`` with ``|c_i| = 1``.  Such a map keeps every triple
    product T(i, j, k) = <v_i|v_j><v_j|v_k><v_k|v_i> (unitary) or conjugates
    all of them (anti-unitary).  The search is breadth-first over partial
    permutations: once vectors 0 and 1 have their images, the products
    T(0, b, k) with the earlier vectors b leave a few images for each vector
    k.  Each complete permutation's U is the unitary polar factor of
    M = sum_i c_i |v[perms[i]]><s_i| (s = v, or conj(v) for an anti-unitary;
    c_i from the Gram entries with vector 0, which never vanish in a SIC
    set), kept only if it is unitary and maps every vector within 1e-12.
    Vectors that do not span the space leave M singular, and no element.
    """
    n, d = v.shape
    gram = v.conj() @ v.T
    triple = gram[:, :, None] * gram[None, :, :] * gram.T[:, None, :]
    perms, anti = [], []
    for conj in (False, True):
        target = triple[0].conj() if conj else triple[0]
        partial = np.arange(n)[:, None]
        for k in range(1, n):
            got = triple[partial[:, :1, None], partial[:, :, None], np.arange(n)]
            ok = (np.abs(got - target[:k, k, None]) < 1e-9).all(axis=1)
            ok &= (partial[:, :, None] != np.arange(n)).all(axis=1)
            rows, images = np.nonzero(ok)
            partial = np.concatenate([partial[rows], images[:, None]], axis=1)
        perms.append(partial)
        anti.append(np.full(len(partial), conj))
    perms, anti = np.concatenate(perms), np.concatenate(anti)
    s = np.where(anti[:, None, None], v.conj(), v)
    # <s_0|s_i> <v[perms[i]]|v[perms[0]]> is the phase of c_i (c_0 = 1)
    phase = np.where(anti[:, None], gram[0].conj(), gram[0]) * gram[perms, perms[:, :1]]
    target = (phase / np.abs(phase))[..., None] * v[perms]
    m = np.swapaxes(target, 1, 2) @ s.conj()
    lam, vec = np.linalg.eigh(np.swapaxes(m.conj(), 1, 2) @ m)
    with np.errstate(divide="ignore", invalid="ignore"):
        unitaries = m @ (vec / np.sqrt(lam)[:, None, :]) @ np.swapaxes(vec.conj(), 1, 2)
        maps = np.abs(s @ np.swapaxes(unitaries, 1, 2) - target).max(axis=(1, 2)) <= 1e-12
        gram_u = unitaries @ np.swapaxes(unitaries.conj(), 1, 2)
        keep = maps & (np.abs(gram_u - np.eye(d)).max(axis=(1, 2)) <= 1e-12)
    return perms[keep], unitaries[keep], anti[keep]


def _orbits(combos: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives of the rows of ``combos`` under ``perms``.

    ``combos`` holds sorted index rows (below 256) in lexicographic order.  Walking them
    in that order, each row not yet reached is a representative; its images
    under every element are looked up at once.  Returns, per row, the index
    of its representative and of an element mapping the representative onto
    the row.
    """
    def keys(rows):
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()

    table = keys(combos)
    source = np.full(len(combos), -1)
    element = np.zeros(len(combos), dtype=int)
    for k in range(len(combos)):
        if source[k] >= 0:
            continue
        source[k] = k
        reached, first = np.unique(
            np.searchsorted(table, keys(np.sort(perms[:, combos[k]], axis=1))), return_index=True
        )
        fresh = source[reached] < 0
        source[reached[fresh]] = k
        element[reached[fresh]] = first[fresh]
    return source, element


def _mapped_record(rep: BoundRecord, design: Design, label: str, u, anti) -> BoundRecord:
    """``rep``'s states moved by the symmetry (u, anti) and re-evaluated on ``design``."""
    def move(x):
        return _canonical_vector(u @ (x.conj() if anti else x))

    e, f, top = move(rep.argmin.e), move(rep.argmin.f), move(rep.argmax)
    return replace(
        rep,
        subset_or_params=label,
        lower=_product_value(design.vectors, e, f),
        upper=_product_value(design.vectors, top, top),
        argmin=ProductState(e, f),
        argmax=top,
        provenance=design.provenance,
        indices=design.indices,
    )


def subset_bound_spectrum(
    sic: Design, subset_size: int, opts: OptimizerOptions = DEFAULT_OPTIONS
) -> SubsetSpectrum:
    """Bounds for every ``subset_size``-subset of a SIC set, plus their extrema.

    A subset's bounds do not change under a unitary or anti-unitary that
    maps the whole set onto itself (:func:`_symmetry_group`), so both
    optimizers run only on the first subset of each orbit, in lexicographic
    order, with the seed that its index draws.  Every other subset gets
    that record's minimizer and maximizer moved by the symmetry, with
    ``lower`` and ``upper`` re-evaluated on its own vectors.
    """
    total = sic.count
    if subset_size > total:
        raise ValueError("subset size exceeds the design")
    if subset_size < 1:
        raise ValueError(f"subset size must be at least 1, got {subset_size}")
    n_subsets = math.comb(total, subset_size)
    if n_subsets > SUBSET_CAP:
        raise EnumerationCapExceededError(
            f"{n_subsets} subsets exceed the cap {SUBSET_CAP}; "
            "evaluate sampled subsets explicitly"
        )
    combos = list(itertools.combinations(range(total), subset_size))
    seeds = np.random.SeedSequence(opts.seed).spawn(len(combos))
    perms, unitaries, anti = _symmetry_group(sic.vectors)
    source, element = _orbits(np.array(combos), perms)
    records = []
    for k, combo in enumerate(combos):
        design = sic.subset(combo)
        label = "(" + ",".join(str(i + 1) for i in combo) + ")"
        if source[k] == k:
            records.append(compute_bound_record(design, replace(opts, seed=seeds[k]), label=label))
        else:
            g = element[k]
            records.append(_mapped_record(records[source[k]], design, label, unitaries[g], anti[g]))
    lows = [r.lower for r in records]
    highs = [r.upper for r in records]
    return SubsetSpectrum(
        dim=sic.dim,
        subset_size=subset_size,
        l_minus=min(lows),
        l_plus=max(lows),
        u_minus=min(highs),
        u_plus=max(highs),
        per_subset=tuple(records),
    )


@dataclass(frozen=True)
class FamilyScanResult:
    """Extrema of the triple-family lower bound over the (x, y, z) cube."""

    l_minus: float
    l_plus: float
    argmin_params: tuple[float, float, float]
    argmax_params: tuple[float, float, float]
    grid_steps: int
    per_point: tuple[tuple[float, float, float, float], ...]


#: Orbits per stacked kernel call of :func:`_grid_lower_bounds`.
_GRID_CHUNK = 64


def _grid_lower_bounds(params, seed, restarts, max_sweeps, threshold=None):
    """Vectorized lower bounds for (n, 3) family points, one per point.

    Only the distinct orbit representatives (:func:`_orbit_key`) are
    evaluated, in key order, and each point reads its representative's
    value.  Every representative's starts are drawn before the first chunk,
    so ``_GRID_CHUNK`` only caps the memory of the per-restart design
    stacks, never a value.  An orbit stops once its value reaches the least
    ``threshold`` (per point) of its points, and then only bounds it.
    """
    keys, reps = _orbit_key(params)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    reps = reps[first]
    count = reps.shape[0]
    if threshold is not None:
        least = np.full(count, np.inf)
        np.minimum.at(least, inverse, threshold)
    rng = np.random.default_rng(seed)
    e0 = _random_unit(rng, (count, restarts, 4))
    f0 = _random_unit(rng, (count, restarts, 4))
    values = np.zeros(count)
    for lo in range(0, count, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, count)
        v = _d4_triple(*reps[lo:hi].T)[:, None]  # (c, 1, 12, 4)
        obj = _two_vector_iterate(
            v, e0[lo:hi], f0[lo:hi], minimize=True, tol=1e-11, max_sweeps=max_sweeps,
            threshold=None if threshold is None else least[lo:hi],
        )[2]
        values[lo:hi] = obj.min(axis=-1)
    return values[inverse]


#: Per-point (restarts, sweeps) of the grid pass and of the refinement, and
#: the step radius below which a refined candidate stops.
_GRID_BUDGET, _REFINE_BUDGET, _REFINE_RADIUS = (16, 60), (24, 120), 1e-6


def d4_family_scan(
    grid_steps: int = 25,
    opts: OptimizerOptions = DEFAULT_OPTIONS,
    *,
    refine_count: int = 10,
) -> FamilyScanResult:
    """Scan the triple-family lower bound over a uniform grid of [0, pi]^3.

    The grid pass evaluates one point per orbit (:func:`_orbit_key`) with a
    cheap sweep budget, and ``per_point`` gives every grid point its orbit's
    value.  The best ``refine_count`` orbits for the maximum and the
    minimum, each entered at its first grid point, are refined together
    (:func:`_refine`); each distinct orbit among the grid and refined
    candidates is confirmed once with the full polished optimizer, at its
    first candidate reduced modulo pi.
    """
    if grid_steps < 9:
        raise ValueError("need at least 9 grid steps per axis")
    if refine_count < 1:
        raise ValueError(f"need refine_count >= 1, got {refine_count}")
    axis = np.linspace(0.0, np.pi, grid_steps)
    points = _cube(axis)
    values = _grid_lower_bounds(points, opts.seed, *_GRID_BUDGET)
    per_point = tuple(
        (float(x), float(y), float(z), float(v)) for (x, y, z), v in zip(points, values)
    )
    first = np.unique(_orbit_key(points)[0], axis=0, return_index=True)[1]
    order = first[np.argsort(values[first], kind="stable")]
    top, bottom = order[-refine_count:][::-1], order[:refine_count]
    signs = np.repeat([-1.0, 1.0], refine_count)
    refined = _refine(points[np.concatenate([top, bottom])], signs, axis[1], opts.seed)
    confirmed: dict[tuple, float] = {}

    def pick(grid_pts, refined_pts, sign: float):
        # near-ties go to a grid point (a refined point back on the grid's
        # orbit keeps its grid flag), then to the lexicographically smallest point
        found: dict[tuple, tuple[int, tuple]] = {}
        for flag, pts in ((0, grid_pts), (1, refined_pts)):
            for key, p in zip(map(tuple, _orbit_key(pts)[0]), pts):
                found.setdefault(key, (flag, _params_mod_pi(p)))
        for key, (_, p) in found.items():
            if key not in confirmed:
                confirmed[key] = separable_lower_bound(mub_triple_family_d4(*p), opts).value
        best = min(sign * confirmed[key] for key in found)
        tied = [(f, p) for key, (f, p) in found.items() if sign * confirmed[key] - best <= 1e-8]
        return min(tied)[1], float(sign * best)

    argmax_params, l_plus = pick(points[top], refined[:refine_count], -1.0)
    argmin_params, l_minus = pick(points[bottom], refined[refine_count:], 1.0)
    return FamilyScanResult(
        l_minus=l_minus, l_plus=l_plus, argmin_params=argmin_params,
        argmax_params=argmax_params, grid_steps=grid_steps, per_point=per_point,
    )


def _refine(points: np.ndarray, signs: np.ndarray, spacing: float, seed) -> np.ndarray:
    """Lockstep compass search for the minima of ``sign * L`` from ``points``.

    Each level is one :func:`_grid_lower_bounds` call over the six axis steps
    (+-r along x, y or z, clipped to [0, pi]; r starts at ``spacing``) of
    every active candidate; a step clipped onto the candidate itself is not
    evaluated.  A candidate moves to its best step if that improves its
    value and else halves r.  It stops below ``_REFINE_RADIUS``, or on
    reaching an orbit (:func:`_orbit_key`) that another candidate of its
    sign holds.  A maximum candidate's (sign -1) steps stop once a restart
    falls to its L: a step's L is a minimum over restarts that never rise,
    so it then cannot win, and every move is as without the cut.
    """
    axis_steps = np.concatenate([np.eye(3), -np.eye(3)])
    points = np.array(points, dtype=float)
    value = signs * _grid_lower_bounds(points, seed, *_REFINE_BUDGET)
    radius = np.full(len(points), spacing)
    active = np.ones(len(points), dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        trial = np.clip(points[idx, None] + radius[idx, None, None] * axis_steps, 0.0, np.pi)
        moved = (trial != points[idx, None]).any(axis=-1)
        trial_value = np.full(moved.shape, np.inf)
        floor = np.repeat(np.where(signs[idx] < 0, -value[idx], -np.inf), moved.sum(axis=1))
        trial_value[moved] = _grid_lower_bounds(trial[moved], seed, *_REFINE_BUDGET, threshold=floor)
        trial_value = np.where(moved, signs[idx, None] * trial_value, np.inf)
        for i, t, tv in zip(idx, trial, trial_value):
            best = int(np.argmin(tv))
            if tv[best] < value[i]:
                points[i], value[i] = t[best], tv[best]
                held = _orbit_key(points[signs == signs[i]])[0]
                active[i] = (held == _orbit_key(t[best])[0]).all(axis=1).sum() == 1
            else:
                radius[i] /= 2
                active[i] = radius[i] >= _REFINE_RADIUS
    return points


def _cube(axis: np.ndarray) -> np.ndarray:
    """The (x, y, z) rows of ``axis``^3, z running fastest."""
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _mod_pi(points) -> np.ndarray:
    """Coordinates reduced into [0, pi); a value that rounds to pi at 1e-9 maps to 0.

    Shifting any one coordinate by pi only permutes vectors within one basis
    of the triple, so the reduced point names the same triple.
    """
    r = np.mod(points, np.pi)
    return np.where(np.round(r, 9) == np.round(np.pi, 9), 0.0, r)


def _params_mod_pi(point) -> tuple[float, float, float]:
    """One (x, y, z) reduced by :func:`_mod_pi`; the reported extrema then do
    not depend on the grid."""
    return tuple(float(c) for c in _mod_pi(np.asarray(point, dtype=float)))


def _orbit_key(points) -> tuple[np.ndarray, np.ndarray]:
    """Orbit keys and representatives of (n, 3) family points.

    Two anti-unitaries move the whole triple at (x, y, z) onto another
    family triple, and the objective is invariant when a design is moved by
    one: complex conjugation gives the triple at (pi - x, pi - y, pi - z)
    (within b3, vectors 1<->2 and 3<->4 swap), and s -> P conj(s), with P
    swapping basis states 0<->2 and 1<->3, gives the one at (x, z, y)
    (vector i goes to ``[2, 3, 0, 1, 4, 5, 6, 7, 11, 10, 9, 8][i]``, up to a
    phase).  With the shift by pi they generate a group of order 4 on the
    points modulo pi, on whose orbits L is constant.  The representative is
    the image, reduced by :func:`_mod_pi`, that is lexicographically
    smallest after rounding to 1e-9; the key is that rounding.  Returns
    ``(keys, reps)``, both (n, 3).
    """
    p = _mod_pi(np.asarray(points, dtype=float).reshape(-1, 3))
    q = _mod_pi(np.pi - p)
    images = np.stack([p, p[:, [0, 2, 1]], q, q[:, [0, 2, 1]]], axis=1)
    keys = np.round(images, 9)
    least = np.lexsort(keys[..., ::-1].transpose(2, 0, 1), axis=-1)[:, 0]
    rows = np.arange(p.shape[0])
    return keys[rows, least], images[rows, least]
