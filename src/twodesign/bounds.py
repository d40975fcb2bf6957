"""Separable-state bounds of the correlation sums by product-state optimization.

The objective for a design ``{v}`` is ``sum_v |<v|e>|^2 |<v|f>|^2`` over unit
vectors e, f.  It reads only ``Design.vectors``, so MUB and SIC designs take
the same path.  Substituting f -> conj(f) maps the objective with the second
party's vectors conjugated onto this one, so both conventions share their
bounds and the optimizers take no conjugation option.  For fixed f the
objective is a Hermitian quadratic form in e, so each half-step is solved
exactly by an extremal eigenvector; alternating these exact updates is
monotone and converges fast.

One kernel, :func:`_two_vector_iterate`, runs the alternating updates with
stacked eigendecompositions on one flat batch of seeded restarts, one design
per restart.  Every sweep writes the state and objective of each active
restart; a restart retires at the first sweep whose gain falls below ``TOL``,
and later sweeps compute only the others, so each ends bit for bit as it would
alone.  The batch stops ``stationary`` when none is active, or ``max_sweeps``
when one still improves after ``OptimizerOptions.max_sweeps``.  A restart
whose gain has stopped shrinking also takes Newton steps
(:func:`_newton_step`), at both ends.  Both bounds make one kernel call
through one multistart driver, which returns its best restart as a
:class:`BoundEnd`.

The upper bound equals the maximum of ``F(e) = sum_v |<v|e>|^4``
(arithmetic-geometric mean argument).  The kernel, maximizing and started
at f = e, climbs it: its half-steps are then the fixed-point ascent
``a -> top eigenvector of sum_v |<v|a>|^2 |v><v|`` (e_1 = a_1, f_1 = a_2,
e_2 = a_3, ...), so one sweep is two ascent steps until Newton steps
may start (sweep ``_NEWTON_AFTER``).  The maximum is also
proved from above: F(e) is ``<e e|Q|e e>`` with ``Q = sum_v (|v><v|)^(x2)``,
so no product state exceeds the level-2 eigenvalue
``lambda = lambda_max(P_sym Q P_sym)`` (Doherty & Wehner, arXiv:1210.5048),
the ceiling's ``certificate``.  Once the best active restart comes within
``CERTIFY_WINDOW`` of lambda, a Gauss-Newton step from its f on the
residual ``R^(1/2) (e x e)``, ``R = lambda P_sym - P_sym Q P_sym`` (whose
zeros are exactly the maximizers when lambda is attained), tries to reach
lambda; success is the kernel's one early stop.  Each upper bound names why it
stopped: ``certified`` (its state reaches lambda within
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
triple products once per distinct vector set).  Every other subset's
states are the representative's moved by a group element, all in one
batched product, and re-evaluated on its own vectors.

All optimizers are multistarted from a seeded generator and deterministic:
a fixed seed yields a bit-identical result.
"""

from __future__ import annotations

import contextlib
import functools
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
            if not abs(np.linalg.norm(arr) - 1) <= 1e-12:  # a NaN or inf norm fails too
                raise ValueError(f"factor {name} is not a finite unit vector")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class BoundEnd:
    """One end of the separable range: ``value`` is the objective re-evaluated
    at the product state ``state`` (e = f on the ceiling).  ``stop_reason`` is
    ``certified``, ``stationary`` (every restart retired) or ``max_sweeps``.
    ``certificate`` is ``None`` on the floor; on the ceiling no product state
    exceeds it (the level-2 lambda)."""

    value: float
    state: ProductState
    stop_reason: str
    restarts: int
    sweeps: int
    certificate: float | None

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
    argmin: ProductState | None
    argmax: np.ndarray | None
    restarts: int
    converged: bool
    provenance: str | None = None  # the design's provenance; None when unknown
    indices: tuple[int, ...] | None = None  # the design's subset indices, if a subset

    def __post_init__(self):
        # stated as the ranges that must hold, so a NaN or infinite bound fails them
        if not -1e-12 <= self.lower <= self.upper + 1e-9:
            raise ValueError(
                f"inconsistent bounds: lower={self.lower!r}, upper={self.upper!r}"
            )
        if not self.upper <= self.size + 1e-9:
            raise ValueError(f"upper bound {self.upper!r} exceeds design size {self.size}")
        if not 0 <= self.restarts:
            raise ValueError(f"restarts must be non-negative, got {self.restarts!r}")


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


def _eig_extreme(m: np.ndarray, maximize: bool):
    # eigenpairs ordered from the extreme one: descending when maximizing
    vals, vecs = np.linalg.eigh(m)
    if maximize:
        vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    return vecs[..., :, 0], vals, vecs


#: Newton steps start at this sweep, where a gain exceeds this ratio of the last, this many at once.
_NEWTON_AFTER, _NEWTON_RATIO, _NEWTON_CHUNK = 6, 0.2, 64
#: Re(A_ij conj(r_a) r_b), r = (1, i): the real form of a Hermitian form x^H A x
_REAL_FORM = np.array([[1.0, 1.0j], [-1.0j, 1.0]])[:, None, :]


def _newton_step(v1c, frame_e, frame_f, vals_f, w_f, obj):
    """One Newton step on the product of the unit spheres: (e, f, w_f, objective).

    (e, f) is column 0 of the half-steps' eigenvector frames, ordered from
    the extreme eigenvalue (the least for a minimum, the largest for a
    maximum; the step does not depend on which); the coordinates are the
    (Re, Im) pairs of x, y in e + T_e x, f + T_f y over the other columns
    (no phase).  Halved, the gradient is T_e^H M_f e (zero in f)
    and the Hessian blocks are T_e^H M_f T_e - F, diag(vals_f) - F, 2 X^T Y,
    rows X = Re(conj<v|e> <v|T_e>), Y likewise.  Every product is per
    restart; a singular Hessian gives a zero step.
    """
    frames = np.stack([frame_e, frame_f], axis=1)
    amp = v1c[..., None, :, :] @ frames  # <v| frame columns>, e then f
    s, k = obj.size, 2 * frames.shape[-1] - 2
    rows = (amp[..., :1] * amp[..., 1:].conj()).view(float)  # X, Y: Re(c z) = (Re c, -Im c).z
    block = np.swapaxes(amp[:, 0, :, 1:].conj() * w_f[..., None], 1, 2) @ amp[:, 0, :, 1:]
    hess = np.zeros((s, 2 * k, 2 * k))
    hess[:, :k, :k] = (block[:, :, None, :, None] * _REAL_FORM).real.reshape(s, k, k)
    hess[:, :k, k:] = 2 * np.swapaxes(rows[:, 0], 1, 2) @ rows[:, 1]
    hess[:, k:, :k] = np.swapaxes(hess[:, :k, k:], 1, 2)
    hess[:, range(k, 2 * k), range(k, 2 * k)] = np.repeat(vals_f[:, 1:], 2, axis=1)
    hess -= obj[:, None, None] * np.eye(2 * k)
    rhs = np.concatenate([-(w_f[:, None] @ rows[:, 0])[:, 0], np.zeros((s, k))], axis=1)[..., None]
    try:
        step = np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError:
        step = np.zeros_like(rhs)
        for i in range(s):
            with contextlib.suppress(np.linalg.LinAlgError):
                step[i] = np.linalg.solve(hess[i], rhs[i])
    coef = np.concatenate([np.ones((s, 2, 1, 1)), step.reshape(s, 2, -1, 2).view(complex)], 2)
    e, f = np.moveaxis((frames @ coef)[..., 0] / np.linalg.norm(coef, axis=2), 1, 0)
    w_f = _amps_sq(v1c, f)
    return e, f, w_f, np.sum(_amps_sq(v1c, e) * w_f, axis=-1)


def _two_vector_iterate(v1, e, f, *, minimize, tol, max_sweeps, certify=None, threshold=None):
    """Alternating exact eigenvector updates on batched starts.

    ``v1`` is the design stack, broadcastable against the batch ``e.shape[:-1]``,
    which is flattened on entry with one design per item.  Each sweep writes
    the e, f, objective and sweeps used of every active restart; a restart
    retires at the first sweep whose improvement is below ``tol``, and later
    sweeps compute only the others, so each ends exactly as it would alone.
    With ``certify`` (a :class:`_Level2Certificate`, when maximizing), each
    sweep whose best active restart lies within ``CERTIFY_WINDOW`` of
    ``certify.value`` tries a certificate step from its f; one that succeeds
    ends the call.  A Newton step is kept only where it improves the
    objective, so every value is the objective at a product state and each
    restart's objective is monotone.  With ``threshold`` (minimizing;
    ``threshold[i]`` for row i of the batch less its last axis), a row
    retires whole, not stationary, once one of its restarts reaches it: no
    objective rises, so the row's minimum ends at or below it.  Returns the
    final (e, f), per-item objective, stationarity (retired within
    ``max_sweeps``) and sweeps used.
    """
    batch, d = e.shape[:-1], e.shape[-1]
    count = math.prod(batch)
    v1 = np.broadcast_to(v1, batch + v1.shape[-2:]).reshape((count,) + v1.shape[-2:])
    v1c = v1.conj()
    e, f = e.reshape(count, d), f.reshape(count, d)
    e_out, f_out = np.empty((count, d), dtype=complex), np.empty((count, d), dtype=complex)
    obj_out, used = np.empty(count), np.empty(count, dtype=int)
    stationary = np.zeros(count, dtype=bool)
    live = np.arange(count)  # flat indices of the active items
    sign = 1.0 if minimize else -1.0
    prev = np.full(count, np.inf if minimize else -np.inf)
    w_f = _amps_sq(v1c, f)
    for sweep in range(max_sweeps):
        e, _, frame_e = _eig_extreme(_weighted_frame(w_f, v1, v1c), maximize=not minimize)
        w_e = _amps_sq(v1c, e)
        f, vals_f, frame_f = _eig_extreme(_weighted_frame(w_e, v1, v1c), maximize=not minimize)
        w_f = _amps_sq(v1c, f)
        obj = np.sum(w_e * w_f, axis=-1)
        if sweep >= _NEWTON_AFTER:
            slow = np.flatnonzero(sign * (prev - obj) > _NEWTON_RATIO * gain)
            for lo in range(0, slow.size, _NEWTON_CHUNK):
                at = slow[lo : lo + _NEWTON_CHUNK]
                new = _newton_step(v1c[at], frame_e[at], frame_f[at], vals_f[at], w_f[at], obj[at])
                better = sign * new[3] < sign * obj[at]  # keep only steps that improve
                at = at[better]
                e[at], f[at], w_f[at], obj[at] = (x[better] for x in new)
        gain = sign * (prev - obj)
        e_out[live], f_out[live], obj_out[live], used[live] = e, f, obj, sweep + 1
        if certify is not None:
            best = int(np.argmax(obj))
            if obj[best] >= certify.value - CERTIFY_WINDOW and certify.step(f[best]):
                break
        done = settled = gain < tol
        if threshold is not None:
            rows = live // batch[-1]
            cut = np.isin(rows, rows[obj <= threshold[rows]])
            done, settled = settled | cut, settled & ~cut
        if done.any():
            stationary[live[settled]] = True
            live, v1, v1c, e, f, w_f, obj, gain = (
                x[~done] for x in (live, v1, v1c, e, f, w_f, obj, gain)
            )
            if live.size == 0:
                break
        prev = obj
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


def _product_value(v: np.ndarray, e: np.ndarray, f: np.ndarray):
    """``sum_v |<v|e>|^2 |<v|f>|^2`` for designs (..., n, d) at states (..., d), as floats."""
    vc = v.conj()
    return np.sum(_amps_sq(vc, e) * _amps_sq(vc, f), axis=-1).tolist()


def _canonical_vector(vec: np.ndarray) -> np.ndarray:
    """Fix the global phase of each (..., d) vector: its first component of modulus
    at least 1e-3 of the largest (never a near-zero one, whose phase rounding
    can turn) is made real and positive."""
    mod = np.abs(vec)
    idx = np.argmax(mod >= 1e-3 * mod.max(axis=-1, keepdims=True), axis=-1)
    lead = np.take_along_axis(vec, idx[..., None], -1)
    return vec * (lead / np.abs(lead)).conj()


def _multistart(v: np.ndarray, opts: OptimizerOptions, *, minimize: bool, certify=None):
    """One kernel call on the design vectors ``v`` from ``opts``' seeded starts,
    random e and f when minimizing, f = e when maximizing, as a :class:`BoundEnd` at the best
    restart's phase-canonical (e, f) ((f, f) when maximizing) or at a maximizer ``certify`` proved."""
    restarts = opts.restarts_for(v.shape[1])
    rng = np.random.default_rng(opts.seed)
    e0 = _random_unit(rng, (restarts, v.shape[1]))
    f0 = _random_unit(rng, (restarts, v.shape[1])) if minimize else e0
    e, f, obj, stationary, used = _two_vector_iterate(
        v, e0, f0, minimize=minimize, tol=TOL, max_sweeps=opts.max_sweeps, certify=certify
    )
    best = int(np.argmin(obj) if minimize else np.argmax(obj))
    stop_reason = "stationary" if stationary.all() else "max_sweeps"
    state = ProductState(*_canonical_vector(np.stack([e[best] if minimize else f[best], f[best]])))
    if certify is not None and certify.maximizer is not None:
        stop_reason, state = "certified", ProductState(certify.maximizer, certify.maximizer)
    return BoundEnd(
        value=_product_value(v, state.e, state.f), state=state, stop_reason=stop_reason,
        restarts=restarts, sweeps=int(used.max()),
        certificate=None if certify is None else certify.value,
    )


def separable_lower_bound(design: Design, opts: OptimizerOptions = DEFAULT_OPTIONS) -> BoundEnd:
    """Minimize the correlation sum over product states |e> x |f>.

    Alternating exact eigenvector updates (each half-step solves its
    subproblem exactly) with Newton steps on slow tails, multistarted; each
    restart retires once stationary, and the best one is returned with its
    product state.  A restart still improving after ``opts.max_sweeps``
    makes the stop reason ``max_sweeps`` (``converged`` false), which is
    reported, never raised.
    """
    return _multistart(design.vectors, opts, minimize=True)


def separable_upper_bound(design: Design, opts: OptimizerOptions = DEFAULT_OPTIONS) -> BoundEnd:
    """Maximize the correlation sum over product states, proved by lambda.

    Runs the kernel from e = f (on ``sum_v |<v|e>|^4``, which the product-state
    maximum equals by the mean inequality) until the certificate step reaches
    the level-2 eigenvalue, every restart is stationary, or
    ``opts.max_sweeps`` is spent; the latter two report the f of the best
    restart as the state f x f.
    """
    v = design.vectors
    return _multistart(v, opts, minimize=False, certify=_Level2Certificate(v))


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
        design_kind=design.kind, dim=design.dim, size=design.count,
        subset_or_params=label if label is not None else design.provenance,
        lower=lo.value, upper=up.value, argmin=lo.state, argmax=up.state.e,
        restarts=lo.restarts, converged=lo.converged and up.converged,
        provenance=design.provenance, indices=design.indices,
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
    Vectors that do not span the space leave M singular, and no element;
    a vanishing Gram entry leaves its c_i undefined and drops the element.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        target = (phase / np.abs(phase))[..., None] * v[perms]
        m = np.swapaxes(target, 1, 2) @ s.conj()
        lam, vec = np.linalg.eigh(np.swapaxes(m.conj(), 1, 2) @ m)
        unitaries = m @ (vec / np.sqrt(lam)[:, None, :]) @ np.swapaxes(vec.conj(), 1, 2)
        maps = np.abs(s @ np.swapaxes(unitaries, 1, 2) - target).max(axis=(1, 2)) <= 1e-12
        gram_u = unitaries @ np.swapaxes(unitaries.conj(), 1, 2)
        keep = maps & (np.abs(gram_u - np.eye(d)).max(axis=(1, 2)) <= 1e-12)
    return perms[keep], unitaries[keep], anti[keep]


@functools.lru_cache(maxsize=8)
def _design_group(data: bytes, shape: tuple[int, int]):
    """:func:`_symmetry_group` of the complex vectors with these bytes and shape.

    The group depends only on the vectors, so it is searched once per
    distinct set and shared, read-only, by every later call.
    """
    group = _symmetry_group(np.frombuffer(data, dtype=complex).reshape(shape))
    for a in group:
        a.setflags(write=False)
    return group


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


def subset_bound_spectrum(
    sic: Design, subset_size: int, opts: OptimizerOptions = DEFAULT_OPTIONS
) -> SubsetSpectrum:
    """Bounds for every ``subset_size``-subset of a SIC set, plus their extrema.

    A subset's bounds do not change under a unitary or anti-unitary that
    maps the whole set onto itself (:func:`_symmetry_group`, searched once
    per distinct vector set), so both optimizers run only on the first
    subset of each orbit, in lexicographic order, with the seed of its index
    k: the k-th child that ``spawn`` would give ``opts.seed``, made without
    spawning.  Every other subset gets that record's ``argmin`` and ``argmax``
    moved by the symmetry, all in one batched product, with ``lower`` and
    ``upper`` re-evaluated on its own vectors.
    """
    if sic.kind != "sic":
        raise ValueError(f"subset spectra enumerate SIC subsets, got a {sic.kind!r} design")
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
    tags = [",".join(str(i + 1) for i in combo) for combo in combos]
    root = opts.seed
    root = root if isinstance(root, np.random.SeedSequence) else np.random.SeedSequence(root)
    perms, unitaries, anti = _design_group(sic.vectors.tobytes(), sic.vectors.shape)
    rows = np.array(combos)
    source, element = _orbits(rows, perms)
    records = [None] * n_subsets
    states = np.zeros((n_subsets, 3, sic.dim), dtype=complex)  # argmin e, f and argmax
    for k in np.flatnonzero(source == np.arange(n_subsets)):
        seed = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (int(k),))
        design = sic.subset(combos[k])
        records[k] = compute_bound_record(design, replace(opts, seed=seed), label=f"({tags[k]})")
        states[k] = records[k].argmin.e, records[k].argmin.f, records[k].argmax
    mapped = np.flatnonzero(source != np.arange(n_subsets))
    g = element[mapped]
    moved = states[source[mapped]]
    moved = np.where(anti[g, None, None], moved.conj(), moved) @ np.swapaxes(unitaries[g], 1, 2)
    moved = _canonical_vector(moved)
    vecs = sic.vectors[rows[mapped]]
    lower = _product_value(vecs, moved[:, 0], moved[:, 1])
    upper = _product_value(vecs, moved[:, 2], moved[:, 2])
    for k, lo, up, (e, f, top) in zip(mapped, lower, upper, moved):
        records[k] = replace(
            records[source[k]], subset_or_params=f"({tags[k]})", lower=lo, upper=up,
            argmin=ProductState(e, f), argmax=top, provenance=f"{sic.provenance}[{tags[k]}]",
            indices=combos[k],
        )
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
    candidates is confirmed once with the full lower bound, at its
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
    value, and then doubles r up to ``spacing`` to follow a ridge oblique to
    the axes; else it halves r.  It stops below ``_REFINE_RADIUS``, or on
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
                radius[i] = min(2 * radius[i], spacing)
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
