"""Separable-state bounds of the correlation sums by product-state optimization.

The objective for a design ``{v}`` is ``sum_v |<v|e>|^2 |<v|f>|^2`` over unit
vectors e, f.  For fixed f it is a Hermitian quadratic form in e, so each
half-step is solved exactly by an extremal eigenvector; alternating these
exact updates is monotone and converges fast.

The upper bound reduces to a single-vector maximization of
``F(e) = sum_v |<v|e>|^4`` (arithmetic-geometric mean argument), which the
same fixed-point ascent solves.  It is also proved from above: F(e) is
``<e e|Q|e e>`` with ``Q = sum_v (|v><v|)^(x2)``, so no product state exceeds
the level-2 eigenvalue ``lambda = lambda_max(P_sym Q P_sym)`` (Doherty &
Wehner, arXiv:1210.5048), the result's ``certificate``.  Once the ascent's
best restart comes within ``CERTIFY_WINDOW`` of lambda, a Gauss-Newton step
on the residual ``R^(1/2) (e x e)``, ``R = lambda P_sym - P_sym Q P_sym``
(whose zeros are exactly the maximizers when lambda is attained), tries to
reach lambda; success ends the search.  Each result names why it stopped:
``certified`` (the maximizer reaches lambda within ``CERTIFY_TOL``),
``stationary`` (every restart stopped improving) or ``max_sweeps``; only the
last counts as not converged.

The lower bound runs the alternating updates on a batch of restarts with
stacked eigendecompositions.  Each restart retires at the first sweep whose
improvement falls below ``OptimizerOptions.tol`` and keeps its state and
objective; later sweeps compute only the restarts still active, so each
ends bit for bit as it would alone.  The batch stops ``stationary`` when
none is active, or ``max_sweeps`` when one still improves after
``OptimizerOptions.max_sweeps``; the best restart is then polished.  The
d = 4 family scan shares this kernel: it evaluates the (steps - 1)^3
distinct points of its grid (a coordinate of pi names the same triple as 0)
with a short sweep budget (60 sweeps of 16 restarts by default), so its
``per_point`` values are estimates, and confirms its extrema with the full
lower bound.

All optimizers are multistarted from a seeded generator and deterministic:
a fixed seed yields a bit-identical result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .designs import MubSet, SicSet, _d4_b2, _d4_b3, mub_triple_family_d4


#: The certificate step is tried once the best restart is this close to lambda,
CERTIFY_WINDOW = 1e-4
#: and it proves the maximum when it reaches lambda this closely.
CERTIFY_TOL = 1e-12
_CERTIFY_ITERATIONS = 16


class EnumerationCapExceededError(RuntimeError):
    """Requested subset enumeration is larger than the configured cap."""


@dataclass(frozen=True)
class OptimizerOptions:
    """Multistart settings; ``restarts=None`` picks 64 for d <= 3, 256 above."""

    restarts: int | None = None
    seed: int | np.random.SeedSequence = 0
    tol: float = 1e-12
    max_sweeps: int = 2000
    subset_cap: int = 20000

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
    objective_history: tuple[float, ...]

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
    objective_history: tuple[float, ...]

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

    def __post_init__(self):
        if self.lower < -1e-12 or self.lower > self.upper + 1e-9:
            raise ValueError(
                f"inconsistent bounds: lower={self.lower!r}, upper={self.upper!r}"
            )
        if self.upper > self.size + 1e-9:
            raise ValueError(f"upper bound {self.upper!r} exceeds design size {self.size}")


def design_vectors(design) -> np.ndarray:
    """Coerce a MubSet / SicSet / array of unit vectors to an (n, d) stack."""
    if isinstance(design, MubSet):
        return design.vectors()
    if isinstance(design, SicSet):
        return np.asarray(design.vectors)
    v = np.asarray(design, dtype=complex)
    if v.ndim != 2:
        raise ValueError("expected a 2-D stack of design vectors")
    return v


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


def _two_vector_iterate(
    v1, e, f, *, minimize, tol, max_sweeps, second_conj=False, record_history=False
):
    """Alternating exact eigenvector updates on batched starts.

    ``v1`` is the design stack, broadcastable against the batch ``e.shape[:-1]``;
    with ``second_conj`` the f factor sees the conjugated design.  Each
    restart retires at the first sweep whose improvement is below ``tol`` and
    keeps its e, f and objective; later sweeps compute only the active
    restarts, so every restart ends exactly as it would run alone.  Returns
    the final (e, f), per-item objective, per-item stationarity (retired
    within ``max_sweeps``), per-item sweeps used and (when requested) the
    per-sweep objective of every item, a retired item repeating its last.
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
    history = []
    w_f = _amps_sq(v1 if second_conj else v1c, f)
    for sweep in range(max_sweeps):
        v2, v2c = (v1c, v1) if second_conj else (v1, v1c)
        e = _eig_extreme(_weighted_frame(w_f, v1, v1c), maximize=not minimize)
        w_e = _amps_sq(v1c, e)
        f = _eig_extreme(_weighted_frame(w_e, v2, v2c), maximize=not minimize)
        w_f = _amps_sq(v2c, f)
        obj = np.sum(w_e * w_f, axis=-1)
        obj_out[live] = obj
        if record_history:
            history.append(obj_out.reshape(batch).copy())
        done = sign * (prev - obj) < tol
        if done.any():
            retired = live[done]
            e_out[retired], f_out[retired] = e[done], f[done]
            stationary[retired] = True
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
        obj_out.reshape(batch), stationary.reshape(batch), used.reshape(batch), history,
    )


def _single_vector_ascend(v1, e, *, tol, max_sweeps, certify=None):
    """Fixed-point ascent on sum_v |<v|e>|^4 via the top eigenvector map.

    With ``certify`` (a :class:`_Level2Certificate`), each sweep whose best
    restart lies within ``CERTIFY_WINDOW`` of ``certify.value`` ends with a
    certificate step on that restart.  A step that succeeds ends the ascent;
    its vector is returned last (``None`` when no step succeeded).
    """
    v1c = v1.conj()
    prev = np.full(e.shape[:-1], -np.inf)
    sweeps_used = max_sweeps
    delta = np.full(e.shape[:-1], np.inf)
    obj = prev
    certified = None
    for sweep in range(max_sweeps):
        w = _amps_sq(v1c, e)
        e = _eig_extreme(_weighted_frame(w, v1, v1c), maximize=True)
        w = _amps_sq(v1c, e)
        obj = np.sum(w * w, axis=-1)
        delta = obj - prev
        prev = obj
        if certify is not None:
            best = int(np.argmax(obj))
            if obj[best] >= certify.value - CERTIFY_WINDOW:
                certified = certify.step(e[best])
        if certified is not None or (delta < tol).all():
            sweeps_used = sweep + 1
            break
    return e, obj, delta, sweeps_used, certified


class _Level2Certificate:
    """The level-2 eigenvalue bound of one design and its certificate step.

    ``value`` is lambda = lambda_max(P_sym Q P_sym) with
    Q = sum_v (|v><v|)^(x2); Q is supported on the symmetric subspace, so
    this is lambda_max(Q).  ``root`` is R^(1/2) with R = lambda P_sym - Q,
    positive semidefinite, and ||R^(1/2)(e x e)||^2 = lambda - F(e) for unit e.
    """

    def __init__(self, v: np.ndarray):
        n, d = v.shape
        self.v_conj = v.conj()
        pairs = (v[:, :, None] * v[:, None, :]).reshape(n, d * d)  # rows v x v
        q = pairs.T @ pairs.conj()
        swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
        self.value = float(np.linalg.eigvalsh(q)[-1])
        vals, vecs = np.linalg.eigh(self.value * (np.eye(d * d) + swap) / 2 - q)
        self.root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    def step(self, e: np.ndarray) -> np.ndarray | None:
        """Gauss-Newton on R^(1/2)(e x e) over the unit sphere, from ``e``.

        The step moves in the complex orthogonal complement of ``e`` (the
        sphere's tangent space without the phase) and renormalizes; it is
        repeated while the gap to ``value`` shrinks.  At a flat maximum the
        residual is quadratic in the distance, and each step only quarters
        it.  Returns the best phase-canonical vector if it reaches ``value``
        within ``CERTIFY_TOL``, else ``None``.
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
            gap = self.value - _quartic(self.v_conj, e)
            if gap >= best_gap:
                break
            best, best_gap = e, gap
        return best if best_gap <= CERTIFY_TOL else None


def _quartic(v_conj: np.ndarray, e: np.ndarray) -> float:
    w = _amps_sq(v_conj, e)
    return float(np.sum(w * w))


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


def _polish_two_vector(v1, e, f, *, minimize, second_conj=False, max_sweeps=5000):
    """Deep-converge one candidate: (e, f, objective)."""
    e, f, obj, *_ = _two_vector_iterate(
        v1[None], e[None], f[None], minimize=minimize, tol=1e-15,
        max_sweeps=max_sweeps, second_conj=second_conj,
    )
    return e[0], f[0], float(obj[0])


def separable_lower_bound(
    design,
    opts: OptimizerOptions = DEFAULT_OPTIONS,
    *,
    conjugate_second: bool = False,
) -> LowerBoundResult:
    """Minimize the correlation sum over product states |e> x |f>.

    Alternating exact eigenvector updates (each half-step solves its
    subproblem exactly), multistarted; each restart retires once stationary
    and the best one is polished and returned with its product state.  A
    restart still improving after ``opts.max_sweeps`` makes the stop reason
    ``max_sweeps`` (``converged`` false), which is reported, never raised.
    """
    v = design_vectors(design)
    n, d = v.shape
    if n == 0:
        raise ValueError("empty design")
    restarts = opts.restarts_for(d)
    rng = np.random.default_rng(opts.seed)
    e0 = _random_unit(rng, (restarts, d))
    f0 = _random_unit(rng, (restarts, d))
    e, f, obj, stationary, used, history = _two_vector_iterate(
        v[None], e0, f0, minimize=True, tol=opts.tol, max_sweeps=opts.max_sweeps,
        second_conj=conjugate_second, record_history=True,
    )
    best = int(np.argmin(obj))
    e_b, f_b, _ = _polish_two_vector(
        v, e[best], f[best], minimize=True, second_conj=conjugate_second
    )
    # deterministic reported minimizer: re-solve the final half-steps with the
    # documented degeneracy tie-break (value-preserving for the bilinear form)
    v2 = v.conj() if conjugate_second else v
    w_f = _amps_sq(v2.conj(), f_b)
    e_b = _resolve_degenerate(_weighted_frame(w_f, v, v.conj()), minimize=True)
    w_e = _amps_sq(v.conj(), e_b)
    f_b = _resolve_degenerate(_weighted_frame(w_e, v2, v2.conj()), minimize=True)
    value = float(np.sum(_amps_sq(v.conj(), e_b) * _amps_sq(v2.conj(), f_b)))
    return LowerBoundResult(
        value=value,
        minimizer=ProductState(_canonical_vector(e_b), _canonical_vector(f_b)),
        stop_reason="stationary" if stationary.all() else "max_sweeps",
        restarts=restarts,
        sweeps=int(used.max()),
        objective_history=tuple(float(h[best]) for h in history[: used[best]]),
    )


def separable_upper_bound(
    design, opts: OptimizerOptions = DEFAULT_OPTIONS
) -> UpperBoundResult:
    """Maximize the correlation sum over product states, proved by lambda.

    Runs the single-vector ascent on ``sum_v |<v|e>|^4`` (the product-state
    maximum equals this by the mean inequality) until the certificate step
    reaches the level-2 eigenvalue, every restart is stationary, or
    ``opts.max_sweeps`` is spent; the latter two polish the best restart.
    """
    v = design_vectors(design)
    n, d = v.shape
    if n == 0:
        raise ValueError("empty design")
    cert = _Level2Certificate(v)
    restarts = opts.restarts_for(d)
    rng = np.random.default_rng(opts.seed)
    e0 = _random_unit(rng, (restarts, d))
    e, obj, delta, sweeps, e_b = _single_vector_ascend(
        v[None], e0, tol=opts.tol, max_sweeps=opts.max_sweeps, certify=cert
    )
    if e_b is not None:
        stop_reason = "certified"
    else:
        stop_reason = "stationary" if (delta < opts.tol).all() else "max_sweeps"
        polished = _single_vector_ascend(
            v[None], e[None, int(np.argmax(obj))], tol=1e-15, max_sweeps=5000
        )[0]
        e_b = _canonical_vector(polished[0])
        # tie-break among the top eigenspace only when it preserves the
        # quartic objective; otherwise keep the polished maximizer
        w = _amps_sq(v.conj(), e_b)
        cand = _resolve_degenerate(_weighted_frame(w, v, v.conj()), minimize=False)
        if _quartic(v.conj(), cand) >= _quartic(v.conj(), e_b) - 1e-12:
            e_b = cand
    value = _quartic(v.conj(), e_b)
    return UpperBoundResult(
        value=value,
        maximizer=e_b,
        certificate=cert.value,
        stop_reason=stop_reason,
        restarts=restarts,
        sweeps=sweeps,
        objective_history=(value,),
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
    design,
    opts: OptimizerOptions = DEFAULT_OPTIONS,
    *,
    label: str | None = None,
    conjugate_second: bool = False,
) -> BoundRecord:
    """Run both optimizers on one design and package the result."""
    if isinstance(design, MubSet):
        kind, size = "mub", design.count
    elif isinstance(design, SicSet):
        kind, size = "sic", design.count
    else:
        kind, size = "custom", len(design_vectors(design))
    lo = separable_lower_bound(design, opts, conjugate_second=conjugate_second)
    up = separable_upper_bound(design, opts)
    return BoundRecord(
        design_kind=kind,
        dim=design_vectors(design).shape[1],
        size=size,
        subset_or_params=label if label is not None else getattr(design, "provenance", ""),
        lower=lo.value,
        upper=up.value,
        argmin=lo.minimizer,
        argmax=up.maximizer,
        restarts=lo.restarts,
        converged=lo.converged and up.converged,
        provenance=getattr(design, "provenance", None),
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


def subset_bound_spectrum(
    sic: SicSet, subset_size: int, opts: OptimizerOptions = DEFAULT_OPTIONS
) -> SubsetSpectrum:
    """Bounds for every ``subset_size``-subset of a SIC set, plus their extrema."""
    total = sic.count
    if subset_size > total:
        raise ValueError("subset size exceeds the design")
    n_subsets = math.comb(total, subset_size)
    if n_subsets > opts.subset_cap:
        raise EnumerationCapExceededError(
            f"{n_subsets} subsets exceed the cap {opts.subset_cap}; "
            "raise subset_cap or evaluate sampled subsets explicitly"
        )
    combos = list(itertools.combinations(range(total), subset_size))
    seeds = np.random.SeedSequence(opts.seed).spawn(len(combos))
    records = [
        compute_bound_record(
            sic.subset(combo),
            replace(opts, seed=seed),
            label="(" + ",".join(str(i + 1) for i in combo) + ")",
        )
        for combo, seed in zip(combos, seeds)
    ]
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


def _triple_stack(params: np.ndarray) -> np.ndarray:
    """Design stacks (P, 12, 4) for the triples at each (x, y, z) row."""
    p = np.asarray(params, dtype=float)
    out = np.zeros((p.shape[0], 12, 4), dtype=complex)
    out[:, :4] = np.eye(4)
    out[:, 4:8] = np.swapaxes(_d4_b2(p[:, 0]), 1, 2)  # columns are basis vectors
    out[:, 8:12] = np.swapaxes(_d4_b3(p[:, 1], p[:, 2]), 1, 2)
    return out


def _grid_lower_bounds(params, restarts, seed, tol, max_sweeps, chunk=64):
    """Vectorized per-point lower bounds for a list of (x, y, z) triples.

    Every point's starts are drawn before the first chunk, so ``chunk`` only
    caps the memory of the per-restart design stacks, never a value.
    """
    params = np.asarray(params, dtype=float)
    count = params.shape[0]
    rng = np.random.default_rng(seed)
    e0 = _random_unit(rng, (count, restarts, 4))
    f0 = _random_unit(rng, (count, restarts, 4))
    values = np.zeros(count)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        v = _triple_stack(params[lo:hi])[:, None]  # (c, 1, 12, 4)
        obj = _two_vector_iterate(
            v, e0[lo:hi], f0[lo:hi], minimize=True, tol=tol, max_sweeps=max_sweeps
        )[2]
        values[lo:hi] = obj.min(axis=-1)
    return values


def d4_family_scan(
    grid_steps: int = 25,
    opts: OptimizerOptions = DEFAULT_OPTIONS,
    *,
    grid_restarts: int = 16,
    grid_sweeps: int = 60,
    refine_count: int = 10,
) -> FamilyScanResult:
    """Scan the triple-family lower bound over a uniform grid of [0, pi]^3.

    A coordinate of pi names the same triple as 0 (:func:`_params_mod_pi`),
    so the grid pass evaluates only the (grid_steps - 1)^3 distinct points,
    each with a fixed, cheap sweep budget (enough to separate basins), and
    ``per_point`` repeats the 0 faces on the pi faces.  The best
    ``refine_count`` distinct points for the maximum and the minimum are then
    refined with a local simplex search of radius pi/grid_steps, and every
    candidate is confirmed with the full polished optimizer before the
    extrema are selected.  The reported locations are reduced by
    :func:`_params_mod_pi`.
    """
    if grid_steps < 9:
        raise ValueError("need at least 9 grid steps per axis")
    axis = np.linspace(0.0, np.pi, grid_steps)
    points = _cube(axis[:-1])
    values = _grid_lower_bounds(points, grid_restarts, opts.seed, 1e-11, grid_sweeps)
    wrap = np.arange(grid_steps) % (grid_steps - 1)
    on_grid = values.reshape((grid_steps - 1,) * 3)[np.ix_(wrap, wrap, wrap)].ravel()
    per_point = tuple(
        (float(x), float(y), float(z), float(v)) for (x, y, z), v in zip(_cube(axis), on_grid)
    )

    def refined(point, maximize: bool):
        sign = -1.0 if maximize else 1.0
        cache: dict[tuple, float] = {}

        def objective(p):
            key = tuple(np.round(p, 12))
            if key not in cache:
                cache[key] = float(
                    _grid_lower_bounds(np.array([p]), 24, opts.seed, 1e-11, 120)[0]
                )
            return sign * cache[key]

        res = _scipy_minimize(
            objective,
            np.asarray(point),
            method="Nelder-Mead",
            bounds=[(0.0, np.pi)] * 3,
            options={
                "xatol": 1e-4,
                "fatol": 1e-9,
                "initial_simplex": _initial_simplex(point, np.pi / grid_steps),
                "maxfev": 120,
            },
        )
        return np.clip(res.x, 0.0, np.pi)

    def confirm(point) -> float:
        triple = mub_triple_family_d4(point[0], point[1], point[2])
        return separable_lower_bound(triple, opts).value

    def pick(maximize: bool):
        order = np.argsort(values)
        cand_idx = order[-refine_count:][::-1] if maximize else order[:refine_count]
        candidates = [(0, points[i]) for i in cand_idx]
        candidates += [(1, refined(points[i], maximize)) for i in cand_idx]
        # confirm every candidate with the polished optimizer; the family has
        # boundary identifications (y or z shifted by pi permutes columns of
        # the same basis), so near-ties are resolved to an exact grid point
        # when one achieves the extremum, lexicographically smallest first
        confirmed = [(flag, p, confirm(p)) for flag, p in candidates]
        vals = [v for _, _, v in confirmed]
        best_val = max(vals) if maximize else min(vals)
        tied = [
            (flag, tuple(np.round(p, 9)), p)
            for flag, p, v in confirmed
            if abs(v - best_val) <= 1e-8
        ]
        tied.sort(key=lambda t: (t[0], t[1]))
        _, _, p = tied[0]
        return _params_mod_pi(p), float(best_val)

    argmax_params, l_plus = pick(maximize=True)
    argmin_params, l_minus = pick(maximize=False)
    return FamilyScanResult(
        l_minus=l_minus,
        l_plus=l_plus,
        argmin_params=argmin_params,
        argmax_params=argmax_params,
        grid_steps=grid_steps,
        per_point=per_point,
    )


def _cube(axis: np.ndarray) -> np.ndarray:
    """The (x, y, z) rows of ``axis``^3, z running fastest."""
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _params_mod_pi(point) -> tuple[float, float, float]:
    """Each of (x, y, z) reduced into [0, pi), pi itself mapping to 0.

    Shifting any one coordinate by pi only permutes vectors within one basis
    of the triple, so the reduced point names the same triple; the reported
    extrema then do not depend on the grid.
    """
    return tuple(float(np.mod(c, np.pi)) for c in point)


def _initial_simplex(center, radius):
    c = np.asarray(center, dtype=float)
    simplex = [c]
    for k in range(3):
        step = np.zeros(3)
        step[k] = radius if c[k] + radius <= np.pi else -radius
        simplex.append(np.clip(c + step, 0.0, np.pi))
    return np.array(simplex)
