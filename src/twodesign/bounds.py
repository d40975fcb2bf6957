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

All optimizers are multistarted from a seeded generator and deterministic:
a fixed seed yields a bit-identical result.  Restart batches are evaluated
with stacked eigendecompositions, and independent work items (subsets, grid
points) may run on a thread pool capped by the ``TWODESIGN_THREADS``
environment variable.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .designs import MubSet, SicSet, mub_triple_family_d4


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
    value: float
    minimizer: ProductState
    converged: bool
    restarts: int
    sweeps: int
    objective_history: tuple[float, ...]


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


def _worker_count() -> int:
    raw = os.environ.get("TWODESIGN_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _parallel_map(fn, items):
    workers = _worker_count()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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

    ``v1`` is the design stack, broadcastable against the batch; with
    ``second_conj`` the f factor sees the conjugated design.  Returns the
    final (e, f), per-item objective, per-item convergence, sweeps used and
    (when requested) the per-sweep objective trace.
    """
    v1c = v1.conj()
    v2 = v1c if second_conj else v1
    v2c = v2.conj()
    sign = 1.0 if minimize else -1.0
    prev = np.full(e.shape[:-1], np.inf if minimize else -np.inf)
    history = []
    sweeps_used = max_sweeps
    delta = np.full(e.shape[:-1], np.inf)
    obj = prev
    for sweep in range(max_sweeps):
        w_f = _amps_sq(v2c, f)
        e = _eig_extreme(_weighted_frame(w_f, v1, v1c), maximize=not minimize)
        w_e = _amps_sq(v1c, e)
        f = _eig_extreme(_weighted_frame(w_e, v2, v2c), maximize=not minimize)
        obj = np.sum(w_e * _amps_sq(v2c, f), axis=-1)
        delta = sign * (prev - obj)
        prev = obj
        if record_history:
            history.append(obj)
        if (delta < tol).all():
            sweeps_used = sweep + 1
            break
    return e, f, obj, delta, sweeps_used, history


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


def _polish_two_vector(v1, e, f, *, minimize, report_tol, second_conj=False, max_sweeps=5000):
    """Deep-converge one candidate; the flag reflects ``report_tol`` stationarity."""
    stop_tol = min(1e-15, report_tol)
    e, f, obj, delta, _, _ = _two_vector_iterate(
        v1[None], e[None], f[None], minimize=minimize, tol=stop_tol,
        max_sweeps=max_sweeps, second_conj=second_conj,
    )
    return e[0], f[0], float(obj[0]), bool(delta[0] < report_tol)


def separable_lower_bound(
    design,
    opts: OptimizerOptions = DEFAULT_OPTIONS,
    *,
    conjugate_second: bool = False,
) -> LowerBoundResult:
    """Minimize the correlation sum over product states |e> x |f>.

    Alternating exact eigenvector updates (each half-step solves its
    subproblem exactly), multistarted; the best value is returned together
    with the minimizing product state.  Non-convergence is reported in the
    ``converged`` flag, never raised.
    """
    v = design_vectors(design)
    n, d = v.shape
    if n == 0:
        raise ValueError("empty design")
    restarts = opts.restarts_for(d)
    rng = np.random.default_rng(opts.seed)
    e0 = _random_unit(rng, (restarts, d))
    f0 = _random_unit(rng, (restarts, d))
    e, f, obj, _, sweeps, history = _two_vector_iterate(
        v[None], e0, f0, minimize=True, tol=opts.tol, max_sweeps=opts.max_sweeps,
        second_conj=conjugate_second, record_history=True,
    )
    best = int(np.argmin(obj))
    e_b, f_b, value, converged = _polish_two_vector(
        v, e[best], f[best], minimize=True, second_conj=conjugate_second, report_tol=opts.tol
    )
    # deterministic reported minimizer: re-solve the final half-steps with the
    # documented degeneracy tie-break (value-preserving for the bilinear form)
    v2 = v.conj() if conjugate_second else v
    w_f = _amps_sq(v2.conj(), f_b)
    e_b = _resolve_degenerate(_weighted_frame(w_f, v, v.conj()), minimize=True)
    w_e = _amps_sq(v.conj(), e_b)
    f_b = _resolve_degenerate(_weighted_frame(w_e, v2, v2.conj()), minimize=True)
    value = float(np.sum(_amps_sq(v.conj(), e_b) * _amps_sq(v2.conj(), f_b)))
    trace = tuple(float(h[best]) for h in history)
    return LowerBoundResult(
        value=value,
        minimizer=ProductState(_canonical_vector(e_b), _canonical_vector(f_b)),
        converged=converged,
        restarts=restarts,
        sweeps=sweeps,
        objective_history=trace,
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

    def solve(item):
        idx, combo = item
        sub = sic.subset(combo)
        sub_opts = replace(opts, seed=seeds[idx])
        label = "(" + ",".join(str(i + 1) for i in combo) + ")"
        return compute_bound_record(sub, sub_opts, label=label)

    records = _parallel_map(solve, enumerate(combos))
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
    count = p.shape[0]
    out = np.zeros((count, 12, 4), dtype=complex)
    out[:, :4] = np.eye(4)
    ex = 1j * np.exp(1j * p[:, 0])
    b2 = np.zeros((count, 4, 4), dtype=complex)
    b2[:] = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 0, 0], [1, -1, 0, 0]])
    b2[:, 2, 2] = ex
    b2[:, 2, 3] = -ex
    b2[:, 3, 2] = -ex
    b2[:, 3, 3] = ex
    ey = np.exp(1j * p[:, 1])
    ez = np.exp(1j * p[:, 2])
    b3 = np.zeros((count, 4, 4), dtype=complex)
    b3[:, 0] = 1
    b3[:, 1] = [1, 1, -1, -1]
    b3[:, 2, 0] = -ey
    b3[:, 2, 1] = ey
    b3[:, 2, 2] = ez
    b3[:, 2, 3] = -ez
    b3[:, 3, 0] = ey
    b3[:, 3, 1] = -ey
    b3[:, 3, 2] = ez
    b3[:, 3, 3] = -ez
    out[:, 4:8] = np.swapaxes(b2, 1, 2) / 2  # columns are basis vectors
    out[:, 8:12] = np.swapaxes(b3, 1, 2) / 2
    return out


def _grid_lower_bounds(params, restarts, seed, tol, max_sweeps, chunk=256):
    """Vectorized per-point lower bounds for a list of (x, y, z) triples."""
    params = np.asarray(params, dtype=float)
    count = params.shape[0]
    rng = np.random.default_rng(seed)
    e0 = _random_unit(rng, (count, restarts, 4))
    f0 = _random_unit(rng, (count, restarts, 4))
    values = np.zeros(count)

    def solve(span):
        lo, hi = span
        v = _triple_stack(params[lo:hi])[:, None]  # (c, 1, 12, 4)
        e, f, obj, _, _, _ = _two_vector_iterate(
            v, e0[lo:hi], f0[lo:hi], minimize=True, tol=tol, max_sweeps=max_sweeps
        )
        values[lo:hi] = obj.min(axis=-1)

    spans = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    _parallel_map(solve, spans)
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

    The grid pass runs a fixed, cheap sweep budget per point (enough to
    separate basins); the best ``refine_count`` candidates for the maximum
    and the minimum are then refined with a local simplex search of radius
    pi/grid_steps, and every candidate is confirmed with the full polished
    optimizer before the extrema are selected.  The reported locations are
    reduced by :func:`_params_mod_pi`; ``per_point`` keeps the grid.
    """
    if grid_steps < 9:
        raise ValueError("need at least 9 grid steps per axis")
    axis = np.linspace(0.0, np.pi, grid_steps)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    values = _grid_lower_bounds(grid, grid_restarts, opts.seed, 1e-11, grid_sweeps)
    per_point = tuple(
        (float(x), float(y), float(z), float(v)) for (x, y, z), v in zip(grid, values)
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
        candidates = [(0, grid[i]) for i in cand_idx]
        candidates += [(1, refined(grid[i], maximize)) for i in cand_idx]
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


def triple_lower_bound(x: float, y: float, z: float, opts: OptimizerOptions = DEFAULT_OPTIONS):
    """Lower bound for the single triple at (x, y, z)."""
    return separable_lower_bound(mub_triple_family_d4(x, y, z), opts)
