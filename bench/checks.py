"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``twodesign``.  The objective, the eigenvalue
certificate, the design properties and the detection thresholds are
recomputed from the design vectors with numpy alone, and the reference
numbers are closed forms or published extrema, never a stored copy of a
run.  Every check returns a list of problems, one line each; an empty list
means the output passed.  ``bench/test_checks.py`` shows each check failing
on a perturbed result.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Slack for exact re-evaluations and the eigenvalue certificate.
EXACT = 1e-12
#: ``separable_upper_bound`` keeps ``converged`` when its two-vector
#: cross-check beats the single-vector ascent by at most this much.
CROSS_CHECK_TOL = 1e-7
#: Per-point tolerance of the detection rule (``detect``'s default).
DETECT_TOL = 1e-9
#: A recomputed correlation sum must match the program's to this.
SUM_TOL = 1e-10
#: d = 4 triple family: the floor of the extendible triple and the largest
#: floor over the family (Table I, L-(3,4) and L+(3,4)), and where they sit.
FAMILY_MIN, FAMILY_MAX = 0.25, 0.5
FAMILY_MIN_AT = (math.pi / 2, math.pi / 2, math.pi / 2)
FAMILY_MAX_AT = (math.pi / 2, 0.0, 0.0)
FAMILY_RADIUS = math.pi / 12
FAMILY_VALUE_TOL = 1e-6


# -- objective and certificates -------------------------------------------------

def product_values(vecs: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``sum_v |<v|e>|^2 |<v|f>|^2`` for stacked unit vectors e, f of shape (..., d)."""
    a = np.abs(np.asarray(e) @ vecs.conj().T) ** 2
    b = np.abs(np.asarray(f) @ vecs.conj().T) ** 2
    return np.sum(a * b, axis=-1)


def random_units(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def swap(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d))
    for i, j in itertools.product(range(d), repeat=2):
        s[i * d + j, j * d + i] = 1.0
    return s


def symmetric_ceiling(vecs: np.ndarray) -> float:
    """lambda_max(P_sym Q P_sym) with Q = sum_v (|v><v|)^(x2).

    The level-2 eigenvalue bound of Doherty & Wehner (arXiv:1210.5048): no
    product state reaches more than this.
    """
    d = vecs.shape[1]
    q = sum(np.kron(np.outer(v, v.conj()), np.outer(v, v.conj())) for v in vecs)
    p_sym = (np.eye(d * d) + swap(d)) / 2
    return float(np.linalg.eigvalsh(p_sym @ q @ p_sym)[-1])


# -- designs --------------------------------------------------------------------

def sic_problems(vecs: np.ndarray, name: str) -> list[str]:
    """Unit norms and pairwise |<v|w>|^2 = 1/(d+1)."""
    n, d = vecs.shape
    gram = np.abs(vecs.conj() @ vecs.T) ** 2
    target = np.full((n, n), 1 / (d + 1))
    np.fill_diagonal(target, 1.0)
    dev = float(np.abs(gram - target).max())
    return [] if dev <= EXACT else [f"{name}: SIC overlaps off by {dev:.2e}"]


def mub_problems(vecs: np.ndarray, name: str) -> list[str]:
    """Orthonormal bases (stacked basis by basis) with cross overlaps 1/d."""
    n, d = vecs.shape
    gram = np.abs(vecs.conj() @ vecs.T) ** 2
    block = np.arange(n) // d
    target = np.where(block[:, None] == block[None, :], np.eye(n), 1 / d)
    dev = float(np.abs(gram - target).max())
    return [] if dev <= EXACT else [f"{name}: MUB overlaps off by {dev:.2e}"]


def mub_triple(x: float, y: float, z: float) -> np.ndarray:
    """The d = 4 family of MUB triples at (x, y, z), as 12 row vectors."""
    a = 1j * np.exp(1j * x)
    ey, ez = np.exp(1j * y), np.exp(1j * z)
    b2 = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, a, -a], [1, -1, -a, a]]
    b3 = [[1, 1, 1, 1], [1, 1, -1, -1], [-ey, ey, ez, -ez], [ey, -ey, ez, -ez]]
    cols = [np.eye(4), 0.5 * np.array(b2), 0.5 * np.array(b3)]
    return np.concatenate([c.T for c in cols]).astype(complex)


# -- bound records and subset spectra ------------------------------------------

def subset_of(record) -> tuple[int, ...]:
    """0-based design indices from a record label such as ``(1,2,4)``."""
    return tuple(int(tok) - 1 for tok in record.subset_or_params.strip("()").split(","))


def upper_gap(record, vecs: np.ndarray) -> float:
    """``upper`` minus the value its own maximizer reaches."""
    return record.upper - float(product_values(vecs, record.argmax, record.argmax))


def has_maximizer_fault(record, vecs: np.ndarray) -> bool:
    """The known fault: the maximizer falls short of ``upper`` by more than
    the re-evaluation slack but within the cross-check tolerance, because
    ``upper`` came from the cross-check while the maximizer did not."""
    return EXACT < upper_gap(record, vecs) <= CROSS_CHECK_TOL


def record_problems(record, vecs: np.ndarray, rng: np.random.Generator, samples: int = 256) -> list[str]:
    """Everything one bound record must satisfy, except the known maximizer fault.

    ``vecs`` are the record's design vectors.  The argmin and argmax,
    re-evaluated directly, must reach ``lower`` and ``upper``; ``upper`` must
    not exceed the eigenvalue certificate; no sampled product state may fall
    outside [lower, upper].
    """
    name = record.subset_or_params
    out = []
    low_at = float(product_values(vecs, record.argmin.e, record.argmin.f))
    if abs(low_at - record.lower) > EXACT:
        out.append(f"{name}: argmin reaches {low_at!r}, lower is {record.lower!r}")
    gap = upper_gap(record, vecs)
    if abs(gap) > EXACT and not has_maximizer_fault(record, vecs):
        out.append(f"{name}: argmax misses upper {record.upper!r} by {gap:.3e}")
    ceiling = symmetric_ceiling(vecs)
    if record.upper > ceiling + EXACT:
        out.append(f"{name}: upper {record.upper!r} exceeds the certificate {ceiling!r}")
    d = vecs.shape[1]
    e = random_units(rng, samples, d)
    f = random_units(rng, samples, d)
    vals = np.concatenate([product_values(vecs, e, f), product_values(vecs, e, e)])
    if vals.min() < record.lower - EXACT or vals.max() > record.upper + EXACT:
        out.append(
            f"{name}: sampled product values [{vals.min()!r}, {vals.max()!r}] leave "
            f"[{record.lower!r}, {record.upper!r}]"
        )
    return out


def spectrum_problems(spectrum, count: int, size: int, name: str) -> list[str]:
    """One record per ``size``-subset of ``count`` vectors, and extrema that match them."""
    out = []
    subsets = [subset_of(r) for r in spectrum.per_subset]
    if sorted(subsets) != list(itertools.combinations(range(count), size)):
        out.append(f"{name}: records do not cover each {size}-subset once")
    lows = [r.lower for r in spectrum.per_subset]
    highs = [r.upper for r in spectrum.per_subset]
    extrema = (min(lows), max(lows), min(highs), max(highs))
    reported = (spectrum.l_minus, spectrum.l_plus, spectrum.u_minus, spectrum.u_plus)
    if extrema != reported:
        out.append(f"{name}: extrema {reported} differ from the records' {extrema}")
    return out


def uniform_problems(records, name: str, tol: float = 1e-9) -> list[str]:
    """All subsets of one size agree (the d = 2 SIC is symmetric under its subsets)."""
    out = []
    for field in ("lower", "upper"):
        vals = [getattr(r, field) for r in records]
        if max(vals) - min(vals) > tol:
            out.append(f"{name}: {field} spreads {max(vals) - min(vals):.3e} across subsets")
    return out


def nesting_problems(small, large) -> list[str]:
    """A subset's floor and ceiling never exceed those of a design containing it."""
    by_subset = {subset_of(r): r for r in small}
    out = []
    for big in large:
        for part in itertools.combinations(subset_of(big), len(next(iter(by_subset)))):
            rec = by_subset[part]
            if rec.lower > big.lower + EXACT or rec.upper > big.upper + EXACT:
                out.append(
                    f"{rec.subset_or_params} in {big.subset_or_params}: "
                    f"({rec.lower!r}, {rec.upper!r}) exceeds ({big.lower!r}, {big.upper!r})"
                )
    return out


# -- d = 4 triple family --------------------------------------------------------

def family_distance(p, q) -> float:
    """Euclidean distance with each coordinate taken modulo pi."""
    delta = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)) % math.pi
    return float(np.linalg.norm(np.minimum(delta, math.pi - delta)))


def family_problems(result, grid_steps: int, rng: np.random.Generator,
                    points: int = 8, samples: int = 256) -> list[str]:
    """The family scan finds 0.25 at the extendible triple and 0.5 at (pi/2, 0, 0).

    Every grid value is a product-state value, so none lies below the family
    floor; sampled product states at the reported extrema and at random
    family points stay above the floor reported there.
    """
    out = []
    for label, value, target in (("minimum", result.l_minus, FAMILY_MIN),
                                 ("maximum", result.l_plus, FAMILY_MAX)):
        if abs(value - target) > FAMILY_VALUE_TOL:
            out.append(f"family {label} {value!r}, expected {target}")
    for label, at, target in (("argmin", result.argmin_params, FAMILY_MIN_AT),
                              ("argmax", result.argmax_params, FAMILY_MAX_AT)):
        if family_distance(at, target) > FAMILY_RADIUS:
            out.append(f"family {label} {at} is not within pi/12 of {target} (mod pi)")
    axis = np.linspace(0.0, math.pi, grid_steps)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.asarray(result.per_point, dtype=float).reshape(-1, 4)
    if pts.shape[0] != grid.shape[0] or np.abs(pts[:, :3] - grid).max() > EXACT:
        out.append(f"family grid is not the {grid_steps}^3 grid of [0, pi]^3")
    if pts[:, 3].min() < FAMILY_MIN - EXACT:
        out.append(f"family grid value {pts[:, 3].min()!r} below the floor {FAMILY_MIN}")
    probes = [(result.argmin_params, result.l_minus), (result.argmax_params, result.l_plus)]
    probes += [(tuple(p), result.l_minus) for p in rng.uniform(0.0, math.pi, (points, 3))]
    for at, floor in probes:
        vecs = mub_triple(*at)
        e = random_units(rng, samples, 4)
        f = random_units(rng, samples, 4)
        low = float(product_values(vecs, e, f).min())
        if low < floor - EXACT:
            out.append(f"family point {tuple(at)}: product state reaches {low!r} below {floor!r}")
    return out


# -- detection ------------------------------------------------------------------

def full_design_bounds(kind: str, d: int) -> tuple[float, float]:
    """Separable (floor, ceiling) of a complete 2-design, from the 2-design identity."""
    return (1.0, 2.0) if kind == "mub" else (d / (d + 1), 2 * d / (d + 1))


def witness(vecs: np.ndarray, conjugate: bool) -> np.ndarray:
    """W with tr[W rho] the correlation sum: sum_v |v w><v w|, w = v or conj(v)."""
    w = np.zeros((vecs.shape[1] ** 2,) * 2, dtype=complex)
    for v in vecs:
        k = np.kron(v, v.conj() if conjugate else v)
        w += np.outer(k, k.conj())
    return w


def expected_verdict(value: float, lower: float, upper: float) -> str | None:
    """The verdict the detection rule gives, or None within 1e-10 of a threshold."""
    lo, hi = lower - DETECT_TOL, upper + DETECT_TOL
    if min(abs(value - lo), abs(value - hi)) <= SUM_TOL:
        return None
    if value < lo:
        return "EntangledByLower"
    return "EntangledByUpper" if value > hi else "Inconclusive"


def werner_matrix(d: int, p: float) -> np.ndarray:
    s = swap(d)
    eye = np.eye(d * d)
    return p * (eye + s) / (d * (d + 1)) + (1 - p) * (eye - s) / (d * (d - 1))


def isotropic_matrix(d: int, q: float) -> np.ndarray:
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    return q * np.outer(phi, phi) + (1 - q) * np.eye(d * d) / (d * d)


def is_separable(family: str, d: int, param: float) -> bool:
    """Known separable members: product mixtures, Werner p >= 1/2, isotropic q <= 1/(d+1)."""
    if family == "separable":
        return True
    if family == "werner":
        return param >= 0.5
    if family == "isotropic":
        return param <= 1 / (d + 1)
    return False


def verdict_problems(values, verdicts, recomputed, lower: float, upper: float,
                     separable, name: str) -> list[str]:
    """Each sum matches its recomputation, each verdict follows the rule, no
    separable input is flagged."""
    out = []
    for i, (value, verdict, ref, sep) in enumerate(zip(values, verdicts, recomputed, separable)):
        if abs(value - ref) > SUM_TOL:
            out.append(f"{name}[{i}]: correlation sum {value!r}, recomputed {ref!r}")
        want = expected_verdict(ref, lower, upper)
        if want is not None and verdict != want:
            out.append(f"{name}[{i}]: verdict {verdict}, the rule gives {want}")
        if sep and verdict != "Inconclusive":
            out.append(f"{name}[{i}]: separable input flagged {verdict}")
    return out


def scan_problems(scan, family: str, d: int, vecs: np.ndarray, conjugate: bool,
                  kind: str, step: float = 1e-3) -> list[str]:
    """A 1001-point family scan: sums, verdicts, and the first flip at the
    family's entanglement threshold (Werner 1/2, isotropic 1/(d+1))."""
    name = f"scan {family} {kind} d={d}"
    params = np.array([row.parameter for row in scan.rows])
    if len(params) != round(1 / step) + 1 or np.abs(params - step * np.arange(len(params))).max() > EXACT:
        return [f"{name}: parameters are not the {step} grid of [0, 1]"]
    make = werner_matrix if family == "werner" else isotropic_matrix
    w = witness(vecs, conjugate)
    at0, at1 = (float(np.trace(w @ make(d, t)).real) for t in (0.0, 1.0))
    recomputed = (1 - params) * at0 + params * at1
    lower, upper = full_design_bounds(kind, d)
    out = verdict_problems(
        [row.value for row in scan.rows], [row.verdict for row in scan.rows], recomputed,
        lower, upper, [is_separable(family, d, p) for p in params], name,
    )
    threshold = 0.5 if family == "werner" else 1 / (d + 1)
    if scan.first_flip is None or abs(scan.first_flip[0] - threshold) > step + EXACT:
        out.append(f"{name}: first flip {scan.first_flip} not within {step} of {threshold:.6g}")
    return out
