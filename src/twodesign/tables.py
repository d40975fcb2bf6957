"""Reference-table reproduction, parameter scans, and critical values.

Reference values are embedded as exact fractions where known in closed form
and as published decimals otherwise; each table carries the tolerance its
precision supports (closed forms 1e-6, optimizer decimals 5e-4, figure
captions 1e-2).  Reports carry per-row pass flags so a single defective
cell never hides behind an aggregate.

Six published numbers are refuted by explicit product states and are
replaced by corrected references; the published number is kept beside each
(``*_PUBLISHED``).  Such a row passes only if its computed value matches the
corrected reference *and* lies beyond the published number by more than the
tolerance.  The computed value is the objective evaluated at the
optimizer's own returned state, so every run proves the refutation again.

Every lower/upper row pair of Tables I, V and EQ12 is built by one function
(``_bound_rows``), and a table id is one entry of the map ``_TABLES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import (
    BoundRecord,
    OptimizerOptions,
    DEFAULT_OPTIONS,
    closed_form_mub_upper,
    design_closed_bounds,
    separable_lower_bound,
    separable_upper_bound,
    subset_bound_spectrum,
)
from .core import DimensionMismatchError, _check_tol
from .correlations import CorrelationSpec, correlation_sum
from .designs import mub_triple_family_d4, sic_povm, standard_mubs
from .states import SymmetricStateSpec, Verdict, _check_bounds_match, symmetric_state
from .states import detect  # noqa: F401  (bench/run.py traces it here)


@dataclass(frozen=True)
class TableRow:
    labels: dict
    computed: float
    reference: float
    abs_error: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TableReport:
    table_id: str
    tolerance: float
    rows: tuple[TableRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def refutes(value: float, published: float, tol: float, upper: bool) -> bool:
    """True when a feasible value lies beyond a published extremum by more than ``tol``.

    ``upper`` marks a maximum over product states (beaten from above); a
    lower bound is a minimum (beaten from below).
    """
    return value > published + tol if upper else value < published - tol


def _row(
    labels: dict,
    computed: float,
    reference: float,
    tol: float,
    *,
    published: float | None = None,
    **extra,
) -> TableRow:
    """One compared cell; with ``published`` the reference is a correction.

    ``computed`` is the objective at the optimizer's own returned state(s), so
    a corrected cell passes only if it also refutes the published number (see
    :func:`refutes`); cells labelled ``L...`` are minima, all others maxima.
    """
    err = abs(computed - reference)
    passed = err <= tol
    if published is not None:
        upper = not labels["cell"].startswith("L")
        passed = passed and refutes(computed, published, tol, upper)
        extra = {**extra, "published": published}
    return TableRow(
        labels=labels,
        computed=float(computed),
        reference=float(reference),
        abs_error=float(err),
        tolerance=float(tol),
        passed=bool(passed),
        extra=extra,
    )


# -- embedded reference values ---------------------------------------------------

# MUB lower bounds L(m, d); d = 4 carries the (min, max) pair over triples.
MUB_LOWER_REFS = {
    (2, 2): 0.5,
    (3, 2): 1.0,
    (2, 3): 0.211,
    (3, 3): 0.5,
    (4, 3): 1.0,
}
MUB_LOWER_REFS_D4 = {2: (0.0, 0.0), 3: (0.25, 0.5), 4: (0.5, 0.5), 5: (1.0, 1.0)}

# Corrected references.  Each replaces a published number that an explicit
# product state beats; the corrected value is the one that state reaches,
# confirmed to 1e-9 by an independent BFGS multistart over the same design
# vectors.  It is attained by a feasible state (so it is a valid value of
# the objective), but that it is the global optimum is not certified from
# the other side: no dual bound (eigenvalue hierarchy or PPT relaxation)
# has been computed for these cells yet.  The published numbers are kept in
# the *_PUBLISHED maps, keyed (subset size, column).

# Hesse SIC (d = 3): subset-size -> (L-, L+, U+, U-)
# U-(4,3): published 1.25414; the per-subset maximum over all 126 4-subsets
# takes only the values 1.29270 and 1.39952.
SIC_D3_REFS = {
    3: (0.0, 0.0, 1.25414, 9 / 8),
    4: (0.0, 0.0, 1.39952, 1.29270),
    5: (0.0, 0.0, 1.46301, 1.39952),
    6: (0.0, 0.1123, 1.5, 1.48175),
    7: (3 / 20, 3 / 20, 1.5, 1.5),
    8: (3 / 8, 3 / 8, 1.5, 1.5),
    9: (3 / 4, 3 / 4, 1.5, 1.5),
}

# d = 2 SIC: subset-size -> (L, U); identical for every subset of that size.
SIC_D2_REFS = {
    2: (0.0, (math.sqrt(3) + 1) ** 2 / 6),
    3: (4 / 15, 4 / 3),
    4: (2 / 3, 4 / 3),
}

SIC_D3_PUBLISHED = {(4, "U-"): 1.25414}

# d = 4 SIC, label-lexicographic leading subsets: size -> (L, U).
# U(5,4) published 1.3766; L(7,4), L(8,4), L(10,4) published 0.0067,
# 0.0279, 0.0693 (each published floor is a non-global local optimum).
SIC_D4_REFS = {
    3: (0.0, 1.1476),
    4: (0.0, 1.2676),
    5: (0.0, 1.3854),
    6: (0.0, 1.4521),
    7: (0.0013, 1.4723),
    8: (0.0148, 1.4902),
    9: (0.0325, 1.5556),
    10: (0.0591, 1.5763),
    11: (0.0719, 1.5881),
    12: (0.1436, 1.5935),
    13: (0.2031, 1.6),
    14: (0.2285, 1.6),
    15: (0.4363, 1.6),
    16: (0.8, 1.6),
}
SIC_D4_PUBLISHED = {(5, "U"): 1.3766, (7, "L"): 0.0067, (8, "L"): 0.0279, (10, "L"): 0.0693}

# Critical parameters read from the published detection figure (d = 3 SIC,
# best subsets): Werner p and isotropic q crossings per subset size.  The
# published q4 = 0.91 is the crossing of the refuted U-(4,3) = 1.25414; the
# reference is the crossing of the corrected value.
FIGURE_P_REFS = {6: 0.11, 7: 0.13, 8: 0.28, 9: 0.5}
FIGURE_Q_REFS = {
    3: 1.19, 4: (9 * SIC_D3_REFS[4][3] / 4 - 1) / 2, 5: 0.76, 6: 0.61,
    7: 0.46, 8: 0.34, 9: 0.25,
}
FIGURE_Q_PUBLISHED = {4: 0.91}

LOWER_TOL = 5e-4
UPPER_CLOSED_TOL = 1e-6
SIC_D2_TOL = 1e-5
FIGURE_TOL = 1e-2


def _bound_rows(design, cell: str, labels: dict, refs, tols, opts: OptimizerOptions,
                published=(None, None)) -> list[TableRow]:
    """The ``L<cell>`` and ``U<cell>`` rows of ``design``; ``refs``, ``tols`` and
    ``published`` are (lower, upper) pairs."""
    lo = separable_lower_bound(design, opts)
    up = separable_upper_bound(design, opts)
    return [_row({"cell": f"{end}{cell}", **labels}, res.value, ref, tol, published=pub)
            for end, res, ref, tol, pub in zip("LU", (lo, up), refs, tols, published)]


def _reproduce_table_i(opts: OptimizerOptions) -> TableReport:
    rows = []
    for d in (2, 3):
        mubs = standard_mubs(d)
        for m in range(2, d + 2):
            sub = mubs.subset(range(m))
            refs = (MUB_LOWER_REFS[(m, d)], closed_form_mub_upper(m, d))
            rows += _bound_rows(sub, f"({m},{d})", {"design": sub.provenance}, refs,
                                (LOWER_TOL, UPPER_CLOSED_TOL), opts)
    # d = 4 rows run L-, L+, U; L+ is on its own design for m = 2, 3, else on the prefix
    mubs4 = standard_mubs(4)
    x0_pair = replace(mub_triple_family_d4(0.0, 0.0, 0.0).subset([0, 1]),
                      provenance="family-pair(x=0)")
    plus_designs = {2: x0_pair, 3: mub_triple_family_d4(np.pi / 2, 0.0, 0.0)}
    for m in (2, 3, 4, 5):
        sub = mubs4.subset(range(m))
        plus = plus_designs.get(m)
        lo = separable_lower_bound(sub, opts)
        lows = (lo, lo if plus is None else separable_lower_bound(plus, opts))
        for col, design, res, ref in zip(("L-", "L+"), (sub, plus or sub), lows,
                                         MUB_LOWER_REFS_D4[m]):
            rows.append(_row({"cell": f"{col}({m},4)", "design": design.provenance},
                             res.value, ref, LOWER_TOL))
        up = separable_upper_bound(sub, opts)
        rows.append(_row({"cell": f"U({m},4)", "design": sub.provenance},
                         up.value, closed_form_mub_upper(m, 4), UPPER_CLOSED_TOL))
    return TableReport("I", LOWER_TOL, tuple(rows))


def _reproduce_table_ii(opts: OptimizerOptions) -> TableReport:
    rows = []
    for mt, refs in SIC_D3_REFS.items():
        spec = subset_bound_spectrum(sic_povm(3), mt, opts)
        n_sub = len(spec.per_subset)
        computed = {"L-": spec.l_minus, "L+": spec.l_plus, "U+": spec.u_plus, "U-": spec.u_minus}
        for col, ref in zip(("L-", "L+", "U+", "U-"), refs):
            rows.append(_row({"cell": f"{col}({mt},3)", "subsets": n_sub}, computed[col], ref,
                             LOWER_TOL, published=SIC_D3_PUBLISHED.get((mt, col))))
    return TableReport("II", LOWER_TOL, tuple(rows))


def _reproduce_table_iii(opts: OptimizerOptions) -> TableReport:
    rows = []
    sic = sic_povm(2)
    for mt, (l_ref, u_ref) in SIC_D2_REFS.items():
        spec = subset_bound_spectrum(sic, mt, opts)
        l_spread = spec.l_plus - spec.l_minus
        u_spread = spec.u_plus - spec.u_minus
        rows.append(_row({"cell": f"L({mt},2)", "subsets": len(spec.per_subset)},
                         spec.l_minus, l_ref, SIC_D2_TOL, spread=l_spread))
        rows.append(_row({"cell": f"U({mt},2)", "subsets": len(spec.per_subset)},
                         spec.u_plus, u_ref, SIC_D2_TOL, spread=u_spread))
    return TableReport("III", SIC_D2_TOL, tuple(rows))


def _reproduce_table_v(opts: OptimizerOptions) -> TableReport:
    rows = []
    sic = sic_povm(4)
    for mt, refs in SIC_D4_REFS.items():
        sub = sic.subset(range(mt))
        label = ",".join(f"({a},{b})" for a, b in sub.labels)
        published = (SIC_D4_PUBLISHED.get((mt, "L")), SIC_D4_PUBLISHED.get((mt, "U")))
        rows += _bound_rows(sub, f"({mt},4)", {"subset": label}, refs, (LOWER_TOL, LOWER_TOL),
                            opts, published)
    return TableReport("V", LOWER_TOL, tuple(rows))


def _reproduce_eq12(opts: OptimizerOptions) -> TableReport:
    rows = []
    for d in (2, 3):
        for kind, design in (("mub", standard_mubs(d)), ("sic", sic_povm(d))):
            rows += _bound_rows(design, f"(full {kind}, d={d})", {}, design_closed_bounds(d, kind),
                                (UPPER_CLOSED_TOL, UPPER_CLOSED_TOL), opts)
    return TableReport("EQ12", UPPER_CLOSED_TOL, tuple(rows))


_TABLES = {"I": _reproduce_table_i, "II": _reproduce_table_ii, "III": _reproduce_table_iii,
           "IV": _reproduce_table_ii, "V": _reproduce_table_v, "EQ12": _reproduce_eq12}
TABLE_IDS = tuple(_TABLES)


def reproduce_table(table_id: str, opts: OptimizerOptions = DEFAULT_OPTIONS) -> TableReport:
    """Recompute one reference table (an id of ``TABLE_IDS``, in any case) cell by cell.

    Ids II and IV name the same 28 d = 3 cells (the reference data exists in
    a rounded and a higher-precision variant) and run the same computation.
    """
    tid = table_id.upper()
    if tid not in _TABLES:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    return replace(_TABLES[tid](opts), table_id=tid)


# -- detection-threshold scans -----------------------------------------------------


MAX_SCAN_ROWS = 10 ** 6


@dataclass(frozen=True)
class ScanRow:
    parameter: float
    value: float
    verdict: str


@dataclass(frozen=True)
class ScanResult:
    family: str
    dim: int
    design_descriptor: dict
    rows: tuple[ScanRow, ...]
    first_flip: tuple[float, str, str] | None  # (parameter, from, to)


def _family_line(family: str, d: int, spec: CorrelationSpec) -> tuple[float, float]:
    """The correlation sums of the validated family states at x = 0 and x = 1.

    The sum is linear in the state and the family affine in x, so it is
    (1 - x) * at0 + x * at1 all along; every member between the two ends is
    a convex combination of them, hence a state too.
    """
    at0, at1 = (correlation_sum(symmetric_state(SymmetricStateSpec(family, d, x)), spec)
                for x in (0.0, 1.0))
    return at0, at1


def scan_family(
    family: str,
    d: int,
    spec: CorrelationSpec,
    bounds: BoundRecord,
    *,
    start: float = 0.0,
    stop: float = 1.0,
    step: float = 1e-3,
    tol: float = 1e-9,
) -> ScanResult:
    """Verdict per parameter value over a family scan; reports the first flip.

    Each row is what ``detect(symmetric_state(...), spec, bounds, tol)``
    gives at that parameter (clipped into [0, 1] for the state), without a
    state per point: the design match and ``tol`` are checked once, each value
    is read off the family's line (:func:`_family_line`), and the verdicts are
    one array comparison.  Rows are ``start + k * step`` for each k up to
    (stop - start) / step + 1e-9 (the slack absorbs rounding), at most
    ``MAX_SCAN_ROWS`` of them; ``start``, ``stop`` and ``step`` must be finite.
    """
    for name, val in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(val):
            raise ValueError(f"{name} must be finite, got {val}")
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError(f"stop {stop} is below start {start}")
    span = (stop - start) / step + 1e-9  # rows k = 0 .. floor(span); inf on overflow
    n_rows = math.floor(span) + 1 if span < math.inf else span
    if n_rows > MAX_SCAN_ROWS:
        raise ValueError(f"start, stop and step need {n_rows} rows, over {MAX_SCAN_ROWS}")
    _check_tol(tol)
    _check_bounds_match(spec, bounds)
    if d != spec.dim:
        raise DimensionMismatchError(f"state has local dimension {d}, design has {spec.dim}")
    at0, at1 = _family_line(family, d, spec)
    params = start + np.arange(n_rows) * step
    clipped = np.clip(params, 0.0, 1.0)
    values = (1 - clipped) * at0 + clipped * at1
    # _classify's strict comparisons on the whole line; codes index Verdict's members in order
    codes = np.where(values < bounds.lower - tol, 0, np.where(values > bounds.upper + tol, 1, 2))
    verdicts = np.array([v.value for v in Verdict], dtype=object)[codes].tolist()
    rows = tuple(map(ScanRow, params.tolist(), values.tolist(), verdicts))
    k = np.flatnonzero(codes[1:] != codes[:-1])[:1] + 1
    flip = (rows[k[0]].parameter, verdicts[k[0] - 1], verdicts[k[0]]) if k.size else None
    return ScanResult(family=family, dim=d, design_descriptor=spec.descriptor(),
                      rows=rows, first_flip=flip)


# -- figure critical values ---------------------------------------------------------


def figure_critical_values(opts: OptimizerOptions = DEFAULT_OPTIONS) -> TableReport:
    """Werner/isotropic crossing parameters for the d = 3 SIC subsets.

    For subset size n each crossing is read off the line (:func:`_family_line`)
    of the leading n-subset: the Werner sum (plain convention) crosses L+ at
    p = (L+ - at0) / (at1 - at0), the isotropic sum (conjugated) crosses U- at
    q likewise.  Crossings above 1 certify that no state of the family violates
    that bound.  Rows are labelled ``p<n>`` and ``q<n>`` and carry the bound
    crossed as ``bound_used``.

    A value whose published number is refuted (``FIGURE_Q_PUBLISHED``) is
    checked like a corrected table cell; U- is the least per-subset maximum, so
    its crossing refutes the published one only if every subset's state does.
    """
    sic = sic_povm(3)
    rows = []
    for mt in sorted(set(FIGURE_P_REFS) | set(FIGURE_Q_REFS)):
        spec = subset_bound_spectrum(sic, mt, opts)
        lead = sic.subset(range(mt))
        for cell, family, refs, bound, published in (
            ("p", "werner", FIGURE_P_REFS, spec.l_plus, {}),
            ("q", "isotropic", FIGURE_Q_REFS, spec.u_minus, FIGURE_Q_PUBLISHED),
        ):
            if mt in refs:
                corr = CorrelationSpec(lead, conjugate_second=family == "isotropic")
                at0, at1 = _family_line(family, 3, corr)
                rows.append(_row({"cell": f"{cell}{mt}"}, (bound - at0) / (at1 - at0), refs[mt],
                                 FIGURE_TOL, published=published.get(mt), bound_used=bound))
    return TableReport("FIGURE", FIGURE_TOL, tuple(rows))
