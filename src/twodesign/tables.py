"""Reference-table reproduction, parameter scans, and critical values.

Reference values are embedded as exact fractions where known in closed form
and as published decimals otherwise; each table carries the tolerance its
precision supports (closed forms 1e-6, optimizer decimals 5e-4, figure
captions 1e-2).  Reports carry per-row pass flags so a single defective
cell never hides behind an aggregate.

Six published numbers are refuted by explicit product states and are
replaced by corrected references; the published number is kept beside each
(``*_PUBLISHED``).  Such a row passes only if its computed value matches the
corrected reference *and* the optimizer's own reported state, re-evaluated
directly, lies beyond the published number by more than the tolerance, so
every run proves the refutation again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import (
    BoundRecord,
    OptimizerOptions,
    DEFAULT_OPTIONS,
    SubsetSpectrum,
    _product_value,
    closed_form_mub_upper,
    design_closed_bounds,
    separable_lower_bound,
    separable_upper_bound,
    subset_bound_spectrum,
)
from .core import DimensionMismatchError, _check_densities
from .correlations import CorrelationSpec
from .designs import mub_triple_family_d4, sic_povm, standard_mubs
from .states import _check_bounds_match, _classify, _family_matrices
from .states import detect, symmetric_state  # noqa: F401  (bench/run.py traces them here)

TABLE_IDS = ("I", "II", "III", "IV", "V", "EQ12")


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


def refutes(certificate: float, published: float, tol: float, upper: bool) -> bool:
    """True when a feasible value lies beyond a published extremum by more than ``tol``.

    ``upper`` marks a maximum over product states (beaten from above); a
    lower bound is a minimum (beaten from below).
    """
    return certificate > published + tol if upper else certificate < published - tol


def _row(
    labels: dict,
    computed: float,
    reference: float,
    tol: float,
    *,
    published: float | None = None,
    certificate: float | None = None,
    **extra,
) -> TableRow:
    """One compared cell; with ``published`` the reference is a correction.

    ``certificate`` is the cell's value re-evaluated directly at the
    optimizer's reported state(s).  A corrected cell passes only if it also
    refutes the published number (see :func:`refutes`); lower-bound cells
    are labelled ``L...``, all others are maxima.
    """
    err = abs(computed - reference)
    passed = err <= tol
    if published is not None:
        upper = not labels["cell"].startswith("L")
        passed = passed and refutes(certificate, published, tol, upper)
        extra = {**extra, "published": published, "certificate": certificate}
    return TableRow(
        labels=labels,
        computed=float(computed),
        reference=float(reference),
        abs_error=float(err),
        tolerance=float(tol),
        passed=bool(passed),
        extra=extra,
    )


def _isotropic_crossing(u_minus: float, subset_size: int) -> float:
    """Isotropic q at which the sum n(2q+1)/9 crosses the separable ceiling."""
    return (9 * u_minus / subset_size - 1) / 2


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
    3: 1.19, 4: _isotropic_crossing(SIC_D3_REFS[4][3], 4), 5: 0.76, 6: 0.61,
    7: 0.46, 8: 0.34, 9: 0.25,
}
FIGURE_Q_PUBLISHED = {4: 0.91}

LOWER_TOL = 5e-4
UPPER_CLOSED_TOL = 1e-6
SIC_D2_TOL = 1e-5
FIGURE_TOL = 1e-2


def _reproduce_table_i(opts: OptimizerOptions) -> TableReport:
    rows = []
    for d in (2, 3):
        mubs = standard_mubs(d)
        for m in range(2, d + 2):
            sub = mubs.subset(range(m))
            lo = separable_lower_bound(sub, opts)
            rows.append(_row({"cell": f"L({m},{d})", "design": sub.provenance},
                             lo.value, MUB_LOWER_REFS[(m, d)], LOWER_TOL))
            up = separable_upper_bound(sub, opts)
            rows.append(_row({"cell": f"U({m},{d})", "design": sub.provenance},
                             up.value, closed_form_mub_upper(m, d), UPPER_CLOSED_TOL))
    mubs4 = standard_mubs(4)
    half_pi = np.pi / 2
    minus_designs = {m: mubs4.subset(range(m)) for m in (2, 3, 4, 5)}
    plus_designs = {
        2: replace(mub_triple_family_d4(0.0, 0.0, 0.0).subset([0, 1]), provenance="family-pair(x=0)"),
        3: mub_triple_family_d4(half_pi, 0.0, 0.0),
        4: minus_designs[4],
        5: minus_designs[5],
    }
    for m in (2, 3, 4, 5):
        ref_minus, ref_plus = MUB_LOWER_REFS_D4[m]
        lo_minus = separable_lower_bound(minus_designs[m], opts)
        rows.append(_row({"cell": f"L-({m},4)", "design": minus_designs[m].provenance},
                         lo_minus.value, ref_minus, LOWER_TOL))
        if plus_designs[m] is minus_designs[m]:
            lo_plus = lo_minus
        else:
            lo_plus = separable_lower_bound(plus_designs[m], opts)
        rows.append(_row({"cell": f"L+({m},4)", "design": plus_designs[m].provenance},
                         lo_plus.value, ref_plus, LOWER_TOL))
        up = separable_upper_bound(minus_designs[m], opts)
        rows.append(_row({"cell": f"U({m},4)", "design": minus_designs[m].provenance},
                         up.value, closed_form_mub_upper(m, 4), UPPER_CLOSED_TOL))
    return TableReport("I", LOWER_TOL, tuple(rows))


def _hesse_certificates(spectrum: SubsetSpectrum) -> dict[str, float]:
    """The d = 3 spectrum extrema re-evaluated at each subset's reported states.

    Keys are the Table II columns.  ``"U-"`` is the smallest re-evaluated
    maximizer value over all subsets, so it exceeds a number only if every
    subset has a product state above that number.
    """
    sic = sic_povm(3)
    lows, highs = [], []
    for rec in spectrum.per_subset:
        sub = sic.subset(rec.indices)
        lows.append(_product_value(sub.vectors, rec.argmin.e, rec.argmin.f))
        highs.append(_product_value(sub.vectors, rec.argmax, rec.argmax))
    return {"L-": min(lows), "L+": max(lows), "U+": max(highs), "U-": min(highs)}


def _reproduce_table_ii(opts: OptimizerOptions) -> TableReport:
    rows = []
    for mt, refs in SIC_D3_REFS.items():
        spec = subset_bound_spectrum(sic_povm(3), mt, opts)
        n_sub = len(spec.per_subset)
        computed = {"L-": spec.l_minus, "L+": spec.l_plus, "U+": spec.u_plus, "U-": spec.u_minus}
        certs = _hesse_certificates(spec)
        for col, ref in zip(("L-", "L+", "U+", "U-"), refs):
            rows.append(_row(
                {"cell": f"{col}({mt},3)", "subsets": n_sub}, computed[col], ref, LOWER_TOL,
                published=SIC_D3_PUBLISHED.get((mt, col)), certificate=certs[col],
            ))
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
    for mt, (l_ref, u_ref) in SIC_D4_REFS.items():
        sub = sic.subset(range(mt))
        label = ",".join(f"({a},{b})" for a, b in sub.labels)
        lo = separable_lower_bound(sub, opts)
        up = separable_upper_bound(sub, opts)
        rows.append(_row(
            {"cell": f"L({mt},4)", "subset": label}, lo.value, l_ref, LOWER_TOL,
            published=SIC_D4_PUBLISHED.get((mt, "L")),
            certificate=_product_value(sub.vectors, lo.minimizer.e, lo.minimizer.f),
        ))
        rows.append(_row(
            {"cell": f"U({mt},4)", "subset": label}, up.value, u_ref, LOWER_TOL,
            published=SIC_D4_PUBLISHED.get((mt, "U")),
            certificate=_product_value(sub.vectors, up.maximizer, up.maximizer),
        ))
    return TableReport("V", LOWER_TOL, tuple(rows))


def _reproduce_eq12(opts: OptimizerOptions) -> TableReport:
    rows = []
    for d in (2, 3):
        full_mub = standard_mubs(d)
        full_sic = sic_povm(d)
        for kind, design in (("mub", full_mub), ("sic", full_sic)):
            l_ref, u_ref = design_closed_bounds(d, kind)
            lo = separable_lower_bound(design, opts)
            up = separable_upper_bound(design, opts)
            rows.append(_row({"cell": f"L(full {kind}, d={d})"}, lo.value, l_ref, UPPER_CLOSED_TOL))
            rows.append(_row({"cell": f"U(full {kind}, d={d})"}, up.value, u_ref, UPPER_CLOSED_TOL))
    return TableReport("EQ12", UPPER_CLOSED_TOL, tuple(rows))


def reproduce_table(table_id: str, opts: OptimizerOptions = DEFAULT_OPTIONS) -> TableReport:
    """Recompute one reference table and compare cell by cell.

    Ids II and IV name the same 28 d = 3 cells (the reference data exists in
    a rounded and a higher-precision variant) and run the same computation.
    """
    tid = table_id.upper()
    if tid == "I":
        return _reproduce_table_i(opts)
    if tid in ("II", "IV"):
        report = _reproduce_table_ii(opts)
        return TableReport(tid, report.tolerance, report.rows)
    if tid == "III":
        return _reproduce_table_iii(opts)
    if tid == "V":
        return _reproduce_table_v(opts)
    if tid == "EQ12":
        return _reproduce_eq12(opts)
    raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")


# -- detection-threshold scans -----------------------------------------------------


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


#: Parameters per stacked chunk of a family scan.
SCAN_CHUNK = 64


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
    state object per point: the design match is checked once per scan, and
    the parameters go in chunks of ``SCAN_CHUNK``.  Each chunk is one stack
    of the family's matrices, built in the single-state constructors'
    operations, put through :func:`~twodesign.core.validate_density`'s
    checks, and contracted with the witness in one ``einsum``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError(f"stop {stop} is below start {start}")
    _check_bounds_match(spec, bounds)
    if d != spec.dim:
        raise DimensionMismatchError(f"state has local dimension {d}, design has {spec.dim}")
    count = int(round((stop - start) / step))
    params = [start + k * step for k in range(count + 1)]
    clipped = np.clip(np.array(params, dtype=float), 0.0, 1.0)
    w_conj = spec.witness.conj()
    values = np.empty(len(params))
    for lo in range(0, len(params), SCAN_CHUNK):
        stack = _family_matrices(family, d, clipped[lo:lo + SCAN_CHUNK])
        _check_densities(stack)
        values[lo:lo + SCAN_CHUNK] = np.einsum("ij,nij->n", w_conj, stack).real
    rows, flip = [], None
    for p, value in zip(params, values.tolist()):
        verdict = _classify(value, bounds, tol).value
        if flip is None and rows and verdict != rows[-1].verdict:
            flip = (p, rows[-1].verdict, verdict)
        rows.append(ScanRow(parameter=p, value=value, verdict=verdict))
    return ScanResult(family=family, dim=d, design_descriptor=spec.descriptor(),
                      rows=tuple(rows), first_flip=flip)


# -- figure critical values ---------------------------------------------------------


def figure_critical_values(opts: OptimizerOptions = DEFAULT_OPTIONS) -> TableReport:
    """Werner/isotropic crossing parameters for the d = 3 SIC subsets.

    For subset size n the Werner correlation sum is p*n/6, so the lower
    bound L+ is crossed at p = 6 L+/n; the isotropic sum (conjugated
    convention) is n(2q+1)/9, crossing U- at q = (9 U-/n - 1)/2.  Crossings
    above 1 certify that no state of the family violates that bound.  Rows
    are labelled ``p<n>`` and ``q<n>`` and carry the bound crossed as
    ``bound_used``.

    A value whose published number is refuted (``FIGURE_Q_PUBLISHED``) is
    checked like a corrected table cell: its ``certificate`` is the crossing
    of the re-evaluated U- (see :func:`_hesse_certificates`).
    """
    rows = []
    for mt in sorted(set(FIGURE_P_REFS) | set(FIGURE_Q_REFS)):
        spec = subset_bound_spectrum(sic_povm(3), mt, opts)
        if mt in FIGURE_P_REFS:
            rows.append(_row({"cell": f"p{mt}"}, 6 * spec.l_plus / mt, FIGURE_P_REFS[mt],
                             FIGURE_TOL, bound_used=spec.l_plus))
        if mt in FIGURE_Q_REFS:
            published = FIGURE_Q_PUBLISHED.get(mt)
            certificate = None
            if published is not None:
                certificate = _isotropic_crossing(_hesse_certificates(spec)["U-"], mt)
            rows.append(_row(
                {"cell": f"q{mt}"}, _isotropic_crossing(spec.u_minus, mt), FIGURE_Q_REFS[mt],
                FIGURE_TOL, published=published, certificate=certificate,
                bound_used=spec.u_minus,
            ))
    return TableReport("FIGURE", FIGURE_TOL, tuple(rows))
