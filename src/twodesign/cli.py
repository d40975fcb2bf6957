"""Command-line interface: design inspection, bounds, detection, table checks.

Outputs are JSON by default (values rounded to six significant digits) or
CSV with ``--format csv`` where the result is naturally tabular.  Exit code
is nonzero only on errors; detection outcomes are data, not exit codes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .bounds import (
    BoundRecord,
    OptimizerOptions,
    ProductState,
    compute_bound_record,
    d4_family_scan,
    design_closed_bounds,
    subset_bound_spectrum,
)
from .core import load_density
from .correlations import CorrelationSpec, correlation_sum
from .designs import (
    Design,
    mub_triple_family_d4,
    sic_povm,
    standard_mubs,
    verify_mub,
    verify_sic,
)
from .states import SymmetricStateSpec, detect, symmetric_state
from .tables import TABLE_IDS, reproduce_table, scan_family


class ParseError(ValueError):
    """A state file failed to parse; carries line/column when known."""


def _sig6(x):
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    return x


def _emit_json(obj) -> None:
    print(json.dumps(_sig6(obj)))


def _emit_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _complex_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vec]


def _parse_subset(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad subset spec {raw!r}") from exc


def _reject(args, flags, reason: str) -> None:
    """Fail on the first of ``flags`` given on the command line: it would be ignored."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} is ignored {reason}")


def _resolve_design(args) -> Design:
    if args.design == "sic":
        _reject(args, ("x", "y", "z"), "with --design sic")
    if args.x is None:
        _reject(args, ("y", "z"), "without --x")
    else:
        _reject(args, ("m", "subset"), "with --x")
        if args.d != 4:
            raise ValueError("the (x, y, z) triple family exists only for d=4")
        return mub_triple_family_d4(args.x, args.y or 0.0, args.z or 0.0)
    full = standard_mubs(args.d) if args.design == "mub" else sic_povm(args.d)
    if args.subset is not None:
        _reject(args, ("m",), "with --subset")
        picked = args.subset
        in_range = all(1 <= i <= full.count for i in picked)
        if not picked or len(set(picked)) != len(picked) or not in_range:
            raise ValueError(f"--subset needs distinct indices in [1, {full.count}], got {picked}")
        return full.subset([i - 1 for i in picked])
    if args.m is not None and not 1 <= args.m <= full.count:
        raise ValueError(f"--m must be in [1, {full.count}], got {args.m}")
    return full if args.m is None else full.subset(range(args.m))


def _load_state(path):
    try:
        return load_density(path)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _options(args) -> OptimizerOptions:
    return OptimizerOptions(
        restarts=getattr(args, "restarts", None),
        seed=args.seed,
    )


def product_state_to_obj(ps: ProductState | None):
    if ps is None:
        return None
    return {"e": _complex_pairs(ps.e), "f": _complex_pairs(ps.f)}


def bound_record_to_obj(rec: BoundRecord) -> dict:
    return {
        "design_kind": rec.design_kind,
        "dim": rec.dim,
        "size": rec.size,
        "subset_or_params": rec.subset_or_params,
        "lower": rec.lower,
        "upper": rec.upper,
        "argmin": product_state_to_obj(rec.argmin),
        "argmax": _complex_pairs(rec.argmax) if rec.argmax is not None else None,
        "restarts": rec.restarts,
        "converged": rec.converged,
        "provenance": rec.provenance,
    }


def bound_record_from_obj(obj: dict) -> BoundRecord:
    # serialized vectors are rounded for display, so renormalize on parse
    def vec(pairs):
        v = np.array([complex(re, im) for re, im in pairs])
        return v / np.linalg.norm(v)

    argmin = None
    if obj.get("argmin") is not None:
        argmin = ProductState(vec(obj["argmin"]["e"]), vec(obj["argmin"]["f"]))
    argmax = vec(obj["argmax"]) if obj.get("argmax") is not None else None
    return BoundRecord(
        design_kind=obj["design_kind"],
        dim=int(obj["dim"]),
        size=int(obj["size"]),
        subset_or_params=obj.get("subset_or_params", ""),
        lower=float(obj["lower"]),
        upper=float(obj["upper"]),
        argmin=argmin,
        argmax=argmax,
        restarts=int(obj.get("restarts", 0)),
        converged=bool(obj.get("converged", True)),
        provenance=obj.get("provenance"),
    )


def _closed_form_record(spec: CorrelationSpec) -> BoundRecord:
    d = spec.dim
    full = d + 1 if spec.kind == "mub" else d * d
    if spec.size != full:
        raise ValueError(
            "closed-form bounds are available only for the full design; "
            "use --bounds recompute for subsets"
        )
    lower, upper = design_closed_bounds(d, spec.kind)
    return BoundRecord(
        design_kind=spec.kind,
        dim=d,
        size=spec.size,
        subset_or_params="closed-form(full design)",
        lower=lower,
        upper=upper,
        argmin=None,
        argmax=None,
        restarts=0,
        converged=True,
    )


def _bounds_for(spec: CorrelationSpec, args) -> BoundRecord:
    if args.bounds != "cached":
        _reject(args, ("bounds_file",), "without --bounds cached")
    if args.bounds == "closed-form":
        return _closed_form_record(spec)
    if args.bounds == "cached":
        if not args.bounds_file:
            raise ValueError("--bounds cached requires --bounds-file")
        with open(args.bounds_file) as fh:
            return bound_record_from_obj(json.load(fh))
    return compute_bound_record(spec.design, _options(args))


# -- subcommands -------------------------------------------------------------------

def cmd_designs(args) -> int:
    _reject(args, ("conjugate_second",), "by designs, which print and verify the design itself")
    design = _resolve_design(args)
    if args.action == "show":
        payload = {"kind": design.kind, "dim": design.dim}
        if design.kind == "mub":
            payload["bases"] = [[_complex_pairs(v) for v in b] for b in design.groups]
        else:
            payload["vectors"] = [_complex_pairs(v) for v in design.vectors]
            payload["labels"] = list(design.labels) if design.labels else None
        payload["provenance"] = design.provenance
        _emit_json(payload)
        return 0
    verify = verify_mub if design.kind == "mub" else verify_sic
    report = verify(design, args.tol)
    _emit_json({
        "pass": report.passed,
        "max_deviation": report.max_deviation,
        "tolerance": report.tolerance,
        "kind": report.kind,
        "dim": report.dim,
        "count": report.count,
        "details": dict(report.details),
    })
    return 0


def cmd_correlate(args) -> int:
    rho = _load_state(args.state)
    design = _resolve_design(args)
    spec = CorrelationSpec(design, conjugate_second=bool(args.conjugate_second))
    value = correlation_sum(rho, spec)
    _emit_json({
        "value": value,
        "design_descriptor": spec.descriptor(),
        "conjugate_second": spec.conjugate_second,
    })
    return 0


def cmd_bounds(args) -> int:
    _reject(args, ("conjugate_second",), "by bounds: conjugating the second party's vectors "
            "leaves the separable bounds unchanged")
    opts = _options(args)
    if args.family_scan:
        if args.design != "mub" or args.d != 4:
            raise ValueError(f"--design {args.design} --d {args.d} is ignored with --family-scan, "
                             "which scans the d=4 MUB triple family")
        _reject(args, ("m", "subset", "x", "y", "z"), "with --family-scan")
        if args.all_subsets:
            raise ValueError("--all-subsets is ignored with --family-scan")
        result = d4_family_scan(25 if args.grid_steps is None else args.grid_steps, opts)
        if args.format == "csv":
            _emit_csv(
                ["x", "y", "z", "lower"],
                [(x, y, z, v) for x, y, z, v in result.per_point],
            )
        else:
            _emit_json({
                "l_minus": result.l_minus,
                "l_plus": result.l_plus,
                "argmin_params": list(result.argmin_params),
                "argmax_params": list(result.argmax_params),
                "grid_steps": result.grid_steps,
                "points": len(result.per_point),
            })
        return 0
    _reject(args, ("grid_steps",), "without --family-scan")
    if args.all_subsets:
        _reject(args, ("subset",), "with --all-subsets, which enumerates every subset of size --m")
        if _resolve_design(args).kind != "sic":
            raise ValueError("--all-subsets enumerates SIC subsets; use --design sic")
        if args.m is None:
            raise ValueError("--all-subsets requires --m")
        spectrum = subset_bound_spectrum(sic_povm(args.d), args.m, opts)
        if args.format == "csv":
            _emit_csv(
                ["subset", "lower", "upper", "converged"],
                [
                    (r.subset_or_params, r.lower, r.upper, r.converged)
                    for r in spectrum.per_subset
                ],
            )
        else:
            _emit_json({
                "dim": spectrum.dim,
                "subset_size": spectrum.subset_size,
                "l_minus": spectrum.l_minus,
                "l_plus": spectrum.l_plus,
                "u_minus": spectrum.u_minus,
                "u_plus": spectrum.u_plus,
                "subset_count": len(spectrum.per_subset),
            })
        return 0
    design = _resolve_design(args)
    record = compute_bound_record(design, opts)
    _emit_json(bound_record_to_obj(record))
    return 0


def cmd_detect(args) -> int:
    if args.state_file:
        _reject(args, ("state", "param"), "with --state-file")
        rho = _load_state(args.state_file)
        if rho.local_dim != args.d:
            raise ValueError(f"state file has d={rho.local_dim}, requested d={args.d}")
        state_descriptor = {"source": "file", "path": args.state_file}
    else:
        if args.param is None:
            raise ValueError("--param is required with --state werner|isotropic")
        rho = symmetric_state(SymmetricStateSpec(args.state, args.d, args.param))
        state_descriptor = {"source": args.state, "parameter": args.param}
    design = _resolve_design(args)
    conjugate = args.conjugate_second or args.state == "isotropic"
    spec = CorrelationSpec(design, conjugate_second=conjugate)
    record = _bounds_for(spec, args)
    verdict = detect(rho, spec, record, args.tol)
    _emit_json({
        "verdict": verdict.verdict.value,
        "value": verdict.value,
        "lower_used": verdict.lower_used,
        "upper_used": verdict.upper_used,
        "design_descriptor": verdict.design_descriptor,
        "conjugate_second": verdict.conjugate_second,
        "state": state_descriptor,
        "bounds_source": args.bounds,
        "tolerance": args.tol,
    })
    return 0


def cmd_scan(args) -> int:
    design = _resolve_design(args)
    conjugate = args.conjugate_second or args.family == "isotropic"
    spec = CorrelationSpec(design, conjugate_second=conjugate)
    record = _bounds_for(spec, args)
    result = scan_family(
        args.family,
        args.d,
        spec,
        record,
        start=args.start,
        stop=args.stop,
        step=args.step,
        tol=args.tol,
    )
    if args.format == "csv":
        _emit_csv(
            ["parameter", "value", "verdict"],
            [(r.parameter, r.value, r.verdict) for r in result.rows],
        )
    else:
        _emit_json({
            "family": result.family,
            "dim": result.dim,
            "design_descriptor": result.design_descriptor,
            "first_flip": list(result.first_flip) if result.first_flip else None,
            "rows": [[r.parameter, r.value, r.verdict] for r in result.rows],
        })
    return 0


def cmd_tables(args) -> int:
    report = reproduce_table(args.id, _options(args))
    if args.format == "csv":
        _emit_csv(
            ["cell", "computed", "reference", "abs_error", "tolerance", "pass"],
            [
                (r.labels.get("cell", ""), r.computed, r.reference, r.abs_error, r.tolerance, r.passed)
                for r in report.rows
            ],
        )
    else:
        _emit_json({
            "table_id": report.table_id,
            "tolerance": report.tolerance,
            "pass": report.passed,
            "rows": [dataclasses.asdict(r) for r in report.rows],
        })
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodesign",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, design=True, design_aliases=()):
        p.add_argument("--seed", type=int, default=0, help="optimizer seed")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=1e-9, help="verdict/verification tolerance")
        if design:
            p.add_argument("--design", *design_aliases, choices=("mub", "sic"), required=True)
            p.add_argument("--d", type=int, required=True, help="local dimension")
            p.add_argument("--m", type=int, default=None, help="leading-subset size")
            p.add_argument("--subset", type=_parse_subset, default=None,
                           help="1-based design indices, e.g. 1,2,4")
            p.add_argument("--x", type=float, default=None, help="triple-family x (d=4)")
            p.add_argument("--y", type=float, default=None, help="triple-family y (d=4)")
            p.add_argument("--z", type=float, default=None, help="triple-family z (d=4)")
            p.add_argument("--conjugate-second", action="store_true", default=None,
                           help="second party measures conjugated vectors")
            p.add_argument("--restarts", type=int, default=None)

    p = sub.add_parser("designs", help="print or verify a design")
    p.add_argument("action", choices=("show", "verify"))
    add_common(p, design_aliases=("--kind",))
    p.set_defaults(func=cmd_designs)

    p = sub.add_parser("correlate", help="correlation sum of a state file")
    p.add_argument("--state", required=True, help="density-matrix JSON file")
    add_common(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("bounds", help="separable bounds for a design")
    add_common(p)
    p.add_argument("--all-subsets", action="store_true",
                   help="enumerate every subset of size --m")
    p.add_argument("--family-scan", action="store_true",
                   help="scan the d=4 triple family lower bound")
    p.add_argument("--grid-steps", type=int, default=None,
                   help="grid points per axis of --family-scan (default 25)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("detect", help="classify a state against design bounds")
    p.add_argument("--state", choices=("werner", "isotropic"), default=None)
    p.add_argument("--param", type=float, default=None)
    p.add_argument("--state-file", default=None)
    add_common(p)
    p.add_argument("--bounds", choices=("recompute", "closed-form", "cached"),
                   default="recompute")
    p.add_argument("--bounds-file", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("scan", help="verdict scan over a symmetric family")
    p.add_argument("--family", choices=("werner", "isotropic"), required=True)
    add_common(p)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--bounds", choices=("recompute", "closed-form", "cached"),
                   default="recompute")
    p.add_argument("--bounds-file", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("tables", help="recompute a reference table")
    p.add_argument("--id", required=True, choices=TABLE_IDS)
    add_common(p, design=False)
    p.add_argument("--restarts", type=int, default=None)
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface errors as structured JSON on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
