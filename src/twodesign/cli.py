"""Command-line interface: design inspection, bounds, detection, table checks.

Outputs are JSON by default (values rounded to six significant digits) or
CSV with ``--format csv`` where the result is naturally tabular.  Exit code
is nonzero only on errors; detection outcomes are data, not exit codes.
Each subcommand declares only the flags it reads; any other flag is an error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from enum import Enum

import numpy as np

from .bounds import (
    BoundRecord,
    OptimizerOptions,
    ProductState,
    _product_value,
    compute_bound_record,
    d4_family_scan,
    design_closed_bounds,
    subset_bound_spectrum,
)
from .core import density_from_json_obj
from .correlations import CorrelationSpec, correlation_sum
from .designs import (
    Design,
    mub_triple_family_d4,
    sic_povm,
    standard_mubs,
    verify_mub,
    verify_sic,
)
from .states import SymmetricStateSpec, _check_bounds_match, detect, symmetric_state
from .tables import TABLE_IDS, reproduce_table, scan_family


class ParseError(ValueError):
    """A state or bounds file is not valid JSON; the message gives line and column."""


def _sig6(x):
    if isinstance(x, float):
        return float(f"{x:.6g}")
    if isinstance(x, dict):
        return {k: _sig6(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig6(v) for v in x]
    return x


def _emit_json(obj) -> None:
    # strict JSON: a non-finite value becomes an error, not a NaN token on stdout
    print(json.dumps(_sig6(obj), allow_nan=False))


def _emit_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _to_json(x, names=None):
    """``x`` as JSON lists, dicts and scalars, unrounded.

    A dataclass becomes a dict of its fields in declaration order, or of the
    attributes ``names`` in that order.  A 1-D array (every array the CLI
    prints is complex) becomes a list of [re, im] pairs; tuples and other
    arrays become lists, and an Enum its value.
    """
    if dataclasses.is_dataclass(x):
        names = names or [f.name for f in dataclasses.fields(x)]
        return {n: _to_json(getattr(x, n)) for n in names}
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in x]
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: _to_json(v) for k, v in x.items()}
    return x


def _unit(pairs, dim: int) -> np.ndarray:
    # the JSON rounds vectors to six digits, so renormalize on load
    v = np.array([complex(re, im) for re, im in pairs])
    if len(v) != dim:
        raise ValueError(f"a bounds-file vector has {len(v)} entries, not dim = {dim}")
    norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        raise ValueError(f"a bounds-file vector has norm {norm}; it cannot be normalized")
    return v / norm


#: The fields ``twodesign bounds`` prints, in order; ``indices`` stays out.
_RECORD_FIELDS = [f for f in dataclasses.fields(BoundRecord) if f.name != "indices"]
#: Values a bounds file may omit, beyond the fields' own defaults.
_RECORD_DEFAULTS = {"subset_or_params": "", "argmin": None, "argmax": None,
                    "restarts": 0, "converged": True}
#: The JSON types a scalar field takes, by annotation text (bounds.py postpones
#: annotations); a bool is not a number.
_FIELD_TYPES = {"int": ("an integer", {int}), "float": ("a number", {int, float}),
                "bool": ("a boolean", {bool}), "str": ("a string", {str}),
                "str | None": ("a string or null", {str, type(None)})}
#: How a JSON value becomes a field, by field name, given the record's dim;
#: other fields keep the JSON value.
_FIELD_PARSERS = {
    "lower": lambda x, dim: float(x), "upper": lambda x, dim: float(x),
    "argmin": lambda obj, dim: ProductState(_unit(obj["e"], dim), _unit(obj["f"], dim)),
    "argmax": _unit,
}


def _from_json(obj: dict) -> BoundRecord:
    """The :class:`BoundRecord` that ``twodesign bounds`` printed as ``obj``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a bounds file must hold a JSON object, got {type(obj).__name__}")
    kwargs = {}
    for f in _RECORD_FIELDS:
        value = obj.get(f.name, _RECORD_DEFAULTS.get(f.name, f.default))
        if value is dataclasses.MISSING:
            raise KeyError(f.name)
        kind, types = _FIELD_TYPES.get(f.type, (None, None))
        if kind and type(value) not in types:
            raise ValueError(f"bounds field {f.name!r} must be {kind}, got {value!r}")
        parse = _FIELD_PARSERS.get(f.name)
        try:
            kwargs[f.name] = value if value is None or parse is None else parse(value, kwargs["dim"])
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"bounds field {f.name!r} is malformed: {why}") from exc
    return BoundRecord(**kwargs)


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


def _load(path, parse=density_from_json_obj):
    """``parse`` of the JSON object in file ``path``; a state file by default."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing required key {exc.args[0]!r}") from exc


def _options(args) -> OptimizerOptions:
    return OptimizerOptions(restarts=args.restarts, seed=0 if args.seed is None else args.seed)


def _closed_form_record(spec: CorrelationSpec) -> BoundRecord:
    if spec.size != (spec.dim + 1 if spec.kind == "mub" else spec.dim ** 2):
        raise ValueError(
            "closed-form bounds are available only for the full design; "
            "use --bounds recompute for subsets"
        )
    lower, upper = design_closed_bounds(spec.dim, spec.kind)
    return BoundRecord(spec.kind, spec.dim, spec.size, "closed-form(full design)", lower, upper,
                       argmin=None, argmax=None, restarts=0, converged=True)


def _check_own_states(path, record: BoundRecord, vectors: np.ndarray) -> None:
    """Raise unless the objective at the file's ``argmin`` and ``argmax`` lies within its bounds.

    The file rounds bounds and states to six significant digits, and honest
    files miss in the refuting direction by up to 4.1e-6 (the ceiling of sic
    d = 4, m = 9), so a state refutes its bound only beyond 1e-5 * max(1, |bound|).
    """
    top = record.argmax
    ends = [("argmin", "lower", 1.0, record.argmin),
            ("argmax", "upper", -1.0, None if top is None else ProductState(top, top))]
    for name, end, sign, state in ends:
        if state is not None:
            bound, reached = getattr(record, end), _product_value(vectors, state.e, state.f)
            if sign * (bound - reached) > 1e-5 * max(1.0, abs(bound)):
                raise ValueError(f"{path}: the file's {name} reaches {reached:.6g}, "
                                 f"beyond its {end} bound {bound:.6g}")


def _spec_and_bounds(args, family) -> tuple[CorrelationSpec, BoundRecord]:
    """The spec and bound record that ``detect`` and ``scan`` test a ``family`` state against."""
    spec = CorrelationSpec(_resolve_design(args),
                           conjugate_second=args.conjugate_second or family == "isotropic")
    if args.bounds != "cached":
        _reject(args, ("bounds_file",), "without --bounds cached")
    if args.bounds != "recompute":
        _reject(args, ("restarts", "seed"), "without --bounds recompute")
    if args.bounds == "closed-form":
        return spec, _closed_form_record(spec)
    if args.bounds == "cached":
        if not args.bounds_file:
            raise ValueError("--bounds cached requires --bounds-file")
        record = _load(args.bounds_file, _from_json)
        _check_bounds_match(spec, record)
        _check_own_states(args.bounds_file, record, spec.design.vectors)
        return spec, record
    return spec, compute_bound_record(spec.design, _options(args))


# -- subcommands -------------------------------------------------------------------

def cmd_designs(args) -> int:
    if args.action not in ("show", "verify"):
        raise ValueError(f"designs action must be show or verify, got {args.action!r}")
    design = _resolve_design(args)
    if args.action == "show":
        _reject(args, ("tol",), "by designs show, which verifies nothing")
        if design.kind == "mub":
            payload = {**_to_json(design, ["kind", "dim"]), "bases": _to_json(design.groups)}
        else:
            payload = _to_json(design, ["kind", "dim", "vectors", "labels"])
        _emit_json({**payload, "provenance": design.provenance})
        return 0
    verify = verify_mub if design.kind == "mub" else verify_sic
    report = verify(design, 1e-9 if args.tol is None else args.tol)
    keys = ["max_deviation", "tolerance", "kind", "dim", "count", "details"]
    _emit_json({"pass": report.passed, **_to_json(report, keys)})
    return 0


def cmd_correlate(args) -> int:
    rho = _load(args.state)
    design = _resolve_design(args)
    spec = CorrelationSpec(design, conjugate_second=args.conjugate_second)
    value = correlation_sum(rho, spec)
    _emit_json({
        "value": value,
        "design_descriptor": spec.descriptor(),
        "conjugate_second": spec.conjugate_second,
    })
    return 0


def cmd_bounds(args) -> int:
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
            _emit_csv(["x", "y", "z", "lower"], result.per_point)
        else:
            keys = ["l_minus", "l_plus", "argmin_params", "argmax_params", "grid_steps"]
            _emit_json({**_to_json(result, keys), "points": len(result.per_point)})
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
            keys = ["dim", "subset_size", "l_minus", "l_plus", "u_minus", "u_plus"]
            _emit_json({**_to_json(spectrum, keys), "subset_count": len(spectrum.per_subset)})
        return 0
    if args.format == "csv":
        raise ValueError("--format is ignored by bounds of one design, printed as JSON")
    record = compute_bound_record(_resolve_design(args), opts)
    _emit_json(_to_json(record, [f.name for f in _RECORD_FIELDS]))
    return 0


def cmd_detect(args) -> int:
    if args.state_file:
        _reject(args, ("state", "param"), "with --state-file")
        rho = _load(args.state_file)
        if rho.local_dim != args.d:
            raise ValueError(f"state file has d={rho.local_dim}, requested d={args.d}")
        state_descriptor = {"source": "file", "path": args.state_file}
    else:
        if args.state is None or args.param is None:
            raise ValueError("detect needs --state werner|isotropic with --param, or --state-file")
        rho = symmetric_state(SymmetricStateSpec(args.state, args.d, args.param))
        state_descriptor = {"source": args.state, "parameter": args.param}
    spec, record = _spec_and_bounds(args, args.state)
    verdict = detect(rho, spec, record, args.tol)
    _emit_json({
        **_to_json(verdict, ["verdict", "value", "lower_used", "upper_used",
                             "design_descriptor", "conjugate_second"]),
        "state": state_descriptor,
        "bounds_source": args.bounds,
        "tolerance": args.tol,
    })
    return 0


def cmd_scan(args) -> int:
    spec, record = _spec_and_bounds(args, args.family)
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
        _emit_csv(["parameter", "value", "verdict"], [dataclasses.astuple(r) for r in result.rows])
    else:
        _emit_json({**_to_json(result, ["family", "dim", "design_descriptor", "first_flip"]),
                    "rows": [dataclasses.astuple(r) for r in result.rows]})
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
        _emit_json({**_to_json(report, ["table_id", "tolerance"]), "pass": report.passed,
                    "rows": _to_json(report.rows)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodesign",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *shared, design_aliases=()):
        """Add subcommand ``name`` with the shared flag groups in ``shared`` only."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if "design" in shared:
            p.add_argument("--design", *design_aliases, choices=("mub", "sic"), required=True)
            p.add_argument("--d", type=int, required=True, help="local dimension")
            p.add_argument("--m", type=int, default=None, help="leading-subset size")
            p.add_argument("--subset", type=_parse_subset, default=None,
                           help="1-based design indices, e.g. 1,2,4")
            p.add_argument("--x", type=float, default=None, help="triple-family x (d=4)")
            p.add_argument("--y", type=float, default=None, help="triple-family y (d=4)")
            p.add_argument("--z", type=float, default=None, help="triple-family z (d=4)")
        if "optimizer" in shared:
            p.add_argument("--seed", type=int, default=None, help="optimizer seed (default 0)")
            p.add_argument("--restarts", type=int, default=None)
        if "format" in shared:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if "tol" in shared:
            p.add_argument("--tol", type=float, default=1e-9, help="verdict tolerance")
        if "conjugate" in shared:
            p.add_argument("--conjugate-second", action="store_true",
                           help="second party measures conjugated vectors")
        if "bounds" in shared:
            p.add_argument("--bounds", choices=("recompute", "closed-form", "cached"),
                           default="recompute")
            p.add_argument("--bounds-file", default=None)
        return p

    p = add("designs", cmd_designs, "print or verify a design", "design", design_aliases=("--kind",))
    # checked in cmd_designs: with choices, argparse would take an undeclared flag's value
    # (``designs --seed 5 verify``) for the action and fail before the leftover-flag rule
    p.add_argument("action", metavar="{show,verify}")
    p.add_argument("--tol", type=float, default=None, help="verify tolerance (default 1e-9)")

    p = add("correlate", cmd_correlate, "correlation sum of a state file", "design", "conjugate")
    p.add_argument("--state", required=True, help="density-matrix JSON file")

    p = add("bounds", cmd_bounds, "separable bounds for a design", "design", "optimizer", "format")
    p.add_argument("--all-subsets", action="store_true",
                   help="enumerate every subset of size --m")
    p.add_argument("--family-scan", action="store_true",
                   help="scan the d=4 triple family lower bound")
    p.add_argument("--grid-steps", type=int, default=None,
                   help="grid points per axis of --family-scan (default 25)")

    p = add("detect", cmd_detect, "classify a state against design bounds",
            "design", "optimizer", "tol", "conjugate", "bounds")
    p.add_argument("--state", choices=("werner", "isotropic"), default=None)
    p.add_argument("--param", type=float, default=None)
    p.add_argument("--state-file", default=None)

    p = add("scan", cmd_scan, "verdict scan over a symmetric family",
            "design", "optimizer", "format", "tol", "conjugate", "bounds")
    p.add_argument("--family", choices=("werner", "isotropic"), required=True)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)

    p = add("tables", cmd_tables, "recompute a reference table", "optimizer", "format")
    p.add_argument("--id", required=True, choices=TABLE_IDS)

    return parser


def main(argv=None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    try:
        if unread:  # a flag this subcommand does not declare
            raise ValueError(f"{unread[0].partition('=')[0]} is ignored by {args.command}")
        return args.func(args)
    except BrokenPipeError:  # a reader that stops early, as `head` does, is not an error
        # the interpreter's last flush of stdout would raise again: send it to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:  # surface errors as structured JSON on stderr
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
