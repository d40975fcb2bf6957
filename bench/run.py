"""Benchmark of the twodesign bound engine and detection path.

Run from the repository root::

    python3 bench/run.py --workload sic_subsets --seed 1 --seconds 10 --trace 0

It imports the package from ``src/`` beside this directory, sets it up
several times (set-up time is the median), makes the workload's inputs from
``--seed``, and runs whole rounds of the workload until ``--seconds`` of
timed work have passed (at least one round).  Each round's outputs are
checked by ``bench/checks.py``.  With ``--trace 1`` the untraced rounds are
followed by one traced round, and the per-layer metrics come from its
spans.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(metadata, part times, problems) goes to ``bench/out/``.

One BLAS thread and the package's default of one worker are used, fixed
before numpy is loaded.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TWODESIGN_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 9
MODULES = ("bounds", "core", "correlations", "designs", "states", "tables")

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_OPTIMIZERS = ("separable_upper_bound", "separable_lower_bound")
#: Per-layer metrics (traced runs): name -> unit.  A metric whose work a
#: workload does not do reads 0 there.
PER_LAYER = {
    **{f"bounds.{fn}.{k}": u for fn in _OPTIMIZERS
       for k, u in (("calls", "count"), ("self_s", "s"), ("sweeps", "count"))},
    "bounds.max_sweeps_exits": "count",
    "bounds.unconverged": "count",
    "bounds.subset_bound_spectrum.self_s": "s",
    "bounds.compute_bound_record.self_s": "s",
    "bounds.d4_family_scan.self_s": "s",
    "bounds.d4_family_scan.confirm_s": "s",
    **{f"kernel.eigh.d{d}.{k}": u for d in (2, 3, 4)
       for k, u in (("calls", "count"), ("matrices", "count"), ("s", "s"), ("us_per_matrix", "us"))},
    "designs.build_s": "s",
    "designs.mub_triple_family_d4.calls": "count",
    "core.validate_density.calls": "count",
    "core.validate_density.s": "s",
    "correlations.correlation_sum.calls": "count",
    "correlations.correlation_sum.self_s": "s",
    "states.detect.calls": "count",
    "states.detect.self_s": "s",
    "states.symmetric_state.s": "s",
    "tables.scan_family.self_s": "s",
    "states.flagged": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
    # Workload parts, timed in the untraced rounds of the traced run.
    "spectrum_s.d2": "s",
    "spectrum_s.d3_m4": "s",
    "spectrum_s.d3_m8": "s",
    "states_per_s": "1/s",
    "classify_us.p50": "us",
    "classify_us.p99": "us",
    "scan_s": "s",
}


def import_program() -> SimpleNamespace:
    """Import ``twodesign`` afresh from ``src/`` (CLI included) and return its modules."""
    for name in [m for m in sys.modules if m == "twodesign" or m.startswith("twodesign.")]:
        del sys.modules[name]
    pkg = importlib.import_module("twodesign")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"twodesign was imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("twodesign.cli")
    return SimpleNamespace(**{m: sys.modules[f"twodesign.{m}"] for m in MODULES})


def instrument(tracer: Tracer, prog: SimpleNamespace) -> None:
    """Wrap the public functions where the program and the benchmark look them up."""
    b = prog.bounds
    counts = tracer.counts

    def optimizer(name):
        def hook(args, kwargs, res):
            opts = kwargs.get("opts", args[1] if len(args) > 1 else b.DEFAULT_OPTIONS)
            counts[f"{name}.sweeps"] += res.sweeps
            counts["bounds.max_sweeps_exits"] += res.sweeps == opts.max_sweeps
            counts["bounds.unconverged"] += not res.converged
        return hook

    def verdict(args, kwargs, res):
        counts["states.flagged"] += res.verdict.value != "Inconclusive"

    for fn in _OPTIMIZERS:
        tracer.wrap(b, fn, f"bounds.{fn}", optimizer(f"bounds.{fn}"))
    for fn in ("compute_bound_record", "subset_bound_spectrum", "d4_family_scan"):
        tracer.wrap(b, fn, f"bounds.{fn}")
    tracer.wrap(b, "mub_triple_family_d4", "designs.mub_triple_family_d4")
    for fn in ("sic_povm", "standard_mubs", "mub_triple_family_d4"):
        tracer.wrap(prog.designs, fn, f"designs.{fn}")
    for owner in (prog.core, prog.states):
        tracer.wrap(owner, "validate_density", "core.validate_density")
    for owner in (prog.correlations, prog.states):
        tracer.wrap(owner, "correlation_sum", "correlations.correlation_sum")
    for owner in (prog.states, prog.tables):
        tracer.wrap(owner, "detect", "states.detect", verdict)
        tracer.wrap(owner, "symmetric_state", "states.symmetric_state")
    tracer.wrap(prog.tables, "scan_family", "tables.scan_family")
    tracer.wrap_eigh("twodesign.bounds")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    tot = tracer.totals()
    out = {name: 0 for name in PER_LAYER}
    for fn in _OPTIMIZERS:
        name = f"bounds.{fn}"
        out[f"{name}.calls"] = tot[name]["calls"]
        out[f"{name}.self_s"] = tot[name]["self_s"]
        out[f"{name}.sweeps"] = tracer.counts[f"{name}.sweeps"]
    for key in ("bounds.max_sweeps_exits", "bounds.unconverged", "states.flagged"):
        out[key] = tracer.counts[key]
    for name in ("bounds.subset_bound_spectrum", "bounds.compute_bound_record",
                 "bounds.d4_family_scan", "correlations.correlation_sum",
                 "states.detect", "tables.scan_family"):
        out[f"{name}.self_s"] = tot[name]["self_s"]
    out["bounds.d4_family_scan.confirm_s"] = tracer.inclusive_under(
        "bounds.d4_family_scan", {"bounds.separable_lower_bound", "designs.mub_triple_family_d4"}
    )
    for d in (2, 3, 4):
        name = f"kernel.eigh.d{d}"
        matrices = tracer.counts[f"{name}.matrices"]
        out[f"{name}.calls"] = tot[name]["calls"]
        out[f"{name}.matrices"] = matrices
        out[f"{name}.s"] = tot[name]["s"]
        out[f"{name}.us_per_matrix"] = tot[name]["s"] / matrices * 1e6 if matrices else 0.0
    out["designs.build_s"] = tracer.top_level("designs.")
    out["designs.mub_triple_family_d4.calls"] = tot["designs.mub_triple_family_d4"]["calls"]
    for name in ("core.validate_density", "correlations.correlation_sum", "states.detect"):
        out[f"{name}.calls"] = tot[name]["calls"]
    out["core.validate_density.s"] = tot["core.validate_density"]["s"]
    out["states.symmetric_state.s"] = tot["states.symmetric_state"]["s"]
    out["trace.spans"] = len(tracer)
    return out


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def lines(top: Path) -> int:
        return sum(len(p.read_text().splitlines()) for p in top.rglob("*.py"))

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(),
        "lines": {"src": lines(SRC), "tests": lines(ROOT / "tests")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "twodesign" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'twodesign'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        prog = import_program()
        ctx = workload.build(prog)
        setups.append(time.perf_counter() - t0)
    inputs = workload.inputs(args.seed, ctx)
    rng = np.random.default_rng(args.seed)

    attempted = failed = 0
    problems: list[str] = []

    def check(outputs, context):
        nonlocal attempted, failed
        a, f, p = workload.check(context, inputs, outputs, rng)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)

    rounds, timed = [], 0.0
    while not rounds or timed < args.seconds:
        t0 = time.perf_counter()
        outputs, stats = workload.run(prog, ctx, inputs)
        stats["wall_s"] = time.perf_counter() - t0
        timed += stats["wall_s"]
        rounds.append(stats)
        check(outputs, ctx)
    wall = statistics.median(r["wall_s"] for r in rounds)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        instrument(tracer, prog)
        try:
            traced_ctx = workload.build(prog)
            t0 = time.perf_counter()
            outputs, _ = workload.run(prog, traced_ctx, inputs)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.close()
        check(outputs, traced_ctx)
        tracer.write(OUT / f"{stem}.spans.jsonl")
        metrics = layer_metrics(tracer)
        metrics.update(workload.summarize(rounds))
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "metadata": metadata(), "setup_s": setups,
        "rounds": [{k: v for k, v in r.items() if not isinstance(v, list)} for r in rounds],
        "problems": problems[:200], **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for p in problems[:20]:
        print("problem:", p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
