"""The benchmark's three workloads.

Each workload has four steps.  ``build`` makes the designs and bound
records (part of set-up); ``inputs`` makes the program's inputs from the
seed (not timed); ``run`` is one timed round over the whole make-up and
returns the outputs and its part times; ``check`` checks one round's
outputs with :mod:`checks` and returns (attempted, failed, problems).
Every round repeats the same operations on the same inputs, so a run's
counts are whole multiples of one round's.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import checks


def vectors_of(design) -> np.ndarray:
    """The (n, d) stack of a design's vectors (an attribute or a method)."""
    v = design.vectors
    return np.asarray(v() if callable(v) else v)


class SicSubsets:
    """``subset_bound_spectrum`` over SIC subsets at optimizer seed 0.

    The optimizer seed is fixed (it is the one the reference tables use), so
    the program's inputs do not depend on ``--seed``; the seed drives the
    product states the checks sample.
    """

    PARTS = (("d2", 2, (2, 3, 4)), ("d3_m4", 3, (4,)), ("d3_m8", 3, (8,)))
    METRICS = ("spectrum_s.d2", "spectrum_s.d3_m4", "spectrum_s.d3_m8")

    def build(self, prog):
        return SimpleNamespace(
            sic={2: prog.designs.sic_povm(2), 3: prog.designs.sic_povm(3)},
            opts=prog.bounds.OptimizerOptions(seed=0),
        )

    def inputs(self, seed, ctx):
        return None

    def run(self, prog, ctx, inputs):
        spectra, times = {}, {}
        for part, d, sizes in self.PARTS:
            t0 = time.perf_counter()
            for m in sizes:
                spectra[d, m] = prog.bounds.subset_bound_spectrum(ctx.sic[d], m, ctx.opts)
            times[f"spectrum_s.{part}"] = time.perf_counter() - t0
        return spectra, times

    def check(self, ctx, inputs, spectra, rng):
        problems, attempted, failed = [], 0, 0
        for d, sic in ctx.sic.items():
            problems += checks.sic_problems(vectors_of(sic), f"SIC d={d}")
        for (d, m), spec in spectra.items():
            vecs = vectors_of(ctx.sic[d])
            problems += checks.spectrum_problems(spec, len(vecs), m, f"d={d} size {m}")
            for rec in spec.per_subset:
                attempted += 1
                sub = vecs[list(checks.subset_of(rec))]
                if checks.has_maximizer_fault(rec, sub):
                    failed += 1  # a failed operation's other checks do not decide `correct`
                    continue
                problems += [f"d={d} {p}" for p in checks.record_problems(rec, sub, rng)]
            if d == 2:
                problems += checks.uniform_problems(spec.per_subset, f"d=2 size {m}")
        problems += checks.nesting_problems(spectra[3, 4].per_subset, spectra[3, 8].per_subset)
        return attempted, failed, problems

    def summarize(self, rounds):
        return {name: statistics.median(r[name] for r in rounds) for name in self.METRICS}


class D4Family:
    """``d4_family_scan(grid_steps=9, refine_count=1)`` at optimizer seed 0."""

    GRID_STEPS = 9

    def build(self, prog):
        return SimpleNamespace(opts=prog.bounds.OptimizerOptions(seed=0))

    def inputs(self, seed, ctx):
        return None

    def run(self, prog, ctx, inputs):
        return prog.bounds.d4_family_scan(self.GRID_STEPS, ctx.opts, refine_count=1), {}

    def check(self, ctx, inputs, result, rng):
        return 1, 0, checks.family_problems(result, self.GRID_STEPS, rng)

    def summarize(self, rounds):
        return {}


@dataclass(frozen=True)
class StreamItem:
    design: tuple[str, int]
    conjugate: bool
    family: str            # "separable" | "ginibre" | "werner" | "isotropic"
    param: float | None
    matrix: np.ndarray


class DetectStream:
    """States classified against closed-form bounds, then family scans.

    The stream has equal shares of six designs (full MUB and SIC sets,
    d = 2, 3, 4) and four families: product-state mixtures, Ginibre states,
    Werner states (plain convention) and isotropic states (second party
    conjugated); the order, parameters and matrices come from the seed.
    Each round classifies the whole stream, then runs a 1001-point Werner
    scan and isotropic scan per design.
    """

    DESIGNS = tuple((kind, d) for d in (2, 3, 4) for kind in ("mub", "sic"))
    FAMILIES = ("separable", "ginibre", "werner", "isotropic")
    STATES = 12000

    def build(self, prog):
        designs, records, specs = {}, {}, {}
        for kind, d in self.DESIGNS:
            design = prog.designs.standard_mubs(d) if kind == "mub" else prog.designs.sic_povm(d)
            lower, upper = prog.bounds.design_closed_bounds(d, kind)
            designs[kind, d] = design
            records[kind, d] = prog.bounds.BoundRecord(
                design_kind=kind, dim=d, size=design.count,
                subset_or_params="closed-form(full design)", lower=lower, upper=upper,
                argmin=None, argmax=None, restarts=0, converged=True,
            )
            for conj in (False, True):
                specs[(kind, d), conj] = prog.correlations.CorrelationSpec(design, conjugate_second=conj)
        return SimpleNamespace(designs=designs, records=records, specs=specs)

    def inputs(self, seed, ctx):
        # Every seed gets 500 states per (design, family), half of the mixtures and
        # Ginibre states conjugated, in a seeded order, so the amount of work does
        # not depend on the seed.
        rng = np.random.default_rng(seed)
        n_designs, n_families = len(self.DESIGNS), len(self.FAMILIES)
        items = []
        for i in rng.permutation(self.STATES):
            kind, d = self.DESIGNS[i % n_designs]
            family = self.FAMILIES[i // n_designs % n_families]
            flip = bool(i // (n_designs * n_families) % 2)
            param = None
            if family == "separable":
                m = _product_mixture(rng, d)
            elif family == "ginibre":
                g = rng.standard_normal((d * d,) * 2) + 1j * rng.standard_normal((d * d,) * 2)
                m = g @ g.conj().T
                m /= np.trace(m).real
            else:
                param = float(rng.uniform())
                make = checks.werner_matrix if family == "werner" else checks.isotropic_matrix
                m = make(d, param).astype(complex)
            conj = family == "isotropic" or (family != "werner" and flip)
            items.append(StreamItem((kind, d), conj, family, param, m))
        return items

    def run(self, prog, ctx, items):
        validate, detect = prog.core.validate_density, prog.states.detect
        scan_family = prog.tables.scan_family
        values, verdicts, latency_ns = [], [], []
        t0 = time.perf_counter()
        for it in items:
            spec, rec = ctx.specs[it.design, it.conjugate], ctx.records[it.design]
            s = time.perf_counter_ns()
            v = detect(validate(it.matrix, it.design[1]), spec, rec)
            latency_ns.append(time.perf_counter_ns() - s)
            values.append(v.value)
            verdicts.append(v.verdict.value)
        t1 = time.perf_counter()
        scans = {}
        for key in self.DESIGNS:
            d, rec = key[1], ctx.records[key]
            scans[key, "werner"] = scan_family("werner", d, ctx.specs[key, False], rec)
            scans[key, "isotropic"] = scan_family("isotropic", d, ctx.specs[key, True], rec)
        t2 = time.perf_counter()
        stats = {"stream_s": t1 - t0, "scan_s": t2 - t1, "latency_ns": latency_ns}
        return (values, verdicts, scans), stats

    def check(self, ctx, items, outputs, rng):
        values, verdicts, scans = outputs
        problems = []
        for (kind, d), design in ctx.designs.items():
            vecs = vectors_of(design)
            name = f"{kind} d={d}"
            problems += (checks.mub_problems if kind == "mub" else checks.sic_problems)(vecs, name)
            rec = ctx.records[kind, d]
            if (rec.lower, rec.upper) != checks.full_design_bounds(kind, d):
                problems.append(f"{name}: record ({rec.lower!r}, {rec.upper!r}) is not the closed form")
        for (key, conj), idx in _groups(items).items():
            vecs = vectors_of(ctx.designs[key])
            w = checks.witness(vecs, conj)
            mats = np.stack([items[i].matrix for i in idx])
            recomputed = np.einsum("ij,nji->n", w, mats).real
            lower, upper = checks.full_design_bounds(*key)
            separable = [checks.is_separable(items[i].family, key[1], items[i].param) for i in idx]
            problems += checks.verdict_problems(
                [values[i] for i in idx], [verdicts[i] for i in idx], recomputed,
                lower, upper, separable, f"stream {key[0]} d={key[1]} conj={conj}",
            )
        for (key, family), scan in scans.items():
            vecs = vectors_of(ctx.designs[key])
            problems += checks.scan_problems(scan, family, key[1], vecs, family == "isotropic", key[0])
        return len(items) + len(scans), 0, problems

    def summarize(self, rounds):
        latencies = np.concatenate([r["latency_ns"] for r in rounds]) / 1e3
        return {
            "states_per_s": statistics.median(self.STATES / r["stream_s"] for r in rounds),
            "classify_us.p50": float(np.percentile(latencies, 50)),
            "classify_us.p99": float(np.percentile(latencies, 99)),
            "scan_s": statistics.median(r["scan_s"] for r in rounds),
        }


def _product_mixture(rng, d):
    """A random mixture of 1 to d^2 product states."""
    k = int(rng.integers(1, d * d + 1))
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((d * d, d * d), dtype=complex)
    for w in weights:
        a, b = checks.random_units(rng, 2, d)
        v = np.kron(a, b)
        m += w * np.outer(v, v.conj())
    return m


def _groups(items):
    out = {}
    for i, it in enumerate(items):
        out.setdefault((it.design, it.conjugate), []).append(i)
    return out


WORKLOADS = {"sic_subsets": SicSubsets, "d4_family": D4Family, "detect_stream": DetectStream}
