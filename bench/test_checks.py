"""Each check passes on the program's real output and fails on a perturbed one.

Run from the repository root::

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from twodesign import bounds, core, correlations, designs, states, tables  # noqa: E402
from workloads import WORKLOADS, vectors_of  # noqa: E402

OPTS = bounds.OptimizerOptions(seed=0)


@pytest.fixture(scope="module")
def sic3():
    return designs.sic_povm(3)


@pytest.fixture(scope="module")
def record(sic3):
    return bounds.compute_bound_record(sic3.subset((0, 1, 2, 3)), OPTS, label="(1,2,3,4)")


def rng():
    return np.random.default_rng(7)


def sub_vectors(sic, rec):
    return vectors_of(sic)[list(checks.subset_of(rec))]


# -- bound records ------------------------------------------------------------------

def test_record_passes_as_computed(sic3, record):
    assert checks.record_problems(record, sub_vectors(sic3, record), rng()) == []


@pytest.mark.parametrize("field, delta", [("lower", 1e-6), ("upper", -1e-6), ("upper", 1e-6)])
def test_record_moved_bound_fails(sic3, record, field, delta):
    bad = replace(record, **{field: getattr(record, field) + delta})
    assert checks.record_problems(bad, sub_vectors(sic3, record), rng())


def test_record_foreign_minimizer_fails(sic3, record):
    e, f = checks.random_units(rng(), 2, 3)
    bad = replace(record, argmin=bounds.ProductState(e, f))
    assert checks.record_problems(bad, sub_vectors(sic3, record), rng())


def test_upper_above_certificate_fails(sic3, record):
    vecs = sub_vectors(sic3, record)
    bad = replace(record, upper=checks.symmetric_ceiling(vecs) + 1e-6)
    assert any("certificate" in p for p in checks.record_problems(bad, vecs, rng()))


def test_floor_above_sampled_states_fails(sic3, record):
    bad = replace(record, lower=record.lower + 0.2)
    assert any("sampled" in p for p in checks.record_problems(bad, sub_vectors(sic3, record), rng()))


def test_certificate_of_complete_sic_is_its_ceiling(sic3):
    assert checks.symmetric_ceiling(vectors_of(sic3)) == pytest.approx(1.5, abs=1e-12)


def test_maximizer_fault_is_told_apart(sic3, record):
    vecs = sub_vectors(sic3, record)
    assert not checks.has_maximizer_fault(record, vecs)
    short = replace(record, upper=record.upper + 2e-9)
    assert checks.has_maximizer_fault(short, vecs)
    assert checks.record_problems(short, vecs, rng()) == []
    far = replace(record, upper=record.upper + 1e-6)
    assert not checks.has_maximizer_fault(far, vecs)


# -- subset spectra -----------------------------------------------------------------

@pytest.fixture(scope="module")
def d2_pairs():
    return bounds.subset_bound_spectrum(designs.sic_povm(2), 2, OPTS)


def test_spectrum_passes_as_computed(d2_pairs):
    assert checks.spectrum_problems(d2_pairs, 4, 2, "pairs") == []
    assert checks.uniform_problems(d2_pairs.per_subset, "pairs") == []


def test_spectrum_missing_record_fails(d2_pairs):
    bad = replace(d2_pairs, per_subset=d2_pairs.per_subset[1:])
    assert checks.spectrum_problems(bad, 4, 2, "pairs")


def test_spectrum_wrong_extremum_fails(d2_pairs):
    bad = replace(d2_pairs, u_plus=d2_pairs.u_plus + 1e-6)
    assert checks.spectrum_problems(bad, 4, 2, "pairs")


def test_d2_subsets_disagreeing_fail(d2_pairs):
    recs = list(d2_pairs.per_subset)
    recs[3] = replace(recs[3], upper=recs[3].upper - 1e-8)
    assert checks.uniform_problems(recs, "pairs")


def _rec(subset, lower, upper):
    label = "(" + ",".join(str(i + 1) for i in subset) + ")"
    return SimpleNamespace(subset_or_params=label, lower=lower, upper=upper)


def test_nesting():
    big = [_rec(range(8), 0.375, 1.5)]
    small = [_rec(s, 0.0, 1.39952) for s in itertools.combinations(range(9), 4)]
    assert checks.nesting_problems(small, big) == []
    inside = [(0, 1, 2, 7), (3, 4, 5, 6)]
    for subset, lower, upper in [(inside[0], 0.0, 1.5 + 1e-6), (inside[1], 0.4, 1.3)]:
        moved = [_rec(subset, lower, upper) if checks.subset_of(r) == subset else r for r in small]
        assert checks.nesting_problems(moved, big)


# -- designs --------------------------------------------------------------------------

def test_designs(sic3):
    assert checks.sic_problems(vectors_of(sic3), "sic") == []
    assert checks.mub_problems(vectors_of(designs.standard_mubs(4)), "mub") == []
    bent = vectors_of(sic3).copy()
    bent[2] = bent[2] * np.array([1, 1j, 1])
    assert checks.sic_problems(bent, "sic")
    bent = vectors_of(designs.standard_mubs(3)).copy()
    bent[[3, 4]] = bent[[4, 3]]
    bent[3, 0] *= -1
    assert checks.mub_problems(bent, "mub")


def test_family_vectors_match_the_program():
    for x, y, z in [(0.3, 1.2, 2.9), (math.pi / 2, 0.0, math.pi)]:
        ours = checks.mub_triple(x, y, z)
        assert checks.mub_problems(ours, "triple") == []
        assert np.abs(ours - vectors_of(designs.mub_triple_family_d4(x, y, z))).max() < 1e-15


# -- d = 4 family scan ----------------------------------------------------------------

def _family_result(**changes):
    axis = np.linspace(0.0, math.pi, 9)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    fields = dict(
        l_minus=0.25, l_plus=0.5,
        argmin_params=(math.pi / 2,) * 3, argmax_params=(math.pi / 2, math.pi, 0.0),
        per_point=tuple((*p, 0.3) for p in grid),
    )
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_family_passes_with_the_known_extrema():
    assert checks.family_problems(_family_result(), 9, rng()) == []


@pytest.mark.parametrize("changes", [
    {"l_minus": 0.25 + 2e-6},
    {"l_plus": 0.5 - 2e-6},
    {"argmin_params": (math.pi / 2, math.pi / 2, math.pi / 2 + 0.3)},
    {"argmax_params": (math.pi / 2, math.pi / 2, 0.0)},
    {"per_point": ((0.0, 0.0, 0.0, 0.25 - 1e-9),)},
])
def test_family_perturbed_fails(changes):
    assert checks.family_problems(_family_result(**changes), 9, rng())


def test_family_floor_above_product_states_fails():
    bad = _family_result(l_minus=0.6)
    assert any("product state" in p for p in checks.family_problems(bad, 9, rng()))


# -- detection ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def detect_ctx():
    ctx = WORKLOADS["detect_stream"]().build(SimpleNamespace(
        designs=designs, bounds=bounds, correlations=correlations))
    return ctx


def _classify(ctx, key, conj, mats):
    spec, rec = ctx.specs[key, conj], ctx.records[key]
    out = [states.detect(core.validate_density(m, key[1]), spec, rec) for m in mats]
    return [v.value for v in out], [v.verdict.value for v in out]


def test_verdicts_pass_as_computed_and_fail_when_perturbed(detect_ctx):
    key, d = ("mub", 3), 3
    params = [0.2, 0.45, 0.5, 0.8]
    mats = [checks.werner_matrix(d, p) for p in params]
    values, verdicts = _classify(detect_ctx, key, False, mats)
    w = checks.witness(vectors_of(detect_ctx.designs[key]), False)
    recomputed = [float(np.trace(w @ m).real) for m in mats]
    lower, upper = checks.full_design_bounds(*key)
    separable = [checks.is_separable("werner", d, p) for p in params]

    def problems(vals, verd):
        return checks.verdict_problems(vals, verd, recomputed, lower, upper, separable, "t")

    assert verdicts[0] == "EntangledByLower" and problems(values, verdicts) == []
    assert problems([values[0] + 1e-9, *values[1:]], verdicts)
    assert problems(values, ["Inconclusive", *verdicts[1:]])
    assert problems(values, [*verdicts[:3], "EntangledByUpper"])


def test_separable_flagged_fails():
    sep = checks.verdict_problems([1.2], ["EntangledByLower"], [1.2], 1.0, 2.0, [True], "t")
    assert any("separable" in p for p in sep)


@pytest.mark.parametrize("family", ["werner", "isotropic"])
def test_scan_passes_as_computed_and_fails_when_perturbed(detect_ctx, family):
    key, d, conj = ("sic", 2), 2, family == "isotropic"
    scan = tables.scan_family(family, d, detect_ctx.specs[key, conj], detect_ctx.records[key])
    vecs = vectors_of(detect_ctx.designs[key])
    assert checks.scan_problems(scan, family, d, vecs, conj, "sic") == []
    rows = list(scan.rows)
    rows[10] = replace(rows[10], value=rows[10].value + 1e-9)
    assert checks.scan_problems(replace(scan, rows=tuple(rows)), family, d, vecs, conj, "sic")
    rows = list(scan.rows)
    flipped = "Inconclusive" if rows[0].verdict != "Inconclusive" else "EntangledByLower"
    rows[0] = replace(rows[0], verdict=flipped)
    assert checks.scan_problems(replace(scan, rows=tuple(rows)), family, d, vecs, conj, "sic")
    p, a, b = scan.first_flip
    moved = replace(scan, first_flip=(p + 0.002, a, b))
    assert checks.scan_problems(moved, family, d, vecs, conj, "sic")


# -- tracing and the benchmark definition --------------------------------------------

def test_tracer_self_time_and_restore():
    mod = SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer", lambda a, k, out: tracer.counts.update(seen=out))
    assert mod.outer(1) == 4
    tracer.close()
    assert mod.inner is inner and mod.outer is outer
    tot = tracer.totals()
    assert tot["inner"]["calls"] == tot["outer"]["calls"] == 1
    assert tot["outer"]["self_s"] == pytest.approx(tot["outer"]["s"] - tot["inner"]["s"])
    assert tracer.counts["seen"] == 4 and list(tracer.parent) == [-1, 0]


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
