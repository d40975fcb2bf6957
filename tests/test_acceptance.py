"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Six published numbers checked by criteria 3, 5 and 8 are refuted by
feasible product states; `twodesign.tables` carries corrected references
for them and keeps the published numbers beside them (README, "Reference
tables and corrected reference values").  A corrected cell passes only if the
computed value matches the corrected reference and the optimizer's own
state, re-evaluated directly, beats the published number by more than the
cell's tolerance.  The tests also check that certificate rule: a state that
only reaches the published number must not count as a refutation.
`tests/test_bounds.py::TestPublishedTableDefects` pins the corrected values
independently of the tables.
"""

import time

import numpy as np
from twodesign import (
    CorrelationSpec,
    OptimizerOptions,
    Verdict,
    closed_form_correlation,
    compute_bound_record,
    correlation_sum,
    d4_family_scan,
    detect,
    mdi_conversion,
    design_witness_operator,
    mub_triple_family_d4,
    partial_transpose,
    reproduce_table,
    scan_family,
    sic_povm,
    spa_witness,
    standard_mubs,
    symmetric_state,
    SymmetricStateSpec,
    verify_2design,
    verify_mub,
    verify_sic,
)
from twodesign.core import (
    random_bipartite_density,
    random_density,
    random_separable_density,
    random_state_vector,
)
from twodesign.tables import figure_critical_values, refutes

SEED = 0


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def failing_rows(table_report):
    return [r for r in table_report.rows if not r.passed]


def describe(rows):
    def cell(r):
        text = f"{r.labels.get('cell')}: computed {r.computed:.6g} vs reference {r.reference:.6g}"
        if "published" in r.extra:
            text += f" (published {r.extra['published']:.6g}, certificate {r.extra['certificate']:.6g})"
        return text

    return "; ".join(cell(r) for r in rows)


def assert_refutation(name, certificate, published, tol, upper):
    """The certificate beats the published number; the published number itself does not."""
    assert refutes(certificate, published, tol, upper), (
        f"{name}: certificate {certificate:.6g} does not refute published {published:.6g}"
    )
    edge = published + tol if upper else published - tol
    assert not refutes(published, published, tol, upper)
    assert not refutes(edge, published, tol, upper)


def assert_corrected_rows(table_report, cells):
    corrected = {r.labels["cell"]: r for r in table_report.rows if "published" in r.extra}
    assert sorted(corrected) == sorted(cells)
    for name, r in corrected.items():
        assert_refutation(
            name, r.extra["certificate"], r.extra["published"], r.tolerance,
            upper=not name.startswith("L"),
        )


class TestCriterion1DesignValidity:
    def test_designs_and_2design_condition(self):
        start = time.perf_counter()
        worst_overlap = 0.0
        worst_frame = 0.0
        for d in (2, 3, 4):
            worst_overlap = max(worst_overlap, verify_mub(standard_mubs(d)).max_deviation)
            worst_overlap = max(worst_overlap, verify_sic(sic_povm(d)).max_deviation)
            worst_frame = max(worst_frame, verify_2design(standard_mubs(d).vectors))
            worst_frame = max(worst_frame, verify_2design(sic_povm(d).vectors))
        elapsed = time.perf_counter() - start
        ok = worst_overlap < 1e-10 and worst_frame < 1e-12 and elapsed < 1.0
        report(1, ok, f"overlap dev {worst_overlap:.2e}, frame dev {worst_frame:.2e}, {elapsed:.2f}s")
        assert worst_overlap < 1e-10
        assert worst_frame < 1e-12
        assert elapsed < 1.0


class TestCriterion2TableI:
    def test_mub_bound_table(self):
        start = time.perf_counter()
        table = reproduce_table("I", OptimizerOptions(seed=SEED, restarts=256))
        elapsed = time.perf_counter() - start
        bad = failing_rows(table)
        cells = {r.labels["cell"]: r.computed for r in table.rows}
        named = {
            "L(2,2)": 0.5, "L(2,3)": 0.211, "L(3,3)": 0.5, "L-(3,4)": 0.25,
            "L+(3,4)": 0.5, "L-(4,4)": 0.5, "L-(5,4)": 1.0,
        }
        worst_named = max(abs(cells[k] - v) for k, v in named.items())
        ok = not bad and elapsed < 300 and worst_named < 5e-4
        report(2, ok, f"{len(table.rows)} cells, worst named error {worst_named:.2e}, {elapsed:.0f}s")
        assert not bad, describe(bad)
        assert worst_named < 5e-4
        assert elapsed < 300


class TestCriterion3TableII:
    def test_hesse_subset_table(self):
        start = time.perf_counter()
        table = reproduce_table("II", OptimizerOptions(seed=SEED))
        elapsed = time.perf_counter() - start
        bad = failing_rows(table)
        ok = not bad and elapsed < 600
        report(3, ok, f"{len(table.rows)} cells, {len(bad)} failing, enumeration+report {elapsed:.0f}s")
        assert elapsed < 600
        # U-(4,3) is checked against its corrected reference 1.29270; every
        # 4-subset's reported maximizer must reach above the published 1.25414
        assert not bad, describe(bad)
        assert_corrected_rows(table, {"U-(4,3)"})


class TestCriterion4TableIII:
    def test_d2_sic_table(self):
        table = reproduce_table("III", OptimizerOptions(seed=SEED))
        bad = failing_rows(table)
        spreads = [r.extra.get("spread", 0.0) for r in table.rows]
        ok = not bad and max(spreads) < 1e-9
        report(4, ok, f"{len(table.rows)} cells, max subset spread {max(spreads):.2e}")
        assert not bad, describe(bad)
        assert max(spreads) < 1e-9  # identical across all subsets of each size


class TestCriterion5TableV:
    def test_d4_sic_table(self):
        start = time.perf_counter()
        table = reproduce_table("V", OptimizerOptions(seed=SEED))
        elapsed = time.perf_counter() - start
        bad = failing_rows(table)
        ok = not bad
        report(5, ok, f"{len(table.rows)} cells, {len(bad)} failing, {elapsed:.0f}s")
        # U at size 5 and L at sizes 7, 8, 10 are checked against corrected
        # references; each reported state must beat its published number
        assert not bad, describe(bad)
        assert_corrected_rows(table, {"U(5,4)", "L(7,4)", "L(8,4)", "L(10,4)"})


class TestCriterion6FamilyScan:
    def test_triple_family_extrema(self):
        start = time.perf_counter()
        result = d4_family_scan(25, OptimizerOptions(seed=SEED))
        elapsed = time.perf_counter() - start
        half_pi = np.pi / 2
        d_plus = np.linalg.norm(np.array(result.argmax_params) - [half_pi, 0, 0])
        d_minus = np.linalg.norm(np.array(result.argmin_params) - [half_pi, half_pi, half_pi])
        ok = (
            abs(result.l_plus - 0.5) < 5e-3
            and abs(result.l_minus - 0.25) < 5e-3
            and d_plus < np.pi / 12
            and d_minus < np.pi / 12
            and elapsed < 1200
        )
        report(
            6,
            ok,
            f"L+={result.l_plus:.6f} at dist {d_plus:.3f}, "
            f"L-={result.l_minus:.6f} at dist {d_minus:.3f}, {elapsed:.0f}s",
        )
        assert abs(result.l_plus - 0.5) < 5e-3
        assert abs(result.l_minus - 0.25) < 5e-3
        assert d_plus < np.pi / 12
        assert d_minus < np.pi / 12
        assert elapsed < 1200


class TestCriterion7ClosedFormCrossChecks:
    def test_full_design_bounds_and_symmetric_closed_forms(self):
        table = reproduce_table("EQ12", OptimizerOptions(seed=SEED))
        bad = failing_rows(table)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for d in (2, 3):
            for family in ("werner", "isotropic"):
                for kind, design in (("mub", standard_mubs(d)), ("sic", sic_povm(d))):
                    for x in rng.uniform(size=20):
                        spec = SymmetricStateSpec(family, d, x)
                        cf = closed_form_correlation(spec, kind, design.count)
                        numeric = correlation_sum(
                            symmetric_state(spec),
                            CorrelationSpec(design, conjugate_second=cf.conjugate_second),
                        )
                        worst = max(worst, abs(cf.value - numeric))
        ok = not bad and worst < 1e-10
        report(7, ok, f"full-design bounds {len(table.rows)} cells, closed-form dev {worst:.2e}")
        assert not bad, describe(bad)
        assert worst < 1e-10


class TestCriterion8DetectionThresholds:
    def test_threshold_flips_and_figure_values(self):
        flips = {}
        for d in (2, 3):
            mubs = standard_mubs(d)
            record = compute_bound_record(mubs, OptimizerOptions(seed=SEED))
            werner = scan_family("werner", d, CorrelationSpec(mubs), record, step=1e-3)
            iso = scan_family(
                "isotropic", d, CorrelationSpec(mubs, conjugate_second=True), record, step=1e-3
            )
            flips[f"werner d={d}"] = (werner.first_flip[0], 0.5)
            flips[f"isotropic d={d}"] = (iso.first_flip[0], 1 / (d + 1))
        worst_flip = max(abs(got - want) for got, want in flips.values())

        values = figure_critical_values(OptimizerOptions(seed=SEED))
        bad = failing_rows(values)
        ok = worst_flip <= 2e-3 and not bad
        detail = f"threshold dev {worst_flip:.1e}; figure values " + ", ".join(
            f"{r.labels['cell']}={r.computed:.3f}{'' if r.passed else '(ref ' + str(r.reference) + ')'}"
            for r in values.rows
        )
        report(8, ok, detail)
        assert worst_flip <= 2e-3
        # q4 is the crossing of U-(4,3): checked against the crossing of the
        # corrected 1.29270, and its certificate must beat the published 0.91
        assert not bad, describe(bad)
        assert_corrected_rows(values, {"q4"})


class TestCriterion9Soundness:
    def test_no_false_positives_and_floor_identities(self, hesse_spectra):
        rng = np.random.default_rng(SEED)
        opts = OptimizerOptions(seed=SEED)
        designs = []
        for d in (2, 3):
            mubs = standard_mubs(d)
            for m in range(2, d + 2):
                sub = mubs.subset(range(m))
                designs.append((CorrelationSpec(sub), compute_bound_record(sub, opts)))
        mubs4 = standard_mubs(4)
        for m in range(2, 6):
            sub = mubs4.subset(range(m))
            designs.append((CorrelationSpec(sub), compute_bound_record(sub, opts)))
        plus_triple = mub_triple_family_d4(np.pi / 2, 0.0, 0.0)
        designs.append((CorrelationSpec(plus_triple), compute_bound_record(plus_triple, opts)))
        sic3 = sic_povm(3)
        for mt, spectrum in hesse_spectra.items():
            lead = spectrum.per_subset[0]
            designs.append((CorrelationSpec(sic3.subset(lead.indices)), lead))

        flagged = 0
        checked = 0
        for spec, record in designs:
            d = spec.dim
            for _ in range(500):
                rho = random_separable_density(d, rng)
                verdict = detect(rho, spec, record)
                checked += 1
                if verdict.verdict is not Verdict.INCONCLUSIVE:
                    flagged += 1

        purity_dev = 0.0
        for d in (2, 3, 4):
            mub_vectors = standard_mubs(d).vectors
            sic_vectors = sic_povm(d).vectors
            for _ in range(100):
                rho = random_density(d, rng)
                purity = np.trace(rho @ rho).real
                s_mub = sum(np.real(v.conj() @ rho @ v) ** 2 for v in mub_vectors)
                s_sic = sum(np.real(v.conj() @ rho @ v) ** 2 for v in sic_vectors)
                purity_dev = max(purity_dev, abs(s_mub - (1 + purity)))
                purity_dev = max(
                    purity_dev, abs(s_sic - d * d * (1 + purity) / (d * (d + 1)))
                )

        floor_ok = True
        for d in (2, 3):
            w, floor = spa_witness(d)
            for _ in range(10_000):
                k = np.kron(random_state_vector(d, rng), random_state_vector(d, rng))
                if np.real(k.conj() @ w @ k) < floor - 1e-9:
                    floor_ok = False

        ok = flagged == 0 and purity_dev < 1e-10 and floor_ok
        report(
            9,
            ok,
            f"{checked} separable states over {len(designs)} designs, {flagged} flagged; "
            f"purity dev {purity_dev:.2e}; floor ok {floor_ok}",
        )
        assert flagged == 0
        assert purity_dev < 1e-10
        assert floor_ok


class TestCriterion10MdiConsistency:
    def test_transpose_pairing(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for d in (2, 3):
            for design in (standard_mubs(d), sic_povm(d), sic_povm(d).subset(range(d + 1))):
                spec = CorrelationSpec(design)
                w = design_witness_operator(spec)
                w_mdi, _ = mdi_conversion(spec)
                for _ in range(20):
                    rho = random_bipartite_density(d, rng)
                    rho_tt = partial_transpose(
                        partial_transpose(rho, "A"), "B", local_dim=d
                    )
                    lhs = np.trace(w_mdi @ rho_tt).real
                    rhs = np.trace(w @ rho.matrix).real
                    worst = max(worst, abs(lhs - rhs))
        ok = worst < 1e-12
        report(10, ok, f"max |tr difference| {worst:.2e}")
        assert worst < 1e-12
