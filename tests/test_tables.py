"""The corrected-row rule of ``twodesign.tables``, checked without running an optimizer.

A corrected row passes only if its computed value matches the corrected
reference and refutes the published number.  The second half holds for
every such match because each corrected reference lies beyond its
published number by more than twice the row's tolerance.
"""

import pytest

from twodesign.tables import (
    FIGURE_Q_PUBLISHED,
    FIGURE_Q_REFS,
    FIGURE_TOL,
    LOWER_TOL,
    SIC_D3_PUBLISHED,
    SIC_D3_REFS,
    SIC_D4_PUBLISHED,
    SIC_D4_REFS,
    _row,
    refutes,
)


class TestCorrectedRowGate:
    @pytest.mark.parametrize("cell, value, published", [
        ("U(5,4)", 1.3766, 1.3766),  # only reaches the published maximum
        ("L(7,4)", 0.0067, 0.0067),  # only reaches the published floor
        ("U(5,4)", 1.3766 + 5e-4, 1.3766),  # within the tolerance of it
        ("U-(4,3)", 1.2, 1.25414),  # beyond it on the wrong side
        ("L(8,4)", 0.03, 0.0279),
    ])
    def test_a_matched_reference_that_does_not_refute_fails(self, cell, value, published):
        row = _row({"cell": cell}, value, value, LOWER_TOL, published=published)
        assert row.abs_error == 0 and not row.passed

    @pytest.mark.parametrize("cell, value, published", [
        ("U(5,4)", 1.3854, 1.3766), ("L(7,4)", 0.0013, 0.0067), ("U-(4,3)", 1.2927, 1.25414),
    ])
    def test_a_value_beyond_the_published_number_passes(self, cell, value, published):
        row = _row({"cell": cell}, value, value, LOWER_TOL, published=published)
        assert row.passed
        assert row.extra == {"published": published}

    def test_extra_keeps_the_row_keys_beside_published(self):
        row = _row({"cell": "q4"}, 0.954, 0.954, FIGURE_TOL, published=0.91, bound_used=1.2927)
        assert row.passed
        assert row.extra == {"bound_used": 1.2927, "published": 0.91}

    def test_a_reference_miss_fails_even_when_it_refutes(self):
        assert not _row({"cell": "U(5,4)"}, 1.40, 1.3854, LOWER_TOL, published=1.3766).passed


def corrections():
    """(cell, corrected reference, published number, tolerance) of each corrected row."""
    cols = ("L-", "L+", "U+", "U-")
    rows = [(f"{col}({n},3)", SIC_D3_REFS[n][cols.index(col)], pub, LOWER_TOL)
            for (n, col), pub in SIC_D3_PUBLISHED.items()]
    rows += [(f"{col}({n},4)", SIC_D4_REFS[n]["LU".index(col)], pub, LOWER_TOL)
             for (n, col), pub in SIC_D4_PUBLISHED.items()]
    rows += [(f"q{n}", FIGURE_Q_REFS[n], pub, FIGURE_TOL) for n, pub in FIGURE_Q_PUBLISHED.items()]
    return rows


def test_six_published_numbers_are_corrected():
    assert sorted(c[0] for c in corrections()) == sorted(
        ["U-(4,3)", "U(5,4)", "L(7,4)", "L(8,4)", "L(10,4)", "q4"]
    )


@pytest.mark.parametrize("cell, ref, published, tol", corrections(),
                         ids=[c[0] for c in corrections()])
def test_reference_lies_beyond_published_by_twice_the_tolerance(cell, ref, published, tol):
    upper = not cell.startswith("L")
    margin = ref - published if upper else published - ref
    assert margin > 2 * tol
    # so a value that matches the reference to ``tol`` refutes the published number
    for value in (ref - tol, ref, ref + tol):
        assert refutes(value, published, tol, upper)
