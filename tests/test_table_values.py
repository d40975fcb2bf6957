"""Every computed table and figure value, pinned to 1e-12 with its pass flag.

``tests/data/table_values.json`` holds each row of ``reproduce_table`` I, II,
III, V and EQ12 and of ``figure_critical_values`` at seed 0: its labels, its
computed value, its numeric extras and its pass flag.  A change that moves a
value on purpose regenerates the file with ``python tests/test_table_values.py``
and says which values moved.  The script writes labels and pass flags anew,
but keeps each pinned computed value and numeric extra that the fresh run
reproduces to within the test's 1e-12, so ``git diff tests/data`` shows only
the values that moved past it.
"""

import json
from pathlib import Path

from twodesign import OptimizerOptions, reproduce_table
from twodesign.tables import figure_critical_values

PINNED_PATH = Path(__file__).parent / "data" / "table_values.json"
TABLES = ("I", "II", "III", "V", "EQ12", "FIGURE")


def table_values() -> dict:
    opts = OptimizerOptions(seed=0)
    out = {}
    for tid in TABLES:
        report = figure_critical_values(opts) if tid == "FIGURE" else reproduce_table(tid, opts)
        out[tid] = [
            {
                "labels": row.labels,
                "computed": row.computed,
                "extra": {k: v for k, v in row.extra.items() if isinstance(v, float)},
                "passed": row.passed,
            }
            for row in report.rows
        ]
    return out


def test_table_values_are_pinned():
    pinned = json.loads(PINNED_PATH.read_text())
    got = table_values()
    assert list(got) == list(pinned)
    for tid in TABLES:
        assert [r["labels"] for r in got[tid]] == [r["labels"] for r in pinned[tid]], tid
        for row, ref in zip(got[tid], pinned[tid]):
            where = (tid, row["labels"])
            assert row["passed"] == ref["passed"], where
            assert abs(row["computed"] - ref["computed"]) <= 1e-12, where
            assert row["extra"].keys() == ref["extra"].keys(), where
            for key, value in ref["extra"].items():
                assert abs(row["extra"][key] - value) <= 1e-12, (where, key)


def keep_unmoved(fresh: dict, pinned: dict) -> dict:
    """``fresh`` with each number that ``pinned`` holds to within 1e-12 put back as pinned."""
    for tid, rows in fresh.items():
        refs = {json.dumps(r["labels"]): r for r in pinned.get(tid, [])}
        for row in rows:
            ref = refs.get(json.dumps(row["labels"]))
            if ref is None:
                continue
            if abs(row["computed"] - ref["computed"]) <= 1e-12:
                row["computed"] = ref["computed"]
            for key, value in row["extra"].items():
                if key in ref["extra"] and abs(value - ref["extra"][key]) <= 1e-12:
                    row["extra"][key] = ref["extra"][key]
    return fresh


if __name__ == "__main__":
    fresh = json.loads(json.dumps(table_values()))  # labels as the file stores them
    pinned = json.loads(PINNED_PATH.read_text())
    PINNED_PATH.write_text(json.dumps(keep_unmoved(fresh, pinned), indent=1) + "\n")
