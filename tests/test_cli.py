"""Command-line surface: output schemas, round-trips, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twodesign import save_density, validate_density
from twodesign.cli import bound_record_from_obj, bound_record_to_obj, main
from twodesign.bounds import OptimizerOptions, compute_bound_record, separable_lower_bound
from twodesign.designs import sic_povm


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: ``designs`` and ``bounds`` JSON written once by the release that still had
#: separate MUB and SIC design classes; ``bounds`` entries omit the argmin
#: and argmax vectors.
PINNED = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())


def assert_same_json(got, want, path="$"):
    """Same keys in the same order, same types and values; floats to rounding.

    Deviation fields are rounding noise (about 1e-16), so floats compare
    within 1e-12 absolute; the six-digit values then match exactly.
    """
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


class TestPinnedOutputs:
    @pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
    def test_matches_fixture(self, capsys, case):
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == 0
        payload = json.loads(out)
        if case["argv"][0] == "bounds":
            payload = {k: v for k, v in payload.items() if k not in ("argmin", "argmax")}
        assert_same_json(payload, case["output"])


class TestImports:
    def test_imports_without_scipy(self):
        # numpy is the only numerical dependency; ``None`` in sys.modules
        # makes any import of scipy raise
        code = 'import sys; sys.modules["scipy"] = None; import twodesign, twodesign.cli'
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr


class TestDesignsCommand:
    def test_show_mub_json(self, capsys):
        code, out, _ = run_cli(capsys, "designs", "show", "--design", "mub", "--d", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "mub" and len(payload["bases"]) == 4
        # round-trip stability of the serialized output
        assert json.loads(json.dumps(payload)) == payload

    def test_verify_sic_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "designs", "verify", "--design", "sic", "--d", "4", "--tol", "1e-9"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_deviation"] < 1e-9
        assert payload["tolerance"] == 1e-9

    def test_family_triple(self, capsys):
        code, out, _ = run_cli(
            capsys, "designs", "verify", "--design", "mub", "--d", "4",
            "--x", "1.0", "--y", "0.5", "--z", "2.0",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_unsupported_dimension_is_error(self, capsys):
        code, _, err = run_cli(capsys, "designs", "show", "--design", "mub", "--d", "7")
        assert code == 1
        assert "UnsupportedDimension" in json.loads(err)["error"]


class TestCorrelateCommand:
    def test_correlate_state_file(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_density(path, validate_density(np.eye(9) / 9, 3))
        code, out, _ = run_cli(
            capsys, "correlate", "--state", str(path),
            "--design", "mub", "--d", "3", "--m", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 2 / 3) < 1e-6
        assert payload["design_descriptor"]["kind"] == "mub"

    def test_correlate_with_subset_and_kind_alias(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_density(path, validate_density(np.eye(9) / 9, 3))
        code, out, _ = run_cli(
            capsys, "correlate", "--state", str(path),
            "--design", "sic", "--d", "3", "--subset", "1,2,4",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 3 / 9) < 1e-6
        assert payload["design_descriptor"]["size"] == 3
        code, out, _ = run_cli(capsys, "designs", "verify", "--kind", "mub", "--d", "2")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"local_dim": 2, "matrix": [[[1, 0movie]]]}')
        code, _, err = run_cli(
            capsys, "correlate", "--state", str(path), "--design", "mub", "--d", "2"
        )
        assert code == 1
        msg = json.loads(err)
        assert msg["error"] == "ParseError"
        assert "line 1" in msg["message"] and "column" in msg["message"]


class TestBoundsCommand:
    def test_single_design_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--design", "sic", "--d", "2", "--m", "3", "--seed", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lower"] - 4 / 15) < 1e-4
        assert abs(payload["upper"] - 4 / 3) < 1e-4
        rec = bound_record_from_obj(payload)
        assert rec.size == 3

    def test_all_subsets_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--design", "sic", "--d", "2", "--m", "2",
            "--all-subsets", "--format", "csv", "--restarts", "16",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "subset,lower,upper,converged"
        assert len(lines) == 7  # header + C(4,2) subsets

    def test_record_round_trip(self):
        rec = compute_bound_record(sic_povm(2).subset(range(3)), OptimizerOptions(seed=0))
        again = bound_record_from_obj(json.loads(json.dumps(bound_record_to_obj(rec))))
        assert again.lower == rec.lower and again.upper == rec.upper
        np.testing.assert_allclose(again.argmin.e, rec.argmin.e, atol=0)

    def test_family_scan_grid_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--design", "mub", "--d", "4",
            "--family-scan", "--grid-steps", "8",
        )
        assert code == 1
        assert "grid steps" in json.loads(err)["message"]

    def test_zero_restarts_is_error(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--design", "sic", "--d", "3", "--m", "3", "--restarts", "0"
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == "restarts must be at least 1, got 0"

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--design", "sic", "--d", "2", "--subset", "1,5"],
         "--subset needs distinct indices in [1, 4], got [1, 5]"),
        (["designs", "show", "--design", "sic", "--d", "2", "--subset", "2,2"],
         "--subset needs distinct indices in [1, 4], got [2, 2]"),
        (["bounds", "--design", "sic", "--d", "2", "--subset", ","],
         "--subset needs distinct indices in [1, 4], got []"),
        (["designs", "show", "--design", "mub", "--d", "3", "--m", "5"],
         "--m must be in [1, 4], got 5"),
        (["designs", "show", "--design", "mub", "--d", "3", "--m", "0"],
         "--m must be in [1, 4], got 0"),
        (["bounds", "--design", "sic", "--d", "3", "--m", "0", "--all-subsets"],
         "--m must be in [1, 9], got 0"),
        (["bounds", "--design", "sic", "--d", "2", "--subset", "0,1"],
         "--subset needs distinct indices in [1, 4], got [0, 1]"),
    ])
    def test_subset_errors_are_one_based(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message}


IGNORED_FLAGS = [
    (["bounds", "--design", "sic", "--d", "2", "--m", "2", "--subset", "1,3", "--all-subsets"],
     "--subset"),
    (["designs", "show", "--design", "sic", "--d", "2", "--x", "1"], "--x"),
    (["designs", "show", "--design", "sic", "--d", "2", "--y", "1"], "--y"),
    (["designs", "show", "--design", "sic", "--d", "2", "--z", "1"], "--z"),
    (["designs", "show", "--design", "mub", "--d", "4", "--y", "1"], "--y"),
    (["designs", "show", "--design", "mub", "--d", "4", "--z", "1"], "--z"),
    (["designs", "show", "--design", "mub", "--d", "4", "--x", "1", "--m", "2"], "--m"),
    (["designs", "show", "--design", "mub", "--d", "4", "--x", "1", "--subset", "1,2"],
     "--subset"),
    (["designs", "show", "--design", "mub", "--d", "3", "--m", "2", "--subset", "1,2"], "--m"),
    (["bounds", "--design", "sic", "--d", "4", "--family-scan"], "--design sic --d 4"),
    (["bounds", "--design", "mub", "--d", "3", "--family-scan"], "--design mub --d 3"),
    (["bounds", "--design", "mub", "--d", "4", "--m", "2", "--family-scan"], "--m"),
    (["bounds", "--design", "mub", "--d", "4", "--subset", "1,2", "--family-scan"], "--subset"),
    (["bounds", "--design", "mub", "--d", "4", "--x", "1", "--family-scan"], "--x"),
    (["bounds", "--design", "mub", "--d", "4", "--all-subsets", "--family-scan"], "--all-subsets"),
    (["bounds", "--design", "mub", "--d", "2", "--grid-steps", "3"], "--grid-steps"),
    (["bounds", "--design", "mub", "--d", "2", "--m", "2", "--conjugate-second"],
     "--conjugate-second"),
    (["designs", "show", "--design", "sic", "--d", "2", "--conjugate-second"],
     "--conjugate-second"),
    (["detect", "--state-file", "state.json", "--state", "werner", "--param", "0.2",
      "--design", "mub", "--d", "2"], "--state"),
    (["detect", "--state-file", "state.json", "--param", "0.2", "--design", "mub", "--d", "2"],
     "--param"),
    (["detect", "--state", "werner", "--param", "0.2", "--design", "mub", "--d", "2",
      "--bounds-file", "bounds.json"], "--bounds-file"),
    (["scan", "--family", "werner", "--design", "mub", "--d", "2", "--bounds", "closed-form",
      "--bounds-file", "bounds.json"], "--bounds-file"),
]


class TestIgnoredFlags:
    """A flag the command would not use is an error that names it, not a no-op."""

    @pytest.mark.parametrize(
        "argv, flag", IGNORED_FLAGS, ids=[" ".join(argv) for argv, _ in IGNORED_FLAGS]
    )
    def test_ignored_flag_is_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        message = json.loads(err)["message"]
        assert message.startswith(f"{flag} is ignored"), message


class TestDetectCommand:
    def test_werner_preset(self, capsys):
        code, out, _ = run_cli(
            capsys, "detect", "--state", "werner", "--param", "0.2",
            "--design", "mub", "--d", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "EntangledByLower"
        assert abs(payload["value"] - 0.4) < 1e-6
        assert payload["conjugate_second"] is False

    def test_isotropic_preset_sets_conjugation(self, capsys):
        code, out, _ = run_cli(
            capsys, "detect", "--state", "isotropic", "--param", "0.9",
            "--design", "sic", "--d", "3", "--bounds", "closed-form",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conjugate_second"] is True
        assert payload["verdict"] == "EntangledByUpper"

    def test_state_file_inconclusive(self, capsys, tmp_path):
        path = tmp_path / "mixed.json"
        save_density(path, validate_density(np.eye(4) / 4, 2))
        code, out, _ = run_cli(
            capsys, "detect", "--state-file", str(path),
            "--design", "mub", "--d", "2", "--bounds", "closed-form",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Inconclusive"

    def test_closed_form_requires_full_design(self, capsys):
        code, _, err = run_cli(
            capsys, "detect", "--state", "werner", "--param", "0.2",
            "--design", "mub", "--d", "3", "--m", "2", "--bounds", "closed-form",
        )
        assert code == 1
        assert "full design" in json.loads(err)["message"]

    def test_cached_bounds(self, capsys, tmp_path):
        rec = compute_bound_record(sic_povm(2), OptimizerOptions(seed=0))
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(bound_record_to_obj(rec)))
        code, out, _ = run_cli(
            capsys, "detect", "--state", "werner", "--param", "0.1",
            "--design", "sic", "--d", "2", "--bounds", "cached",
            "--bounds-file", str(path),
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "EntangledByLower"

    def test_cached_bounds_for_another_subset(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "bounds", "--design", "sic", "--d", "3", "--subset", "1,2,3,4,5,7",
        )
        assert code == 0
        assert json.loads(out)["provenance"] == "explicit[1,2,3,4,5,7]"
        bounds_path = tmp_path / "bounds.json"
        bounds_path.write_text(out)
        # product-state minimizer of subset (1,2,3,4,5,6), far below the
        # floor of subset (1,2,3,4,5,7)
        low = separable_lower_bound(sic_povm(3).subset(range(6)), OptimizerOptions(seed=0))
        k = np.kron(low.minimizer.e, low.minimizer.f)
        state_path = tmp_path / "product.json"
        save_density(state_path, validate_density(np.outer(k, k.conj()), 3))
        args = ("detect", "--state-file", str(state_path), "--design", "sic", "--d", "3",
                "--bounds", "cached", "--bounds-file", str(bounds_path))
        code, _, err = run_cli(capsys, *args, "--subset", "1,2,3,4,5,6")
        assert code == 1
        assert json.loads(err)["error"] == "DesignMismatchError"
        # on its own subset the product state is, rightly, inconclusive
        code, out, _ = run_cli(capsys, *args, "--subset", "1,2,3,4,5,7")
        assert code == 0
        assert json.loads(out)["verdict"] == "Inconclusive"


class TestScanCommand:
    def test_werner_csv_flip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "werner", "--d", "2",
            "--design", "mub", "--d", "2", "--bounds", "closed-form",
            "--start", "0.4", "--stop", "0.6", "--step", "0.01", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "parameter,value,verdict"
        verdicts = [line.split(",")[2] for line in lines[1:]]
        assert verdicts[0] == "EntangledByLower" and verdicts[-1] == "Inconclusive"

    def test_isotropic_json_first_flip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "isotropic", "--d", "2",
            "--design", "mub", "--d", "2", "--bounds", "closed-form",
            "--start", "0.2", "--stop", "0.5", "--step", "0.01",
        )
        assert code == 0
        payload = json.loads(out)
        flip = payload["first_flip"]
        assert flip is not None
        assert abs(flip[0] - 1 / 3) < 0.02
        assert flip[2] == "EntangledByUpper"

    def test_werner_best_six_subset_flip(self, capsys):
        # the strongest 6-vector subset of the d=3 SIC detects Werner states
        # down to p just above 0.11
        code, out, _ = run_cli(
            capsys, "scan", "--family", "werner", "--d", "3",
            "--design", "sic", "--d", "3", "--subset", "1,2,3,4,5,7",
            "--start", "0.0", "--stop", "0.3", "--step", "1e-3",
        )
        assert code == 0
        flip = json.loads(out)["first_flip"]
        assert flip[1] == "EntangledByLower" and flip[2] == "Inconclusive"
        assert abs(flip[0] - 0.11) < 1e-2

    def test_isotropic_full_sic_flip(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--family", "isotropic", "--d", "3",
            "--design", "sic", "--d", "3", "--bounds", "closed-form",
            "--start", "0.1", "--stop", "0.4", "--step", "1e-3",
        )
        assert code == 0
        flip = json.loads(out)["first_flip"]
        assert flip[2] == "EntangledByUpper"
        assert abs(flip[0] - 0.25) < 1e-2

    def test_stop_below_start_is_error(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--family", "werner", "--design", "mub", "--d", "2", "--m", "3",
            "--bounds", "closed-form", "--start", "1", "--stop", "0",
        )
        assert code == 1 and out == ""
        assert "below start" in json.loads(err)["message"]


class TestTablesCommand:
    def test_eq12_passes(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--id", "EQ12")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["rows"]) == 8

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--id", "EQ12", "--format", "csv")
        assert code == 0
        head = out.strip().splitlines()[0]
        assert head == "cell,computed,reference,abs_error,tolerance,pass"

    def test_deterministic_under_fixed_seed(self, capsys):
        _, first, _ = run_cli(capsys, "tables", "--id", "EQ12", "--seed", "3")
        _, second, _ = run_cli(capsys, "tables", "--id", "EQ12", "--seed", "3")
        assert first == second

    def test_table_iii_end_to_end(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--id", "III")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["rows"]) == 6

    def test_unknown_table_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["tables", "--id", "VII"])
