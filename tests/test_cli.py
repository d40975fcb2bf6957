"""Command-line surface: output schemas, round-trips, exit codes."""

import csv
import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twodesign import save_density, validate_density
from twodesign.bounds import (
    BoundRecord,
    OptimizerOptions,
    ProductState,
    compute_bound_record,
    separable_lower_bound,
    subset_bound_spectrum,
)
from twodesign.cli import (
    _build_parser,
    _closed_form_record,
    _emit_json,
    _from_json,
    _to_json,
    main,
)
from twodesign.correlations import CorrelationSpec
from twodesign.designs import sic_povm, standard_mubs
from twodesign.tables import TABLE_IDS, reproduce_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: The first 16 entries, ``designs`` and ``bounds`` JSON, were written once by
#: the release that still had separate MUB and SIC design classes.  The last
#: six (``detect``, ``scan``, ``tables``, ``bounds --all-subsets`` and
#: ``bounds --family-scan``) were written by the CLI's hand-written
#: converters, before results were serialized from their dataclass fields.
#: ``bounds`` entries omit the argmin and argmax vectors.
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

    def test_non_finite_value_is_error_not_invalid_json(self, capsys):
        # strict JSON: a NaN is refused, not printed as a bare NaN token
        with pytest.raises(ValueError, match="^Out of range float values"):
            _emit_json({"x": float("nan")})
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_negative_or_non_finite_tol_is_error(self, capsys, tol):
        # with --tol -1 every design used to print "pass": false, and exit 0
        code, out, err = run_cli(
            capsys, "designs", "verify", "--design", "mub", "--d", "2", "--tol", tol
        )
        assert code == 1 and out == ""
        message = f"tol must be finite and non-negative, got {float(tol)!r}"
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_unsupported_dimension_is_error(self, capsys):
        code, _, err = run_cli(capsys, "designs", "show", "--design", "mub", "--d", "6")
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

    @pytest.mark.parametrize("local_dim", [2.7, "2", 2.0, True])
    def test_local_dim_must_be_a_json_integer(self, capsys, tmp_path, local_dim):
        path = tmp_path / "state.json"
        save_density(path, validate_density(np.eye(4) / 4, 2))
        path.write_text(json.dumps({**json.loads(path.read_text()), "local_dim": local_dim}))
        code, out, err = run_cli(
            capsys, "correlate", "--state", str(path), "--design", "mub", "--d", "2"
        )
        assert code == 1 and out == ""
        message = f"state field 'local_dim' must be an integer, got {local_dim!r}"
        assert json.loads(err) == {"error": "ValueError", "message": message}

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
        rec = _from_json(payload)
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
        again = _from_json(json.loads(json.dumps(_to_json(rec))))
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


#: ``bounds --design sic --d 2 --m 3 --seed 1`` as printed before results were
#: serialized from their dataclass fields.
PARENT_BOUNDS_JSON = (
    '{"design_kind": "sic", "dim": 2, "size": 3, "subset_or_params": "explicit[1,2,3]", '
    '"lower": 0.266667, "upper": 1.33333, "argmin": {"e": [[0.881465, 0.0], '
    '[-0.225185, -0.415105]], "f": [[0.151724, 0.0], [-0.555942, -0.817257]]}, '
    '"argmax": [[0.816484, -1.94526e-22], [0.288669, 0.500024]], "restarts": 64, '
    '"converged": true, "provenance": "explicit[1,2,3]"}'
)

RECORD_KEYS = [f.name for f in dataclasses.fields(BoundRecord) if f.name != "indices"]

RECORDS = {
    "computed": lambda: compute_bound_record(
        sic_povm(2).subset(range(3)), OptimizerOptions(seed=0)),
    "closed-form": lambda: _closed_form_record(CorrelationSpec(standard_mubs(3))),
    # every 2-subset of the d=2 SIC is in the orbit of (1,2): (3,4) is mapped
    "mapped": lambda: subset_bound_spectrum(
        sic_povm(2), 2, OptimizerOptions(seed=0, restarts=16)).per_subset[-1],
}


def assert_same_record(got, want):
    """Field by field, since dataclass ``==`` raises on the array fields."""
    for key in RECORD_KEYS:
        g, w = getattr(got, key), getattr(want, key)
        if isinstance(w, ProductState):
            np.testing.assert_allclose(g.e, w.e, atol=0)
            np.testing.assert_allclose(g.f, w.f, atol=0)
        elif isinstance(w, np.ndarray):
            np.testing.assert_allclose(g, w, atol=0)
        else:
            assert g == w, key


class TestBoundsFile:
    """The JSON that ``bounds`` prints is the file that ``--bounds cached`` reads."""

    #: the closed-form record of the d=2 MUBs, as a bounds file may give it
    MINIMAL = {"design_kind": "mub", "dim": 2, "size": 3, "lower": 1.0, "upper": 2.0}

    def detect_cached(self, capsys, path):
        return run_cli(
            capsys, "detect", "--state", "werner", "--param", "0.0", "--design", "mub",
            "--d", "2", "--bounds", "cached", "--bounds-file", str(path),
        )

    def test_keys_are_the_record_fields(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--design", "mub", "--d", "2", "--m", "2")
        assert code == 0
        assert list(json.loads(out)) == RECORD_KEYS

    @pytest.mark.parametrize("kind", list(RECORDS))
    def test_round_trip(self, kind):
        rec = RECORDS[kind]()
        assert_same_record(_from_json(json.loads(json.dumps(_to_json(rec)))), rec)

    def test_loads_json_printed_before_the_change(self):
        want = json.loads(PARENT_BOUNDS_JSON)
        rec = _from_json(want)
        got = _to_json(rec, RECORD_KEYS)
        for key in RECORD_KEYS:
            if key not in ("argmin", "argmax"):
                assert_same_json(got[key], want[key], key)
        # rounded to six digits on output, renormalized on load
        for vec, pairs in [(rec.argmin.e, want["argmin"]["e"]),
                           (rec.argmin.f, want["argmin"]["f"]), (rec.argmax, want["argmax"])]:
            assert abs(np.linalg.norm(vec) - 1) < 1e-15
            np.testing.assert_allclose(_to_json(vec), pairs, rtol=0, atol=2e-6)

    def test_optional_keys_take_defaults(self, capsys, tmp_path):
        rec = _from_json(self.MINIMAL)
        assert (rec.subset_or_params, rec.argmin, rec.argmax) == ("", None, None)
        assert (rec.restarts, rec.converged, rec.provenance) == (0, True, None)
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(self.MINIMAL))
        code, out, _ = self.detect_cached(capsys, path)
        assert code == 0
        assert json.loads(out)["verdict"] == "EntangledByLower"

    @pytest.mark.parametrize("lower, upper", [
        (float("nan"), float("nan")), (float("nan"), 2.0), (1.0, float("nan")),
        (1.0, float("inf")), (float("-inf"), 2.0),
    ])
    def test_non_finite_bounds_are_rejected(self, capsys, tmp_path, lower, upper):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({**self.MINIMAL, "lower": lower, "upper": upper}))
        code, out, err = self.detect_cached(capsys, path)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("e", [[[0.0, 0.0], [0.0, 0.0]], [[float("nan"), 0.0], [1.0, 0.0]]],
                             ids=["zero", "nan"])
    def test_unnormalizable_vector_is_rejected(self, capsys, tmp_path, e):
        path = tmp_path / "bounds.json"
        argmin = {"e": e, "f": [[1.0, 0.0], [0.0, 0.0]]}
        path.write_text(json.dumps({**self.MINIMAL, "argmin": argmin}))
        # a RuntimeWarning from dividing by a zero norm would be an error here too
        code, out, err = self.detect_cached(capsys, path)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "cannot be normalized" in payload["message"]

    def test_invalid_json_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text('{"design_kind": "mub",\n "dim": 2,, "size": 3}')
        code, out, err = self.detect_cached(capsys, path)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(f"{path}: invalid JSON at line 2, column ")

    def test_missing_key_names_key_and_file(self, capsys, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({k: v for k, v in self.MINIMAL.items() if k != "lower"}))
        code, out, err = self.detect_cached(capsys, path)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": f"{path}: missing required key 'lower'",
        }

    @pytest.mark.parametrize("key, value, kind", [
        ("size", 2.9, "an integer"), ("dim", 2.5, "an integer"),
        ("converged", "false", "a boolean"), ("lower", True, "a number"),
    ])
    def test_fields_need_their_json_type(self, capsys, tmp_path, key, value, kind):
        code, out, _ = run_cli(capsys, "bounds", "--design", "mub", "--d", "2", "--m", "2")
        assert code == 0
        printed = json.loads(out)
        path = tmp_path / "bounds.json"
        argv = ["detect", "--state", "werner", "--param", "0.0", "--design", "mub", "--d", "2",
                "--m", "2", "--bounds", "cached", "--bounds-file", str(path)]
        path.write_text(json.dumps(printed))
        assert run_cli(capsys, *argv)[0] == 0
        path.write_text(json.dumps({**printed, key: value}))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        message = f"bounds field {key!r} must be {kind}, got {value!r}"
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def detect_with_edited_field(self, capsys, tmp_path, key, edit):
        """``detect`` on the printed d=2, m=2 record with ``key`` set to ``edit(record)``."""
        code, out, _ = run_cli(capsys, "bounds", "--design", "mub", "--d", "2", "--m", "2")
        assert code == 0
        printed = json.loads(out)
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({**printed, key: edit(printed)}))
        return run_cli(capsys, "detect", "--state", "werner", "--param", "0.0", "--design", "mub",
                       "--d", "2", "--m", "2", "--bounds", "cached", "--bounds-file", str(path))

    @pytest.mark.parametrize("key, value, kind", [
        ("subset_or_params", [1], "a string"), ("design_kind", 7, "a string"),
        ("provenance", 5, "a string or null"),
    ], ids=["subset_or_params", "design_kind", "provenance"])
    def test_string_fields_need_json_strings(self, capsys, tmp_path, key, value, kind):
        code, out, err = self.detect_with_edited_field(capsys, tmp_path, key, lambda rec: value)
        assert code == 1 and out == ""
        message = f"bounds field {key!r} must be {kind}, got {value!r}"
        assert json.loads(err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("key, edit, why", [
        ("argmax", lambda rec: "x", "not enough values to unpack"),
        ("argmin", lambda rec: [1], "list indices must be integers"),
        ("argmax", lambda rec: rec["argmax"] + [[0.0, 0.0]], "has 3 entries, not dim = 2"),
        ("argmin", lambda rec: {**rec["argmin"], "e": rec["argmin"]["e"] + [[0.0, 0.0]]},
         "has 3 entries, not dim = 2"),
        ("argmin", lambda rec: {**rec["argmin"], "f": rec["argmin"]["f"] + [[0.0, 0.0]]},
         "has 3 entries, not dim = 2"),
    ], ids=["argmax-not-pairs", "argmin-not-an-object", "argmax-3", "argmin-e-3", "argmin-f-3"])
    def test_vectors_must_parse_and_fit_the_design(self, capsys, tmp_path, key, edit, why):
        code, out, err = self.detect_with_edited_field(capsys, tmp_path, key, edit)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"bounds field {key!r} is malformed: ")
        assert why in payload["message"]

    def test_negative_restarts_are_rejected(self, capsys, tmp_path):
        code, out, err = self.detect_with_edited_field(capsys, tmp_path, "restarts", lambda rec: -5)
        assert code == 1 and out == ""
        message = "restarts must be non-negative, got -5"
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_integer_too_large_for_a_float_names_its_field(self, capsys, tmp_path):
        path = tmp_path / "bounds.json"
        text = json.dumps({**self.MINIMAL, "upper": 0})
        path.write_text(text.replace('"upper": 0', '"upper": 1' + "0" * 400))
        code, out, err = self.detect_cached(capsys, path)
        assert code == 1 and out == ""
        message = "bounds field 'upper' is malformed: int too large to convert to float"
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_integer_bounds_are_numbers(self):
        rec = _from_json({**self.MINIMAL, "lower": 1, "upper": 2})
        assert (type(rec.lower), type(rec.upper)) == (float, float)

    @pytest.mark.parametrize("key, value, name", [("lower", 0.6, "argmin"),
                                                   ("upper", 1.4, "argmax")])
    def test_bound_refuted_by_its_own_state_is_rejected(self, capsys, tmp_path, key, value, name):
        # the d=2 MUB pair's argmin reaches 0.5 and its argmax 1.5
        code, out, err = self.detect_with_edited_field(capsys, tmp_path, key, lambda rec: value)
        assert code == 1 and out == ""
        message = f"{tmp_path / 'bounds.json'}: the file's {name} reaches "
        message += f"{0.5 if key == 'lower' else 1.5}, beyond its {key} bound {value}"
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_product_state_is_not_flagged_by_a_refuted_file(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bounds", "--design", "mub", "--d", "2", "--m", "2")
        assert code == 0
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({**json.loads(out), "lower": 0.9, "upper": 1.2}))
        state_path = tmp_path / "product.json"  # |0>|1>, whose correlation sum is 0.5
        save_density(state_path, validate_density(np.diag([0.0, 1.0, 0.0, 0.0]), 2))
        code, out, err = run_cli(capsys, "detect", "--state-file", str(state_path),
                                 "--design", "mub", "--d", "2", "--m", "2",
                                 "--bounds", "cached", "--bounds-file", str(path))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{path}: the file's argmin reaches 0.5, beyond")

    @pytest.mark.parametrize("design", [("mub", "3", "2"), ("sic", "2", "3")],
                             ids=["mub-d3-m2", "sic-d2-m3"])
    def test_rounded_honest_file_gives_the_recomputed_verdict(self, capsys, tmp_path, design):
        # these files' states miss their ceilings by 3.3e-6 after rounding to six digits
        kind, d, m = design
        argv = ["--design", kind, "--d", d, "--m", m]
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        path = tmp_path / "bounds.json"
        path.write_text(out)
        detect = ["detect", "--state", "werner", "--param", "0.2", *argv, "--bounds"]
        code, cached, _ = run_cli(capsys, *detect, "cached", "--bounds-file", str(path))
        assert code == 0
        code, recomputed, _ = run_cli(capsys, *detect, "recompute")
        assert code == 0
        cached, recomputed = json.loads(cached), json.loads(recomputed)
        assert cached.pop("bounds_source") == "cached"
        assert recomputed.pop("bounds_source") == "recompute"
        assert cached == recomputed

    def test_foreign_file_is_a_design_mismatch_before_its_states_are_checked(
        self, capsys, tmp_path
    ):
        # subset (1,2,3)'s argmax reaches 1.187 on subset (1,3,4), above the file's 1.125
        code, out, _ = run_cli(capsys, "bounds", "--design", "sic", "--d", "3", "--subset", "1,2,3")
        assert code == 0
        path = tmp_path / "bounds.json"
        path.write_text(out)
        code, out, err = run_cli(capsys, "detect", "--state", "werner", "--param", "0.0",
                                 "--design", "sic", "--d", "3", "--subset", "1,3,4",
                                 "--bounds", "cached", "--bounds-file", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "DesignMismatchError"

    def test_top_level_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps([self.MINIMAL]))
        code, out, err = self.detect_cached(capsys, path)
        assert code == 1 and out == ""
        message = "a bounds file must hold a JSON object, got list"
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
    (["detect", "--state", "werner", "--param", "0.2", "--design", "mub", "--d", "2",
      "--bounds", "closed-form", "--restarts", "8"], "--restarts"),
    (["detect", "--state", "werner", "--param", "0.2", "--design", "mub", "--d", "2",
      "--bounds", "closed-form", "--seed", "3"], "--seed"),
    (["detect", "--state", "werner", "--param", "0.2", "--design", "mub", "--d", "2",
      "--bounds", "cached", "--bounds-file", "bounds.json", "--seed", "0"], "--seed"),
    (["scan", "--family", "werner", "--design", "mub", "--d", "2", "--bounds", "closed-form",
      "--restarts", "8"], "--restarts"),
    (["scan", "--family", "werner", "--design", "mub", "--d", "2", "--bounds", "closed-form",
      "--seed", "3"], "--seed"),
    (["designs", "verify", "--design", "mub", "--d", "2", "--restarts", "5"], "--restarts"),
    (["designs", "verify", "--design", "mub", "--d", "2", "--seed", "3"], "--seed"),
    # before the action, too: argparse must not take "5" for the action
    (["designs", "--seed", "5", "verify", "--design", "mub", "--d", "2"], "--seed"),
    (["correlate", "--state", "state.json", "--design", "mub", "--d", "2", "--restarts", "5"],
     "--restarts"),
    (["correlate", "--state", "state.json", "--design", "mub", "--d", "2", "--seed", "3"],
     "--seed"),
    # declared by no subcommand that reads it
    (["designs", "verify", "--design", "mub", "--d", "2", "--format", "csv"], "--format"),
    (["correlate", "--state", "state.json", "--design", "mub", "--d", "2", "--format", "csv"],
     "--format"),
    (["correlate", "--state", "state.json", "--design", "mub", "--d", "2", "--tol", "5"],
     "--tol"),
    (["bounds", "--design", "mub", "--d", "2", "--m", "2", "--tol", "5"], "--tol"),
    (["detect", "--state", "werner", "--param", "0.2", "--design", "mub", "--d", "2",
      "--bounds", "closed-form", "--format", "csv"], "--format"),
    (["tables", "--id", "EQ12", "--tol", "5"], "--tol"),
    (["tables", "--id", "EQ12", "--tol=5"], "--tol"),
    (["bounds", "--design", "mub", "--d", "2", "--m", "2", "--sede", "3"], "--sede"),
    # declared, but left unread by the other flags
    (["designs", "show", "--design", "mub", "--d", "2", "--tol", "5"], "--tol"),
    (["bounds", "--design", "mub", "--d", "2", "--m", "2", "--format", "csv"], "--format"),
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


def test_readme_commands_declare_every_flag():
    # the README's command-line examples use only flags their subcommand declares
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("twodesign ")]
    assert len(lines) >= 10
    for line in lines:
        _, unread = _build_parser().parse_known_args(shlex.split(line)[1:])
        assert unread == [], line


def test_readme_python_quick_start_runs():
    # the README's Python quick start runs and gives the values its comments state
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (Python)", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(block.split("```", 1)[0], scope)
    assert scope["mubs"].vectors.shape == (12, 3) and scope["mubs"].count == 4
    assert scope["td"].verify_2design(scope["sic"].vectors) < 1e-15
    assert scope["pair"].provenance == "standard[1,2]"
    record = scope["record"]
    assert abs(record.lower - 1.0) < 1e-12 and abs(record.upper - 2.0) < 1e-12
    assert scope["verdict"].verdict.value == "EntangledByLower"
    assert round(scope["spectrum"].l_plus, 4) == 0.1126


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

    @pytest.mark.parametrize("source", [[], ["--param", "0.2"], ["--state", "werner"]],
                             ids=["no state", "--param alone", "--state alone"])
    def test_missing_state_source(self, capsys, source):
        code, out, err = run_cli(
            capsys, "detect", *source, "--design", "mub", "--d", "2", "--bounds", "closed-form",
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "detect needs --state werner|isotropic with --param, or --state-file",
        }

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
        path.write_text(json.dumps(_to_json(rec)))
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
        k = np.kron(low.state.e, low.state.f)
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

    @pytest.mark.parametrize("arg, flag", [("step", "--step=nan"), ("start", "--start=-inf"),
                                           ("stop", "--stop=inf")])
    def test_non_finite_range_is_error(self, capsys, arg, flag):
        code, out, err = run_cli(
            capsys, "scan", "--family", "werner", "--design", "mub", "--d", "2",
            "--bounds", "closed-form", flag,
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{arg} must be finite")

    @pytest.mark.parametrize("tol", ["-5", "nan"])
    def test_negative_or_nan_tol_is_error(self, capsys, tol):
        # with --tol -5 the floor value 1.0 used to read EntangledByLower
        code, out, err = run_cli(
            capsys, "detect", "--state", "werner", "--param", "0.5",
            "--design", "mub", "--d", "2", "--bounds", "closed-form", "--tol", tol,
        )
        assert code == 1 and out == ""
        message = f"tol must be finite and non-negative, got {float(tol)!r}"
        assert json.loads(err) == {"error": "ValueError", "message": message}


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

    def test_no_row_past_stop(self, capsys):
        # round(1 / 0.35) + 1 rows used to print "1.05,2,Inconclusive": the x = 1 value
        code, out, _ = run_cli(
            capsys, "scan", "--family", "werner", "--design", "mub", "--d", "2",
            "--bounds", "closed-form", "--step", "0.35", "--format", "csv",
        )
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["0", "0.35", "0.7"]

    def test_stop_below_start_is_error(self, capsys):
        code, out, err = run_cli(
            capsys, "scan", "--family", "werner", "--design", "mub", "--d", "2", "--m", "3",
            "--bounds", "closed-form", "--start", "1", "--stop", "0",
        )
        assert code == 1 and out == ""
        assert "below start" in json.loads(err)["message"]

    @pytest.mark.parametrize("arg, flag", [("step", "--step=nan"), ("start", "--start=-inf"),
                                           ("stop", "--stop=inf")])
    def test_non_finite_range_is_error(self, capsys, arg, flag):
        code, out, err = run_cli(
            capsys, "scan", "--family", "werner", "--design", "mub", "--d", "2",
            "--bounds", "closed-form", flag,
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{arg} must be finite")

    @pytest.mark.parametrize("tol", ["-5", "nan"])
    def test_negative_or_nan_tol_is_error(self, capsys, tol):
        # with --tol -5 the separable p = 0.6 used to be flagged
        code, out, err = run_cli(
            capsys, "scan", "--family", "werner", "--d", "2", "--design", "mub", "--d", "2",
            "--bounds", "closed-form", "--start", "0.6", "--stop", "0.6", "--tol", tol,
        )
        assert code == 1 and out == ""
        assert "tol must be finite and non-negative" in json.loads(err)["message"]


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


class TestTableIds:
    def test_iv_is_ii_under_its_own_id(self):
        iv, ii = reproduce_table("iv"), reproduce_table("II")
        assert iv.table_id == "IV" and ii.table_id == "II"
        assert iv.rows == ii.rows and iv.tolerance == ii.tolerance

    def test_cli_offers_every_table_id(self):
        tables = next(a.choices["tables"] for a in _build_parser()._actions if a.dest == "command")
        choices = next(a.choices for a in tables._actions if a.dest == "id")
        assert tuple(choices) == TABLE_IDS == ("I", "II", "III", "IV", "V", "EQ12")

    def test_unknown_table_id(self):
        with pytest.raises(ValueError, match=r"unknown table id 'VII'; expected one of \("):
            reproduce_table("VII")


class TestInputChecks:
    @pytest.mark.parametrize("argv, message", [
        (["designs", "show", "--design", "mub", "--d", "3", "--x", "0.5"],
         "the (x, y, z) triple family exists only for d=4"),
        (["detect", "--state", "werner", "--param", "0.2", "--design", "mub", "--d", "2",
          "--bounds", "cached"], "--bounds cached requires --bounds-file"),
        (["bounds", "--design", "sic", "--d", "2", "--all-subsets"],
         "--all-subsets requires --m"),
        (["bounds", "--design", "mub", "--d", "2", "--m", "2", "--all-subsets"],
         "--all-subsets enumerates SIC subsets; use --design sic"),
        (["designs", "bogus", "--design", "mub", "--d", "2"],
         "designs action must be show or verify, got 'bogus'"),
    ], ids=["--x with d=3", "cached without file", "all-subsets without m",
            "all-subsets mub", "designs bogus"])
    def test_rejected(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError", "message": message}

    def test_state_file_of_another_dimension(self, capsys, tmp_path):
        path = tmp_path / "d2.json"
        save_density(path, validate_density(np.eye(4) / 4, 2))
        code, out, err = run_cli(
            capsys, "detect", "--state-file", str(path), "--design", "mub", "--d", "3",
            "--bounds", "closed-form",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["message"] == "state file has d=2, requested d=3"

    def test_bad_subset_spec_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--design", "sic", "--d", "2", "--subset", "1,x"])
        assert exc.value.code == 2
        assert "bad subset spec '1,x'" in capsys.readouterr().err

    def test_family_scan_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--design", "mub", "--d", "4", "--family-scan",
            "--grid-steps", "9", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["x", "y", "z", "lower"]
        assert len(rows) == 1 + 9**3
        values = np.array(rows[1:], dtype=float)
        assert (values[0, :3] == 0).all() and np.allclose(values[-1, :3], np.pi, atol=1e-5)
        assert values[:, 3].min() >= 0.25 - 1e-6


def test_closed_pipe_is_not_an_error():
    # a reader that stops early, like ``| head -c 20``, closes the pipe while
    # the scan is still writing
    argv = ["scan", "--family", "werner", "--design", "mub", "--d", "3",
            "--bounds", "closed-form", "--step", "1e-4"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "twodesign.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err == b""
