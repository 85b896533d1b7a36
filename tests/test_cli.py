"""Command-line interface: file format, subcommands, exit codes."""

import json

import numpy as np
import pytest

from rhoperp import cli, module_norm
from rhoperp.cli import load_matrix, main, matrix_payload, save_matrix
from rhoperp.errors import NoConvergence
from rhoperp.verify import PropertyResult, SuiteReport, incomparability_triple, random_element

T, S, R = incomparability_triple()


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    save_matrix(matrix, path)
    return str(path)


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(60)
    for i in range(10):
        a = random_element(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        path = tmp_path / f"m{i}.json"
        save_matrix(a, path)
        back = load_matrix(path)
        assert back.shape == a.shape
        assert np.array_equal(back, a)


def test_matrix_payload_schema():
    doc = matrix_payload(np.array([[1.0, 2.0j]]))
    assert doc == {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [0.0, 2.0]]}


def test_rho_command(tmp_path, capsys):
    code = main(["rho", "--x", _write(tmp_path, "t.json", T),
                 "--y", _write(tmp_path, "s.json", S)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_plus"] == pytest.approx(1.0)
    assert doc["rho_minus"] == pytest.approx(-1.0)
    assert doc["max_witness"]["type"] == "state"


def test_rho_command_zero_element(tmp_path, capsys):
    code = main(["rho", "--x", _write(tmp_path, "z.json", np.zeros((2, 2))),
                 "--y", _write(tmp_path, "s.json", S)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rho_plus"] == 0.0 and doc["rho_minus"] == 0.0
    assert doc["max_witness"]["type"] == "state"


def test_rho_command_with_oracle(tmp_path, capsys):
    rng = np.random.default_rng(61)
    x, y = random_element(rng, 3, 2), random_element(rng, 3, 2)
    code = main(["rho", "--x", _write(tmp_path, "x.json", x),
                 "--y", _write(tmp_path, "y.json", y), "--oracle"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["max_abs_difference"] <= doc["oracle"]["tolerance"]


def test_rho_command_oracle_exit_code_follows_tol(tmp_path, capsys):
    rng = np.random.default_rng(63)
    x, y = random_element(rng, 3, 3), random_element(rng, 3, 3)
    # the bound is tol ||x|| ||y||, so it holds at any scale of x and y
    args = ["rho", "--x", _write(tmp_path, "x.json", 1e-100 * x),
            "--y", _write(tmp_path, "y.json", y), "--oracle"]
    assert main(args) == 0
    diff = json.loads(capsys.readouterr().out)["oracle"]["max_abs_difference"]
    assert 0.0 < diff <= 1e-5 * 1e-100 * module_norm(x) * module_norm(y)
    assert main(args + ["--tol", "1e-12"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle"]["tolerance"] == 1e-12
    assert doc["oracle"]["max_abs_difference"] == diff


def test_ortho_command_exit_codes(tmp_path, capsys):
    t = _write(tmp_path, "t.json", T)
    r = _write(tmp_path, "r.json", R)
    assert main(["ortho", "--relation", "bj-strong", "--x", t, "--y", r]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True and doc["witness"]["type"] == "state"

    assert main(["ortho", "--relation", "rho", "--x", t, "--y", r]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False


def test_ortho_command_zero_direction(tmp_path, capsys):
    x = _write(tmp_path, "x.json", random_element(np.random.default_rng(62), 2, 2))
    z = _write(tmp_path, "z.json", np.zeros((2, 2)))
    assert main(["ortho", "--relation", "ip", "--x", x, "--y", z]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_ortho_command_parallel_witness(tmp_path, capsys):
    x = random_element(np.random.default_rng(63), 3, 3)
    assert main(["ortho", "--relation", "parallel",
                 "--x", _write(tmp_path, "x.json", x),
                 "--y", _write(tmp_path, "y.json", x)]) == 0
    doc = json.loads(capsys.readouterr().out)
    xi = doc["witness"]["value"]
    assert xi[0] == pytest.approx(1.0, abs=1e-6)


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rho", "--x", str(bad), "--y", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["rho", "--x", str(missing), "--y", str(missing)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]]}))
    assert main(["rho", "--x", str(schema), "--y", str(schema)]) == 2


def test_bool_shape_fields_are_a_parse_error(tmp_path, capsys):
    # JSON true is a Python int; as a shape it is rejected, not reshaped
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"rows": True, "cols": True, "entries": [[2.0, 0.0]]}))
    assert main(["rho", "--x", str(bad), "--y", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: rows and cols must be positive integers")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["rho", "--oracle"], ["ortho", "--relation", "bj"],
                                     ["daugavet"]], ids=["rho", "ortho", "daugavet"])
def test_every_tol_option_is_checked(tmp_path, capsys, command, tol):
    x = _write(tmp_path, "x.json", np.eye(2))
    y = ["--y", x] if command[0] != "daugavet" else []
    assert main([*command, "--x", x, *y, "--tol", tol]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    assert list(doc) == ["error"] and doc["error"].startswith("tol must be finite and >= 0")


def test_shape_mismatch_exit_code(tmp_path, capsys):
    x = _write(tmp_path, "x.json", np.eye(2))
    y = _write(tmp_path, "y.json", np.eye(3))
    assert main(["rho", "--x", x, "--y", y]) == 3
    doc = json.loads(capsys.readouterr().out)  # still valid JSON
    assert "error" in doc


def test_daugavet_command(tmp_path, capsys):
    x = _write(tmp_path, "x.json", np.diag([2.0, 1.0]))
    assert main(["daugavet", "--x", x, "--alpha", "1", "--beta", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["module"]["lhs"] == pytest.approx(10.0)
    assert doc["operator"]["norm"] == pytest.approx(2.0)
    assert doc["operator"]["cube_norm"] == pytest.approx(8.0)
    assert doc["operator"]["sum_norm"] == pytest.approx(10.0)
    assert abs(abs(complex(*doc["operator"]["vector"][0])) - 1.0) <= 1e-12


def test_daugavet_command_tol_reaches_every_check(tmp_path, capsys):
    x = _write(tmp_path, "x.json", random_element(np.random.default_rng(1), 3, 3))
    assert main(["daugavet", "--x", x, "--tol", "1e-30"]) == 1
    doc = json.loads(capsys.readouterr().out)
    for section in ("module", "cube_identity", "operator"):
        assert doc[section]["tol"] == 1e-30


def test_daugavet_command_zero_matrix(tmp_path, capsys):
    x = _write(tmp_path, "x.json", np.zeros((2, 2)))
    assert main(["daugavet", "--x", x]) == 0
    assert json.loads(capsys.readouterr().out)["operator"] is None


def test_daugavet_command_rejects_bad_scalars(tmp_path, capsys):
    x = _write(tmp_path, "x.json", np.eye(2))
    assert main(["daugavet", "--x", x, "--alpha", "-1"]) == 2


def test_check_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "rho-p1,two-by-two-reference",
                 "--seed", "0", "--trials", "10", "--json-out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert json.loads(out.read_text()) == doc


def test_check_command_unknown_property(capsys):
    assert main(["check", "--suite", "bogus"]) == 2


def test_check_command_prints_the_suite_json(monkeypatch, capsys):
    report = SuiteReport(seed=0, trials=1,
                         results=(PropertyResult("rho-p1", 1, 0, 0.5, seconds=0.25),))
    monkeypatch.setattr(cli, "property_suite", lambda **kwargs: report)
    assert main(["check", "--trials", "1"]) == 0
    assert capsys.readouterr().out == report.to_json() + "\n"


_MATRIX_KEYS = ["rows", "cols", "entries"]


def _assert_state(witness):
    assert list(witness) == ["type", "density"] and witness["type"] == "state"
    assert list(witness["density"]) == _MATRIX_KEYS


def test_rho_document_schema(tmp_path, capsys):
    rng = np.random.default_rng(65)
    assert main(["rho", "--x", _write(tmp_path, "x.json", random_element(rng, 3, 2)),
                 "--y", _write(tmp_path, "y.json", random_element(rng, 3, 2)), "--oracle"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["rho_plus", "rho_minus", "rho_mid", "max_witness", "min_witness",
                         "oracle"]
    _assert_state(doc["max_witness"])
    _assert_state(doc["min_witness"])
    assert list(doc["oracle"]) == ["rho_plus_fd", "rho_minus_fd", "max_abs_difference",
                                   "tolerance"]


_DATA_KEYS = {
    "ip": ["inner_product_norm"],
    "bj": ["support_min", "certificate_residual"],
    "bj-real": ["rho_plus", "rho_minus"],
    "bj-strong": ["annihilation_value"],
    "rho": ["rho_plus", "rho_minus"],
    "parallel": ["max_norm", "angle", "numerical_radius", "face_dim"],
}


@pytest.mark.parametrize("relation", sorted(_DATA_KEYS))
def test_ortho_document_schema(tmp_path, capsys, relation):
    # an orthogonal pair, a zero direction and a parallel pair, on which
    # bj both holds and fails
    x = random_element(np.random.default_rng(66), 3, 3)
    for a, b in ((T, R), (x, np.zeros((3, 3))), (x, 2j * x)):
        code = main(["ortho", "--relation", relation, "--x", _write(tmp_path, "a.json", a),
                     "--y", _write(tmp_path, "b.json", b)])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["relation", "holds", "margin", "tol", "witness", "data"]
        assert doc["relation"] == relation and code == (0 if doc["holds"] else 1)
        data = _DATA_KEYS[relation]
        if relation == "bj" and not doc["holds"]:
            data = ["support_min", "separating_angle"]
        assert list(doc["data"]) == data
        witness = doc["witness"]
        if not doc["holds"] or relation in ("ip", "rho"):
            assert witness is None
        elif relation == "parallel":
            assert list(witness) == ["type", "value"] and witness["type"] == "unimodular"
            assert len(witness["value"]) == 2
        else:
            _assert_state(witness)


def test_daugavet_document_schema(tmp_path, capsys):
    x = random_element(np.random.default_rng(67), 3, 2)
    for a in (x, np.zeros((3, 2))):
        assert main(["daugavet", "--x", _write(tmp_path, "x.json", a)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["module", "cube_identity", "operator"]
        assert list(doc["module"]) == ["alpha", "beta", "lhs", "rhs", "residual",
                                       "cube_norm_residual", "within_tol", "tol"]
        assert list(doc["cube_identity"]) == ["rho_plus", "rho_minus", "norm_fourth",
                                              "max_deviation", "witness_square_residual",
                                              "within_tol", "tol"]
    assert doc["operator"] is None
    main(["daugavet", "--x", _write(tmp_path, "x.json", x)])
    op = json.loads(capsys.readouterr().out)["operator"]
    assert list(op) == ["vector", "norm", "cube_norm", "sum_norm", "attainment_residual",
                        "cube_attainment_residual", "alignment_residual", "equation_residual",
                        "within_tol", "tol", "note"]
    assert len(op["vector"]) == 2 and all(len(v) == 2 for v in op["vector"])


@pytest.mark.parametrize("case", ["unknown-property", "empty-suite", "blank-suite",
                                  "no-trials", "infinite-entry",
                                  "cube-beyond-range", "no-convergence", "unwritable-json-out"])
def test_value_errors_print_one_json_document(tmp_path, capsys, monkeypatch, case):
    inf = tmp_path / "inf.json"
    inf.write_text('{"rows": 1, "cols": 1, "entries": [[Infinity, 0]]}')
    x = _write(tmp_path, "x.json", np.eye(2))

    def no_convergence(*args, **kwargs):
        raise NoConvergence("difference quotients did not settle")

    monkeypatch.setattr(cli, "rho_fd", no_convergence)
    args = {
        "unknown-property": ["check", "--suite", "bogus"],
        "empty-suite": ["check", "--suite", ""],
        "blank-suite": ["check", "--suite", ","],
        "no-trials": ["check", "--trials", "0"],
        "infinite-entry": ["rho", "--x", str(inf), "--y", x],
        "cube-beyond-range": ["daugavet", "--x", _write(tmp_path, "big.json", 1e120 * np.eye(2))],
        "no-convergence": ["rho", "--x", x, "--y", x, "--oracle"],
        "unwritable-json-out": ["rho", "--x", x, "--y", x,
                                "--json-out", str(tmp_path / "missing" / "out.json")],
    }[case]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    assert list(doc) == ["error"] and doc["error"]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_out_of_range_values_print_strict_json(tmp_path, capsys):
    # rho_plus of two 1e200-scaled 3x3 elements is past the double range,
    # which JSON cannot hold: the command fails with one error document
    rng = np.random.default_rng(3)
    x = _write(tmp_path, "x.json", 1e200 * random_element(rng, 3, 3))
    y = _write(tmp_path, "y.json", 1e200 * random_element(rng, 3, 3))
    for args in (["rho"], ["ortho", "--relation", "rho"]):
        code = main([*args, "--x", x, "--y", y])
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 2 and list(doc) == ["error"]
