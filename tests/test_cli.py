"""Command-line interface: file format, subcommands, exit codes."""

import json

import numpy as np
import pytest

from rhoperp import module_norm
from rhoperp.cli import load_matrix, main, matrix_payload, save_matrix
from rhoperp.verify import incomparability_triple, random_element

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
