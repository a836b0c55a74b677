"""Command line interface, exercised through cli.main."""

import importlib.util
import json
from pathlib import Path

import pytest

from qlrc import BoundInput, cli, sphere_packing_like
from qlrc.gf import field_from_json
from qlrc.linear_codes import code_from_json, code_to_json


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_preset_table(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--preset", "ex1")
    assert rc == 0
    assert "[15, 8, 3]_5" in out
    assert "[[15, 1, 6]]_5" in out
    assert "(2, 2)" in out
    assert "impure      true" in out


def test_construct_preset_json(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--preset", "ex1",
                         "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["grid"]["k"] == 8
    assert data["css"]["k"] == 1
    assert data["css"]["d"] == 6
    assert set(data["grid"]) == {
        "H", "V", "q", "a", "b", "field", "delta", "n", "k",
        "d_formula", "coset_d_formula", "locality", "impure",
    }


def test_construct_bruteforce_oracle_line(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--preset", "rem3",
                         "--mode", "bruteforce")
    assert rc == 0
    assert "[[9, 1, 4]]_3" in out
    assert "oracle" in out


def test_construct_explicit_params(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--q", "8", "--H", "8",
                         "--V", "8", "--a", "1", "--b", "1")
    assert rc == 0
    assert "[64, 34, 6]_8" in out
    assert "[[64, 4, 16]]_8" in out
    assert "(5, 4)" in out


def test_construct_modulus_and_alpha_forms(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--q", "9", "--H", "3",
                         "--V", "3", "--a", "0", "--b", "0",
                         "--modulus", "1,0,1", "--alpha", "x+1")
    assert rc == 0
    assert "alpha=4" in out
    rc2, out2, _ = run_cli(capsys, "construct", "--q", "8", "--H", "8",
                           "--V", "8", "--a", "1", "--b", "1",
                           "--modulus", "x3+x+1")
    assert rc2 == 0
    assert "[64, 34, 6]_8" in out2


def test_construct_error_exits(capsys):
    rc, _, err = run_cli(capsys, "construct", "--q", "5", "--H", "4",
                         "--V", "3", "--a", "0", "--b", "0")
    assert rc == 2
    assert "error:" in err
    rc2, _, err2 = run_cli(capsys, "construct", "--preset", "ex1",
                           "--q", "5")
    assert rc2 == 2
    rc3, _, err3 = run_cli(capsys, "construct", "--preset", "ex1",
                           "--budget", "100")
    assert rc3 == 2
    assert "budget" in err3


def test_construct_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("QLRC_BUDGET", "10")
    rc, _, err = run_cli(capsys, "construct", "--preset", "rem3",
                         "--mode", "bruteforce")
    assert rc == 3
    assert err == ("error: (q=3,H=3,V=3,a=0,b=0) enumeration of 3^5 = 243 "
                   "codewords exceeds budget 10\n")


@pytest.mark.parametrize("strategy", ["grid_lines", "exhaustive"])
def test_verify_locality_budget_error_names_the_instance(capsys, strategy):
    rc, _, err = run_cli(capsys, "verify-locality", "--preset", "ex1",
                         "--strategy", strategy, "--budget", "10")
    assert rc == 3
    assert err.startswith("error: (q=5,H=5,V=3,a=0,b=0) enumeration of 5^")
    assert "exceeds budget 10" in err


def test_argparse_error_is_exit_2(capsys):
    rc, _, _ = run_cli(capsys, "construct", "--preset", "nope")
    assert rc == 2
    rc2, _, _ = run_cli(capsys, "no-such-command")
    assert rc2 == 2


def test_bounds_table(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--n", "15", "--k", "1",
                         "--d", "6", "--q", "5", "--r", "2")
    assert rc == 0
    assert "75/13" in out
    assert "violated" in out
    assert "qsingleton" in out


def test_bounds_json_rational_encoding(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--n", "15", "--k", "1",
                         "--d", "6", "--q", "5", "--r", "2",
                         "--format", "json")
    assert rc == 0
    reports = {rep["bound"]: rep for rep in json.loads(out)}
    assert reports["plotkin"]["rhs"] == {"num": 75, "den": 13}
    assert reports["qsingleton"]["lhs"] == 17


def test_bounds_single_bound_flag(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--n", "64", "--k", "4",
                         "--d", "16", "--q", "8", "--r", "5",
                         "--delta", "4", "--bound", "qsingleton")
    assert rc == 0
    assert "68" in out
    assert "violated" in out
    assert "plotkin" not in out


def test_sweep_json_lines(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--mode", "thm4",
                           "--q", "3,5", "--format", "json")
    assert rc == 0
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert len(lines) == 3
    assert all(row["mode"] == "thm4" for row in lines)
    assert "rows=3 failures=0 skipped=0" in err


def test_sweep_table(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--mode", "thm4", "--q", "5")
    assert rc == 0
    assert "[[15, 1, 6]]_5" in out


def test_sweep_failure_exit(capsys, monkeypatch):
    import qlrc.verifier as verifier

    def boom(row):
        raise verifier.AssertionFailed("forced failure")

    monkeypatch.setattr(verifier, "_assert_thm4", boom)
    rc, _, err = run_cli(capsys, "sweep", "--mode", "thm4", "--q", "3")
    assert rc == 4
    rc2, _, err2 = run_cli(capsys, "sweep", "--mode", "thm4", "--q", "3",
                           "--collect")
    assert rc2 == 4
    assert "FAIL" in err2


def test_verify_locality_table(capsys):
    rc, out, _ = run_cli(capsys, "verify-locality", "--preset", "ex1",
                         "--r", "2", "--delta", "2")
    assert rc == 0
    assert "entries=15" in out
    assert "strategy=grid_lines" in out


def test_verify_locality_json_defaults(capsys):
    rc, out, _ = run_cli(capsys, "verify-locality", "--preset", "ex1",
                         "--format", "json")
    assert rc == 0
    entries = json.loads(out)
    assert len(entries) == 15
    assert entries[0]["coordinate"] == 0
    assert entries[0]["punctured_distance"] == 2


def test_verify_locality_exhaustive(capsys):
    rc, out, _ = run_cli(capsys, "verify-locality", "--preset", "rem3",
                         "--strategy", "exhaustive")
    assert rc == 0
    assert "strategy=exhaustive" in out


def test_lemma_table(capsys):
    rc, out, _ = run_cli(capsys, "lemma", "--m", "2")
    assert rc == 0
    assert "[8, 5]_2" in out
    assert "min=4 max=4" in out


def test_lemma_json(capsys):
    rc, out, _ = run_cli(capsys, "lemma", "--m", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["n"] == 12
    assert data["k"] == 8
    assert data["dual_self_orthogonal"] is True
    assert data["coset_weight_min"] == 6
    assert data["coset_weight_max"] == 6
    assert len(data["certificate"]) == 12


def test_json_roundtrip_through_cli(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--preset", "ex1",
                         "--format", "json")
    assert rc == 0
    field = field_from_json(json.loads(out)["grid"]["field"])
    assert field.q == 5


def test_code_json_roundtrip():
    from qlrc import build_code, make_delta_params, make_field, make_grid_params

    grid = make_grid_params(5, 3, make_field(5))
    code = build_code(grid, make_delta_params(grid, 0, 0)).code
    assert code_from_json(code_to_json(code)) == code


_BIG_BALL = ("bounds", "--n", "1281", "--k", "1", "--d", "341", "--q", "61",
             "--r", "31", "--bound", "sphere_packing")


def test_bounds_prints_integers_past_the_digit_limit(capsys):
    # rhs runs past Python's default int-to-str limit of 4300 digits
    expected = sphere_packing_like(BoundInput(n=1281, k=1, d=341, q=61, r=31))
    assert expected.rhs > 10**4300
    rc, out, err = run_cli(capsys, *_BIG_BALL, "--format", "json")
    assert rc == 0, err
    (rep,) = json.loads(out)
    assert rep["rhs"] == expected.rhs
    assert rep["lhs"] == expected.lhs
    rc, out, err = run_cli(capsys, *_BIG_BALL, "--format", "table")
    assert rc == 0, err
    assert str(expected.rhs) in out


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_reproduce_examples_script(capsys, fmt):
    script = _load_script("reproduce_examples")
    assert script.main(["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.count("== ") == len(script.SECTIONS)
