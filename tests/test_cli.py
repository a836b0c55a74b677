"""Command line interface, exercised through cli.main."""

import dataclasses
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qlrc import BoundInput, cli, lrc, sphere_packing_like
from qlrc.gf import field_from_json


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


def _qlrc_process(argv, **kwargs):
    """`python -m qlrc` on this checkout's source, in a child process whose
    stdout is block-buffered, as in a shell pipeline."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "qlrc", *argv], env=env, **kwargs)


@pytest.mark.parametrize("argv", [
    "construct --q 1099511627776 --H 4 --V 4 --a 1 --b 1",
    "construct --q 1000000000000000003 --H 3 --V 3 --a 0 --b 0",
    "sweep --q 1000000000039 --H 3 --V 3",
])
def test_field_order_above_the_cap_exits_2(argv):
    # each of these used to spin in modulus search, trial division or a scan up to q
    proc = _qlrc_process(argv.split(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert out == ""
    assert err == f"error: field order {argv.split()[2]} exceeds the cap 2^20 = 1048576\n"


@pytest.mark.parametrize("m", [30, 200])
def test_lemma_past_2_to_the_24_exits_0(m):
    # the coset weights come from the blocks, so 2^m words cost nothing
    proc = _qlrc_process(["lemma", "--m", str(m), "--format", "json"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, "")
    data = json.loads(out)
    assert (data["n"], data["k"], data["coset_count"]) == (4 * m, 3 * m - 1, 2 ** m)
    assert data["coset_weight_min"] == data["coset_weight_max"] == 2 * m
    assert len(data["certificate"]) == 4 * m


@pytest.mark.parametrize("m", [201, 100000])
def test_lemma_m_above_the_cap_exits_2(m):
    # the cap is checked before the code is built, so even a huge m exits at once
    proc = _qlrc_process(["lemma", "--m", str(m)], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, out) == (2, "")
    assert err == f"error: m = {m} exceeds the cap 200\n"


def test_lemma_broken_family_is_exit_4(capsys, monkeypatch):
    build = cli.lemma_family

    def light_straddle(m):
        fam = build(m)
        return dataclasses.replace(fam, straddle_row=np.r_[0, fam.straddle_row[1:]])

    monkeypatch.setattr(cli, "lemma_family", light_straddle)
    rc, out, err = run_cli(capsys, "lemma", "--m", "3")
    assert (rc, out) == (4, "")
    assert err == "error: the straddle row weighs 1 on run 0, not 2\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--qmax", "1048577"),
    ("verify-locality", "--q", "1048583", "--H", "3", "--V", "3", "--a", "0", "--b", "0"),
])
def test_field_order_above_the_cap_exits_2_in_process(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: field order {argv[2]} exceeds the cap 2^20 = 1048576\n"


@pytest.mark.parametrize("argv,nbytes", [
    # about 240 kB of rows, several times a pipe's buffer, so a write is
    # still pending when the reader goes away
    ("sweep --q 13 --format json", 100),
    # 1.3 kB, written in one flush after the reader has gone
    ("lemma --m 2 --format json", 0),
])
def test_closed_stdout_exits_0_quietly(argv, nbytes):
    proc = _qlrc_process(argv.split(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(nbytes)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == nbytes
    assert err == b""


@pytest.mark.parametrize("strategy", ["exhaustive"])
def test_verify_locality_budget_error_names_the_instance(capsys, strategy):
    rc, _, err = run_cli(capsys, "verify-locality", "--preset", "ex1",
                         "--strategy", strategy, "--budget", "10")
    assert rc == 3
    assert err.startswith("error: (q=5,H=5,V=3,a=0,b=0) enumeration of 5^")
    assert "exceeds budget 10" in err


@pytest.mark.parametrize("inst", [(5, 5, 3, 0, 0), (9, 9, 9, 3, 3), (16, 16, 16, 7, 7),
                                  (64, 64, 64, 2, 2)],
                         ids=lambda inst: ",".join(map(str, inst)))
def test_verify_locality_grid_lines_enumerates_nothing(capsys, monkeypatch, inst,
                                                       no_generator_matrices):
    # column distances come from the Reed-Solomon argument and the column
    # ranks from Delta, so no budget applies and no matrix is reduced;
    # (9,9,9,3,3) would enumerate 9^8 words per column
    def refuse(*args):
        raise AssertionError("a column block was row-reduced")

    monkeypatch.setattr(lrc, "_reduce", refuse)
    q, H, V, a, b = inst
    start = time.monotonic()
    rc, out, err = run_cli(capsys, "verify-locality", "--q", str(q), "--H", str(H),
                           "--V", str(V), "--a", str(a), "--b", str(b),
                           "--budget", "10", "--format", "json")
    assert time.monotonic() - start < 10
    assert rc == 0, err
    entries = json.loads(out)
    assert len(entries) == H * V
    J = (V - 1 + 2 * b) // 2
    assert {e["punctured_distance"] for e in entries} == {V - J}


def test_verify_locality_grid_column_rank_failure_is_exit_4(capsys, monkeypatch,
                                                          without_top_band):
    build = cli.build_code
    monkeypatch.setattr(cli, "build_code", lambda grid, dp: without_top_band(build(grid, dp)))
    rc, _, err = run_cli(capsys, "verify-locality", "--preset", "ex1")
    assert rc == 4
    assert err == "error: (q=5,H=5,V=3,a=0,b=0) grid column 0 has rank 1, not J+1 = 2\n"


@pytest.mark.parametrize("argv", [
    ("construct", "--preset", "ex1e", "--format", "json"),
    # q^|Delta| far above the oracle budget on every row: no oracle runs
    ("sweep", "--mode", "all", "--q", "13", "--H", "13", "--V", "7,13",
     "--format", "json"),
], ids=["construct", "sweep"])
def test_formula_mode_builds_no_generator_matrix(capsys, request, argv):
    rc, expected, _ = run_cli(capsys, *argv)
    assert rc == 0
    request.getfixturevalue("no_generator_matrices")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert out == expected
    if argv[0] == "sweep":
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all(row["oracle"] is None for row in rows)


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
    # the seven other q = 5 instances lie outside thm4's hypothesis
    assert "rows=3 failures=0 skipped=7" in err


def test_sweep_table(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--mode", "thm4", "--q", "5")
    assert rc == 0
    assert "[[15, 1, 6]]_5" in out


def test_sweep_failure_exit(capsys, force_claim):
    force_claim("thm4")
    rc, _, err = run_cli(capsys, "sweep", "--mode", "thm4", "--q", "3")
    assert rc == 4
    rc2, _, err2 = run_cli(capsys, "sweep", "--mode", "thm4", "--q", "3",
                           "--collect")
    assert rc2 == 4
    assert "FAIL" in err2


def test_sweep_error_names_its_instance(capsys, force_claim):
    force_claim("thm3")
    rc, _, err = run_cli(capsys, "sweep", "--mode", "thm3", "--q", "5")
    assert rc == 4
    assert err.startswith("error: (q=5,H=3,V=3,a=0,b=0) forced failure")
    rc, _, err = run_cli(capsys, "sweep", "--mode", "thm3", "--q", "5", "--collect")
    assert rc == 4
    assert "FAIL (5, 3, 3, 0, 0): forced failure" in err.splitlines()


def test_theorem_sweep_counts_excluded_instances_as_skipped(capsys):
    # all three q = 5, V = 5, b = 1 instances break thm3's b = 0 hypothesis
    rc, out, err = run_cli(capsys, "sweep", "--mode", "thm3", "--q", "5",
                           "--V", "5", "--b", "1")
    assert rc == 0
    assert "rows=0 failures=0 skipped=3" in err


def test_sweep_repeated_a_values_print_one_row(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--mode", "all", "--q", "5", "--H", "5",
                           "--V", "3", "--a", "0,0", "--b", "0,0", "--format", "json")
    assert rc == 0, err
    assert [json.loads(line)["a"] for line in out.splitlines()] == [0]
    assert "rows=1 failures=0 skipped=0" in err


def test_sweep_counts_named_out_of_range_a_b_as_skipped(capsys):
    # (q, H, V) = (5, 5, 3) allows only a in {0, 1} and b = 0
    rc, out, err = run_cli(capsys, "sweep", "--mode", "all", "--q", "5", "--H", "5",
                           "--V", "3", "--a", "7", "--b", "0")
    assert rc == 0, err
    assert "rows=0 failures=0 skipped=1" in err
    rc, out, err = run_cli(capsys, "sweep", "--mode", "all", "--q", "5", "--H", "5",
                           "--V", "3", "--a", "0,7", "--b", "0,2", "--format", "json")
    assert rc == 0, err
    assert len(out.splitlines()) == 1
    assert "rows=1 failures=0 skipped=2" in err


@pytest.mark.parametrize("mode", ["thm3", "prop_impure", "rem_valid"])
def test_theorem_sweeps_keep_only_b_0(capsys, mode):
    # the theorems assume b = 0; only --mode all sweeps other b values
    rc, out, err = run_cli(capsys, "sweep", "--mode", mode, "--q", "5", "--V", "5",
                           "--b", "0,1", "--format", "json")
    assert rc == 0, err
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and {row["b"] for row in rows} == {0}


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
    if fmt == "table":
        assert "strategy=grid_lines" in out and "strategy=exhaustive" in out


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("qlrc ")]


def test_readme_has_usage_examples():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_usage_examples_run(capsys, line):
    rc, _, err = run_cli(capsys, *shlex.split(line)[1:])
    assert rc == 0, err
