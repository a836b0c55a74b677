"""Command line interface, exercised through cli.main."""

import argparse
import dataclasses
import importlib.util
import io
import json
import os
import select
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qlrc import BoundInput, cli, grid_codes, lrc, sphere_packing_like
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


@pytest.mark.parametrize("budget", ["0", "-1", "-5"])
def test_construct_budget_below_one_exits_2(capsys, monkeypatch, budget):
    # refused from the flags alone: no record is built, no word enumerated
    monkeypatch.setattr(cli, "build_grid_record", None)
    rc, out, err = run_cli(capsys, "construct", "--q", "5", "--H", "5", "--V", "3",
                           "--a", "0", "--b", "0", "--mode", "bruteforce",
                           "--budget", budget)
    assert (rc, out, err) == (2, "", f"error: need --budget >= 1, got {budget}\n")


def test_construct_budget_refusal_names_the_instance(capsys):
    rc, out, err = run_cli(capsys, "construct", "--q", "4", "--H", "4", "--V", "4",
                           "--a", "1", "--b", "1", "--mode", "bruteforce",
                           "--budget", "1000")
    assert (rc, out) == (3, "")
    assert err == ("error: (q=4,H=4,V=4,a=1,b=1) enumeration of 4^10 = 1048576 "
                   "codewords exceeds budget 1000\n")


def _patch_everywhere(monkeypatch, fn, replacement):
    """Replace fn at every qlrc module that holds it under some name."""
    for name, module in list(sys.modules.items()):
        if name == "qlrc" or name.startswith("qlrc."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def _bump_distances(dd, dc):
    """A patch: band_distances with d raised by dd and coset d by dc."""
    def patch(monkeypatch):
        original = grid_codes.band_distances

        def bumped(*args):
            d, coset_d = original(*args)
            return d + dd, coset_d + dc

        _patch_everywhere(monkeypatch, original, bumped)
    return patch


def _bump_size(monkeypatch):
    """closed_forms with |Delta| one larger, and the quantum dimension
    2|Delta| - n with it."""
    original = grid_codes.closed_forms

    def bumped(*args):
        forms = original(*args)
        return forms._replace(size=forms.size + 1, quantum_k=forms.quantum_k + 2)

    _patch_everywhere(monkeypatch, original, bumped)


# Every construct error from the grid checks on, with its exit code and its
# whole stderr; the proof failures are made by a patch.
_CONSTRUCT_ERRORS = {
    "H below 3": ("--q 5 --H 2 --V 3 --a 0 --b 0", None, 2,
                  "(q=5,H=2,V=3,a=0,b=0) need H >= 3 and V >= 3, got H=2, V=3"),
    "q = 2": ("--q 2 --H 3 --V 3 --a 0 --b 0", None, 2,
              "(q=2,H=3,V=3,a=0,b=0) need q >= 3, got q=2"),
    "H-1 divides no q-1": ("--q 5 --H 4 --V 3 --a 0 --b 0", None, 2,
                           "(q=5,H=4,V=3,a=0,b=0) H-1 = 3 does not divide q-1 = 4"),
    "V-1 divides no q-1": ("--q 5 --H 5 --V 4 --a 0 --b 1", None, 2,
                           "(q=5,H=5,V=4,a=0,b=1) V-1 = 3 does not divide q-1 = 4"),
    "work cap": ("--q 6689 --H 6689 --V 3 --a 0 --b 0", None, 2,
                 "(q=6689,H=6689,V=3,a=0,b=0) n*(H+V) = 134288364 exceeds the cap 134217728"),
    "a too large": ("--q 5 --H 5 --V 3 --a 2 --b 0", None, 2,
                    "(q=5,H=5,V=3,a=2,b=0) need 0 <= a < 2, got a=2"),
    "b too large": ("--q 5 --H 5 --V 3 --a 0 --b 1", None, 2,
                    "(q=5,H=5,V=3,a=0,b=1) need 0 <= b < 1, got b=1"),
    "d proof": ("--q 5 --H 5 --V 3 --a 0 --b 0", _bump_distances(1, 0), 4,
                "(q=5,H=5,V=3,a=0,b=0) band corners give d = 4, not the closed form 3"),
    "coset d proof": ("--q 5 --H 5 --V 3 --a 0 --b 0", _bump_distances(0, 1), 4,
                      "(q=5,H=5,V=3,a=0,b=0) band corners give coset d = 7, "
                      "not the closed form 6"),
    "dimension proof": ("--q 5 --H 5 --V 3 --a 0 --b 0", _bump_size, 4,
                        "(q=5,H=5,V=3,a=0,b=0) band tops give |Delta| = 8, "
                        "not the closed form 9"),
}


@pytest.mark.parametrize("case", _CONSTRUCT_ERRORS.values(), ids=_CONSTRUCT_ERRORS)
def test_construct_error_paths_keep_their_exit_and_stderr(capsys, monkeypatch, case):
    flags, patch, code, message = case
    if patch is not None:
        patch(monkeypatch)
    for fmt in ("table", "json"):
        rc, out, err = run_cli(capsys, "construct", *flags.split(), "--format", fmt)
        assert (rc, out, err) == (code, "", f"error: {message}\n")


def test_construct_takes_the_closed_forms_once(capsys, monkeypatch):
    calls = []
    original = grid_codes.closed_forms

    def counted(*args):
        calls.append(args)
        return original(*args)

    _patch_everywhere(monkeypatch, original, counted)
    rc, _, err = run_cli(capsys, "construct", "--preset", "ex1")
    assert (rc, err) == (0, "")
    assert calls == [(5, 3, 0, 0)]


def test_sweep_names_a_record_error_once(capsys, monkeypatch):
    # (3,3,3,0,0) runs its oracle, so sweep builds its record
    _bump_distances(1, 0)(monkeypatch)
    message = "(q=3,H=3,V=3,a=0,b=0) band corners give d = 4, not the closed form 3"
    rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--format", "json")
    assert (rc, out, err) == (4, "", f"error: {message}\n")
    rc, out, err = run_cli(capsys, "sweep", "--q", "3", "--format", "json", "--collect")
    assert rc == 4
    assert err == f"rows=1 failures=1 skipped=0\nFAIL (3, 3, 3, 0, 0): {message}\n"


@pytest.mark.parametrize("modulus, message", [
    ("x2+1", "modulus must be monic of degree 1, got (1, 0, 1)"),
    ("2x", "modulus must be monic of degree 1, got (0, 2)"),
    ("x+1", "GF(5) is defined modulo X = (0, 1), got the modulus (1, 1)"),
], ids=["degree 2", "not monic", "X + 1"])
def test_prime_field_refuses_a_modulus_other_than_x(capsys, modulus, message):
    rc, out, err = run_cli(capsys, "construct", "--q", "5", "--H", "5", "--V", "3",
                           "--a", "0", "--b", "0", "--modulus", modulus)
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    rc, out, err = run_cli(capsys, "construct", "--q", "5", "--H", "5", "--V", "3",
                           "--a", "0", "--b", "0", "--modulus", "x")
    assert (rc, err) == (0, "")
    assert "modulus=[0, 1]" in out


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _qlrc_process(argv, python_flags=(), **kwargs):
    """`python -m qlrc` on this checkout's source, in a child process whose
    stdout is block-buffered, as in a shell pipeline."""
    return subprocess.Popen([sys.executable, *python_flags, "-m", "qlrc", *argv],
                            env=_child_env(), **kwargs)


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


@pytest.mark.parametrize("argv", [
    "construct --q 65536 --H 65536 --V 65536 --a 1 --b 1",
    "verify-locality --q 1024 --H 1024 --V 1024 --a 1 --b 1",
])
def test_grid_above_the_work_cap_exits_2(argv):
    # the cap is checked before any grid table is built; these used to run for
    # minutes (side 1024) or without end (side 65536)
    proc = _qlrc_process(argv.split(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, out) == (2, "")
    q = int(argv.split()[2])
    assert err == (f"error: (q={q},H={q},V={q},a=1,b=1) n*(H+V) = {2 * q**3} "
                   f"exceeds the cap 134217728\n")


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
    # the pool and the row stream must close without a warning under -X dev,
    # and without waiting for the rest of the sweep
    ("sweep --q 13 --format json --jobs 2", 100),
])
def test_closed_stdout_exits_0_quietly(argv, nbytes):
    proc = _qlrc_process(argv.split(), python_flags=("-X", "dev"),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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


def test_verify_locality_takes_no_budget(capsys, monkeypatch):
    # no strategy enumerates a word, so there is no --budget, and QLRC_BUDGET
    # caps nothing
    rc, out, err = run_cli(capsys, "verify-locality", "--preset", "ex1", "--budget", "10")
    assert (rc, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --budget 10\n")
    monkeypatch.setenv("QLRC_BUDGET", "1")
    rc, out, err = run_cli(capsys, "verify-locality", "--preset", "ex1",
                           "--strategy", "exhaustive", "--format", "json")
    assert (rc, err) == (0, "")
    assert len(json.loads(out)) == 15


@pytest.mark.parametrize("argv, message", [
    ("construct --q 5 --H 5 --V 5 --a 5 --b 1",
     "(q=5,H=5,V=5,a=5,b=1) need 0 <= a < 2, got a=5"),
    ("construct --q 5 --H 4 --V 5 --a 1 --b 1",
     "(q=5,H=4,V=5,a=1,b=1) H-1 = 3 does not divide q-1 = 4"),
    ("verify-locality --q 5 --H 5 --V 5 --a 1 --b 1 --r 1 --delta 2",
     "(q=5,H=5,V=5,a=1,b=1) grid columns have 5 points, exceeding r+delta-1 = 2"),
    ("verify-locality --q 5 --H 5 --V 5 --a 1 --b 1 --r 3 --delta 4",
     "(q=5,H=5,V=5,a=1,b=1) column through coordinate 0 has punctured distance 2 < 4"),
    ("verify-locality --preset rem3 --strategy exhaustive --r 1 --delta 3",
     "(q=3,H=3,V=3,a=0,b=0) coordinate 0 admits no repair set of size <= 3 "
     "with punctured distance >= 3"),
], ids=["a range", "divisibility", "column width", "column distance", "exhaustive"])
def test_errors_name_their_instance(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv.split())
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("inst", [(5, 5, 3, 0, 0), (9, 9, 9, 3, 3), (16, 16, 16, 7, 7),
                                  (64, 64, 64, 2, 2)],
                         ids=lambda inst: ",".join(map(str, inst)))
def test_verify_locality_grid_lines_enumerates_nothing(capsys, monkeypatch, inst,
                                                       no_generator_matrices):
    # column distances come from the Reed-Solomon argument and the column
    # ranks from Delta, so no pivot step runs; (9,9,9,3,3) has 9^8 words
    # per column
    def refuse(*args):
        raise AssertionError("a pivot step ran on a column block")

    monkeypatch.setattr(lrc, "_eliminate", refuse)
    q, H, V, a, b = inst
    start = time.monotonic()
    rc, out, err = run_cli(capsys, "verify-locality", "--q", str(q), "--H", str(H),
                           "--V", str(V), "--a", str(a), "--b", str(b), "--format", "json")
    assert time.monotonic() - start < 10
    assert rc == 0, err
    entries = json.loads(out)
    assert len(entries) == H * V
    J = (V - 1 + 2 * b) // 2
    assert {e["punctured_distance"] for e in entries} == {V - J}


def test_verify_locality_grid_column_rank_failure_is_exit_4(capsys, monkeypatch,
                                                          with_band_hole):
    build = cli.build_grid_record
    monkeypatch.setattr(cli, "build_grid_record", lambda *args: with_band_hole(build(*args)))
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


# one valid call of each subcommand
_VALID_CALLS = {
    "construct": "construct --preset rem3",
    "bounds": "bounds --n 15 --k 1 --d 6 --q 5 --r 2",
    "sweep": "sweep --q 3",
    "verify-locality": "verify-locality --preset rem3",
    "lemma": "lemma --m 2",
}


def test_main_builds_each_subcommand_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._command_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert tuple(_VALID_CALLS) == tuple(cli._COMMANDS)
    for name, argv in _VALID_CALLS.items():
        for expected in ([f"qlrc {name}"], []):
            built.clear()
            assert run_cli(capsys, *argv.split())[0] == 0
            assert built == expected


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


@pytest.mark.parametrize("argv, env, err", [
    ("sweep --q 5,6", None, "6 is not a prime power"),
    ("sweep --q 5,1048583", None, "field order 1048583 exceeds the cap 2^20 = 1048576"),
    ("sweep --q 5", "abc", "QLRC_BUDGET must be an integer, got 'abc'"),
    ("sweep --q 5 --jobs 0", None, "need jobs >= 1, got jobs=0"),
    ("sweep --q 5 --budget 0", None, "need budget >= 1, got budget=0"),
    ("sweep --q 5 --budget -1", None, "need budget >= 1, got budget=-1"),
])
def test_sweep_exit_2_prints_no_row(capsys, monkeypatch, argv, env, err):
    # the q = 5 rows would come first, so every check runs before any row
    if env is not None:
        monkeypatch.setenv("QLRC_BUDGET", env)
    rc, out, stderr = run_cli(capsys, *argv.split(), "--format", "json")
    assert (rc, out) == (2, "")
    assert stderr == f"error: {err}\n"


def test_sweep_exit_4_keeps_the_rows_before_the_failure(capsys, force_claim):
    argv = ("sweep", "--mode", "all", "--q", "5", "--format", "json")
    rc, clean, _ = run_cli(capsys, *argv)
    assert rc == 0
    lines = clean.splitlines(keepends=True)
    # thm4 first applies at (5, 5, 3, 0, 0)
    failing = next(i for i, row in enumerate(map(json.loads, lines))
                   if (row["H"], row["V"]) == (5, 3))
    assert failing > 0
    force_claim("thm4")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 4
    assert out == "".join(lines[:failing])
    assert err == "error: (q=5,H=5,V=3,a=0,b=0) forced failure\n"


def test_sweep_writes_its_first_row_before_the_last_instance_runs(monkeypatch):
    import qlrc.verifier as verifier

    out = io.StringIO()
    written = []  # stdout length as each instance starts
    generic_row = verifier._generic_row

    def spy(*inst):
        written.append(len(out.getvalue()))
        return generic_row(*inst)

    monkeypatch.setattr(verifier, "_generic_row", spy)
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["sweep", "--mode", "all", "--q", "5,7", "--format", "json"]) == 0
    assert len(written) == out.getvalue().count("\n") > 2
    assert written[0] == 0 and written[1] > 0


_PEAK_RSS = """\
import sys
from qlrc import cli
rc = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(rc)
"""


def test_importing_the_cli_loads_no_process_pool():
    """The pool's modules load only when a sweep runs with --jobs > 1."""
    code = ("import sys, qlrc.cli\n"
            "print(*(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def _peak_rss_kib(argv):
    """The child's own peak RSS, in KiB.

    Neither getrusage view isolates it: RUSAGE_CHILDREN is the largest child
    this test process has reaped, and a child's RUSAGE_SELF keeps the peak of
    the forked copy of this process across exec.  VmHWM counts only the
    memory of the executed program.
    """
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.split()[-2])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_sweep_peak_memory_does_not_grow_with_its_rows():
    one_row = _peak_rss_kib(["sweep", "--q", "3", "--format", "json"])
    many_rows = _peak_rss_kib(["sweep", "--mode", "all", "--qmax", "32", "--format", "json"])
    assert many_rows - one_row < 6 * 1024


def test_sweep_at_the_field_order_cap_streams_its_first_row():
    proc = _qlrc_process(["sweep", "--qmax", "1048576", "--format", "json"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        data = b""
        while b"\n" not in data:
            left = deadline - time.monotonic()
            assert left > 0, "no row within 30 s"
            if select.select([proc.stdout], [], [], left)[0]:
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                assert chunk, f"stdout closed, exit {proc.wait()}"
                data += chunk
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    row = json.loads(data.split(b"\n", 1)[0])
    assert (row["q"], row["H"], row["V"], row["a"], row["b"]) == (3, 3, 3, 0, 0)


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
