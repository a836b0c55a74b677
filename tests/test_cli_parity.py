"""cli.main against a parser that builds every subcommand.

cli.main parses a command named first with that command's own parser, and
hands any leftover argument to the full parser; the reference below builds
all five subcommands, as every parse did before, and must print the same
help, usage and errors with the same exit codes.
"""

import argparse
import sys

import pytest

from qlrc import cli
from qlrc.errors import BudgetError, InternalCheckError, InvalidParameter


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlrc",
        description="grid evaluation codes, CSS codes, locality, and bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_flags(sp):
        sp.add_argument("--preset", choices=sorted(cli.PRESETS))
        sp.add_argument("--q", type=int)
        sp.add_argument("--H", type=int)
        sp.add_argument("--V", type=int)
        sp.add_argument("--a", type=int)
        sp.add_argument("--b", type=int)
        sp.add_argument("--alpha", help="primitive element (encoding or coeffs)")
        sp.add_argument("--modulus", help="field modulus ('x3+x+1' or '1,1,0,1')")

    def add_format_flag(sp):
        sp.add_argument("--format", choices=("table", "json"), default="table")

    sp = sub.add_parser("construct", help="build a grid code and its CSS code")
    add_instance_flags(sp)
    sp.add_argument("--mode", choices=("formula", "bruteforce"), default="formula")
    sp.add_argument("--budget", type=int)
    add_format_flag(sp)

    sp = sub.add_parser("bounds", help="evaluate bounds on explicit parameters")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--delta", type=int, default=2)
    sp.add_argument("--bound", help="restrict to one bound id")
    add_format_flag(sp)

    sp = sub.add_parser("sweep", help="check theorem claims over parameter ranges")
    sp.add_argument("--mode", default="all",
                    choices=("thm3", "thm4", "thm5", "prop_impure",
                             "rem_valid", "all"))
    sp.add_argument("--q", help="comma list of prime powers (overrides --qmax)")
    sp.add_argument("--qmax", type=int, default=13)
    sp.add_argument("--H", help="comma list of H values")
    sp.add_argument("--V", help="comma list of V values")
    sp.add_argument("--a", help="comma list of a values")
    sp.add_argument("--b", help="comma list of b values")
    sp.add_argument("--hmax", type=int)
    sp.add_argument("--vmax", type=int)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--collect", action="store_true",
                    help="keep going on failures and report them at the end")
    sp.add_argument("--budget", type=int,
                    help="enumeration cap for brute-force cross-checks")
    add_format_flag(sp)

    sp = sub.add_parser("verify-locality", help="certify (r, delta)-locality")
    add_instance_flags(sp)
    sp.add_argument("--r", dest="loc_r", type=int)
    sp.add_argument("--delta", dest="loc_delta", type=int)
    sp.add_argument("--strategy", choices=("grid_lines", "exhaustive"),
                    default="grid_lines")
    add_format_flag(sp)

    sp = sub.add_parser("lemma", help="examine the [4m, 3m-1] binary family")
    sp.add_argument("--m", type=int, required=True)
    add_format_flag(sp)

    return parser


def reference_main(argv) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = reference_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"construct": cli._cmd_construct, "bounds": cli._cmd_bounds,
                "sweep": cli._cmd_sweep, "verify-locality": cli._cmd_verify_locality,
                "lemma": cli._cmd_lemma}
    try:
        return handlers[args.command](args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


COMMANDS = ("construct", "bounds", "sweep", "verify-locality", "lemma")

CASES = [
    ["--help"],
    *([name, "--help"] for name in COMMANDS),
    ["sweep", "--bogus"],
    ["nope"],
    [],
    ["-h", "sweep"],
    ["sweep", "--mode", "foo"],
    ["bounds", "--n", "3"],
    ["construct", "--preset", "ex1", "--q", "5"],
    ["lemma", "--m", "2", "--format", "json"],
    ["construct", "--q", "abc"],
    ["verify-locality", "--preset", "ex1", "--budget", "10"],
    ["lemma", "--m", "2", "extra"],
    ["construct", "--form", "json", "--preset", "ex1"],
    ["sweep", "--", "--q", "5"],
    ["construct"],
    ["bounds"],
]


def test_reference_builds_the_commands_main_knows():
    assert tuple(cli._COMMANDS) == COMMANDS


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_main_matches_the_full_parser(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    expected_rc = reference_main(list(argv))
    expected = capsys.readouterr()
    rc = cli.main(list(argv))
    got = capsys.readouterr()
    assert (rc, got.out, got.err) == (expected_rc, expected.out, expected.err)
    assert expected.out or expected.err


# (COLUMNS, argv) in call order: each call must see none of the one before
SEQUENCE = [
    ("80", ["construct", "--preset", "ex1", "--format", "json"]),
    ("80", ["construct", "--q", "5", "--H", "5", "--V", "3", "--a", "0", "--b", "0",
            "--format", "json"]),
    ("80", ["sweep", "--q", "3", "--collect", "--format", "json"]),
    ("80", ["sweep", "--q", "3"]),
    ("80", ["construct", "--q", "abc"]),
    ("80", ["construct", "--preset", "rem3"]),
    ("60", ["construct", "--help"]),
    ("200", ["construct", "--help"]),
    ("60", ["construct", "--help"]),
]


def test_cached_parsers_carry_no_state_between_calls(capsys, monkeypatch):
    results = []
    for columns, argv in SEQUENCE:
        monkeypatch.setenv("COLUMNS", columns)
        expected_rc = reference_main(list(argv))
        expected = capsys.readouterr()
        rc = cli.main(list(argv))
        got = capsys.readouterr()
        assert (rc, got.out, got.err) == (expected_rc, expected.out, expected.err), argv
        results.append((rc, got.out))
    assert [rc for rc, _ in results] == [0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert results[3][1].startswith("mode ")
    assert results[6] == results[8] != results[7]
