"""Command line front end.

Subcommands: construct, bounds, sweep, verify-locality, lemma.
Exit codes: 0 success, 2 invalid parameters, 3 budget exhausted,
4 an internal consistency check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundInput, evaluate_all
from .css import css_from_grid, css_record_to_json
from .errors import BudgetError, InternalCheckError, InvalidParameter
from .gf import check_field_order, make_field, split_prime_power
from .grid_codes import (build_code, instance_label, make_delta_params,
                         make_grid_params, record_to_json)
from .linear_codes import contains
from .lrc import (certify_dual_words, certify_grid_lines, certify_locality, coset_words,
                  heavy_row_check, lemma_family)
from .verifier import SweepSpec, prime_powers, render_rows_table, run_sweep

PRESETS = {
    "ex1": {"q": 5, "H": 5, "V": 3, "a": 0, "b": 0, "alpha": 2, "modulus": None},
    "ex1e": {"q": 8, "H": 8, "V": 8, "a": 1, "b": 1, "alpha": 2,
             "modulus": (1, 1, 0, 1)},
    "rem3": {"q": 3, "H": 3, "V": 3, "a": 0, "b": 0, "alpha": 2, "modulus": None},
}
# The ex2 and ex2e presets name the same instances as ex1 and ex1e.
PRESETS["ex2"] = PRESETS["ex1"]
PRESETS["ex2e"] = PRESETS["ex1e"]

_TERM = re.compile(r"^(\d*)x(\d*)$")


def _parse_poly(text: str) -> tuple[int, ...]:
    """Coefficients low-first, from '1,1,0,1' or 'x3+x+1' style input."""
    s = text.strip().lower().replace(" ", "").replace("^", "").replace("**", "")
    if not s:
        raise InvalidParameter("empty polynomial")
    if "x" not in s:
        try:
            return tuple(int(c) for c in s.split(","))
        except ValueError as exc:
            raise InvalidParameter(f"cannot parse polynomial {text!r}") from exc
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise InvalidParameter(f"cannot parse polynomial {text!r}")
        if "x" not in term:
            try:
                coeffs[0] = coeffs.get(0, 0) + int(term)
            except ValueError as exc:
                raise InvalidParameter(f"cannot parse polynomial {text!r}") from exc
            continue
        match = _TERM.match(term)
        if not match:
            raise InvalidParameter(f"cannot parse polynomial {text!r}")
        c = int(match.group(1)) if match.group(1) else 1
        deg = int(match.group(2)) if match.group(2) else 1
        coeffs[deg] = coeffs.get(deg, 0) + c
    top = max(coeffs)
    return tuple(coeffs.get(i, 0) for i in range(top + 1))


def _parse_alpha(text: str, p: int) -> int:
    s = text.strip()
    if "," in s or "x" in s.lower():
        coeffs = _parse_poly(s)
        value = 0
        for c in reversed(coeffs):
            value = value * p + (c % p)
        return value
    try:
        return int(s)
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse element {text!r}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse integer list {text!r}") from exc


def _rat_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _kv_table(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


def _add_instance_flags(sp) -> None:
    sp.add_argument("--preset", choices=sorted(PRESETS))
    sp.add_argument("--q", type=int)
    sp.add_argument("--H", type=int)
    sp.add_argument("--V", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--alpha", help="primitive element (encoding or coeffs)")
    sp.add_argument("--modulus", help="field modulus ('x3+x+1' or '1,1,0,1')")


def _add_format_flag(sp) -> None:
    sp.add_argument("--format", choices=("table", "json"), default="table")


def _construct_flags(sp) -> None:
    _add_instance_flags(sp)
    sp.add_argument("--mode", choices=("formula", "bruteforce"), default="formula")
    sp.add_argument("--budget", type=int)
    _add_format_flag(sp)


def _bounds_flags(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--delta", type=int, default=2)
    sp.add_argument("--bound", help="restrict to one bound id")
    _add_format_flag(sp)


def _sweep_flags(sp) -> None:
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
    _add_format_flag(sp)


def _verify_locality_flags(sp) -> None:
    _add_instance_flags(sp)
    sp.add_argument("--r", dest="loc_r", type=int)
    sp.add_argument("--delta", dest="loc_delta", type=int)
    sp.add_argument("--strategy", choices=("grid_lines", "exhaustive"),
                    default="grid_lines")
    sp.add_argument("--budget", type=int)
    _add_format_flag(sp)


def _lemma_flags(sp) -> None:
    sp.add_argument("--m", type=int, required=True)
    _add_format_flag(sp)


def _build_record(args):
    explicit = [args.q, args.H, args.V, args.a, args.b]
    if args.preset is not None:
        if any(v is not None for v in explicit):
            raise InvalidParameter(
                "--preset conflicts with explicit --q/--H/--V/--a/--b")
        conf = dict(PRESETS[args.preset])
    else:
        if any(v is None for v in explicit):
            raise InvalidParameter(
                "need --preset or all of --q --H --V --a --b")
        conf = {"q": args.q, "H": args.H, "V": args.V, "a": args.a, "b": args.b,
                "alpha": None, "modulus": None}
    check_field_order(conf["q"])
    p, m = split_prime_power(conf["q"])
    modulus = conf.get("modulus")
    if args.modulus is not None:
        modulus = _parse_poly(args.modulus)
    alpha = conf.get("alpha")
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha, p)
    field = make_field(p, m, modulus=modulus, primitive=alpha)
    grid = make_grid_params(conf["H"], conf["V"], field)
    dp = make_delta_params(grid, conf["a"], conf["b"])
    return build_code(grid, dp)


@contextmanager
def _naming_budget_errors(rec):
    """Budget errors start with the instance, as construction errors do."""
    try:
        yield
    except BudgetError as exc:
        raise type(exc)(f"{instance_label(rec.grid, rec.dp)} {exc}") from exc


def _cmd_construct(args) -> int:
    if args.mode == "formula" and args.budget is not None:
        raise InvalidParameter("--budget only applies to --mode bruteforce")
    rec = _build_record(args)
    with _naming_budget_errors(rec):
        css = css_from_grid(rec, distance_mode=args.mode, budget=args.budget)
    if args.format == "json":
        _print_json({"grid": record_to_json(rec), "css": css_record_to_json(css)})
        return 0
    field = rec.grid.field
    pairs = [
        ("field", f"GF({field.q}), p={field.p}, m={field.m}, "
                  f"modulus={list(field.modulus)}, alpha={field.primitive}"),
        ("grid", f"H={rec.grid.H} V={rec.grid.V} a={rec.dp.a} b={rec.dp.b}"),
        ("classical", f"[{rec.n}, {rec.k}, {rec.d_formula}]_{field.q}"),
        ("coset d", str(rec.coset_d_formula)),
        ("css", f"[[{css.n}, {css.k}, {css.d}]]_{css.q}"),
        ("locality", f"({rec.locality[0]}, {rec.locality[1]})"),
        ("impure", str(rec.impure).lower()),
        ("pure", str(css.pure).lower()),
        ("plain dual", str(rec.plain_dual).lower()),
        ("mode", css.distance_mode),
    ]
    if "oracle_agreement" in css.source:
        pairs.append(("oracle", "d and coset d agree with the closed forms"))
    print(_kv_table(pairs))
    return 0


def _cmd_bounds(args) -> int:
    inp = BoundInput(n=args.n, k=args.k, d=args.d, q=args.q,
                     r=args.r, delta=args.delta)
    reports = evaluate_all(inp, only=args.bound)
    if args.format == "json":
        _print_json([rep.to_json() for rep in reports.values()])
        return 0
    rows = [("bound", "lhs", "rhs", "verdict", "slack", "detail")]
    for rep in reports.values():
        detail = ""
        if "ell" in rep.detail:
            detail = f"ell={rep.detail['ell']}"
        rows.append((rep.bound_id, _rat_str(rep.lhs), _rat_str(rep.rhs),
                     rep.verdict, _rat_str(rep.slack), detail))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def _cmd_sweep(args) -> int:
    if args.q is not None:
        q_values = _parse_int_list(args.q)
    else:
        check_field_order(args.qmax)
        q_values = prime_powers(args.qmax)
    spec = SweepSpec(
        mode=args.mode,
        q_values=q_values,
        H_values=_parse_int_list(args.H) if args.H is not None else None,
        V_values=_parse_int_list(args.V) if args.V is not None else None,
        a_values=_parse_int_list(args.a) if args.a is not None else None,
        b_values=_parse_int_list(args.b) if args.b is not None else None,
        H_max=args.hmax,
        V_max=args.vmax,
        budget=args.budget,
        collect=args.collect,
        jobs=args.jobs,
    )
    result = run_sweep(spec)
    if args.format == "json":
        for row in result.rows:
            print(json.dumps(row.to_json()))
    else:
        print(render_rows_table(result.rows))
    print(f"rows={len(result.rows)} failures={len(result.failures)} "
          f"skipped={result.skipped}", file=sys.stderr)
    for inst, message in result.failures:
        print(f"FAIL {inst}: {message}", file=sys.stderr)
    return 4 if result.failures else 0


def _cmd_verify_locality(args) -> int:
    rec = _build_record(args)
    r = args.loc_r if args.loc_r is not None else rec.locality[0]
    delta = args.loc_delta if args.loc_delta is not None else rec.locality[1]
    if args.strategy == "grid_lines":
        cert = certify_grid_lines(rec, r, delta)
    else:
        with _naming_budget_errors(rec):
            cert = certify_locality(rec.code, r, delta, budget=args.budget)
    if args.format == "json":
        _print_json(cert.to_json())
        return 0
    print(f"certificate  strategy={cert.strategy} r={cert.r} "
          f"delta={cert.delta} entries={len(cert.entries)}")
    for e in cert.entries:
        repair = "{" + ", ".join(str(c) for c in e.repair_set) + "}"
        dist = "inf" if e.punctured_distance is None else str(e.punctured_distance)
        print(f"coordinate {e.coordinate:>3}  repair {repair}  punctured_d {dist}")
    return 0


def _cmd_lemma(args) -> int:
    fam = lemma_family(args.m)
    # C^perp is span(block rows) and its straddle coset.  The blocks are
    # disjoint, so a sum of j >= 2 of them weighs 4j > 4, and heavy_row_check
    # proves from the blocks that every coset word weighs 2m: the dual words
    # of weight <= r + 1 = 4 lie among the blocks, and the coset when
    # 2m <= 4.  The certificate checks each word against the generator
    # first, so a word outside the dual is reported as such.
    words = fam.block_rows
    if 2 * fam.m <= 4:
        words = np.vstack([words, coset_words(fam)])
    cert = certify_dual_words(fam.code, words, r=3)
    heavy = heavy_row_check(fam)
    # fam.code is the Euclidean dual of fam.dual_code, so the dual is
    # self-orthogonal exactly when the code contains it.
    self_orth = contains(fam.code, fam.dual_code)
    if args.format == "json":
        _print_json({
            "m": fam.m,
            "n": fam.code.n,
            "k": fam.code.k,
            "dual_k": fam.dual_code.k,
            "dual_self_orthogonal": self_orth,
            "coset_weight_min": heavy.min_weight,
            "coset_weight_max": heavy.max_weight,
            "coset_count": heavy.count,
            "certificate": cert.to_json(),
        })
        return 0
    pairs = [
        ("family", f"m={fam.m}"),
        ("code", f"[{fam.code.n}, {fam.code.k}]_2"),
        ("dual dimension", str(fam.dual_code.k)),
        ("dual self-orthogonal", str(self_orth).lower()),
        ("coset weights", f"min={heavy.min_weight} max={heavy.max_weight} "
                          f"over {heavy.count} vectors"),
        ("locality", f"r=3 delta=2 certified for all {fam.code.n} coordinates"),
    ]
    print(_kv_table(pairs))
    return 0


class Command(NamedTuple):
    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    handler: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "construct": Command("build a grid code and its CSS code",
                         _construct_flags, _cmd_construct),
    "bounds": Command("evaluate bounds on explicit parameters",
                      _bounds_flags, _cmd_bounds),
    "sweep": Command("check theorem claims over parameter ranges",
                     _sweep_flags, _cmd_sweep),
    "verify-locality": Command("certify (r, delta)-locality",
                               _verify_locality_flags, _cmd_verify_locality),
    "lemma": Command("examine the [4m, 3m-1] binary family",
                     _lemma_flags, _cmd_lemma),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The qlrc parser, with every subcommand or with `command` alone.

    A parser for one command prints the same usage line, because the
    subcommand metavar still lists them all.
    """
    parser = argparse.ArgumentParser(
        prog="qlrc",
        description="grid evaluation codes, CSS codes, locality, and bounds")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = tuple(_COMMANDS)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
        names = (command,)
    for name in names:
        _COMMANDS[name].add_flags(sub.add_parser(name, help=_COMMANDS[name].help))
    return parser


def main(argv=None) -> int:
    # exact bounds at q >= 41 print integers past the default 4300-digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command named first needs only its own flags
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command].handler(args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: it has read all it wanted, and
        # devnull takes the rest so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    run()
