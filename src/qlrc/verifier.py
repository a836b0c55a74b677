"""Parameter sweeps that check the closed-form claims of the grid family
against the bound evaluators, with optional brute-force cross-checks on
instances small enough to enumerate.

Modes:
  thm3        V odd, b = 0: quantum singleton violated with quantified slack
  thm4        V = 3, b = 0, H = q odd: griesmer-like bound violated
  thm5        V = 3, a = b = 0, H = q odd: plotkin-like bound violated,
              with a strictly decreasing profile binding at the largest ell
  prop_impure V odd, b = 0: the CSS code is impure
  rem_valid   H, V odd, b = 0: gg / luo / sphere-packing all hold
  all         every valid instance in range; reports every bound and applies
              each theorem layer on its hypothesis-matching subset

Every mode but all keeps only the b = 0 instances of its range.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .bounds import (
    BoundInput,
    BoundReport,
    VERDICT_VIOLATED,
    evaluate_all,
    griesmer_like,
    plotkin_like,
    plotkin_profile,
    q_singleton_pure,
    rational_to_json,
    thm3_slack_lower_bound,
)
from .css import css_from_grid
from .errors import (
    AssertionFailed,
    HypothesisViolated,
    InternalCheckError,
    InvalidParameter,
    ParamRangeViolated,
)
from .gf import make_field, split_prime_power
from .grid_codes import (
    build_code,
    coset_distance_formula,
    delta_size_formula,
    impurity_predicate,
    locality_formula,
    make_delta_params,
    make_grid_params,
    min_distance_formula,
    quantum_dimension_formula,
    valid_a_values,
    valid_b_values,
)
from .linear_codes import (
    coset_min_weight_bruteforce,
    default_budget,
    min_distance_bruteforce,
)

_MODES = ("thm3", "thm4", "thm5", "prop_impure", "rem_valid", "all")
_ORACLE_BUDGET = 1 << 16


def prime_powers(limit: int, start: int = 3) -> tuple[int, ...]:
    """All prime powers q with start <= q <= limit."""
    out = []
    for q in range(max(start, 2), limit + 1):
        try:
            split_prime_power(q)
        except InvalidParameter:
            continue
        out.append(q)
    return tuple(out)


@dataclass(frozen=True)
class SweepSpec:
    mode: str = "all"
    q_values: tuple[int, ...] = ()
    H_values: tuple[int, ...] | None = None
    V_values: tuple[int, ...] | None = None
    a_values: tuple[int, ...] | None = None
    b_values: tuple[int, ...] | None = None
    H_max: int | None = None
    V_max: int | None = None
    budget: int | None = None  # oracle threshold on q**|Delta|; None = env/default
    collect: bool = False
    jobs: int = 1


@dataclass
class VerdictRow:
    mode: str
    q: int
    H: int
    V: int
    a: int
    b: int
    n: int
    k: int
    k_classical: int
    d: int
    d_classical: int
    r: int
    delta: int
    impure: bool
    reports: dict = dc_field(default_factory=dict)
    oracle: dict | None = None
    ok: bool = True
    message: str = ""

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "q": self.q, "H": self.H, "V": self.V, "a": self.a, "b": self.b,
            "n": self.n, "k": self.k, "k_classical": self.k_classical,
            "d": self.d, "d_classical": self.d_classical,
            "r": self.r, "delta": self.delta,
            "impure": self.impure,
            "bounds": {bid: rep.to_json() for bid, rep in self.reports.items()},
            "oracle": self.oracle,
            "ok": self.ok,
            "message": self.message,
        }


@dataclass
class SweepResult:
    rows: list
    failures: list
    skipped: int

    @property
    def ok(self) -> bool:
        return not self.failures


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise HypothesisViolated(what)


def _valid_instance(q: int, H: int, V: int) -> bool:
    return (H >= 3 and V >= 3 and q >= 3
            and (q - 1) % (H - 1) == 0 and (q - 1) % (V - 1) == 0)


def _closed_forms(H: int, V: int, a: int, b: int) -> dict:
    """The VerdictRow fields that the closed forms give."""
    r, delta = locality_formula(H, V, a, b)
    return {"n": H * V, "k": quantum_dimension_formula(H, V, a, b),
            "k_classical": delta_size_formula(H, V, a, b),
            "d": coset_distance_formula(H, V, a, b),
            "d_classical": min_distance_formula(H, V, a, b),
            "r": r, "delta": delta, "impure": impurity_predicate(H, V, a, b)}


def _generic_row(mode: str, q: int, H: int, V: int, a: int, b: int) -> VerdictRow:
    row = VerdictRow(mode=mode, q=q, H=H, V=V, a=a, b=b, **_closed_forms(H, V, a, b))
    n, k, k_classical, r = row.n, row.k, row.k_classical, row.r
    if 2 * k_classical - n != k:
        raise AssertionFailed(
            f"dimension identity broke at (q={q},H={H},V={V},a={a},b={b}): "
            f"2*{k_classical} - {n} != {k}")
    row.reports = dict(evaluate_all(BoundInput(n=n, k=k, d=row.d, q=q, r=r, delta=2),
                                    only=("gg", "luo", "griesmer", "plotkin",
                                          "sphere_packing")))
    row.reports["qsingleton"] = q_singleton_pure(
        BoundInput(n=n, k=k, d=row.d, q=q, r=r, delta=row.delta))
    row.reports["singleton"] = evaluate_all(
        BoundInput(n=n, k=k_classical, d=row.d_classical, q=q, r=r, delta=row.delta),
        only=("singleton",))["singleton"]
    return row


def _assert_thm3(row: VerdictRow) -> None:
    rep = row.reports["qsingleton"]
    if rep.verdict != VERDICT_VIOLATED:
        raise AssertionFailed(
            f"qsingleton not violated at (q={row.q},H={row.H},V={row.V},"
            f"a={row.a}): {rep.lhs} vs {rep.rhs}")
    bound = thm3_slack_lower_bound(row.H, row.V, row.k, row.r)
    if rep.slack < bound:
        raise AssertionFailed(
            f"slack {rep.slack} below guaranteed {bound} at "
            f"(q={row.q},H={row.H},V={row.V},a={row.a})")
    v = Fraction(row.V - 1, 2)
    if (row.r, row.delta) != (int(v) + 1, int(v) + 1):
        raise AssertionFailed(f"locality {(row.r, row.delta)} off the v+1 form")


def _assert_thm4(row: VerdictRow) -> None:
    rep = row.reports["griesmer"]
    if rep.verdict != VERDICT_VIOLATED:
        raise AssertionFailed(
            f"griesmer not violated at (q={row.q},a={row.a}): "
            f"{rep.lhs} vs {rep.rhs}")
    if row.d != row.q + 1 - 2 * row.a:
        raise AssertionFailed(f"distance {row.d} != q+1-2a at q={row.q},a={row.a}")
    # every summand past t = 0 contributes exactly 1 here; the summands do
    # not increase in t, so the first one (t = 2) decides
    if row.n + row.k - 2 >= 2 and -(-row.d // row.q**2) != 1:
        raise AssertionFailed(f"ceil(d/q^2) != 1 at q={row.q},a={row.a}")


def _assert_thm5(row: VerdictRow) -> None:
    rep = row.reports["plotkin"]
    if rep.verdict != VERDICT_VIOLATED:
        raise AssertionFailed(
            f"plotkin not violated at q={row.q}: {rep.lhs} vs {rep.rhs}")
    inp = BoundInput(n=row.n, k=row.k, d=row.d, q=row.q, r=row.r, delta=2)
    profile = plotkin_profile(inp)
    values = [val for _, val in profile]
    if any(x <= y for x, y in zip(values, values[1:])):
        raise AssertionFailed(f"plotkin profile not strictly decreasing at q={row.q}")
    if rep.detail["ell"] != rep.detail["ell_max"]:
        raise AssertionFailed(
            f"plotkin minimum not at the largest ell for q={row.q}")
    if row.q % 4 == 3:
        expected = Fraction(3 * (row.q + 1), 4)
    else:
        expected = Fraction(3 * row.q**3 + 9 * row.q**2, 4 * (row.q**2 + 1))
    if Fraction(rep.rhs) != expected:
        raise AssertionFailed(
            f"plotkin rhs {rep.rhs} != closed form {expected} at q={row.q}")


def _assert_prop_impure(row: VerdictRow) -> None:
    if not row.impure:
        raise AssertionFailed(
            f"expected impurity at (q={row.q},H={row.H},V={row.V},"
            f"a={row.a},b={row.b})")


def _assert_rem_valid(row: VerdictRow) -> None:
    for bid in ("gg", "luo", "sphere_packing"):
        rep = row.reports[bid]
        if rep.verdict == VERDICT_VIOLATED:
            raise AssertionFailed(
                f"{bid} violated at (q={row.q},H={row.H},V={row.V},a={row.a}): "
                f"{rep.lhs} vs {rep.rhs}")


def check_thm3(q: int, H: int, V: int, a: int) -> VerdictRow:
    _require(_valid_instance(q, H, V), f"invalid grid ({q},{H},{V})")
    _require(V % 2 == 1, f"V = {V} must be odd")
    _require(a in valid_a_values(H), f"a = {a} outside the valid range for H = {H}")
    _require(0 in valid_b_values(V), f"b = 0 invalid for V = {V}")
    row = _generic_row("thm3", q, H, V, a, 0)
    _assert_thm3(row)
    return row


def check_thm4(q: int, a: int) -> VerdictRow:
    _require(q % 2 == 1, f"q = {q} must be odd")
    _require(_valid_instance(q, q, 3), f"invalid grid ({q},{q},3)")
    _require(a in valid_a_values(q), f"a = {a} outside the valid range for H = {q}")
    row = _generic_row("thm4", q, q, 3, a, 0)
    _assert_thm4(row)
    return row


def check_thm5(q: int) -> VerdictRow:
    _require(q % 2 == 1, f"q = {q} must be odd")
    _require(_valid_instance(q, q, 3), f"invalid grid ({q},{q},3)")
    row = _generic_row("thm5", q, q, 3, 0, 0)
    _assert_thm5(row)
    return row


def check_prop_impure(q: int, H: int, V: int, a: int, b: int = 0) -> VerdictRow:
    _require(_valid_instance(q, H, V), f"invalid grid ({q},{H},{V})")
    _require(V % 2 == 1, f"V = {V} must be odd")
    _require(b == 0, f"b = {b} must be 0")
    _require(a in valid_a_values(H), f"a = {a} outside the valid range for H = {H}")
    row = _generic_row("prop_impure", q, H, V, a, 0)
    _assert_prop_impure(row)
    return row


def check_rem_valid(q: int, H: int, V: int, a: int) -> VerdictRow:
    _require(_valid_instance(q, H, V), f"invalid grid ({q},{H},{V})")
    _require(H % 2 == 1 and V % 2 == 1, f"H = {H} and V = {V} must be odd")
    _require(a in valid_a_values(H), f"a = {a} outside the valid range for H = {H}")
    row = _generic_row("rem_valid", q, H, V, a, 0)
    _assert_rem_valid(row)
    return row


def _theorem_layers(q, H, V, a, b):
    layers = []
    if V % 2 == 1 and b == 0:
        layers.append(_assert_thm3)
        layers.append(_assert_prop_impure)
        if H % 2 == 1:
            layers.append(_assert_rem_valid)
        if V == 3 and H == q and q % 2 == 1:
            layers.append(_assert_thm4)
            if a == 0:
                layers.append(_assert_thm5)
    return layers


def _oracle_check(row: VerdictRow, budget: int) -> None:
    cost = row.q ** row.k_classical
    if cost > budget:
        return
    p, m = split_prime_power(row.q)
    field = make_field(p, m)
    grid = make_grid_params(row.H, row.V, field)
    rec = build_code(grid, make_delta_params(grid, row.a, row.b))
    d_bf = min_distance_bruteforce(rec.code, budget=2 * cost)
    coset_bf = coset_min_weight_bruteforce(rec.code, rec.mirror_code,
                                           budget=2 * cost)
    agree = d_bf == row.d_classical and coset_bf == row.d
    row.oracle = {"d": d_bf, "coset_d": coset_bf, "agree": agree}
    if not agree:
        raise AssertionFailed(
            f"oracle disagrees at (q={row.q},H={row.H},V={row.V},a={row.a},"
            f"b={row.b}): d {d_bf} vs {row.d_classical}, "
            f"coset {coset_bf} vs {row.d}")


def _run_one(task) -> VerdictRow:
    mode, q, H, V, a, b, budget, collect = task
    try:
        row = _generic_row(mode, q, H, V, a, b)
        if mode == "all":
            for layer in _theorem_layers(q, H, V, a, b):
                layer(row)
        elif mode == "thm3":
            _assert_thm3(row)
        elif mode == "thm4":
            _assert_thm4(row)
        elif mode == "thm5":
            _assert_thm5(row)
        elif mode == "prop_impure":
            _assert_prop_impure(row)
        elif mode == "rem_valid":
            _assert_rem_valid(row)
        _oracle_check(row, budget)
        return row
    except InternalCheckError as exc:
        if not collect:
            raise
        return VerdictRow(mode=mode, q=q, H=H, V=V, a=a, b=b,
                          **_closed_forms(H, V, a, b), ok=False, message=str(exc))


def _instances(spec: SweepSpec) -> tuple[list, int]:
    if spec.mode not in _MODES:
        raise ParamRangeViolated(f"unknown sweep mode {spec.mode!r}")
    if not spec.q_values:
        raise InvalidParameter("sweep needs at least one q value")
    skipped = 0
    out = []
    for q in sorted(set(spec.q_values)):
        split_prime_power(q)  # raises on invalid q
        if q < 3:
            skipped += 1
            continue
        all_H = [H for H in range(3, q + 1) if (q - 1) % (H - 1) == 0]
        all_V = list(all_H)
        if spec.H_max is not None:
            all_H = [H for H in all_H if H <= spec.H_max]
        if spec.V_max is not None:
            all_V = [V for V in all_V if V <= spec.V_max]
        Hs = list(spec.H_values) if spec.H_values is not None else all_H
        Vs = list(spec.V_values) if spec.V_values is not None else all_V
        if spec.mode in ("thm4", "thm5"):
            Hs = [H for H in Hs if H == q and q % 2 == 1]
            Vs = [V for V in Vs if V == 3]
        for H in sorted(set(Hs)):
            if H not in all_H:
                skipped += 1
                continue
            for V in sorted(set(Vs)):
                if V not in all_V:
                    skipped += 1
                    continue
                if spec.mode in ("thm3", "thm4", "thm5", "prop_impure") and V % 2 == 0:
                    skipped += 1
                    continue
                if spec.mode == "rem_valid" and (H % 2 == 0 or V % 2 == 0):
                    skipped += 1
                    continue
                a_all = valid_a_values(H)
                b_all = valid_b_values(V)
                a_vals = ([a for a in spec.a_values if a in a_all]
                          if spec.a_values is not None else list(a_all))
                if spec.mode == "thm5":
                    a_vals = [a for a in a_vals if a == 0]
                b_vals = ([b for b in spec.b_values if b in b_all]
                          if spec.b_values is not None else list(b_all))
                if spec.mode != "all":
                    b_vals = [b for b in b_vals if b == 0]
                for a in a_vals:
                    for b in b_vals:
                        out.append((q, H, V, a, b))
    out.sort()
    return out, skipped


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run all checks a SweepSpec asks for; rows ordered by (q,H,V,a,b)."""
    instances, skipped = _instances(spec)
    budget = spec.budget if spec.budget is not None else default_budget(_ORACLE_BUDGET)
    tasks = [(spec.mode, q, H, V, a, b, budget, spec.collect)
             for (q, H, V, a, b) in instances]
    if spec.jobs > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (spec.jobs * 4))
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_run_one, tasks, chunksize=chunk))
    else:
        rows = [_run_one(t) for t in tasks]
    failures = [((r.q, r.H, r.V, r.a, r.b), r.message) for r in rows if not r.ok]
    return SweepResult(rows=rows, failures=failures, skipped=skipped)


def render_rows_table(rows) -> str:
    """Aligned text table, one sweep row per line."""
    headers = ["mode", "q", "H", "V", "a", "b", "css", "r", "delta",
               "impure", "verdicts", "oracle", "ok"]
    body = []
    for row in rows:
        verdicts = " ".join(
            f"{bid}={rep.verdict}" for bid, rep in sorted(row.reports.items()))
        if row.oracle is None:
            oracle = "-"
        else:
            oracle = "agree" if row.oracle["agree"] else "DISAGREE"
        body.append([
            row.mode, str(row.q), str(row.H), str(row.V), str(row.a),
            str(row.b), f"[[{row.n}, {row.k}, {row.d}]]_{row.q}",
            str(row.r), str(row.delta), str(row.impure).lower(),
            verdicts or "-", oracle, "ok" if row.ok else "FAIL",
        ])
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for b in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(b, widths)).rstrip())
    return "\n".join(lines)
