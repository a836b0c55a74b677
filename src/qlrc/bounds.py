"""Exact evaluators for the seven parameter bounds.

Every evaluator takes a BoundInput and returns a BoundReport whose lhs
and rhs are integers or Fractions, never floats.  Verdicts compare the
two sides in the direction the bound asserts, so `violated` always means
the inequality fails.  The optimizing integer ell of a min/max bound is
reported in `detail`.

The gg, luo, griesmer, plotkin, and sphere-packing forms are single
erasure statements; they read r from the input and ignore delta, which
is sound because (r, delta)-locality implies (r, 2)-locality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    NonPositiveK,
    ParamRangeViolated,
    WeightTooSmall,
    ZeroLocality,
)

VERDICT_HOLDS = "holds"
VERDICT_EQUALITY = "holds_with_equality"
VERDICT_VIOLATED = "violated"


def _exact(x):
    """Collapse integral Fractions to int; reject floats."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"bound arithmetic produced a non-exact value {x!r}")


def _number_json(x):
    """An exact value as JSON: an int as itself, a Fraction as num and den."""
    if type(x) is not int and isinstance(x, Fraction):  # isinstance goes through the ABC
        return {"num": x.numerator, "den": x.denominator}
    return x


def _number_text(x) -> str:
    """json.dumps(_number_json(x)) for an exact value, written directly;
    a bool or None goes through json."""
    if type(x) is int:
        return str(x)
    if isinstance(x, Fraction):
        return f'{{"num": {x.numerator}, "den": {x.denominator}}}'
    return json.dumps(x)


def rational_to_json(x):
    return _number_json(_exact(x))


@dataclass(frozen=True)
class BoundInput:
    n: int
    k: int
    d: int
    q: int
    r: int
    delta: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ParamRangeViolated(f"need n >= 1, got {self.n}")
        if self.d < 1:
            raise ParamRangeViolated(f"need d >= 1, got {self.d}")
        if self.k < 0:
            raise ParamRangeViolated(f"need k >= 0, got {self.k}")
        if self.q < 2:
            raise ParamRangeViolated(f"need q >= 2, got {self.q}")
        if self.r < 1:
            raise ZeroLocality(f"need r >= 1, got {self.r}")
        if self.delta < 2:
            raise ParamRangeViolated(f"need delta >= 2, got {self.delta}")


class BoundReport(NamedTuple):
    bound_id: str
    lhs: object
    rhs: object
    direction: str
    verdict: str
    slack: object  # positive exactly when the bound is violated
    detail: dict

    def to_json(self) -> dict:
        # _report made lhs, rhs and slack exact, so each is an int or a
        # non-integral Fraction
        return {
            "bound": self.bound_id,
            "lhs": _number_json(self.lhs),
            "rhs": _number_json(self.rhs),
            "direction": self.direction,
            "verdict": self.verdict,
            "slack": _number_json(self.slack),
            "detail": dict(self.detail),
        }

    def json_text(self) -> str:
        """json.dumps(self.to_json()), written from the fields: the ids,
        direction and verdict are fixed identifiers, and every number is exact."""
        detail = ", ".join(f'"{key}": {_number_text(value)}'
                           for key, value in self.detail.items())
        return (f'{{"bound": "{self.bound_id}", "lhs": {_number_text(self.lhs)}, '
                f'"rhs": {_number_text(self.rhs)}, "direction": "{self.direction}", '
                f'"verdict": "{self.verdict}", "slack": {_number_text(self.slack)}, '
                f'"detail": {{{detail}}}}}')


def _report(bound_id, lhs, rhs, direction, detail=None) -> BoundReport:
    lhs = _exact(lhs)
    rhs = _exact(rhs)
    if lhs == rhs:
        verdict = VERDICT_EQUALITY
    elif (lhs < rhs) == (direction == "le"):
        verdict = VERDICT_HOLDS
    else:
        verdict = VERDICT_VIOLATED
    slack = _exact(lhs - rhs if direction == "le" else rhs - lhs)
    return BoundReport(bound_id, lhs, rhs, direction, verdict, slack, detail or {})


def classical_singleton_lrc(inp: BoundInput) -> BoundReport:
    """k + d + (ceil(k/r) - 1)(delta - 1) <= n + 1."""
    lhs = inp.k + inp.d + (-(-inp.k // inp.r) - 1) * (inp.delta - 1)
    return _report("singleton", lhs, inp.n + 1, "le")


def gg_bound(inp: BoundInput) -> BoundReport:
    """Upper bound on k for a quantum code with single-erasure locality r."""
    if inp.k <= 0:
        raise NonPositiveK(f"this bound is stated for k > 0, got k={inp.k}")
    n, d, r = inp.n, inp.d, inp.r
    t1 = (n - (d - 1)) // (r + 1)
    inner = n - 2 * (d - 1) - t1
    rhs = inner - inner // (r + 1)
    return _report("gg", inp.k, rhs, "le", {"t1": t1})


def luo_css_bound(inp: BoundInput) -> BoundReport:
    """2d <= n - k - 2*ceil(k/r) + 4."""
    rhs = inp.n - inp.k - 2 * -(-inp.k // inp.r) + 4
    return _report("luo", 2 * inp.d, rhs, "le")


def q_singleton_pure(inp: BoundInput) -> BoundReport:
    """(n+k)/2 + d + (ceil((n+k)/(2r)) - 1)(delta - 1) <= n + 1."""
    nk = inp.n + inp.k
    lhs = Fraction(nk + 2 * (inp.d + (-(-nk // (2 * inp.r)) - 1) * (inp.delta - 1)), 2)
    return _report("qsingleton", lhs, inp.n + 1, "le")


def _griesmer_objective(inp: BoundInput, ell: int) -> int:
    limit = inp.n + inp.k - 2 * inp.r * ell - 2
    total = (inp.r + 1) * ell
    q2 = inp.q * inp.q
    t, qt = 0, 1
    while t <= limit and qt < inp.d:
        total += (inp.d + qt - 1) // qt
        t += 2
        qt *= q2
    # every remaining term has q^t >= d >= 1, so it is exactly 1
    if t <= limit:
        total += (limit - t) // 2 + 1
    return total


def griesmer_like(inp: BoundInput) -> BoundReport:
    """n >= max over ell of (r+1)*ell + sum of ceil(d / q^t) over even t."""
    ell_max = -(-(inp.n + inp.k) // (2 * inp.r)) - 1
    best_val, best_ell = None, None
    for ell in range(0, ell_max + 1):
        val = _griesmer_objective(inp, ell)
        if best_val is None or val > best_val:
            best_val, best_ell = val, ell
    return _report("griesmer", inp.n, best_val, "ge",
                   {"ell": best_ell, "ell_max": ell_max})


def _plotkin_ratio(inp: BoundInput, ell: int) -> tuple[int, int]:
    """v(ell) = q^(e-2) (q^2 - 1) (n - (r+1) ell) / (q^e - 1) as an integer
    (numerator, denominator), with e = n + k - 2r ell >= 1."""
    q = inp.q
    e = inp.n + inp.k - 2 * inp.r * ell
    num = (q * q - 1) * (inp.n - (inp.r + 1) * ell)
    den = q**e - 1
    if e >= 2:
        return num * q ** (e - 2), den
    return num, den * q  # e == 1: q^(e-2) = 1/q


def _plotkin_ell_max(inp: BoundInput) -> int:
    # each shortening step must leave a positive length and positive q-power
    return min(-(-(inp.n + inp.k) // (2 * inp.r)) - 1,
               (inp.n - 1) // (inp.r + 1))


def plotkin_profile(inp: BoundInput) -> list[tuple[int, Fraction]]:
    return [(ell, Fraction(*_plotkin_ratio(inp, ell)))
            for ell in range(0, _plotkin_ell_max(inp) + 1)]


def plotkin_like(inp: BoundInput) -> BoundReport:
    """d <= min over ell of the Plotkin-type rational objective.

    Write v(ell) = (1 - q^-2) * m / (1 - q^-e) with m = n - (r+1)*ell and
    e = n + k - 2r*ell.  For ell1 < ell2, m1 >= m2 + (r+1), and
    v(ell1) - v(ell2) has the sign of (m1 - m2) - m1*q^-e2 + m2*q^-e1.
    Once q^e2 > n >= m1 this exceeds (r+1) - 1 > 0, so no ell before
    the last one with q^e(ell) > n can be the minimum, and the scan starts
    there without changing the (value, ell) tie-break.  Candidates are
    compared by integer cross-multiplication; only the winner becomes a
    Fraction.
    """
    n, k, q, r = inp.n, inp.k, inp.q, inp.r
    ell_max = _plotkin_ell_max(inp)
    e_star = 0  # least e with q^e > n; e(0) = n + k >= e_star since q^n > n
    while q**e_star <= n:
        e_star += 1
    start = min((n + k - e_star) // (2 * r), ell_max)
    best = None
    for ell in range(start, ell_max + 1):
        num, den = _plotkin_ratio(inp, ell)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, ell)
    num, den, best_ell = best
    return _report("plotkin", inp.d, Fraction(num, den), "le",
                   {"ell": best_ell, "ell_max": ell_max})


def _sphere_count(m: int, radius: int, unit: int) -> int:
    """sum over i <= radius of C(m, i) * unit^i."""
    if radius >= m:
        return (unit + 1) ** m  # the binomial theorem
    total = term = 1
    for i in range(radius):
        # C(m,i+1) u^(i+1) = C(m,i) u^i (m-i) u / (i+1), an exact division
        term = term * (m - i) * unit // (i + 1)
        total += term
    return total


def sphere_packing_like(inp: BoundInput) -> BoundReport:
    """k <= n - 2*max over ell of (ell + log_{q^2} S(ell)), decided log-free.

    The binding ell maximizes the key q^(2*ell) * S(ell); the verdict
    compares S(ell)^2 against q^(2(n - k - 2*ell)) with exact integers.
    Ties keep the smallest ell.

    Each ell first gets an integer interval that holds its key, from one
    binomial.  With m = n - (r+1)*ell, R the radius and u = q^2 - 1, the
    ball S(ell) sums the terms C(m,i) u^i, i <= R.  A ball with R >= m is
    (u+1)^m by the binomial theorem, so its interval is one point.
    Otherwise the key is at least top = q^(2*ell) * C(m,R) u^R, its last
    term.  With a = (m - R + 1) u > R, the terms rise by a factor
    (m-i) u / (i+1) >= a/R up to i = R, so the key is at most
    top * sum_j (R/a)^j <= top * a / (a - R), and so at most the floor of
    that, since it is an integer; when a <= R the binomial theorem caps it at
    q^(2*ell) (u+1)^m.  The maximum is at least the largest lower end, so
    only an ell whose upper end reaches it can win or tie, and only those
    balls are summed term by term.

    The scan runs down from the largest ell, where the maximum usually
    sits and the balls are small.  Going down one ell multiplies top by
    prod_{t=1..r+1} (m+t)/(m+t-R) / q^2, which falls as m grows, and
    a / (a - R) falls too; so once top stops rising the upper end never
    rises again, and the first ell after that whose upper end misses the
    largest lower end ends the scan.
    """
    ell_top = (inp.n - 1) // (inp.r + 1)
    radius = (inp.d - 1) // 2
    q2 = inp.q * inp.q
    unit = q2 - 1
    unit_r = unit**radius
    scale = q2**ell_top  # q^(2*ell)
    floor = 0  # the largest lower end so far; every key is at least 1
    reach = []  # (ell, m, scale, upper end) of the ell whose upper end reaches floor
    last_top = None
    for ell in range(ell_top, -1, -1):
        m = inp.n - ell * (inp.r + 1)
        a = (m - radius + 1) * unit
        top = None
        if radius >= m:
            low = high = scale * (unit + 1) ** m
        else:
            low = scale * math.comb(m, radius) * unit_r
            if radius < a:
                top = low
                high = top * a // (a - radius)
            else:
                high = scale * (unit + 1) ** m
        if high < floor:
            if top is not None and last_top is not None and top <= last_top:
                break
        else:
            reach.append((ell, m, scale, high))
            if low > floor:
                floor = low
                reach = [cand for cand in reach if cand[3] >= floor]
        last_top = top
        scale //= q2
    best_key, best_ell, best_s = None, None, None
    for ell, m, scale, _ in reversed(reach):  # ell ascending: a tie keeps the first
        s = _sphere_count(m, radius, unit)
        if best_key is None or scale * s > best_key:
            best_key, best_ell, best_s = scale * s, ell, s
    exp = 2 * (inp.n - inp.k - 2 * best_ell)
    rhs = inp.q**exp if exp >= 0 else Fraction(1, inp.q**(-exp))
    return _report("sphere_packing", best_s**2, rhs, "le",
                   {"ell": best_ell, "ell_max": ell_top, "s": best_s})


def weight_constrained_locality(w: int) -> int:
    """Locality 2(w-1) from stabilizer generators of weight w."""
    if w < 2:
        raise WeightTooSmall(f"need generator weight >= 2, got {w}")
    return 2 * (w - 1)


def thm3_slack_lower_bound(H: int, V: int, k: int, r: int) -> Fraction:
    """(H - k)(V - 1)^2 / (8r), the guaranteed violation margin."""
    return Fraction((H - k) * (V - 1) ** 2, 8 * r)


BOUND_REGISTRY = {
    "singleton": classical_singleton_lrc,
    "gg": gg_bound,
    "luo": luo_css_bound,
    "qsingleton": q_singleton_pure,
    "griesmer": griesmer_like,
    "plotkin": plotkin_like,
    "sphere_packing": sphere_packing_like,
}


def evaluate_all(inp: BoundInput, only=None) -> dict[str, BoundReport]:
    """Evaluate registered bounds; only may be one id or an iterable of ids."""
    if only is None:
        names = tuple(BOUND_REGISTRY)
    elif isinstance(only, str):
        names = (only,)
    else:
        names = tuple(only)
    for name in names:
        if name not in BOUND_REGISTRY:
            raise ParamRangeViolated(
                f"unknown bound {name!r}; choose from {sorted(BOUND_REGISTRY)}")
    return {name: BOUND_REGISTRY[name](inp) for name in names}
