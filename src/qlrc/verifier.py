"""Parameter sweeps that check the closed-form claims of the grid family
against the bound evaluators, with optional brute-force cross-checks on
instances small enough to enumerate.

Each theorem mode is a hypothesis on (q, H, V, a, b) and a claim, both held
by the table _THEOREMS in the order the claims are applied:

  thm3        V odd, b = 0: quantum singleton violated with quantified
              slack, locality (v+1, v+1)
  prop_impure V odd, b = 0: the CSS code is impure
  rem_valid   H, V odd, b = 0: gg / luo / sphere-packing all hold
  thm4        V = 3, H = q odd, b = 0: griesmer-like bound violated
  thm5        V = 3, H = q odd, a = b = 0: plotkin-like bound violated,
              with a strictly decreasing profile binding at the largest ell
  all         every valid instance in range; reports every bound and applies
              each claim whose hypothesis holds

A theorem mode runs the valid in-range instances its hypothesis admits and
counts the rest as skipped.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain, compress, islice
from math import isqrt
from typing import Callable, NamedTuple

from .bounds import (
    BoundInput,
    VERDICT_VIOLATED,
    classical_singleton_lrc,
    evaluate_all,
    plotkin_profile,
    thm3_slack_lower_bound,
)
from .css import oracle_distances
from .errors import (
    AssertionFailed,
    HypothesisViolated,
    InternalCheckError,
    InvalidParameter,
    ParamRangeViolated,
)
from .gf import FIELD_ORDER_CAP, check_field_order, make_field, split_prime_power
from .grid_codes import (
    _check_ab,
    _check_grid,
    build_grid_record,
    closed_forms,
    instance_label,
    named_error,
    valid_a_values,
    valid_b_values,
)
from .linear_codes import default_budget

_ORACLE_BUDGET = 1 << 16
_CHUNK = 8  # rows per task sent to a pool worker
_QUANTUM_BOUNDS = ("gg", "luo", "griesmer", "plotkin", "sphere_packing", "qsingleton")
_JSON_BOOL = {False: "false", True: "true"}


def prime_powers(limit: int, start: int = 3) -> tuple[int, ...]:
    """All prime powers q with start <= q <= limit: the sieve of
    Eratosthenes gives the primes, then each prime p <= sqrt(limit) adds
    its higher powers."""
    size = max(limit + 1, 2)
    prime = bytearray([1]) * size
    prime[:2] = b"\0\0"
    for p in range(2, isqrt(size - 1) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, size, p)))
    power = bytearray(prime)
    for p in compress(range(isqrt(size - 1) + 1), prime):
        pe = p * p
        while pe < size:
            power[pe] = 1
            pe *= p
    start = max(start, 2)
    return tuple(compress(range(start, size), power[start:]))


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

    def json_line(self) -> str:
        """The row as one line of JSON, keys in field order, written from the
        fields; only the message and the oracle dict, whose text can vary,
        go through json."""
        bounds = ", ".join(f'"{bid}": {rep.json_text()}' for bid, rep in self.reports.items())
        oracle = "null" if self.oracle is None else json.dumps(self.oracle)
        return (f'{{"mode": "{self.mode}", "q": {self.q}, "H": {self.H}, "V": {self.V}, '
                f'"a": {self.a}, "b": {self.b}, "n": {self.n}, "k": {self.k}, '
                f'"k_classical": {self.k_classical}, "d": {self.d}, '
                f'"d_classical": {self.d_classical}, "r": {self.r}, "delta": {self.delta}, '
                f'"impure": {_JSON_BOOL[self.impure]}, "bounds": {{{bounds}}}, '
                f'"oracle": {oracle}, "ok": {_JSON_BOOL[self.ok]}, '
                f'"message": {json.dumps(self.message)}}}')


def _closed_forms(H: int, V: int, a: int, b: int) -> dict:
    """The VerdictRow fields that the closed forms give."""
    forms = closed_forms(H, V, a, b)
    r, delta = forms.locality
    return {"n": H * V, "k": forms.quantum_k, "k_classical": forms.size,
            "d": forms.coset_d, "d_classical": forms.d,
            "r": r, "delta": delta, "impure": forms.impure}


def _generic_row(mode: str, q: int, H: int, V: int, a: int, b: int) -> VerdictRow:
    row = VerdictRow(mode=mode, q=q, H=H, V=V, a=a, b=b, **_closed_forms(H, V, a, b))
    n, k, k_classical, r = row.n, row.k, row.k_classical, row.r
    if 2 * k_classical - n != k:
        raise AssertionFailed(f"dimension identity broke: 2*{k_classical} - {n} != {k}")
    # gg, luo, griesmer, plotkin and sphere packing ignore delta
    row.reports = evaluate_all(BoundInput(n=n, k=k, d=row.d, q=q, r=r, delta=row.delta),
                               only=_QUANTUM_BOUNDS)
    row.reports["singleton"] = classical_singleton_lrc(
        BoundInput(n=n, k=k_classical, d=row.d_classical, q=q, r=r, delta=row.delta))
    return row


def _assert_thm3(row: VerdictRow) -> None:
    rep = row.reports["qsingleton"]
    if rep.verdict != VERDICT_VIOLATED:
        raise AssertionFailed(f"qsingleton not violated: {rep.lhs} vs {rep.rhs}")
    bound = thm3_slack_lower_bound(row.H, row.V, row.k, row.r)
    if rep.slack < bound:
        raise AssertionFailed(f"slack {rep.slack} below guaranteed {bound}")
    v1 = (row.V - 1) // 2 + 1
    if (row.r, row.delta) != (v1, v1):
        raise AssertionFailed(f"locality {(row.r, row.delta)} off the v+1 form")


def _assert_thm4(row: VerdictRow) -> None:
    rep = row.reports["griesmer"]
    if rep.verdict != VERDICT_VIOLATED:
        raise AssertionFailed(f"griesmer not violated: {rep.lhs} vs {rep.rhs}")
    if row.d != row.q + 1 - 2 * row.a:
        raise AssertionFailed(f"distance {row.d} != q+1-2a")
    # every summand past t = 0 contributes exactly 1 here; the summands do
    # not increase in t, so the first one (t = 2) decides
    if row.n + row.k - 2 >= 2 and -(-row.d // row.q**2) != 1:
        raise AssertionFailed("ceil(d/q^2) != 1")


def _assert_thm5(row: VerdictRow) -> None:
    rep = row.reports["plotkin"]
    if rep.verdict != VERDICT_VIOLATED:
        raise AssertionFailed(f"plotkin not violated: {rep.lhs} vs {rep.rhs}")
    inp = BoundInput(n=row.n, k=row.k, d=row.d, q=row.q, r=row.r, delta=2)
    profile = plotkin_profile(inp)
    values = [val for _, val in profile]
    if any(x <= y for x, y in zip(values, values[1:])):
        raise AssertionFailed("plotkin profile not strictly decreasing")
    if rep.detail["ell"] != rep.detail["ell_max"]:
        raise AssertionFailed("plotkin minimum not at the largest ell")
    if row.q % 4 == 3:
        expected = Fraction(3 * (row.q + 1), 4)
    else:
        expected = Fraction(3 * row.q**3 + 9 * row.q**2, 4 * (row.q**2 + 1))
    if Fraction(rep.rhs) != expected:
        raise AssertionFailed(f"plotkin rhs {rep.rhs} != closed form {expected}")


def _assert_prop_impure(row: VerdictRow) -> None:
    if not row.impure:
        raise AssertionFailed("expected impurity")


def _assert_rem_valid(row: VerdictRow) -> None:
    for bid in ("gg", "luo", "sphere_packing"):
        rep = row.reports[bid]
        if rep.verdict == VERDICT_VIOLATED:
            raise AssertionFailed(f"{bid} violated: {rep.lhs} vs {rep.rhs}")


class Theorem(NamedTuple):
    hypothesis: Callable[[int, int, int, int, int], bool]  # on (q, H, V, a, b)
    claim: Callable[[VerdictRow], None]


# Mode -> hypothesis and claim; `--mode all` applies the claims in this order.
_THEOREMS = {
    "thm3": Theorem(lambda q, H, V, a, b: V % 2 == 1 and b == 0, _assert_thm3),
    "prop_impure": Theorem(lambda q, H, V, a, b: V % 2 == 1 and b == 0,
                           _assert_prop_impure),
    "rem_valid": Theorem(lambda q, H, V, a, b: H % 2 == 1 and V % 2 == 1 and b == 0,
                         _assert_rem_valid),
    "thm4": Theorem(lambda q, H, V, a, b: V == 3 and H == q and q % 2 == 1 and b == 0,
                    _assert_thm4),
    "thm5": Theorem(lambda q, H, V, a, b: V == 3 and H == q and q % 2 == 1 and a == b == 0,
                    _assert_thm5),
}


def _claims(mode: str, inst: tuple) -> list:
    """The claims that mode applies to inst = (q, H, V, a, b), in table order."""
    return [theorem.claim for name, theorem in _THEOREMS.items()
            if mode in ("all", name) and theorem.hypothesis(*inst)]


def _run_one(task) -> VerdictRow:
    mode, q, H, V, a, b, budget, collect = task
    try:
        row = _generic_row(mode, q, H, V, a, b)
        for claim in _claims(mode, (q, H, V, a, b)):
            claim(row)
        # q^k >= 2^k > budget once k reaches the budget's bit length, so the
        # big power is taken only when it can pass
        if row.k_classical < budget.bit_length() and q ** row.k_classical <= budget:
            rec = build_grid_record(make_field(*split_prime_power(q)), H, V, a, b)
            d, coset_d = oracle_distances(rec, budget)
            row.oracle = {"d": d, "coset_d": coset_d, "agree": True}
        return row
    except InternalCheckError as exc:
        if collect:  # the FAIL line names the instance
            return VerdictRow(mode=mode, q=q, H=H, V=V, a=a, b=b,
                              **_closed_forms(H, V, a, b), ok=False, message=str(exc))
        raise named_error(exc, q, H, V, a, b) from exc


def check_theorem(mode: str, q: int, H: int, V: int, a: int, b: int = 0) -> VerdictRow:
    """Apply the claim of theorem mode to (q, H, V, a, b), without the oracle.

    Raises HypothesisViolated if the instance is not a valid grid instance
    or lies outside the theorem's hypothesis.
    """
    if mode not in _THEOREMS:
        raise ParamRangeViolated(f"unknown theorem {mode!r}")
    split_prime_power(q)  # raises on invalid q
    label = instance_label(q, H, V, a, b)
    try:
        _check_grid(q, H, V)
        _check_ab(H, V, a, b)
    except InvalidParameter as exc:
        raise HypothesisViolated(f"{label} is not a valid grid instance") from exc
    if not _THEOREMS[mode].hypothesis(q, H, V, a, b):
        raise HypothesisViolated(f"{label} is outside the {mode} hypothesis")
    return _run_one((mode, q, H, V, a, b, 0, False))  # budget 0: no oracle


class Sweep:
    """The rows of a SweepSpec in (q, H, V, a, b) order, each yielded as soon
    as it is checked.

    Creating a Sweep runs every check that can reject the spec: jobs,
    budget, mode, the q list, every q's field order and factorization, and
    QLRC_BUDGET.
    So a bad spec raises before the first row exists.  While the rows are
    read, `count`, `skipped` and `failures` tally what has passed; they are
    final once the rows are exhausted.  close() stops the sweep early and
    cancels the pool work not yet started.
    """

    def __init__(self, spec: SweepSpec):
        if spec.jobs < 1:
            raise InvalidParameter(f"need jobs >= 1, got jobs={spec.jobs}")
        if spec.budget is not None and spec.budget < 1:
            raise InvalidParameter(f"need budget >= 1, got budget={spec.budget}")
        if spec.mode != "all" and spec.mode not in _THEOREMS:
            raise ParamRangeViolated(f"unknown sweep mode {spec.mode!r}")
        if not spec.q_values:
            raise InvalidParameter("sweep needs at least one q value")
        self._q_values = sorted(set(spec.q_values))
        # one sieve covers every q within the cap; a q outside it is
        # factored only to raise its error
        sieve = set(prime_powers(max((q for q in self._q_values if q <= FIELD_ORDER_CAP),
                                     default=0), start=2))
        for q in self._q_values:
            check_field_order(q)  # before the scans in _instances, which are linear in q
            if q not in sieve:
                split_prime_power(q)  # raises on invalid q
        self._budget = spec.budget if spec.budget is not None else default_budget(_ORACLE_BUDGET)
        self._spec = spec
        self.count = 0
        self.skipped = 0
        self.failures = []
        self._rows = self._run()

    def __iter__(self):
        return self._rows

    def close(self) -> None:
        self._rows.close()

    def _instances(self):
        """The valid in-range (q, H, V, a, b) the mode runs, in order."""
        spec = self._spec
        for q in self._q_values:
            if q < 3:
                self.skipped += 1
                continue
            all_H = [H for H in range(3, q + 1) if (q - 1) % (H - 1) == 0]
            all_V = list(all_H)
            if spec.H_max is not None:
                all_H = [H for H in all_H if H <= spec.H_max]
            if spec.V_max is not None:
                all_V = [V for V in all_V if V <= spec.V_max]
            Hs = list(spec.H_values) if spec.H_values is not None else all_H
            Vs = list(spec.V_values) if spec.V_values is not None else all_V
            for H in sorted(set(Hs)):
                if H not in all_H:
                    self.skipped += 1
                    continue
                for V in sorted(set(Vs)):
                    if V not in all_V:
                        self.skipped += 1
                        continue
                    a_all, b_all = valid_a_values(H), valid_b_values(V)
                    a_named = set(spec.a_values if spec.a_values is not None else a_all)
                    b_named = set(spec.b_values if spec.b_values is not None else b_all)
                    # a named a or b outside its valid range counts once per grid
                    self.skipped += (len(a_named.difference(a_all))
                                     + len(b_named.difference(b_all)))
                    for a in sorted(a_named.intersection(a_all)):
                        for b in sorted(b_named.intersection(b_all)):
                            if spec.mode == "all" or _claims(spec.mode, (q, H, V, a, b)):
                                yield (q, H, V, a, b)
                            else:
                                self.skipped += 1

    def _run(self):
        spec = self._spec
        tasks = ((spec.mode, *inst, self._budget, spec.collect) for inst in self._instances())
        # more workers than instances or cores only adds processes to start
        head = list(islice(tasks, min(spec.jobs, os.cpu_count() or 1)))
        tasks = chain(head, tasks)
        if len(head) > 1:
            rows = _pooled(tasks, len(head))
        else:
            rows = (_run_one(task) for task in tasks)
        with closing(rows):
            for row in rows:
                self.count += 1
                if not row.ok:
                    self.failures.append(((row.q, row.H, row.V, row.a, row.b), row.message))
                yield row


def _run_chunk(tasks: list) -> list:
    return [_run_one(task) for task in tasks]


def _pooled(tasks, workers: int):
    """_run_one over tasks in a pool of workers, yielded in task order.

    Tasks go out in chunks of _CHUNK, with at most two chunks per worker
    submitted and not yet read, so neither memory nor the wait for the first
    row grows with the number of tasks.  Closing the generator cancels the
    chunks that have not started.
    """
    from concurrent.futures import ProcessPoolExecutor  # only --jobs > 1 loads it

    chunks = iter(lambda: list(islice(tasks, _CHUNK)), [])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque(pool.submit(_run_chunk, chunk)
                       for chunk in islice(chunks, 2 * workers))
        try:
            while window:
                rows = window.popleft().result()
                window.extend(pool.submit(_run_chunk, chunk) for chunk in islice(chunks, 1))
                yield from rows
        finally:
            for future in window:
                future.cancel()
