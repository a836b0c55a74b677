"""Definition-level (r, delta)-locality certification, plus the binary
[4m, 3m-1] family whose dual is spanned by block indicators and one
straddling row.

A coordinate is certified by a repair set: an index set of size at most
r + delta - 1 containing it whose punctured (projected) code has minimum
distance at least delta.  The punctured distance is always verified by
exhausting the restricted code, so certificates are proofs, not claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidParameter,
    NotLocallyRecoverable,
    ParamRangeViolated,
    SearchBudgetExceeded,
    ZeroLocality,
)
from .gf import make_field
from .grid_codes import GridCodeRecord
from .linear_codes import (
    LinearCode,
    _rref,
    euclidean_dual,
    from_spanning_set,
    min_distance_bruteforce,
)

_SEARCH_BUDGET = 10**6


@dataclass(frozen=True)
class LocalityEntry:
    coordinate: int
    repair_set: tuple[int, ...]
    punctured_distance: int | None  # None: the projection is the zero code

    def to_json(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "repair_set": list(self.repair_set),
            "punctured_distance": self.punctured_distance,
        }


@dataclass(frozen=True)
class LocalityCertificate:
    r: int
    delta: int
    strategy: str
    entries: tuple[LocalityEntry, ...]

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


def _passes(code: LinearCode, cols, delta: int, budget) -> tuple[bool, int | None]:
    sub = code.generator[:, list(cols)]
    if not sub.any():
        return True, None
    if len(cols) < delta:
        # a nonzero projection has a word of weight <= |cols| < delta
        return False, None
    R, piv = _rref(code.field, sub)
    if R.shape[0] == len(cols):
        return (delta <= 1), 1  # full space has distance 1
    restricted = LinearCode(code.field, len(cols), R, piv)
    d = min_distance_bruteforce(restricted, budget)
    return d >= delta, d


def _passes_gf2(row_bits: list[int], cols: tuple[int, ...], delta: int) -> tuple[bool, int | None]:
    """GF(2) fast path on bit-packed generator rows."""
    s = len(cols)
    packed = []
    any_nonzero = False
    for bits in row_bits:
        v = 0
        for pos, c in enumerate(cols):
            v |= ((bits >> c) & 1) << pos
        if v:
            any_nonzero = True
        packed.append(v)
    if not any_nonzero:
        return True, None
    if s < delta:
        return False, None
    basis: list[int] = []
    for v in packed:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    if len(basis) == s:
        return (delta <= 1), 1
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    best = None
    for w in words[1:]:
        wt = w.bit_count()
        best = wt if best is None else min(best, wt)
    return (best is not None and best >= delta), best


def _validate_rd(r: int, delta: int) -> None:
    if r < 1:
        raise ZeroLocality(f"need r >= 1, got {r}")
    if delta < 2:
        raise ParamRangeViolated(f"need delta >= 2, got {delta}")


def certify_locality(code: LinearCode, r: int, delta: int,
                     strategy: str = "exhaustive",
                     grid_record: GridCodeRecord | None = None,
                     budget: int | None = None,
                     search_budget: int = _SEARCH_BUDGET) -> LocalityCertificate:
    """Certify (r, delta)-locality coordinate by coordinate.

    grid_lines uses the fixed-x columns of the grid as repair sets;
    exhaustive scans candidate sets smallest-size-first, lexicographic
    within a size, and proves NotLocallyRecoverable when the scan finds
    nothing.
    """
    _validate_rd(r, delta)
    size_cap = r + delta - 1
    if strategy == "grid_lines":
        if grid_record is None:
            raise InvalidParameter("grid_lines strategy needs a grid record")
        V = grid_record.grid.V
        if V > size_cap:
            raise NotLocallyRecoverable(
                f"grid columns have {V} points, exceeding r+delta-1 = {size_cap}")
        entries = []
        for col in range(grid_record.grid.H):
            cols = tuple(col * V + j for j in range(V))
            ok, dist = _passes(code, cols, delta, budget)
            if not ok:
                raise NotLocallyRecoverable(
                    f"column through coordinate {cols[0]} has punctured "
                    f"distance {dist} < {delta}")
            entries.extend(
                LocalityEntry(t, cols, dist) for t in cols)
        entries.sort(key=lambda e: e.coordinate)
        return LocalityCertificate(r, delta, strategy, tuple(entries))

    if strategy != "exhaustive":
        raise InvalidParameter(f"unknown strategy {strategy!r}")

    n = code.n
    use_gf2 = code.field.p == 2 and code.field.m == 1
    row_bits = None
    if use_gf2:
        row_bits = [
            int(sum(int(v) << c for c, v in enumerate(code.generator[i])))
            for i in range(code.k)
        ]
    entries = []
    for t in range(n):
        others = [c for c in range(n) if c != t]
        tried = 0
        found = None
        for size in range(1, size_cap + 1):
            for rest in combinations(others, size - 1):
                tried += 1
                if tried > search_budget:
                    raise SearchBudgetExceeded(
                        f"coordinate {t}: more than {search_budget} candidate "
                        f"repair sets")
                cols = tuple(sorted((t,) + rest))
                if use_gf2:
                    ok, dist = _passes_gf2(row_bits, cols, delta)
                else:
                    ok, dist = _passes(code, cols, delta, budget)
                if ok:
                    found = LocalityEntry(t, cols, dist)
                    break
            if found is not None:
                break
        if found is None:
            raise NotLocallyRecoverable(
                f"coordinate {t} admits no repair set of size <= {size_cap} "
                f"with punctured distance >= {delta}")
        entries.append(found)
    return LocalityCertificate(r, delta, strategy, tuple(entries))


@dataclass(frozen=True)
class LemmaFamilyCode:
    m: int
    code: LinearCode
    dual_code: LinearCode
    block_rows: np.ndarray  # m rows, weight 4 each
    straddle_row: np.ndarray  # the (1,1,0,0) pattern


def lemma_family(m: int) -> LemmaFamilyCode:
    """The binary [4m, 3m-1] code whose dual is span(v_1..v_m, w)."""
    if not isinstance(m, int) or m < 1:
        raise ParamRangeViolated(f"need a positive integer m, got {m}")
    field = make_field(2)
    n = 4 * m
    blocks = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        blocks[i, 4 * i:4 * i + 4] = 1
    straddle = np.tile(np.array([1, 1, 0, 0], dtype=np.int64), m)
    dual = from_spanning_set(field, list(blocks) + [straddle])
    code = euclidean_dual(dual)
    return LemmaFamilyCode(m, code, dual, blocks, straddle)


@dataclass(frozen=True)
class HeavyRowResult:
    min_weight: int
    max_weight: int
    count: int


def heavy_row_check(fam: LemmaFamilyCode, budget: int | None = None) -> HeavyRowResult:
    """Weights over the full coset straddle + span(block rows)."""
    m = fam.m
    if m > 24:
        raise BudgetExceeded(f"2^{m} coset elements exceed the enumeration cap")
    total = 1 << m
    if budget is not None and total > budget:
        raise BudgetExceeded(f"2^{m} = {total} coset elements exceed budget {budget}")
    lo, hi = None, None
    block = 1 << 16
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        sel = (idx[:, None] >> np.arange(m, dtype=np.int64)[None, :]) & 1
        words = (sel @ fam.block_rows + fam.straddle_row[None, :]) % 2
        w = np.count_nonzero(words, axis=1)
        lo = int(w.min()) if lo is None else min(lo, int(w.min()))
        hi = int(w.max()) if hi is None else max(hi, int(w.max()))
    return HeavyRowResult(lo, hi, total)
