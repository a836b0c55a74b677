"""(r, delta)-locality certification, plus the binary [4m, 3m-1] family
whose dual is spanned by block indicators and one straddling row.

A coordinate is certified by a repair set: an index set S of size at most
r + delta - 1 containing it whose punctured (projected) code C|_S has
minimum distance at least delta.  Every distance in a certificate is
proved, not claimed:

* exhaustive (certify_locality): candidate sets are scanned in
  lexicographic runs that share all but their last two columns.  Each
  distinct prefix costs one pivot step on the generator G, and each set
  one step on its last two columns, which gives its rank.  Rank 0 makes
  C|_S the zero code, which repairs trivially; rank |S| makes it the
  whole space, of distance 1; only a set of any other rank has its block
  G[:, S] row-reduced and the q^rank words of its reduced rows
  enumerated, and its distance is their least positive weight.
* grid_lines (certify_grid_lines): on the column x = x_s of the grid,
  sum c_ij x^i y^j is the polynomial sum_j (sum_i c_ij x_s^i) y^j at the V
  y-axis points.  With distinct y points the column's rank is the number
  of j with some x^i y^j in Delta and x_s^i != 0.  Every band of Delta
  holds x^0, which is nonzero on every column, so that is the number of
  nonempty bands.  At rank J + 1, J the last nonempty band, it is a
  Reed-Solomon code, MDS, of distance V - J; no matrix is formed and no
  word enumerated.
* dual_words (certify_dual_words, delta = 2 only): the caller supplies
  every dual word of weight at most r + 1 (Gopalan, Huang, Simitci &
  Yekhanin, "On the locality of codeword symbols", IEEE Trans. IT 58,
  2012).  The certificate is the exhaustive one, entry for entry.  A word
  x on S is orthogonal to C|_S exactly when its zero extension lies in
  C^perp, so C|_S holds the unit word e_i, i in S, exactly when no dual
  word supported inside S has i in its support.  Hence C|_S has distance
  >= 2, or is zero, exactly when every i in S lies in the support of a
  dual word inside S.  A repair set S of t thus holds a dual word y
  through t, and |S| >= wt(y); and the support of a lightest dual word
  through t is a repair set, since that word covers all of it.  So the
  scan, smallest size first, stops at the least weight w of a dual word
  through t.  At size w a passing S holds such a y with supp y inside S
  and wt(y) >= |S|, so S = supp y: the candidates are exactly the
  supports of the lightest words through t.  The scan takes the
  lexicographically least S minus t among them.  Of two sets of one size
  the lexicographically smaller holds the least element of their
  symmetric difference, and taking t from both leaves that difference
  alone, so this is the lexicographically least S.  Only the chosen
  supports have their blocks row-reduced and their words enumerated, as
  in the scan; each has rank at most |S| - 1, since a dual word lies
  inside it, so none is the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import (
    AssertionFailed,
    DualityViolated,
    InjectivityViolated,
    LengthMismatch,
    NotLocallyRecoverable,
    ParamRangeViolated,
    SearchBudgetExceeded,
    ZeroLocality,
)
from .gf import FieldSpec, make_field
from .grid_codes import GridCodeRecord, _require_distinct, instance_label
from .linear_codes import (
    LinearCode,
    _check_budget,
    _message_block,
    default_budget,
    euclidean_dual,
    from_spanning_set,
)

_SEARCH_BUDGET = 10**6
# Largest lemma family m: on a 2-core VM, in-process, lemma --m 200 takes
# 1.4-1.7 s and --m 250 about 3 s, nearly all in building the code.
LEMMA_M_CAP = 200
_BATCH_CELLS = 1 << 14  # cells in one stack of blocks, prefix states or words; sets peak memory


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


def _reduce(field: FieldSpec, stack: np.ndarray) -> np.ndarray:
    """Row-reduce, in place, every k x s matrix of an (N, k, s) stack.

    Returns each matrix's rank; its independent rows end up first and the
    rest zero.  Step c pivots every matrix with a nonzero entry in column c
    at or past its rank, and each row under the pivot becomes
    pivot * row - row[c] * pivot_row, which keeps the row space and needs
    no inverse.  Rows past the rank are zero left of column c, so a step
    touches only columns c onward.
    """
    k, s = stack.shape[1:]
    rows = np.arange(k)
    rank = np.zeros(stack.shape[0], dtype=np.int64)
    for c in range(s):
        live = (stack[:, :, c] != 0) & (rows >= rank[:, None])
        sets = np.flatnonzero(live.any(axis=1))
        if not sets.size:
            continue
        top, piv = rank[sets], live[sets].argmax(axis=1)
        stack[sets, top, c:], stack[sets, piv, c:] = stack[sets, piv, c:], stack[sets, top, c:]
        sub = stack[sets, :, c:]
        pivot_row = sub[np.arange(sets.size), top][:, None, :]
        elim = field.vsub(field.vmul(pivot_row[:, :, :1], sub),
                          field.vmul(sub[:, :, :1], pivot_row))
        stack[sets, :, c:] = np.where((rows > top[:, None])[:, :, None], elim, sub)
        rank[sets] += 1
    return rank


def _min_weights(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Least positive weight in the row space of each K x s matrix of an
    (M, K, s) stack, enumerating all q^K messages for every matrix at
    once; rows past a matrix's rank are zero and only repeat its words."""
    M, K, s = rows.shape
    gen = rows.transpose(1, 0, 2).reshape(K, M * s)
    total = field.q ** K
    block = max(1, _BATCH_CELLS // (M * s))
    best = np.full(M, s + 1)
    for start in range(0, total, block):
        msgs = _message_block(field.q, K, start, min(start + block, total))
        w = np.count_nonzero(field.matmul(msgs, gen).reshape(-1, M, s), axis=2)
        w[w == 0] = s + 1  # the zero word
        best = np.minimum(best, w.min(axis=0))
    return best


def _eliminate(field: FieldSpec, pivots: np.ndarray, block: np.ndarray):
    """One pivot step on every k x w matrix of an (N, k, w) stack.

    Row i of `pivots` is a column of matrix i's (it may lie outside the
    block).  Its first nonzero entry c, in row p, turns each row into
    c * row - row[pivot] * row_p, which keeps the row space, needs no
    inverse, and clears row p itself; a zero pivot column leaves the matrix
    as it is.  Returns the new stack and whether each matrix took a pivot.
    """
    mats = np.arange(len(pivots))
    top = (pivots != 0).argmax(axis=1)
    lead = pivots[mats, top]
    took = lead != 0
    lead[~took] = 1
    return field.vsub(field.vmul(lead[:, None, None], block),
                      field.vmul(pivots[:, :, None], block[mats, top][:, None, :])), took


def _ranks(field: FieldSpec, gen: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Rank of gen[:, S] for every row S of an (N, s) array of column sets.

    A set is read as a prefix, its first s - 2 columns, then a last column
    a and (when s >= 2) b.  The scan is lexicographic, so sets that share a
    prefix lie in runs, and each distinct prefix costs one pivot step on
    the whole generator, taken from the state of its one-shorter prefix.
    In that state a set's rank is the prefix's pivot count, plus 1 if
    column a has a pivot, plus 1 if column b is nonzero after a's step.
    Runs are taken a group at a time, so that a stack of k x n states stays
    within _BATCH_CELLS.
    """
    N, s = sets.shape
    k, n = gen.shape
    rank = np.zeros(N, dtype=np.int64)
    if not k:
        return rank
    depth = max(s - 2, 0)
    # starts[i, d]: set i begins a run of equal d-column prefixes
    starts = np.ones((N, depth + 1), dtype=bool)
    starts[1:, 0] = False
    starts[1:, 1:] = np.logical_or.accumulate(sets[1:, :depth] != sets[:-1, :depth], axis=1)
    heads = np.flatnonzero(starts[:, depth])
    ends = np.append(heads[1:], N)
    cap = max(1, _BATCH_CELLS // (k * n))
    for g in range(0, len(heads), cap):
        rows, stops = heads[g:g + cap], ends[g:g + cap]
        # states[j], base[j]: gen after the pivot steps of the j-th distinct
        # prefix of length d in this group, and their pivot count
        states, base = gen[None], np.zeros(1, dtype=np.int64)
        owner = np.zeros(len(rows), dtype=np.int64)
        for d in range(depth):
            new = starts[rows, d + 1]
            new[0] = True
            parent = owner[new]
            states, took = _eliminate(field, states[parent, :, sets[rows[new], d]], states[parent])
            base = base[parent] + took
            owner = np.cumsum(new) - 1
        lo, hi = rows[0], stops[-1]
        owner = np.repeat(owner, stops - rows)
        last = states[owner[:, None], :, sets[lo:hi, depth + 1:]].transpose(0, 2, 1)
        rest, took = _eliminate(field, states[owner, :, sets[lo:hi, depth]], last)
        rank[lo:hi] = base[owner] + took + rest.any(axis=(1, 2))
    return rank


def _first_repair_set(field: FieldSpec, gen: np.ndarray, sets: np.ndarray,
                      delta: int, budget):
    """(repair set, distance) for the first row of `sets` that repairs, or
    None.  `sets` holds column sets of one size in scan order; the result,
    and a BudgetExceeded at the first over-budget set before it, are what a
    scan of one set at a time would give.  Only the sets whose words are
    enumerated are row-reduced."""
    s = sets.shape[1]
    rank = _ranks(field, gen, sets)
    ok = rank == 0
    dist = np.zeros(len(sets), dtype=np.int64)
    stop = len(sets)
    # |S| < delta and rank |S| (distance 1) fail without enumeration
    need = np.flatnonzero((rank > 0) & (rank < s) & (s >= delta))
    if need.size:
        limit = default_budget() if budget is None else budget
        over = need[np.array([field.q ** k > limit for k in range(s + 1)])[rank[need]]]
        stop = over[0] if over.size else stop
        need = need[need < stop]
    if need.size:
        stack = gen[:, sets[need]].transpose(1, 0, 2)
        _reduce(field, stack)
        dist[need] = _min_weights(field, stack[:, :rank[need].max()])
        ok[need] = dist[need] >= delta
    hits = np.flatnonzero(ok[:stop])
    if hits.size:
        i = hits[0]
        return tuple(sorted(sets[i].tolist())), (int(dist[i]) if rank[i] else None)
    if stop < len(sets):
        _check_budget(field.q, int(rank[stop]), limit)
    return None


def _validate_rd(r: int, delta: int) -> None:
    if r < 1:
        raise ZeroLocality(f"need r >= 1, got {r}")
    if delta < 2:
        raise ParamRangeViolated(f"need delta >= 2, got {delta}")


def certify_grid_lines(rec: GridCodeRecord, r: int, delta: int) -> LocalityCertificate:
    """Certify rec's C(Delta) with the grid columns as repair sets, from
    Delta's band tops and the y points alone (module docstring); repeated
    y points or a column rank other than J + 1 raise InjectivityViolated."""
    _validate_rd(r, delta)
    size_cap = r + delta - 1
    H, V = rec.grid.H, rec.grid.V
    if V > size_cap:
        raise NotLocallyRecoverable(
            f"grid columns have {V} points, exceeding r+delta-1 = {size_cap}")
    where = instance_label(rec.grid.q, H, V, rec.dp.a, rec.dp.b)
    _require_distinct(where, "y", rec.points[1])
    bands = np.flatnonzero(rec.tops >= 0)
    J = int(bands[-1])
    if len(bands) != J + 1:  # len(bands) is the rank of every column
        raise InjectivityViolated(
            f"{where} grid column 0 has rank {len(bands)}, not J+1 = {J + 1}")
    if V - J < delta:
        raise NotLocallyRecoverable(
            f"column through coordinate 0 has punctured distance {V - J} < {delta}")
    columns = np.arange(H * V).reshape(H, V)
    entries = [LocalityEntry(t, tuple(columns[t // V].tolist()), V - J)
               for t in range(H * V)]
    return LocalityCertificate(r, delta, "grid_lines", tuple(entries))


def certify_locality(code: LinearCode, r: int, delta: int,
                     budget: int | None = None,
                     search_budget: int = _SEARCH_BUDGET) -> LocalityCertificate:
    """Certify (r, delta)-locality coordinate by coordinate, exhaustively.

    Candidate sets are scanned smallest-size-first, lexicographic within a
    size; the first whose punctured distance is at least delta repairs the
    coordinate, and NotLocallyRecoverable is proved when the scan finds
    nothing.  Ranks come from pivot steps shared by the sets of a common
    prefix (_ranks).  A set's distance comes from its rank alone when the
    rank is 0 or |S|; otherwise its block is row-reduced and its q^rank
    words enumerated.  `budget` caps that enumeration and `search_budget`
    the candidates per coordinate.
    """
    _validate_rd(r, delta)
    size_cap = r + delta - 1
    field, gen = code.field, code.generator
    n = code.n
    entries = []
    for t in range(n):
        tried, found = 0, None
        for size in range(1, size_cap + 1):
            total = comb(n - 1, size - 1)
            allowed = max(0, min(total, search_budget - tried))
            rests = combinations([c for c in range(n) if c != t], size - 1)
            per = max(1, _BATCH_CELLS // max(1, code.k * size))
            for start in range(0, allowed, per):
                sets = np.full((min(per, allowed - start), size), t)
                sets[:, 1:] = list(islice(rests, len(sets)))
                found = _first_repair_set(field, gen, sets, delta, budget)
                if found is not None:
                    break
            if found is not None:
                break
            if allowed < total:
                raise SearchBudgetExceeded(
                    f"coordinate {t}: more than {search_budget} candidate "
                    f"repair sets")
            tried += total
        if found is None:
            raise NotLocallyRecoverable(
                f"coordinate {t} admits no repair set of size <= {size_cap} "
                f"with punctured distance >= {delta}")
        entries.append(LocalityEntry(t, *found))
    return LocalityCertificate(r, delta, "exhaustive", tuple(entries))


def certify_dual_words(code: LinearCode, words, r: int) -> LocalityCertificate:
    """Certify (r, 2)-locality from dual words (module docstring).

    `words` is an (N, n) array that must hold every word of C^perp of
    weight at most r + 1; proving that is the caller's part.  Each word is
    checked against the generator, and a word outside C^perp raises
    DualityViolated.  Heavier words are ignored.  Each coordinate gets the
    lightest support through it, the lexicographically least on a tie;
    a coordinate in none raises the scan's NotLocallyRecoverable.  The
    distinct supports chosen are row-reduced, padded to one width with a
    zero column, and their words enumerated in one batch.
    """
    _validate_rd(r, 2)
    field, gen, n = code.field, code.generator, code.n
    words = np.asarray(words, dtype=np.int64)
    if words.ndim != 2 or words.shape[1] != n:
        raise LengthMismatch(f"dual words must form an (N, {n}) array, got {words.shape}")
    bad = np.flatnonzero(field.matmul(words, gen.T).any(axis=1))
    if bad.size:
        raise DualityViolated(
            f"word {bad[0]} {words[bad[0]].tolist()} is not a dual codeword: "
            f"G w^T != 0")
    wt = np.count_nonzero(words, axis=1)
    light = words[(wt > 0) & (wt <= r + 1)]
    supports = sorted({tuple(np.flatnonzero(w).tolist()) for w in light},
                      key=lambda sup: (len(sup), sup))
    cover = np.zeros((len(supports), n), dtype=bool)
    for i, sup in enumerate(supports):
        cover[i, list(sup)] = True
    missing = np.flatnonzero(~cover.any(axis=0))
    if missing.size:
        raise NotLocallyRecoverable(
            f"coordinate {missing[0]} admits no repair set of size <= {r + 1} "
            f"with punctured distance >= 2")
    first = cover.argmax(axis=0)  # supports are in (size, lexicographic) order
    used, slot = np.unique(first, return_inverse=True)
    cols = np.full((len(used), len(supports[used[-1]])), n)
    for j, i in enumerate(used):
        cols[j, :len(supports[i])] = supports[i]
    stack = np.hstack([gen, np.zeros((code.k, 1), dtype=np.int64)])[:, cols]
    stack = stack.transpose(1, 0, 2)
    rank = _reduce(field, stack)
    top = int(rank.max())
    _check_budget(field.q, top, None)
    dist = _min_weights(field, stack[:, :top])
    entries = [LocalityEntry(t, supports[first[t]],
                             int(dist[slot[t]]) if rank[slot[t]] else None)
               for t in range(n)]
    return LocalityCertificate(r, 2, "dual_words", tuple(entries))


@dataclass(frozen=True)
class LemmaFamilyCode:
    m: int
    code: LinearCode
    dual_code: LinearCode
    block_rows: np.ndarray  # m rows, weight 4 each
    straddle_row: np.ndarray  # the (1,1,0,0) pattern


def lemma_family(m: int) -> LemmaFamilyCode:
    """The binary [4m, 3m-1] code whose dual is span(v_1..v_m, w).

    m is capped at LEMMA_M_CAP before anything is allocated: the dual
    and its row reduction grow as m^2 cells and m^3 operations."""
    if not isinstance(m, int) or m < 1:
        raise ParamRangeViolated(f"need a positive integer m, got {m}")
    if m > LEMMA_M_CAP:
        raise ParamRangeViolated(f"m = {m} exceeds the cap {LEMMA_M_CAP}")
    field = make_field(2)
    blocks = np.repeat(np.eye(m, dtype=np.int64), 4, axis=1)
    straddle = np.tile(np.array([1, 1, 0, 0], dtype=np.int64), m)
    dual = from_spanning_set(field, list(blocks) + [straddle])
    code = euclidean_dual(dual)
    return LemmaFamilyCode(m, code, dual, blocks, straddle)


@dataclass(frozen=True)
class HeavyRowResult:
    min_weight: int
    max_weight: int
    count: int


def coset_words(fam: LemmaFamilyCode) -> np.ndarray:
    """Every word of the coset straddle + span(block rows), as uint8 rows:
    bit i of the word's index selects block row i, and the m blocks are the
    consecutive runs of four coordinates."""
    m = fam.m
    idx = np.arange(1 << m, dtype=np.int64)
    sel = ((idx[:, None] >> np.arange(m, dtype=np.int64)) & 1).astype(np.uint8)
    return np.repeat(sel, 4, axis=1) ^ fam.straddle_row.astype(np.uint8)


def heavy_row_check(fam: LemmaFamilyCode) -> HeavyRowResult:
    """Weights over the coset straddle + span(block rows), from the blocks.

    The block rows must be the m disjoint runs of four ones, and the
    straddle a binary word of weight exactly 2 on each run; otherwise
    AssertionFailed.  A coset word adds some of the blocks to the straddle,
    so on each run it equals the straddle's pattern or its complement, and
    both weigh 2 there: all 2^m words weigh 2m, with no enumeration.
    """
    m = fam.m
    if not np.array_equal(fam.block_rows, np.repeat(np.eye(m, dtype=np.int64), 4, axis=1)):
        raise AssertionFailed(f"the block rows are not the {m} disjoint runs of four ones")
    straddle = fam.straddle_row
    if straddle.shape != (4 * m,) or not np.isin(straddle, (0, 1)).all():
        raise AssertionFailed(f"the straddle row is not a binary word of length {4 * m}")
    weights = straddle.reshape(m, 4).sum(axis=1)
    bad = np.flatnonzero(weights != 2)
    if bad.size:
        raise AssertionFailed(
            f"the straddle row weighs {weights[bad[0]]} on run {bad[0]}, not 2")
    return HeavyRowResult(2 * m, 2 * m, 1 << m)
