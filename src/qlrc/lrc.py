"""(r, delta)-locality certification, plus the binary [4m, 3m-1] family
whose dual is spanned by block indicators and one straddling row.

A coordinate is certified by a repair set: an index set S of size at most
r + delta - 1 containing it whose punctured (projected) code C|_S has
minimum distance at least delta.  Every distance in a certificate is
proved, not claimed:

* exhaustive (certify_locality): C|_S is the row space of G_S, the
  columns S of the generator G.  For T inside S the words m G_S with
  m G_T = 0 are those of C|_S that vanish on T, a space of dimension
  rank G_S - rank G_T (the difference of the two left kernels).  So a
  nonzero word vanishes on T exactly when rank G_T < rank G_S (MacWilliams
  & Sloane, ch. 1), and d(C|_S) = |S| - max{|T| : rank G_T < rank G_S}.
  Rank only drops as columns are removed, so d(C|_S) >= delta exactly
  when every T of |S| - delta + 1 columns keeps the rank of S:
  C(|S|, delta - 1) ranks decide a set, and no word is enumerated.  Any
  rank - 1 columns drop the rank, so d(C|_S) <= |S| - rank + 1, and only
  sets with 0 < rank <= |S| - delta + 1 are tested; rank 0 is the zero
  code, which repairs trivially.  The scan is lexicographic, so sets
  sharing all but their last two columns come in runs: each distinct
  prefix costs one pivot step on G and each set one on its last two
  columns, which gives its rank.  A subset's rank comes from pivot steps
  on its own k x |T| block.  The set a coordinate takes has its exact
  distance found, as the largest delta whose test it passes.
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
  alone, so this is the lexicographically least S.  Each chosen support
  has its exact distance found from the ranks of its subsets, as the set
  a scan takes does; each has rank at most |S| - 1, since a dual word
  lies inside it, so none is the whole space.
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
from .linear_codes import LinearCode, euclidean_dual, from_spanning_set

_SEARCH_BUDGET = 10**6
# Largest lemma family m: on a 2-core VM, in-process, lemma --m 200 takes
# 1.4-1.7 s and --m 250 about 3 s, nearly all in building the code.
LEMMA_M_CAP = 200
_BATCH_CELLS = 1 << 14  # cells in one stack of blocks or prefix states; sets peak memory


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


def _block_ranks(field: FieldSpec, gen: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Rank of gen[:, T] for every row T of an (N, t) array of column sets;
    gen is one k x n generator, or an (N, k, n) stack of one per set.

    Each k x t block takes t - 1 pivot steps, each on its first column,
    which it then drops; the rank is their pivot count, plus 1 if the last
    column is then nonzero.  A stack holds at most _BATCH_CELLS cells, or
    one block.
    """
    N, t = sets.shape
    k = gen.shape[-2]
    rank = np.zeros(N, dtype=np.int64)
    if not k:
        return rank
    per = max(1, _BATCH_CELLS // (k * t))
    for lo in range(0, N, per):
        block = (gen[:, sets[lo:lo + per]].transpose(1, 0, 2) if gen.ndim == 2 else
                 np.take_along_axis(gen[lo:lo + per], sets[lo:lo + per, None, :], axis=2))
        for _ in range(t - 1):
            block, took = _eliminate(field, block[:, :, 0], block[:, :, 1:])
            rank[lo:lo + per] += took
        rank[lo:lo + per] += block.any(axis=(1, 2))
    return rank


def _row_bases(field: FieldSpec, gen: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """An (N, s, s) stack whose rows span the row space of gen[:, S], for
    every row S of an (N, s) array of column sets, zero rows padding.

    Step c keeps the pivot row of column c, if any, then clears column c
    from every row, the pivot row included; the kept rows and the block's
    rows span the same space after each step, and the block is zero after
    the last.  The kept rows are in echelon form, so they count the rank.
    A stack holds at most _BATCH_CELLS cells, or one block.
    """
    N, s = sets.shape
    k = gen.shape[0]
    bases = np.zeros((N, s, s), dtype=np.int64)
    per = max(1, _BATCH_CELLS // max(k * s, 1))
    for lo in range(0, N if k else 0, per):
        blocks, out = gen[:, sets[lo:lo + per]].transpose(1, 0, 2), bases[lo:lo + per]
        for c in range(s):
            pivot = blocks[np.arange(len(blocks)), (blocks[:, :, c] != 0).argmax(axis=1)]
            blocks, took = _eliminate(field, blocks[:, :, c], blocks)
            out[took, c] = pivot[took]
    return bases


def _distance_at_least(field: FieldSpec, gen: np.ndarray, sets: np.ndarray,
                       rank: np.ndarray, delta: int) -> np.ndarray:
    """Whether C|_S is nonzero with distance at least delta, for every row S
    of an (N, s) array of column sets of ranks `rank` (module docstring).

    A set with 0 < rank <= s - delta + 1 has its subsets of that size
    ranked a chunk of combinations at a time, and leaves at its first rank
    drop; a chunk takes at most _BATCH_CELLS cells of blocks, or one
    combination, so C(s, delta - 1) ranks bound the work per set.
    """
    s = sets.shape[1]
    t = s - delta + 1
    ok = (rank > 0) & (rank <= t)
    if not ok.any():
        return ok
    live = np.flatnonzero(ok)
    combos = combinations(range(s), t)
    per = max(1, _BATCH_CELLS // (gen.shape[-2] * t))
    while live.size and (chunk := list(islice(combos, max(1, per // live.size)))):
        gens = gen if gen.ndim == 2 else np.repeat(gen[live], len(chunk), axis=0)
        ranks = _block_ranks(field, gens, sets[live][:, chunk].reshape(-1, t))
        live = live[(ranks.reshape(len(live), -1) == rank[live, None]).all(axis=1)]
    return np.isin(np.arange(len(sets)), live)


def _distances(field: FieldSpec, gen: np.ndarray, sets: np.ndarray,
               rank: np.ndarray, known: int) -> list[int | None]:
    """d(C|_S) for every row S of an (N, s) array of column sets of ranks
    `rank`, each known to be at least `known`; None for the zero code.  gen
    is one generator or a stack of one per set, as in _block_ranks.
    Each distance is the largest delta that _distance_at_least passes."""
    dist, live = np.full(len(sets), known), np.arange(len(sets))
    for delta in range(known + 1, sets.shape[1] + 1):
        gens = gen if gen.ndim == 2 else gen[live]
        live = live[_distance_at_least(field, gens, sets[live], rank[live], delta)]
        dist[live] = delta
    return [int(d) if r else None for d, r in zip(dist, rank)]


def _first_repair_set(field: FieldSpec, gen: np.ndarray, sets: np.ndarray, delta: int):
    """(repair set, distance) for the first row of `sets` that repairs, or
    None.  `sets` holds column sets of one size in scan order."""
    rank = _ranks(field, gen, sets)
    hits = np.flatnonzero((rank == 0) | _distance_at_least(field, gen, sets, rank, delta))
    if not hits.size:
        return None
    i = hits[0]
    return (tuple(sorted(sets[i].tolist())),
            _distances(field, gen, sets[i:i + 1], rank[i:i + 1], delta)[0])


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
    H, V = rec.H, rec.V
    if V > size_cap:
        raise NotLocallyRecoverable(
            f"grid columns have {V} points, exceeding r+delta-1 = {size_cap}")
    where = instance_label(rec.q, H, V, rec.a, rec.b)
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
                     search_budget: int = _SEARCH_BUDGET) -> LocalityCertificate:
    """Certify (r, delta)-locality coordinate by coordinate, exhaustively.

    Candidate sets are scanned smallest-size-first, lexicographic within a
    size; the first whose punctured distance is at least delta repairs the
    coordinate, and NotLocallyRecoverable is proved when the scan finds
    nothing.  Ranks come from pivot steps shared by the sets of a common
    prefix (_ranks), and a set's distance from the ranks of its subsets
    (module docstring); no word is enumerated.  `search_budget` caps the
    candidates per coordinate.
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
                found = _first_repair_set(field, gen, sets, delta)
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
    distinct supports chosen are padded to one width with a zero column,
    which changes no distance, and their distances found in one batch, each
    from a basis of its block's row space: d(C|_S) depends on no more.
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
    gen = np.hstack([gen, np.zeros((code.k, 1), dtype=np.int64)])
    bases = _row_bases(field, gen, cols)
    rank = np.count_nonzero(bases.any(axis=2), axis=1)
    dist = _distances(field, bases, np.broadcast_to(np.arange(cols.shape[1]), cols.shape), rank, 1)
    entries = [LocalityEntry(t, supports[first[t]], dist[slot[t]]) for t in range(n)]
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
