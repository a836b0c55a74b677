"""Linear codes over a FieldSpec: RREF generators, duals, and exact
brute-force oracles for minimum distance and coset minimum weight.

Generator matrices are kept in reduced row echelon form with leftmost
pivots, so two codes are equal exactly when their generator matrices are
equal entry for entry.

The oracles enumerate codewords by information sets, with a lower bound
that grows across disjoint ones (Brouwer and Zimmermann; Zimmermann 1996;
Grassl, "Searching for linear codes with large minimum distance", 2006).
One pass finds both the least weight of a nonzero codeword and the least
weight of one outside a subcode, whose syndrome against the subcode is
nonzero.  Let G be the k x n generator.

* Information sets.  Gamma_j is a systematic generator: G row-reduced
  with its pivots P_j, so a codeword c = m @ Gamma_j equals m on P_j.
  The sets D_j = P_j minus every earlier P_i are disjoint, and r_j =
  |D_j| >= 1; Gamma_0 is G, with D_0 = P_0 and r_0 = k.
* The bound.  For each j every codeword is m_j @ Gamma_j for exactly one
  message m_j, and c is nonzero in D_j wherever m_j is, except on the
  k - r_j positions of P_j outside D_j.  So c has at least
  wt(m_j) - (k - r_j) nonzero entries in D_j.  Once every message of
  weight at most w_j has been enumerated for each Gamma_j, a codeword not
  yet seen has wt(m_j) >= w_j + 1 for every j, and since the D_j are
  disjoint, wt(c) >= L = sum_j max(0, w_j + 1 - (k - r_j)).
* Rounds.  Round w = 1, 2, ... enumerates the messages of weight w of
  every Gamma_j with w >= k - r_j, after any weights it skipped; a
  Gamma_j with w < k - r_j adds nothing to L.  Only messages whose first
  nonzero entry is 1 are taken: a nonzero multiple of a word has its
  weight and lies in the subcode exactly when the word does, so a word
  counts as enumerated when one of its multiples is.  After each Gamma_j
  the search stops once L reaches the least coset weight found, which is
  at least the least weight found: every word not enumerated weighs at
  least L, so both are exact.  At the latest it stops after Gamma_0's
  round k, when every nonzero word has been enumerated.
* Syndromes.  Each syndrome is linear in m, so its columns are appended
  to G and row reduction carries them.  The code columns alone have rank
  k, so a syndrome column never becomes a pivot.

A word is computed only off P_j, since it weighs w on P_j, and each chunk
holds at most _CELLS cells of messages and words.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptyInput,
    FieldMismatch,
    InvalidParameter,
    LengthMismatch,
    NotSubcode,
)
from .gf import FieldSpec

_CELLS = 1 << 16  # cap on the message and word cells of one enumerated chunk
_DEFAULT_BUDGET = 1 << 24


def default_budget(fallback: int = _DEFAULT_BUDGET) -> int:
    """Enumeration budget; the QLRC_BUDGET environment variable wins."""
    raw = os.environ.get("QLRC_BUDGET")
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidParameter(f"QLRC_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidParameter(f"QLRC_BUDGET must be positive, got {value}")
    return value


def _rref(field: FieldSpec, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns.

    Each pivot eliminates every other row that is nonzero in its column in
    one array operation, over columns c: onward; rows r and below are zero
    left of column c, so nothing to the left changes.
    """
    M = np.array(mat, dtype=np.int64, copy=True)
    rows, n = M.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == rows:
            break
        below = np.flatnonzero(M[r:, c])
        if below.size == 0:
            continue
        piv = r + int(below[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r, c:] = field.vscale(field.inv(int(M[r, c])), M[r, c:])
        others = np.flatnonzero(M[:, c])
        others = others[others != r]
        if others.size:
            M[others, c:] = field.vsub(
                M[others, c:], field.vmul(M[others, c:c + 1], M[r:r + 1, c:]))
        pivots.append(c)
        r += 1
    return M[:r], tuple(pivots)


class LinearCode:
    """A k-dimensional subspace of GF(q)^n with a canonical RREF generator."""

    __slots__ = ("field", "n", "generator", "pivots")

    def __init__(self, field: FieldSpec, n: int, generator: np.ndarray,
                 pivots: tuple[int, ...]):
        self.field = field
        self.n = int(n)
        self.generator = generator
        self.pivots = pivots

    @property
    def k(self) -> int:
        return int(self.generator.shape[0])

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and np.array_equal(self.generator, other.generator)
        )

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}]_{self.field.q})"


def _coerce_rows(field: FieldSpec, vectors) -> np.ndarray:
    rows = []
    length = None
    for v in vectors:
        arr = np.asarray(v, dtype=np.int64)
        if arr.ndim != 1:
            raise InvalidParameter("spanning vectors must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise FieldMismatch(
                f"entries must be encodings in [0, {field.q})")
        if length is None:
            length = arr.shape[0]
        elif arr.shape[0] != length:
            raise LengthMismatch(
                f"vector length {arr.shape[0]} differs from {length}")
        rows.append(arr)
    if not rows:
        raise EmptyInput("cannot build a code from an empty spanning set")
    return np.stack(rows)


def from_spanning_set(field: FieldSpec, vectors) -> LinearCode:
    mat = _coerce_rows(field, vectors)
    R, pivots = _rref(field, mat)
    return LinearCode(field, mat.shape[1], R, pivots)


def zero_code(field: FieldSpec, n: int) -> LinearCode:
    return LinearCode(field, n, np.zeros((0, n), dtype=np.int64), ())


def _dual_rows(field: FieldSpec, n: int, generator: np.ndarray,
               pivots: tuple[int, ...]) -> np.ndarray:
    """A basis of the Euclidean dual of an RREF generator: one row per free
    column f, e_f minus column f of the generator on the pivots."""
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    rows = np.zeros((len(free), n), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, list(pivots)] = field.vneg(generator[:, free]).T
    return rows


def euclidean_dual(code: LinearCode) -> LinearCode:
    rows = _dual_rows(code.field, code.n, code.generator, code.pivots)
    if not rows.shape[0]:
        return zero_code(code.field, code.n)
    R, pivots = _rref(code.field, rows)
    return LinearCode(code.field, code.n, R, pivots)


def in_row_space(code: LinearCode, rows) -> bool:
    """True when the vector, or every row of the matrix, lies in the code.

    The generator is in RREF with pivot columns P, so v is a codeword
    exactly when v = v[P] @ G.
    """
    v = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if v.shape[-1] != code.n:
        raise LengthMismatch(f"vector length {v.shape[-1]} != code length {code.n}")
    return np.array_equal(code.field.matmul(v[:, list(code.pivots)], code.generator), v)


def contains(outer: LinearCode, inner: LinearCode) -> bool:
    if outer.field != inner.field:
        raise FieldMismatch("codes live over different fields")
    if outer.n != inner.n:
        raise LengthMismatch(f"code lengths differ: {outer.n} vs {inner.n}")
    return in_row_space(outer, inner.generator)


def _check_budget(q: int, k: int, budget) -> None:
    """Raise BudgetExceeded when q^k words exceed the budget (None: the default)."""
    if budget is None:
        budget = default_budget()
    if q ** k > budget:
        raise BudgetExceeded(
            f"enumeration of {q}^{k} = {q ** k} codewords exceeds budget {budget}")


def _information_sets(field: FieldSpec, aug: np.ndarray, n: int,
                      pivots: tuple[int, ...]) -> list[tuple[np.ndarray, int]]:
    """Systematic generators of `aug` on disjoint column sets, as pairs
    (the columns outside the pivots, r_j).

    `aug` is an RREF generator with pivots `pivots` on its first n columns,
    followed by syndrome columns; it is Gamma_0.  Each later Gamma_j row
    reduces `aug` with the code columns that no Gamma_i pivots on first,
    then the used ones, then the syndromes.  D_j, its pivots among the
    unused columns, has r_j = |D_j| >= 1 columns; the search ends when the
    unused columns have rank 0.  In every order the code columns have rank
    k, so no syndrome column becomes a pivot.
    """
    k = aug.shape[0]
    syndromes = list(range(n, aug.shape[1]))
    used = list(pivots)
    unused = [c for c in range(n) if c not in pivots]
    sets = [(aug[:, unused + syndromes], k)]
    while unused:
        R, piv = _rref(field, aug[:, unused + used + syndromes])
        new = [unused[i] for i in piv if i < len(unused)]
        if not new:
            break
        sets.append((np.delete(R, piv, axis=1), len(new)))
        used += new
        unused = [c for c in unused if c not in new]
    return sets


def _message_words(field: FieldSpec, free: np.ndarray, w: int, binom: list):
    """m @ free for every message m of weight w whose first nonzero entry
    is 1, in chunks of at most _CELLS message and word cells.

    Message i is the support of colex rank i // (q-1)^(w-1), read off the
    combinatorial number system (binom[t][c] = C(c, t)), with the base
    q - 1 digits of i % (q-1)^(w-1), each plus 1, on all but its first
    position.
    """
    k, width = free.shape
    per = (field.q - 1) ** (w - 1)
    total = math.comb(k, w) * per
    rows = max(1, _CELLS // (width + w))
    for start in range(0, total, rows):
        rank, coef = np.divmod(np.arange(start, min(start + rows, total), dtype=np.int64), per)
        word = None
        for t in range(w, 0, -1):
            pos = np.searchsorted(binom[t], rank, side="right") - 1
            rank -= binom[t][pos]
            term = free[pos]
            if t > 1:
                coef, digit = np.divmod(coef, field.q - 1)
                term = field.vmul(digit[:, None] + 1, term)
            word = term if word is None else field.vadd(word, term)
        yield word


def _min_weights(field: FieldSpec, aug: np.ndarray, n: int,
                 pivots: tuple[int, ...]) -> tuple[int, int]:
    """The least weight of a nonzero word m @ aug[:, :n], and the least
    weight of one whose syndrome m @ aug[:, n:] is nonzero; with no
    syndrome columns, both are the first.

    The proof that both are exact is in the module docstring.
    """
    k = aug.shape[0]
    sets = _information_sets(field, aug, n, pivots)
    binom = [None]  # binom[t][c] = C(c, t), one row per round reached
    done = [0] * len(sets)
    best_d = best_coset = n + 1
    for w in range(1, k + 1):
        binom.append(np.array([math.comb(c, w) for c in range(k)], dtype=np.int64))
        for j, (free, r) in enumerate(sets):
            if w < k - r:
                continue  # this round would not raise Gamma_j's term of L
            for weight in range(done[j] + 1, w + 1):
                for word in _message_words(field, free, weight, binom):
                    wt = weight + np.count_nonzero(word[:, :n - k], axis=1)
                    best_d = min(best_d, int(wt.min()))
                    if aug.shape[1] > n:
                        wt = np.where(word[:, n - k:].any(axis=1), wt, n + 1)
                    best_coset = min(best_coset, int(wt.min()))
            done[j] = w
            bound = sum(max(0, w_j + 1 - (k - r_j)) for w_j, (_, r_j) in zip(done, sets))
            if bound >= best_coset:
                return best_d, best_coset
    return best_d, best_coset


def _check_code(code: LinearCode, budget) -> None:
    if code.k == 0:
        raise InvalidParameter("the zero code has no minimum distance")
    _check_budget(code.field.q, code.k, budget)


def _coset_min_weights(code: LinearCode, sub: LinearCode, budget) -> tuple[int, int]:
    """(d, coset d) of `code` against `sub` from one enumeration.

    A codeword m @ G lies in `sub` exactly when m lies in the row space of
    A, `sub`'s generator read on G's pivots.  Every nonzero codeword starts
    on a pivot of G, so A is in RREF; the rows N of its Euclidean dual
    span the messages orthogonal to A, and m @ G lies in `sub` exactly when
    its syndrome m @ N^T vanishes.  N^T has k - dim(sub) columns and is
    appended to G.
    """
    if not contains(code, sub):
        raise NotSubcode("second argument is not a subcode of the first")
    if sub.k == code.k:
        raise InvalidParameter("subcode equals the code; the coset is empty")
    _check_budget(code.field.q, code.k, budget)
    A = sub.generator[:, list(code.pivots)]
    syndromes = _dual_rows(code.field, code.k, A,
                           tuple(code.pivots.index(c) for c in sub.pivots)).T
    return _min_weights(code.field, np.hstack([code.generator, syndromes]),
                        code.n, code.pivots)


def min_distance_bruteforce(code: LinearCode, budget: int | None = None) -> int:
    """Exact d_H by information-set enumeration."""
    _check_code(code, budget)
    return _min_weights(code.field, code.generator, code.n, code.pivots)[0]


def min_weights_bruteforce(code: LinearCode, sub: LinearCode,
                           budget: int | None = None) -> tuple[int, int]:
    """(min_distance_bruteforce(code), the least weight of a word of `code`
    outside `sub`) from one enumeration.  The zero code and the budget are
    checked first, then that `sub` is a proper subcode."""
    _check_code(code, budget)
    return _coset_min_weights(code, sub, budget)
