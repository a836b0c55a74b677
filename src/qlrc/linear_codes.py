"""Linear codes over a FieldSpec: RREF generators, duals, and exact
brute-force oracles for minimum distance and coset minimum weight.

Generator matrices are kept in reduced row echelon form with leftmost
pivots, so two codes are equal exactly when their generator matrices are
equal entry for entry.

The oracles enumerate every codeword as a pair u + v, u from the first
rows of the generator and v from the rest.  The words -v are tabulated
once; then wt(u + v) = #{i : u_i != -v_i}, so each pair costs one
comparison per coordinate and no field arithmetic.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptyInput,
    FieldMismatch,
    InvalidParameter,
    LengthMismatch,
    NotQuadraticExtension,
    NotSubcode,
)
from .gf import FieldSpec

_CELLS = 1 << 20  # cap on table cells and on coordinate comparisons per outer block
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


def weight(v) -> int:
    return int(np.count_nonzero(np.asarray(v)))


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

    def codeword(self, message) -> np.ndarray:
        msg = np.asarray(message, dtype=np.int64)
        f = self.field
        out = np.zeros(self.n, dtype=np.int64)
        for j in range(self.k):
            out = f.vadd(out, f.vscale(int(msg[j]), self.generator[j]))
        return out


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


def full_code(field: FieldSpec, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def euclidean_dual(code: LinearCode) -> LinearCode:
    field, n = code.field, code.n
    pivot_set = set(code.pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if not free:
        return zero_code(field, n)
    rows = np.zeros((len(free), n), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, list(code.pivots)] = field.vneg(code.generator[:, free]).T
    R, pivots = _rref(field, rows)
    return LinearCode(field, n, R, pivots)


def frobenius_map(code: LinearCode, power: int) -> LinearCode:
    """Entrywise x -> x^power; an automorphism image when power = p^t."""
    field = code.field
    table = np.array([field.pow(x, power) for x in range(field.q)],
                     dtype=np.int64)
    R, pivots = _rref(field, table[code.generator])
    return LinearCode(field, code.n, R, pivots)


def hermitian_dual(code: LinearCode) -> LinearCode:
    field = code.field
    if field.m % 2 != 0:
        raise NotQuadraticExtension(
            f"GF({field.q}) is not a quadratic extension; Hermitian dual undefined")
    q0 = field.p ** (field.m // 2)
    return euclidean_dual(frobenius_map(code, q0))


def in_row_space(code: LinearCode, vec: np.ndarray) -> bool:
    field = code.field
    v = np.array(vec, dtype=np.int64, copy=True)
    if v.shape[0] != code.n:
        raise LengthMismatch(f"vector length {v.shape[0]} != code length {code.n}")
    for i, pc in enumerate(code.pivots):
        if v[pc] != 0:
            v = field.vsub(v, field.vscale(int(v[pc]), code.generator[i]))
    return not v.any()


def contains(outer: LinearCode, inner: LinearCode) -> bool:
    if outer.field != inner.field:
        raise FieldMismatch("codes live over different fields")
    if outer.n != inner.n:
        raise LengthMismatch(f"code lengths differ: {outer.n} vs {inner.n}")
    return all(in_row_space(outer, inner.generator[i]) for i in range(inner.k))


def _message_block(q: int, k: int, start: int, stop: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    pws = q ** np.arange(k, dtype=np.int64)
    return (idx[:, None] // pws[None, :]) % q


def _encode_block(field: FieldSpec, gen: np.ndarray, msgs: np.ndarray) -> np.ndarray:
    if field.m == 1:
        return (msgs @ gen) % field.p
    out = np.zeros((msgs.shape[0], gen.shape[1]), dtype=np.int64)
    for j in range(gen.shape[0]):
        out = field.vadd(out, field.vmul(msgs[:, j:j + 1], gen[j:j + 1, :]))
    return out


def _field_row_sums(field: FieldSpec, mat: np.ndarray) -> np.ndarray:
    """Sum of each row of mat in the field."""
    if field.m == 1:
        return mat.sum(axis=1) % field.p
    if field.p == 2:
        return np.bitwise_xor.reduce(mat, axis=1)
    out = np.zeros(mat.shape[0], dtype=np.int64)
    pw = 1
    for _ in range(field.m):
        out += (((mat // pw) % field.p).sum(axis=1) % field.p) * pw
        pw *= field.p
    return out


def inner_products(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T over the field: entry (i, j) is the dot product of a[i] and b[j].

    Entries must be encodings in [0, q).  A prime field takes one int64
    product, exact while n * (p - 1)^2 < 2^63; an extension field takes
    one vector product per row of b.
    """
    if field.m == 1:
        return (a @ b.T) % field.p
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for j in range(b.shape[0]):
        out[:, j] = _field_row_sums(field, field.vmul(a, b[j:j + 1, :]))
    return out


def _check_budget(q: int, k: int, budget) -> None:
    """Raise BudgetExceeded when q^k words exceed the budget (None: the default)."""
    if budget is None:
        budget = default_budget()
    if q ** k > budget:
        raise BudgetExceeded(
            f"enumeration of {q}^{k} = {q ** k} codewords exceeds budget {budget}")


def _split_min_weight(field: FieldSpec, gen: np.ndarray, n: int) -> int:
    """Min weight of the first n coordinates of m @ gen over messages m != 0.

    Columns of gen past n hold a syndrome; when there are any, only words
    with a nonzero syndrome count.  Each word is a pair u + v, u from the
    outer rows gen[:k_out] and v from the inner rows gen[k_out:]; the
    table holds every -v, and u + v is zero in a column exactly when u
    equals the table entry there.
    """
    q, k, width = field.q, gen.shape[0], gen.shape[1]
    k_in = k // 2
    while k_in and q ** k_in * width > _CELLS:
        k_in -= 1
    k_out = k - k_in
    entry = np.min_scalar_type(q - 1)
    table = field.vneg(_encode_block(
        field, gen[k_out:], _message_block(q, k_in, 0, q ** k_in)))
    table = np.ascontiguousarray(table.T, dtype=entry)  # one row per coordinate
    block = max(1, _CELLS // (table.shape[1] * width))
    total = q ** k_out
    best = n + 1
    for start in range(0, total, block):
        stop = min(start + block, total)
        outer = _encode_block(field, gen[:k_out], _message_block(q, k_out, start, stop))
        outer = np.ascontiguousarray(outer.T, dtype=entry)
        w = np.zeros((stop - start, table.shape[1]), dtype=np.min_scalar_type(n + 1))
        for i in range(n):
            w += outer[i][:, None] != table[i][None, :]
        if width > n:
            inside = np.ones(w.shape, dtype=bool)
            for i in range(n, width):
                inside &= outer[i][:, None] == table[i][None, :]
            w[inside] = n + 1
        elif start == 0:
            w[0, 0] = n + 1  # the zero word
        best = min(best, int(w.min()))
        if best == 1:
            break
    return best


def min_distance_bruteforce(code: LinearCode, budget: int | None = None) -> int:
    """Exact d_H by enumerating every nonzero codeword."""
    if code.k == 0:
        raise InvalidParameter("the zero code has no minimum distance")
    _check_budget(code.field.q, code.k, budget)
    return _split_min_weight(code.field, code.generator, code.n)


def coset_min_weight_bruteforce(code: LinearCode, sub: LinearCode,
                                budget: int | None = None) -> int:
    """Exact min Hamming weight over codewords of `code` outside `sub`.

    A codeword m @ G lies in `sub` exactly when its syndrome against the
    parity rows of `sub` vanishes.  Syndromes are linear, m @ G @ P^T =
    m @ S, and S has rank dim(code) - dim(sub); the oracle appends a column
    basis of S to G and enumerates syndrome and word together.
    """
    if not contains(code, sub):
        raise NotSubcode("second argument is not a subcode of the first")
    if sub.k == code.k:
        raise InvalidParameter("subcode equals the code; the coset is empty")
    _check_budget(code.field.q, code.k, budget)
    field = code.field
    syndromes = inner_products(field, code.generator, euclidean_dual(sub).generator)
    basis, _ = _rref(field, syndromes.T)
    best = _split_min_weight(field, np.hstack([code.generator, basis.T]), code.n)
    if best > code.n:
        raise InvalidParameter("no codeword outside the subcode was found")
    return best
