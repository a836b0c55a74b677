"""Definition-level code that only the tests read.

Each function here is either a small convenience for tests or the plain
computation that a proof in `src/` replaced, kept as its oracle:

* `hermitian_lift_by_row_reduction` spans the lift over GF(q^2) and takes
  its Hermitian dual through `frobenius_map` and `hermitian_dual`, where
  `css.hermitian_lift` proves both by extension of scalars.
* `embedding_by_root_search` finds the image of X in GF(q^2) by a scalar
  root search, where `gf.quadratic_extension` runs one vector Horner pass.
* `prime_powers_by_division` factors every integer, where
  `verifier.prime_powers` sieves.
* `witness` evaluates the word that reaches the coset distance, and
  `inv_derivs` and `moments` the axis twist factors and moments, where
  `grid_codes` proves both distances from the band tops and takes the
  moments in closed form once the axis points pass their check.  They
  reduce whole blocks with `vprod` and `vsum`, and expand each witness
  factor by its q-binomial closed form (`root_product`).
* `vanishing_values_by_loop`, `root_product_by_loop`, `horner` and
  `moments_by_halving` multiply, expand, evaluate and sum one axis point or
  one coefficient at a time, where the block oracles above reduce whole
  blocks.
* `monomial_distance` is the footprint (H - i)(V - j) of one monomial, and
  `twist_vector` the grid twist as one vector.
* `monomials` spells band tops out as the set of `Monomial`s they hold.
* `split_min_weight` enumerates every codeword as a pair u + v, where
  `linear_codes` enumerates by information sets and stops at a lower
  bound; `split_min_distance` and `split_coset_min_weight` are its two
  oracles.  `message_block` lists messages by their base-q index.
* `coset_min_weight_bruteforce` is the coset half of
  `linear_codes.min_weights_bruteforce`, with its subcode errors first.
* `mirror_code` row-reduces the evaluation rows of Delta* into C(Delta*),
  where `css.oracle_distances` tests coset membership by a selector on
  the messages of C(Delta).
* `reduce_stack` row-reduces a stack of blocks, where `lrc` ranks sets
  by pivot steps that keep no row space.
* `is_irreducible_by_division` divides by every monic polynomial of degree
  at most m/2, and `default_modulus_by_division` tests candidates with it
  one at a time, where `gf` runs Ben-Or's test on a window of candidates.
* `first_primitive_by_exponents` tests g = 1, 2, ... one at a time by
  g^((q-1)/l) != 1 in packed-digit integer arithmetic, and `cyclic_powers`
  walks one element's powers by int64 digit matrices (`mul_matrix`), where
  `gf` walks one generator on float digit rows and gathers the smallest
  primitive's table from it.  `least_primitive_by_walk` walks g = 1, 2,
  ... in GF(p) until one has order p - 1, where `gf` walks only the first
  g that passes the exponent test.
* `row_to_json` is a sweep row as the dict `json.dumps` writes, where
  `VerdictRow.json_line` writes the text from the row's fields.
* `run_sweep` collects a `Sweep`'s rows, failures and skip count into a
  `SweepResult`.
"""

from __future__ import annotations

from contextlib import closing
from typing import NamedTuple

import numpy as np

from qlrc import LiftResult, LinearCode, Sweep, SweepSpec, contains, euclidean_dual
from qlrc import from_spanning_set, grid_codes, quadratic_extension
from qlrc.errors import InvalidParameter, NotDualContaining
from qlrc.gf import _digits, _powers, split_prime_power
from qlrc.linear_codes import _coset_min_weights, _rref


class NotQuadraticExtension(InvalidParameter):
    pass


class ExponentOutOfRange(InvalidParameter):
    pass


class Monomial(NamedTuple):
    i: int
    j: int


def monomials(tops) -> frozenset[Monomial]:
    """Every x^i y^j with i <= tops[j]."""
    return frozenset(Monomial(i, j) for j, top in enumerate(tops) for i in range(top + 1))


def weight(v) -> int:
    return int(np.count_nonzero(np.asarray(v)))


def full_code(field, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def codeword(code: LinearCode, message) -> np.ndarray:
    msg = np.asarray(message, dtype=np.int64)
    return code.field.matmul(msg[None, :], code.generator)[0]


def frobenius_map(code: LinearCode, power: int) -> LinearCode:
    """Entrywise x -> x^power; an automorphism image when power = p^t."""
    field = code.field
    R, pivots = _rref(field, field.vpow(code.generator, power))
    return LinearCode(field, code.n, R, pivots)


def hermitian_dual(code: LinearCode) -> LinearCode:
    field = code.field
    if field.m % 2 != 0:
        raise NotQuadraticExtension(
            f"GF({field.q}) is not a quadratic extension; Hermitian dual undefined")
    q0 = field.p ** (field.m // 2)
    return euclidean_dual(frobenius_map(code, q0))


def hermitian_lift_by_row_reduction(code: LinearCode) -> LiftResult:
    """Span the code over GF(q^2) and test Hermitian dual containment."""
    if not contains(code, euclidean_dual(code)):
        raise NotDualContaining(
            "code does not contain its Euclidean dual; the lift is not defined")
    pair = quadratic_extension(code.field)
    rows = [pair.embed_vector(code.generator[i]) for i in range(code.k)]
    lifted = from_spanning_set(pair.ext, rows)
    assert lifted.k == code.k, f"lift changed the dimension: {lifted.k} != {code.k}"
    hd = hermitian_dual(lifted)
    return LiftResult(lifted=lifted, pair=pair, hermitian_dual_code=hd,
                      dual_containing=contains(lifted, hd))


def embedding_by_root_search(field, ext) -> tuple[int, ...]:
    """The images in ext = GF(q^2) of GF(q)'s elements, X mapped to the
    first root of the base modulus in encoding order, one scalar at a time."""
    if field.m == 1:
        return tuple(range(field.q))
    tau = None
    for cand in range(ext.q):
        acc = 0
        for c in reversed(field.modulus):
            acc = ext.add(ext.mul(acc, cand), c % field.p)
        if acc == 0:
            tau = cand
            break
    emb = []
    for v in range(field.q):
        acc = 0
        tp = 1
        for c in field.coeffs(v):
            acc = ext.add(acc, ext.mul(c, tp))
            tp = ext.mul(tp, tau)
        emb.append(acc)
    return tuple(emb)


def prime_powers_by_division(limit: int, start: int = 3) -> tuple[int, ...]:
    """All prime powers q with start <= q <= limit, each q factored."""
    out = []
    for q in range(max(start, 2), limit + 1):
        try:
            split_prime_power(q)
        except InvalidParameter:
            continue
        out.append(q)
    return tuple(out)


def monomial_distance(mono, H: int, V: int) -> int:
    i, j = mono
    if not (0 <= i <= H - 1 and 0 <= j <= V - 1):
        raise ExponentOutOfRange(f"monomial {mono} outside the {H}x{V} exponent box")
    return (H - i) * (V - j)


# -- the witness and the axis moments, evaluated in blocks ---------------------


def vlog(field, xs: np.ndarray) -> np.ndarray:
    """log_alpha of each nonzero entry of xs."""
    return field._log_np[xs]


def vsum(field, xs: np.ndarray, axis: int) -> np.ndarray:
    """The sums of xs along axis: mod p, XOR for p = 2, or each base-p
    digit summed mod p for odd p with m > 1."""
    if field.m == 1:
        return xs.sum(axis) % field.p
    if field.p == 2:
        return np.bitwise_xor.reduce(xs, axis)
    weights = field.p ** np.arange(field.m)
    digits = xs[..., None] // weights % field.p
    return digits.sum(axis % xs.ndim) % field.p @ weights


def vprod(field, xs: np.ndarray, axis: int) -> np.ndarray:
    """The products of xs along axis, by summing logs; 0 where a factor is 0."""
    logs = vlog(field, xs).sum(axis) % (field.q - 1)
    return np.where(xs.all(axis), field._exp_np[logs], 0)


BLOCK_CELLS = 2**18  # cells per block of a reduction: 2 MiB of int64


def by_blocks(block, rows: int, cols: int) -> np.ndarray:
    """block(r) for consecutive slices r of range(rows), each of at most
    BLOCK_CELLS // cols rows, concatenated."""
    step = max(1, BLOCK_CELLS // cols)
    return np.concatenate([block(slice(s, s + step)) for s in range(0, rows, step)])


def outer(field, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The grid vector with entry xs[i] * ys[j] at position i*V + j."""
    return field.vmul(xs[:, None], ys[None, :]).ravel()


def vanishing_values(field, pts: np.ndarray, count: int) -> np.ndarray:
    """prod_{i < count} (z - pts[i]) at every axis point z: 0 at the roots
    pts[:count], and one product per later point."""
    rest = pts[count:]
    return np.concatenate((np.zeros(count, dtype=np.int64), by_blocks(
        lambda r: vprod(field, field.vsub(rest[r, None], pts[:count]), 1), len(rest), count)))


def root_product(field, pts: np.ndarray, count: int) -> np.ndarray:
    """Coefficients, lowest degree first, of prod_{i < count} (Z - pts[i]) for
    1 <= count < len(pts) axis points, by the q-binomial closed form.

    On an axis of N points, beta of order N - 1, the product is
    Z prod_{i=1..n} (Z - beta^i), n = count - 1.  Cauchy's q-binomial
    theorem (Andrews, The Theory of Partitions, ch. 3), prod_{i<n} (1 +
    beta^i t) = sum_j beta^(j(j-1)/2) [n j] t^j, at t = -beta/Z gives the
    coefficient of Z^(n-j) as (-1)^j beta^(j(j+1)/2) [n j], with [n j] =
    L(n) / (L(j) L(n-j)) and L(k) = prod_{i<=k} (1 - beta^i).  A witness
    factor has count = floor(h + a) (floor(v + b)), and 2a < H - 1
    (2b < V - 1) puts n <= N - 3 < ord beta, so no 1 - beta^i vanishes and
    every coefficient is nonzero.
    """
    n, log_beta = count - 1, (field.q - 1) // (len(pts) - 1)
    # L[k] = log prod_{i=1..k} (1 - beta^i), with 1 - pts[0] = 1 for k = 0
    L = np.cumsum(vlog(field, field.vsub(np.int64(1), pts[:count])))
    j = np.arange(count)
    c = field.vpow(field.primitive,
                   (L[n] - L[j] - L[n - j] + log_beta * (j * (j + 1) // 2)) % (field.q - 1))
    return np.concatenate(([0], np.where(j % 2, field.vneg(c), c)[::-1]))


def poly_values(field, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients, lowest degree first, at every
    point: a block of the Vandermonde matrix of the points times coeffs."""
    es = np.arange(len(coeffs))
    return by_blocks(lambda r: vsum(field, field.vmul(field.vpow(pts[r, None], es), coeffs), 1),
                     len(pts), len(es))


def axis_witness(field, pts: np.ndarray, count: int):
    """One axis factor of the witness: prod_{i < count} (z - pts[i]) at every
    axis point, its coefficients, and the values those coefficients give."""
    coeffs = root_product(field, pts, count)
    return vanishing_values(field, pts, count), coeffs, poly_values(field, coeffs, pts)


class Witness(NamedTuple):
    vector: np.ndarray  # the word on the grid
    support: np.ndarray  # H x V, True where x^i y^j has a nonzero coefficient
    evaluated: np.ndarray  # the word from those coefficients


def witness(rec) -> Witness:
    """prod_{i<A} (x - x_i) * prod_{j<B} (y - y_j), A = floor(h + a) and
    B = floor(v + b), on the record's grid: the word of least weight
    outside the mirror code (`grid_codes.band_distances`)."""
    field, (xs, ys), (H, V) = rec.field, rec.points, (rec.H, rec.V)
    A, B = (H - 1) // 2 + rec.a, (V - 1) // 2 + rec.b
    vx, cx, px = axis_witness(field, xs, A)
    vy, cy, py = axis_witness(field, ys, B)
    support = np.zeros((H, V), dtype=bool)
    support[:A + 1, :B + 1] = (cx != 0)[:, None] & (cy != 0)[None, :]
    return Witness(outer(field, vx, vy), support, outer(field, px, py))


def inv_derivs(field, pts: np.ndarray, N: int) -> np.ndarray:
    """1 / g_N'(z) = (N z^(N-1) - 1)^(q-2) at every point z; 0 where g_N'(z) = 0."""
    deriv = field.vsub(field.vscale(N % field.p, field.vpow(pts, N - 1)), np.int64(1))
    return field.vpow(deriv, field.q - 2)


def moments(field, pts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """m[e] = sum_s weights[s] * pts[s]^e for e < 2 len(pts) - 1."""
    es = np.arange(2 * len(pts) - 1)
    return by_blocks(lambda r: vsum(field, field.vmul(field.vpow(pts, es[r, None]), weights), 1),
                     len(es), len(pts))


def twist_vector(field, H: int, V: int) -> np.ndarray:
    """w_t = 1 / (g_H'(x_t) * g_V'(y_t)) for g_N(Z) = Z^N - Z, from
    grid_codes' axis points as they are at call time."""
    return outer(field, *(inv_derivs(field, grid_codes._axis_points(field, N), N) for N in (H, V)))


def vanishing_values_by_loop(field, pts: np.ndarray, count: int) -> np.ndarray:
    """prod_{i < count} (z - pts[i]) at every point z, one factor at a time."""
    out = np.ones(len(pts), dtype=np.int64)
    for i in range(count):
        out = field.vmul(out, field.vsub(pts, pts[i:i + 1]))
    return out


def root_product_by_loop(field, roots: np.ndarray) -> np.ndarray:
    """Coefficients, lowest degree first, of prod (Z - r), one root at a time."""
    coeffs = np.ones(1, dtype=np.int64)
    for r in roots:
        coeffs = field.vsub(np.concatenate(([0], coeffs)),
                            field.vscale(int(r), np.concatenate((coeffs, [0]))))
    return coeffs


def horner(field, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients, lowest degree first, at every
    point, by Horner's rule."""
    out = np.zeros(len(pts), dtype=np.int64)
    for c in coeffs[::-1]:
        out = field.vadd(field.vmul(out, pts), c)
    return out


def moments_by_halving(field, pts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """m[e] = sum_s weights[s] * pts[s]^e for e < 2 len(pts) - 1: blocks of
    at most 2^18 terms, each summed by halving."""
    es = np.arange(2 * len(pts) - 1)
    step = max(1, 2**18 // len(es))
    m = np.zeros((1, len(es)), dtype=np.int64)
    for s in range(0, len(pts), step):
        terms = field.vmul(weights[s:s + step, None], field.vpow(pts[s:s + step, None], es))
        m = np.concatenate((m, terms))
        while len(m) > 1:
            half = len(m) // 2
            m = np.concatenate((field.vadd(m[:half], m[half:2 * half]), m[2 * half:]))
    return m[0]


def message_block(q: int, k: int, start: int, stop: int) -> np.ndarray:
    """Messages start..stop-1 of GF(q)^k, digit i of each index in column i."""
    idx = np.arange(start, stop, dtype=np.int64)
    pws = q ** np.arange(k, dtype=np.int64)
    return (idx[:, None] // pws[None, :]) % q


def coset_min_weight_bruteforce(code: LinearCode, sub: LinearCode,
                                budget: int | None = None) -> int:
    """Exact min Hamming weight over codewords of `code` outside `sub`."""
    return _coset_min_weights(code, sub, budget)[1]


def mirror_code(rec) -> LinearCode:
    """C(Delta*), the mirror subcode of a grid record, row-reduced from the
    evaluation rows of Delta*."""
    field = rec.field
    return from_spanning_set(
        field, grid_codes._evaluation_rows(field, *rec.points, rec.tops_perp))


def reduce_stack(field, stack: np.ndarray) -> np.ndarray:
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


SPLIT_CELLS = 1 << 20  # split_min_weight's default cap on table cells and comparisons per block


def split_min_weight(field, gen: np.ndarray, n: int, cells: int = SPLIT_CELLS) -> int:
    """Min weight of the first n coordinates of m @ gen over messages m != 0.

    Columns of gen past n hold a syndrome; when there are any, only words
    with a nonzero syndrome count.  Each word is a pair u + v, u from the
    outer rows gen[:k_out] and v from the inner rows gen[k_out:]; the
    table holds every -v, and u + v is zero in a column exactly when u
    equals the table entry there.
    """
    q, k, width = field.q, gen.shape[0], gen.shape[1]
    k_in = k // 2
    while k_in and q ** k_in * width > cells:
        k_in -= 1
    k_out = k - k_in
    entry = np.min_scalar_type(q - 1)
    table = field.vneg(field.matmul(message_block(q, k_in, 0, q ** k_in), gen[k_out:]))
    table = np.ascontiguousarray(table.T, dtype=entry)  # one row per coordinate
    block = max(1, cells // (table.shape[1] * width))
    total = q ** k_out
    best = n + 1
    for start in range(0, total, block):
        stop = min(start + block, total)
        outer = field.matmul(message_block(q, k_out, start, stop), gen[:k_out])
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


def split_min_distance(code: LinearCode, cells: int = SPLIT_CELLS) -> int:
    return split_min_weight(code.field, code.generator, code.n, cells)


def split_coset_min_weight(code: LinearCode, sub: LinearCode, cells: int = SPLIT_CELLS) -> int:
    """Min weight over codewords of `code` outside `sub`: a column basis of
    the syndromes m @ G @ P^T against the parity rows P of `sub` is
    appended to G."""
    field = code.field
    syndromes = field.matmul(code.generator, euclidean_dual(sub).generator.T)
    basis, _ = _rref(field, syndromes.T)
    return split_min_weight(field, np.hstack([code.generator, basis.T]), code.n, cells)


# -- field construction by trial division and digit-matrix walks --------------


def poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def poly_mod(a, mod, p: int) -> tuple[int, ...]:
    a = list(poly_trim(tuple(a)))
    mod = poly_trim(tuple(mod))
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = list(poly_trim(tuple(a)))
    return tuple(a)


def is_irreducible_by_division(mod: tuple[int, ...], p: int) -> bool:
    mod = poly_trim(mod)
    m = len(mod) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for tail in range(p**d):
            divisor = _digits(tail, p, d) + (1,)
            if not poly_mod(mod, divisor, p):
                return False
    return True


def default_modulus_by_division(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for tail in range(p**m):
        cand = _digits(tail, p, m) + (1,)
        if is_irreducible_by_division(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {m} over GF({p})")


def mul_matrix(c: np.ndarray, tail: np.ndarray, p: int) -> np.ndarray:
    """The m x m matrix over GF(p) of x -> c*x on base-p digit rows.

    Row i holds the digits of c*X^i.  It is row i-1 shifted up one degree,
    with the overflow coefficient times X^m = -tail folded back in.
    """
    m = len(c)
    mat = np.empty((m, m), dtype=np.int64)
    mat[0] = c
    for i in range(1, m):
        shifted = np.concatenate(([0], mat[i - 1, :-1]))
        mat[i] = (shifted - mat[i - 1, -1] * tail) % p
    return mat


def cyclic_powers(p: int, m: int, modulus: tuple[int, ...],
                  g: int) -> tuple[int, np.ndarray | None]:
    """The order of g and, if g is primitive, the encodings of g^0 .. g^(q-2).

    Doubling: the digit rows of g^0 .. g^(k-1), times the matrix of
    c = g^k, give g^k .. g^(2k-1); then c is squared by the same matrix.
    The order is the first positive exponent whose power is 1, so the walk
    stops in the block where it appears.
    """
    n = p**m - 1
    tail = np.array(modulus[:m], dtype=np.int64)
    place = p ** np.arange(m, dtype=np.int64)
    powers = np.ones(n, dtype=np.int64)
    c = np.array(_digits(g, p, m), dtype=np.int64)
    done = 1
    while done < n:
        take = min(done, n - done)
        mat = mul_matrix(c, tail, p)
        block = (powers[:take, None] // place % p) @ mat % p @ place
        ones = np.flatnonzero(block == 1)
        if ones.size:
            return done + int(ones[0]), None
        powers[done:done + take] = block
        c = c @ mat % p
        done += take
    return n, powers


def first_primitive_by_exponents(p: int, m: int, modulus: tuple[int, ...]) -> int:
    """The smallest encoding g with g^((q-1)/l) != 1 for every prime l | q-1,
    each candidate in exact integer arithmetic: pow(g, e, p) in a prime
    field, square-and-multiply on packed digits otherwise."""
    q = p**m
    n, ells, f = q - 1, [], 2
    while f * f <= n:
        if n % f == 0:
            ells.append(f)
            while n % f == 0:
                n //= f
        f += 1
    exponents = [(q - 1) // ell for ell in ells + ([n] if n > 1 else [])]
    if m == 1:
        return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in exponents))

    # digits in s-bit slots of one integer, so one product multiplies two
    # polynomials; no slot carries (a coefficient stays below m^2 p^3)
    s = (m * m * p**3).bit_length()
    slot = (1 << s) - 1
    shifts = range(0, s * m, s)

    def pack(digits):
        return sum(d << shift for d, shift in zip(digits, shifts))

    # fold[t - m] holds X^t mod the modulus, for m <= t <= 2m-2
    rows = [tuple((-c) % p for c in modulus[:m])]
    for _ in range(m - 2):
        prev = rows[-1]
        rows.append(tuple((a + prev[-1] * b) % p for a, b in zip((0,) + prev[:-1], rows[0])))
    fold = [pack(row) for row in rows]

    def mul(a, b):
        prod = a * b
        high, low = prod >> (s * m), prod & ((1 << (s * m)) - 1)
        for row in fold:
            if not high:
                break
            low += (high & slot) * row
            high >>= s
        return sum((((low >> shift) & slot) % p) << shift for shift in shifts)

    def power(a, e):
        out = a
        for bit in bin(e)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, a)
        return out

    return next(g for g in range(2, q)
                if all(power(pack(_digits(g, p, m)), e) != 1 for e in exponents))


def least_primitive_by_walk(p: int) -> tuple[int, np.ndarray]:
    """The least g in GF(p) whose powers, walked in full, have order p - 1,
    and the encodings of g^0 .. g^(p-2)."""
    for g in range(1, p):
        order, powers = _powers(p, 1, np.full((1, 1), float(g)))
        if order == p - 1:
            return g, powers
    raise AssertionError(f"no primitive element in GF({p})")  # pragma: no cover


def row_to_json(row) -> dict:
    """A VerdictRow as a dict, keys in the order of its JSON line."""
    return {
        "mode": row.mode,
        "q": row.q, "H": row.H, "V": row.V, "a": row.a, "b": row.b,
        "n": row.n, "k": row.k, "k_classical": row.k_classical,
        "d": row.d, "d_classical": row.d_classical,
        "r": row.r, "delta": row.delta,
        "impure": row.impure,
        "bounds": {bid: rep.to_json() for bid, rep in row.reports.items()},
        "oracle": row.oracle,
        "ok": row.ok,
        "message": row.message,
    }


class SweepResult(NamedTuple):
    rows: list
    failures: list
    skipped: int

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Every row of a Sweep, in (q, H, V, a, b) order, with its tallies."""
    with closing(Sweep(spec)) as sweep:
        rows = list(sweep)
    return SweepResult(rows, sweep.failures, sweep.skipped)
