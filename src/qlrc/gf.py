"""Finite fields GF(p^m) with exact table-driven arithmetic.

Elements are encoded as integers in [0, p^m): the base-p digits of the
encoding are the coefficients of the polynomial-basis representation,
lowest degree first.  Every field gets exp/log tables of length q, so
multiplication, inversion and powers are O(1) lookups (prime fields
multiply directly mod p) and memory grows linearly with q.

Addition is the one operation whose path depends on the encoding, and
`vadd` has three: mod p for m = 1, XOR for p = 2, and Zech logarithms for
odd p with m > 1, x + y = x (1 + y/x) with log(1 + alpha^k) tabulated
(Lidl & Niederreiter, Finite Fields, ch. 10).  Negation multiplies by
p - 1, subtraction adds the negation, and the scalar operations are the
vector ones on scalars; `matmul` is the one matrix product over the field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssertionFailed,
    DivisionByZero,
    InvalidParameter,
    NonPrimeCharacteristic,
    NotPrimitive,
    ReducibleModulus,
)


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division up to sqrt(n)."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, smallest first."""
    out = []
    while n > 1:
        f = _smallest_factor(n)
        out.append(f)
        while n % f == 0:
            n //= f
    return out


def _is_prime(p: int) -> bool:
    return p >= 2 and _smallest_factor(p) == p


# The largest field order qlrc builds: GF(2^20)'s tables peak at about 240 MiB.
FIELD_ORDER_CAP = 2**20


def check_field_order(p: int, m: int = 1) -> None:
    """Raise InvalidParameter when p^m exceeds FIELD_ORDER_CAP (m >= 1, and
    p >= 2 when m > 1).

    Nothing is factored, and p^m is formed only for m below the cap's bit
    length: beyond it, p >= 2 already puts p^m over the cap.
    """
    if m >= FIELD_ORDER_CAP.bit_length() or p**m > FIELD_ORDER_CAP:
        q = str(p) if m == 1 else f"{p}^{m}"
        raise InvalidParameter(f"field order {q} exceeds the cap 2^20 = {FIELD_ORDER_CAP}")


def split_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, or raise InvalidParameter."""
    if q < 2:
        raise InvalidParameter(f"field order must be at least 2, got {q}")
    p = _smallest_factor(q)
    m, t = 0, q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise InvalidParameter(f"{q} is not a prime power")
    return p, m


# -- polynomial helpers over GF(p); coefficient tuples, lowest degree first --


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(out)


def _encode(coeffs, base: int) -> int:
    value = 0
    for c in reversed(tuple(coeffs)):
        value = value * base + int(c)
    return value


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(a, mod, p: int) -> tuple[int, ...]:
    a = list(_poly_trim(tuple(a)))
    mod = _poly_trim(tuple(mod))
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a = list(_poly_trim(tuple(a)))
    return tuple(a)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    mod = _poly_trim(mod)
    m = len(mod) - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for tail in range(p**d):
            divisor = _digits(tail, p, d) + (1,)
            if not _poly_mod(mod, divisor, p):
                return False
    return True


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for tail in range(p**m):
        cand = _digits(tail, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InvalidParameter(f"no irreducible polynomial of degree {m} over GF({p})")


class FieldSpec:
    """Immutable description of GF(p^m) plus its arithmetic.

    Equality and hashing use (p, m, modulus, primitive) so two specs built
    from the same data are interchangeable.
    """

    __slots__ = (
        "p",
        "m",
        "q",
        "modulus",
        "primitive",
        "_exp",
        "_log",
        "_exp_np",
        "_log_np",
        "_zech",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], primitive: int,
                 powers):
        """powers: the encodings of primitive^0, ..., primitive^(q-2)."""
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", p**m)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "primitive", primitive)
        exp_np = np.asarray(powers, dtype=np.int64)
        log_np = np.zeros(self.q, dtype=np.int64)
        log_np[exp_np] = np.arange(self.q - 1, dtype=np.int64)
        object.__setattr__(self, "_exp", exp_np.tolist())
        object.__setattr__(self, "_log", log_np.tolist())
        if m > 1:
            # vmul's tables: log 0 is the sentinel 2(q-1), and exp holds the
            # powers twice over, then 2q zeros, so exp[log x + log y] = x*y
            # for every x, y, zero included
            log_np[0] = 2 * (self.q - 1)
            exp_np = np.concatenate((exp_np, exp_np, np.zeros(2 * self.q, dtype=np.int64)))
        object.__setattr__(self, "_exp_np", exp_np)
        object.__setattr__(self, "_log_np", log_np)
        zech = None
        if p > 2 and m > 1:
            # zech[k] = log(1 + alpha^k): adding 1 raises the constant digit
            # mod p with no carry, and a sum of 0 takes log 0, the sentinel
            powers = exp_np[:self.q - 1]
            zech = log_np[powers - powers % p + (powers + 1) % p]
        object.__setattr__(self, "_zech", zech)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
            and self.primitive == other.primitive
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.primitive))

    def __repr__(self):
        return f"FieldSpec(q={self.q}, modulus={self.modulus}, alpha={self.primitive})"

    # -- scalar arithmetic on integer encodings --

    def add(self, x: int, y: int) -> int:
        return int(self.vadd(np.int64(x), np.int64(y)))

    def neg(self, x: int) -> int:
        return self.mul(self.p - 1, x)

    def sub(self, x: int, y: int) -> int:
        return int(self.vsub(np.int64(x), np.int64(y)))

    def mul(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(-self._log[x]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    # -- vector arithmetic on int64 numpy arrays of encodings --

    def vadd(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (xs + ys) % self.p
        if self.p == 2:
            return xs ^ ys
        # x + y = x (1 + y/x), and log(1 + y/x) is one Zech-table lookup
        lx, ly = self._log_np[xs], self._log_np[ys]
        out = self._exp_np[lx + self._zech[(ly - lx) % (self.q - 1)]]
        return np.where(xs == 0, ys, np.where(ys == 0, xs, out))

    def vneg(self, xs: np.ndarray) -> np.ndarray:
        return self.vscale(self.p - 1, xs)

    def vsub(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (xs - ys) % self.p
        return self.vadd(xs, self.vneg(ys))

    def vmul(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (xs * ys) % self.p
        return self._exp_np[self._log_np[xs] + self._log_np[ys]]

    def vscale(self, c: int, xs: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros(xs.shape, dtype=np.int64)
        if c == 1:
            return xs.astype(np.int64, copy=True)
        if self.m == 1:
            return (c * xs) % self.p
        return self._exp_np[self._log_np[xs] + self._log[c]]

    def vpow(self, xs: np.ndarray, es: np.ndarray) -> np.ndarray:
        """xs ** es elementwise, broadcast, for exponents 0 <= es < 2^40,
        with 0^0 = 1."""
        out = self._exp_np[self._log_np[xs] * es % (self.q - 1)]
        return np.where(xs == 0, es == 0, out)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b over the field, for (N, K) and (K, M) arrays of encodings.

        A prime field takes one int64 product, exact while
        K * (p - 1)^2 < 2^63; an extension field adds one outer product
        per contracted index.
        """
        if self.m == 1:
            return (a @ b) % self.p
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
        for j in range(a.shape[1]):
            out = self.vadd(out, self.vmul(a[:, j:j + 1], b[j:j + 1]))
        return out

    def coeffs(self, value: int) -> tuple[int, ...]:
        return _digits(value, self.p, self.m)

    def encode(self, coeffs) -> int:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) > self.m or any(not (0 <= c < self.p) for c in cs):
            raise InvalidParameter(f"bad coefficient vector {coeffs} for GF({self.q})")
        return _encode(cs + (0,) * (self.m - len(cs)), self.p)


def _mul_matrix(c: np.ndarray, tail: np.ndarray, p: int) -> np.ndarray:
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


def _cyclic_powers(p: int, m: int, modulus: tuple[int, ...],
                   g: int) -> tuple[int, np.ndarray | None]:
    """The order of g and, if g is primitive, the encodings of g^0 .. g^(q-2).

    `make_field` runs this walk once per field, on the explicit primitive
    or on the default one `_first_primitive` chose, so the table it builds
    also proves the order q - 1.

    Doubling: the digit rows of g^0 .. g^(k-1), times the matrix of
    c = g^k, give g^k .. g^(2k-1); then c is squared by the same matrix.
    The order is the first positive exponent whose power is 1, so the walk
    stops in the block where it appears.
    """
    n = p**m - 1
    tail = np.array(modulus[:m], dtype=np.int64)
    place = p ** np.arange(m, dtype=np.int64)
    powers = np.ones(n, dtype=np.int64)  # powers[0] = g^0; the rest is overwritten
    c = np.array(_digits(g, p, m), dtype=np.int64)
    done = 1
    while done < n:
        take = min(done, n - done)
        mat = _mul_matrix(c, tail, p)
        block = (powers[:take, None] // place % p) @ mat % p @ place
        ones = np.flatnonzero(block == 1)
        if ones.size:
            return done + int(ones[0]), None
        powers[done:done + take] = block
        c = c @ mat % p
        done += take
    return n, powers


def _first_primitive(p: int, m: int, modulus: tuple[int, ...]) -> int:
    """The smallest encoding of a primitive element of GF(p^m).

    g is primitive exactly when g^((q-1)/l) != 1 for every prime l | q-1
    (Lidl & Niederreiter, Finite Fields), so each candidate g = 1, 2, ...
    costs one power per prime, in exact integer arithmetic: pow(g, e, p) in
    a prime field, square-and-multiply on packed digits otherwise.  For
    q = 2 there is no prime and g = 1 passes.
    """
    q = p**m
    exponents = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    if m == 1:
        return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in exponents))

    # An element is one integer holding its digits in s-bit slots, lowest
    # degree first, so one integer product gives every coefficient of the
    # polynomial product.  No slot carries: a product coefficient is below
    # m p^2, and folding adds m - 1 more of them, each times a digit below p.
    s = (m * m * p**3).bit_length()
    slot = (1 << s) - 1
    shifts = range(0, s * m, s)

    def pack(digits):
        out = 0
        for d, shift in zip(digits, shifts):
            out |= d << shift
        return out

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
        out = 0
        for shift in shifts:
            out |= ((low >> shift) & slot) % p << shift
        return out

    def power(a, e):
        out = a
        for bit in bin(e)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, a)
        return out

    # 1 has order 1 < q - 1
    for g in range(2, q):
        a = pack(_digits(g, p, m))
        if all(power(a, e) != 1 for e in exponents):
            return g
    raise NotPrimitive(f"no primitive element found in GF({q})")  # pragma: no cover


def make_field(p: int, m: int = 1, modulus=None, primitive=None) -> FieldSpec:
    """Construct GF(p^m), for p^m up to FIELD_ORDER_CAP.

    When modulus/primitive are omitted the defaults are deterministic: the
    irreducible monic polynomial whose non-leading coefficient vector has
    the smallest integer encoding, and the primitive element with the
    smallest integer encoding.  That element is found by the exponent test
    of `_first_primitive`, and the power table is walked for it alone.
    Orders above the cap raise InvalidParameter before p is factored.
    """
    if isinstance(p, int) and p >= 2 and isinstance(m, int) and m >= 1:
        check_field_order(p, m)
    if not isinstance(p, int) or not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise InvalidParameter(f"extension degree must be a positive integer, got {m}")
    q = p**m

    if modulus is None:
        modulus = _default_modulus(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if m == 1:
            modulus = (0, 1)
        else:
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise InvalidParameter(
                    f"modulus must be monic of degree {m}, got {modulus}")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"{modulus} is reducible over GF({p})")

    if primitive is not None:
        g = int(primitive)
        if not (0 < g < q):
            raise NotPrimitive(f"{g} is not a nonzero element of GF({q})")
        order, powers = _cyclic_powers(p, m, modulus, g)
        if order != q - 1:
            raise NotPrimitive(f"element {g} has order {order}, need {q - 1}")
        return FieldSpec(p, m, modulus, g, powers)

    g = _first_primitive(p, m, modulus)
    order, powers = _cyclic_powers(p, m, modulus, g)
    if order != q - 1:
        raise AssertionFailed(
            f"element {g} passed the primitivity test but has order {order}, need {q - 1}")
    return FieldSpec(p, m, modulus, g, powers)


@dataclass(frozen=True)
class FieldPair:
    """A field together with its quadratic extension and the embedding.

    embedding[v] is the encoding in ext of the image of base encoding v.
    """

    base: FieldSpec
    ext: FieldSpec
    embedding: tuple[int, ...]

    def embed_vector(self, values: np.ndarray) -> np.ndarray:
        table = np.array(self.embedding, dtype=np.int64)
        return table[np.asarray(values, dtype=np.int64)]


def quadratic_extension(field: FieldSpec) -> FieldPair:
    """GF(q) -> GF(q^2) with an explicit embedding table.

    The base modulus is evaluated at every element of GF(q^2) by one
    Horner pass, and its first root tau in encoding order is the image of
    X: an irreducible polynomial of degree m splits in GF(p^(2m)), since m
    divides 2m.  The base element with digits c_i then maps to
    sum_i c_i tau^i, one matrix product over the extension.
    """
    ext = make_field(field.p, 2 * field.m)
    elements = np.arange(ext.q, dtype=np.int64)
    values = np.zeros(ext.q, dtype=np.int64)
    for c in reversed(field.modulus):
        values = ext.vadd(ext.vmul(values, elements), c)
    tau = np.flatnonzero(values == 0)[0]
    digits = elements[:field.q, None] // field.p ** np.arange(field.m) % field.p
    emb = ext.matmul(digits, ext.vpow(tau, np.arange(field.m))[:, None])
    return FieldPair(field, ext, tuple(emb[:, 0].tolist()))


def field_to_json(field: FieldSpec) -> dict:
    return {
        "p": field.p,
        "m": field.m,
        "modulus": list(field.modulus),
        "primitive": list(field.coeffs(field.primitive)),
    }


def field_from_json(data: dict) -> FieldSpec:
    p = int(data["p"])
    m = int(data["m"])
    modulus = tuple(int(c) for c in data["modulus"]) if m > 1 else None
    primitive = _encode(tuple(int(c) for c in data["primitive"]), p)
    return make_field(p, m, modulus=modulus, primitive=primitive)
