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

Construction is linear algebra over GF(p) on digit rows, in whole-array
steps (Lidl & Niederreiter, ch. 3).  For a monic f = X^m + tail, let
R = GF(p)[X]/(f) and C the matrix of y -> X y on R.  The matrix of
y -> g y is g(C), and it is invertible exactly when g is a unit of R, that
is, when gcd(f, g) = 1.

* Irreducibility (Ben-Or).  X^(p^i) - X is the product of the monic
  irreducibles whose degree divides i.  A reducible f has an irreducible
  factor of degree d <= m/2, which divides X^(p^d) - X; an irreducible f
  shares no factor with X^(p^i) - X for i < m.  So f is irreducible
  exactly when gcd(f, X^(p^i) - X) = 1 for 1 <= i <= m/2, that is, when
  the product of the C^(p^i) - C is invertible.  A window of candidate
  tails is tested at once, each matrix by meeting in the middle (none for
  m = 1, where the product is empty).
* Order.  R is then a field, so for h != 0, h^(q-1) = 1 and the powers of
  h repeat with period ord(h), a divisor of q - 1.  The walk writes
  h^0 .. h^(q-2), so ord(h) = q - 1 exactly when 1 does not come back:
  the table proves the order.  Any ord(h) < q - 1 divides (q-1)/l for a
  prime l | q - 1, so h is primitive exactly when every h^((q-1)/l) != 1:
  pow(g, (p-1)/l, p) != 1 for m = 1, where the first g = 1, 2, ... to pass
  is walked.  For m > 1, X = p, the least encoding that can be primitive
  (GF(p)* has order p - 1), is walked first and stops at the first
  X^((q-1)/l) = 1; then the first of q - 1, q - 2, ... to pass is walked.
* The smallest primitive.  With ord(h) = q - 1, h^i has order
  (q-1)/gcd(i, q-1), so the primitive elements are exactly the h^i with
  gcd(i, q-1) = 1.  The least encoding among them is alpha = h^t, and
  alpha^i = h^(t i mod (q-1)), so alpha's table is one gather of h's
  (none when m = 1 or the walk of X passes: that h is alpha).
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


# The largest field order qlrc builds: GF(2^20) peaks at about 160 MiB.
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


# -- coefficient tuples, lowest degree first --


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


# -- construction: float64 matrices over GF(p) acting on digit rows ----------


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, entrywise, for float64 integers |x| < 2^42.

    (x + 1/2) / p lies at least 1/(2p) from the nearest integer, and its
    rounding errors stay below 2^-9 / p there, so the floor is floor(x / p)
    exactly.  Every product below sums at most m terms of size below p^2,
    and m p^2 < 2^41 for every field under the cap.
    """
    y = x * (1 / p)
    y += 0.5 / p
    np.floor(y, out=y)
    y *= -p
    y += x
    return y


def _power(mats: np.ndarray, e: int, p: int) -> np.ndarray:
    """mats^e over GF(p) for a stack of square matrices and e >= 1."""
    out = mats
    for bit in bin(e)[3:]:
        out = _mod(out @ out, p)
        if bit == "1":
            out = _mod(out @ mats, p)
    return out


def _invertible(mats: np.ndarray, p: int) -> np.ndarray:
    """Whether each matrix of a stack is invertible over GF(p).

    Meet in the middle: split the rows into a top half T and the rest B.
    The rows are dependent exactly when x T = y B for some (x, y) != (0, 0),
    so the matrix is invertible exactly when the combinations x T and y B,
    over all coefficient vectors x and y, have one coincidence, 0 = 0.
    """
    m = mats.shape[-1]
    k = m // 2
    digits = np.arange(p**(m - k))[:, None] // p ** np.arange(m - k) % p
    coeffs = np.zeros((p**k + p**(m - k), m))
    coeffs[:p**k, :k], coeffs[p**k:, k:] = digits[:p**k, :k], digits
    codes = np.sort(_mod(coeffs @ mats, p) @ p ** np.arange(m, dtype=float), axis=1)
    return (codes[:, 1:] == codes[:, :-1]).sum(1) == 1


def _times_x(tails: np.ndarray, p: int) -> np.ndarray:
    """The matrices of x -> X x modulo X^m + tail, one per row of tails:
    row j holds the digits of X^(j+1)."""
    w, m = tails.shape
    mats = np.zeros((w, m, m))
    mats[:, np.arange(m - 1), np.arange(1, m)] = 1
    mats[:, -1] = -tails % p
    return mats


def _irreducible(x: np.ndarray, p: int) -> np.ndarray:
    """Ben-Or's test of each X^m + tail, given their _times_x matrices C: the
    product of C^(p^i) - C over 1 <= i <= m/2, empty for m = 1, is invertible."""
    frob = x
    prod = None
    for _ in range(x.shape[-1] // 2):
        frob = _power(frob, p, p)
        prod = frob - x if prod is None else _mod(prod @ (frob - x), p)
    return np.ones(len(x), dtype=bool) if prod is None else _invertible(prod, p)


def _default_modulus(p: int, m: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The irreducible X^m + tail with the smallest encoding of tail, and its
    _times_x matrix, testing p + 2m consecutive tails at a time.  Every X + c
    is irreducible, so at m = 1 it is X, untested."""
    if m == 1:
        return (0, 1), np.zeros((1, 1))
    size = p + 2 * m
    for start in range(0, p**m, size):
        tails = np.arange(start, min(start + size, p**m))[:, None] // p ** np.arange(m) % p
        x = _times_x(tails, p)
        ok = _irreducible(x, p)
        if ok.any():
            return tuple(tails[ok.argmax()].tolist()) + (1,), x[ok.argmax()]
    raise AssertionFailed(f"no monic irreducible of degree {m} over GF({p})")  # pragma: no cover


def _walk(start: np.ndarray, mat: np.ndarray, count: int, p: int, stops=()) -> np.ndarray:
    """The digit rows of s h^i for 0 <= i < count and each row s of start,
    i major, where x @ mat holds the digits of x h.

    Doubling: rows 0 .. k-1 and mat = (the matrix of h^k), times mat, are
    rows k .. 2k-1 and the matrix of h^2k, so the walk takes log2(count)
    steps.  With one start row, it returns None as soon as start h^s =
    start for an s in stops (ascending), each found as row s - k times mat
    before its block is written.
    """
    # row @ mat stays below m p^2, held by dtype and multiplied exactly in float_
    rows, m = start.shape
    dtype = np.min_scalar_type(m * (p - 1)**2)
    float_ = np.promote_types(dtype, np.float32)
    out = np.empty((count * rows, m), dtype=dtype)
    out[:rows] = start
    stops = list(stops)
    k = 1
    while k < count:
        t = min(k, count - k)
        while stops and stops[0] < k + t:
            if not (out[stops.pop(0) - k] @ mat % p != start).any():
                return None
        block = (np.concatenate((out[:t * rows], mat), dtype=float_) @ mat).astype(dtype)
        block %= p
        out[k * rows:(k + t) * rows], mat = block[:-m], block[-m:]
        k += t
    return out


def _times(p: int, m: int, x: np.ndarray, gs) -> np.ndarray:
    """The matrices of y -> g y, one per g in gs: their rows g X^j are a walk
    of X from g."""
    digits = np.asarray(gs)[:, None] // p ** np.arange(m) % p
    return _walk(digits, x, m, p).reshape(m, len(digits), m).transpose(1, 0, 2)


def _powers(p: int, m: int, mat: np.ndarray, stops=()):
    """The order of g, where mat is the matrix of y -> g y, and the encodings
    of g^0 .. g^(q-2); None when g^s = 1 for some s in stops."""
    rows = _walk(np.eye(1, m), mat, p**m - 1, p, stops)
    if rows is None:
        return None
    powers = (rows @ p ** np.arange(m, dtype=np.float32)).astype(np.int64)
    ones = np.flatnonzero(powers[1:] == 1)
    return (int(ones[0]) + 1 if ones.size else p**m - 1), powers


def _generator(p: int, m: int, x: np.ndarray, primes: list[int]) -> tuple[int, np.ndarray]:
    """An element h with h^((q-1)/l) != 1 for every prime l | q - 1, and its
    matrix, from q - 1, q - 2, ... tested 8 at a time: squaring gives every
    h^(2^b), and each exponent multiplies the rows of its set bits."""
    q = p**m
    exps = [(q - 1) // ell for ell in primes]
    for top in range(q - 1, 0, -8):
        hs = np.arange(top, max(top - 8, 0), -1)
        mats = square = _times(p, m, x, hs).astype(float)
        rows = [None] * len(exps)
        for bit in range(max(exps, default=0).bit_length()):
            if bit:
                square = _mod(square @ square, p)
            for i, e in enumerate(exps):
                if e >> bit & 1:
                    rows[i] = square[:, 0] if rows[i] is None else _mod(
                        (rows[i][:, None] @ square)[:, 0], p)
        ok = (np.array(rows) != np.eye(1, m)).any(-1).all(0)  # no h^e is 1
        if ok.any():
            return int(hs[ok.argmax()]), mats[ok.argmax()]
    raise AssertionFailed(f"no primitive element found in GF({q})")  # pragma: no cover


class FieldSpec:
    """Immutable description of GF(p^m) plus its arithmetic.

    Equality and hashing use (p, m, modulus, primitive) so two specs built
    from the same data are interchangeable.
    """

    __slots__ = ("p", "m", "q", "modulus", "primitive", "_exp_np", "_log_np", "_zech")

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
            # z[k] = log(1 + alpha^k): adding 1 raises the constant digit mod
            # p with no carry, and a sum of 0 takes log 0, the sentinel.  vadd
            # reads zech at d = log y - log x, negative d from the end: z[d mod
            # (q-1)] for |d| < q - 1, d for x = 0 (d <= -q), 0 for y = 0 (d >= q)
            powers = exp_np[:self.q - 1]
            z = log_np[powers + 1 - p * (powers % p == p - 1)]
            zech = np.concatenate((z, z[:1], np.zeros(self.q - 1, dtype=np.int64),
                                   np.arange(-2 * (self.q - 1), 1 - self.q), z), dtype=np.int32)
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
        return int(self._exp_np[self._log_np[x] + self._log_np[y]])

    def inv(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        return int(self._exp_np[-int(self._log_np[x]) % (self.q - 1)])

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return int(self._exp_np[int(self._log_np[x]) * e % (self.q - 1)])

    # -- vector arithmetic on int64 numpy arrays of encodings --

    def vadd(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (xs + ys) % self.p
        if self.p == 2:
            return xs ^ ys
        # x + y = x (1 + y/x), and log(1 + y/x) is one Zech-table lookup
        lx = self._log_np[xs]
        return self._exp_np[lx + self._zech[self._log_np[ys] - lx]]

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
        return self._exp_np[self._log_np[xs] + self._log_np[c]]

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


def make_field(p: int, m: int = 1, modulus=None, primitive=None) -> FieldSpec:
    """Construct GF(p^m), for p^m up to FIELD_ORDER_CAP.

    When modulus/primitive are omitted the defaults are deterministic: the
    irreducible monic polynomial whose non-leading coefficient vector has
    the smallest integer encoding, and the primitive element with the
    smallest integer encoding.  A prime field takes only the modulus X.
    Ben-Or's test decides every candidate modulus of a window at once; the
    least primitive root of a prime field, or one generator h of an
    extension field, is walked (module docstring).
    Orders above the cap raise InvalidParameter before p is factored.
    """
    if isinstance(p, int) and p >= 2 and isinstance(m, int) and m >= 1:
        check_field_order(p, m)
    if not isinstance(p, int) or not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if not isinstance(m, int) or m < 1:
        raise InvalidParameter(f"extension degree must be a positive integer, got {m}")
    q = p**m

    if modulus is not None:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise InvalidParameter(f"modulus must be monic of degree {m}, got {modulus}")
        if m == 1 and modulus[0]:  # an element of GF(p) is encoded as its residue mod X
            raise InvalidParameter(
                f"GF({p}) is defined modulo X = (0, 1), got the modulus {modulus}")
    if modulus is None or m == 1:
        modulus, x = _default_modulus(p, m)
    else:
        x = _times_x(np.array([modulus[:m]]), p)
        if not _irreducible(x, p)[0]:
            raise ReducibleModulus(f"{modulus} is reducible over GF({p})")
        x = x[0]

    if primitive is not None:
        g = int(primitive)
        if not (0 < g < q):
            raise NotPrimitive(f"{g} is not a nonzero element of GF({q})")
        order, powers = _powers(p, m, _times(p, m, x, [g])[0])
        if order != q - 1:
            raise NotPrimitive(f"element {g} has order {order}, need {q - 1}")
        return FieldSpec(p, m, modulus, g, powers)

    primes = _prime_factors(q - 1)
    h, stops = p, sorted((q - 1) // ell for ell in primes)
    if m == 1:  # alpha is the first g with every g^((p-1)/l) != 1, walked without stops
        h = next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in stops))
        x, stops = np.full((1, 1), float(h)), ()
    walked = _powers(p, m, x, stops)
    if walked is None:  # X is not primitive: walk a generator, gather alpha's table
        h, mat = _generator(p, m, x, primes)
        walked = _powers(p, m, mat)
    order, powers = walked
    if order != q - 1:
        raise AssertionFailed(
            f"element {h} passed the primitivity test but has order {order}, need {q - 1}")
    if m == 1 or h == p:
        return FieldSpec(p, m, modulus, h, powers)
    coprime = np.ones(q - 1, dtype=bool)
    for ell in primes:
        coprime[::ell] = False
    t = int(np.where(coprime, powers, q).argmin())
    return FieldSpec(p, m, modulus, int(powers[t]), powers[t * np.arange(q - 1) % (q - 1)])


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
