"""Finite fields GF(p^m) with exact table-driven arithmetic.

Elements are encoded as integers in [0, p^m): the base-p digits of the
encoding are the coefficients of the polynomial-basis representation,
lowest degree first.  Every field gets exp/log tables of length q, so
multiplication, inversion and powers are O(1) lookups (prime fields
multiply directly mod p) and memory grows linearly with q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
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


def _is_prime(p: int) -> bool:
    return p >= 2 and _smallest_factor(p) == p


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
        object.__setattr__(self, "_exp_np", exp_np)
        object.__setattr__(self, "_log_np", log_np)

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

    def _check(self, x: int) -> None:
        if not (0 <= x < self.q):
            raise InvalidParameter(f"encoding {x} outside [0, {self.q})")

    def add(self, x: int, y: int) -> int:
        if self.m == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        out, pw = 0, 1
        for _ in range(self.m):
            out += ((x + y) % self.p) * pw
            x //= self.p
            y //= self.p
            pw *= self.p
        return out

    def neg(self, x: int) -> int:
        if self.m == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        out, pw = 0, 1
        for _ in range(self.m):
            out += ((-x) % self.p) * pw
            x //= self.p
            pw *= self.p
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

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
        out = np.zeros(np.broadcast(xs, ys).shape, dtype=np.int64)
        pw = 1
        for k in range(self.m):
            da = (xs // pw) % self.p
            db = (ys // pw) % self.p
            out += ((da + db) % self.p) * pw
            pw *= self.p
        return out

    def vneg(self, xs: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (-xs) % self.p
        if self.p == 2:
            return xs.copy()
        out = np.zeros(xs.shape, dtype=np.int64)
        pw = 1
        for k in range(self.m):
            out += ((-((xs // pw) % self.p)) % self.p) * pw
            pw *= self.p
        return out

    def vsub(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (xs - ys) % self.p
        if self.p == 2:
            return xs ^ ys
        return self.vadd(xs, self.vneg(ys))

    def vmul(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (xs * ys) % self.p
        mask = (xs != 0) & (ys != 0)
        idx = (self._log_np[xs] + self._log_np[ys]) % (self.q - 1)
        out = self._exp_np[idx]
        return np.where(mask, out, 0)

    def vscale(self, c: int, xs: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros(xs.shape, dtype=np.int64)
        if c == 1:
            return xs.astype(np.int64, copy=True)
        if self.m == 1:
            return (c * xs) % self.p
        idx = (self._log_np[xs] + self._log[c]) % (self.q - 1)
        return np.where(xs != 0, self._exp_np[idx], 0)

    # -- element helpers --

    def element(self, value: int) -> "FieldElement":
        self._check(value)
        return FieldElement(self, value)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def coeffs(self, value: int) -> tuple[int, ...]:
        return _digits(value, self.p, self.m)

    def encode(self, coeffs) -> int:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) > self.m or any(not (0 <= c < self.p) for c in cs):
            raise InvalidParameter(f"bad coefficient vector {coeffs} for GF({self.q})")
        return _encode(cs + (0,) * (self.m - len(cs)), self.p)


@dataclass(frozen=True)
class FieldElement:
    field: FieldSpec
    value: int

    def _same(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other):
        self._same(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        self._same(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __mul__(self, other):
        self._same(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        self._same(other)
        return FieldElement(self.field, self.field.mul(self.value, self.field.inv(other.value)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.value, e))

    def inv(self):
        return FieldElement(self.field, self.field.inv(self.value))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.value)

    def __repr__(self):
        return f"GF{self.field.q}({self.value})"


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


def make_field(p: int, m: int = 1, modulus=None, primitive=None) -> FieldSpec:
    """Construct GF(p^m).

    When modulus/primitive are omitted the defaults are deterministic: the
    irreducible monic polynomial whose non-leading coefficient vector has
    the smallest integer encoding, and the primitive element with the
    smallest integer encoding.
    """
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

    for g in range(1, q):
        order, powers = _cyclic_powers(p, m, modulus, g)
        if order == q - 1:
            return FieldSpec(p, m, modulus, g, powers)
    raise NotPrimitive(f"no primitive element found in GF({q})")  # pragma: no cover


def element_powers(field: FieldSpec) -> list[FieldElement]:
    """[alpha^0, alpha^1, ..., alpha^(q-2)]."""
    return [FieldElement(field, v) for v in field._exp]


@dataclass(frozen=True)
class FieldPair:
    """A field together with its quadratic extension and the embedding.

    embedding[v] is the encoding in ext of the image of base encoding v.
    """

    base: FieldSpec
    ext: FieldSpec
    embedding: tuple[int, ...]

    def embed(self, value: int) -> int:
        return self.embedding[value]

    def embed_vector(self, values: np.ndarray) -> np.ndarray:
        table = np.array(self.embedding, dtype=np.int64)
        return table[np.asarray(values, dtype=np.int64)]


def quadratic_extension(field: FieldSpec) -> FieldPair:
    """GF(q) -> GF(q^2) with an explicit embedding table."""
    ext = make_field(field.p, 2 * field.m)
    if field.m == 1:
        emb = tuple(range(field.q))
        return FieldPair(field, ext, emb)
    tau = None
    for cand in range(ext.q):
        acc = 0
        for c in reversed(field.modulus):
            acc = ext.add(ext.mul(acc, cand), c % field.p)
        if acc == 0:
            tau = cand
            break
    if tau is None:  # pragma: no cover
        raise InvalidParameter("base modulus has no root in the quadratic extension")
    emb = []
    for v in range(field.q):
        acc = 0
        tp = 1
        for c in field.coeffs(v):
            acc = ext.add(acc, ext.mul(c, tp))
            tp = ext.mul(tp, tau)
        emb.append(acc)
    return FieldPair(field, ext, tuple(emb))


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
