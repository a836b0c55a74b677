"""Field construction against the definition-level code it replaced.

One oracle multiplies in polynomial arithmetic, one power at a time.  The
others are the construction `make_field` used before it ran Ben-Or's test
on windows of candidates and walked one generator on float digit rows:
trial division for the modulus, the exponent test on g = 1, 2, ... for the
primitive, and `cyclic_powers`, the int64 digit-matrix walk, for the table
(all in `tests/helpers.py`).  `make_field` must choose the same modulus and
primitive, build the same power table, accept and refuse the same moduli,
and report the same order for every element that is not primitive.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cyclic_powers, default_modulus_by_division, first_primitive_by_exponents,
                     is_irreducible_by_division, least_primitive_by_walk, poly_mod, poly_trim)
from qlrc import gf, make_field, split_prime_power
from qlrc.errors import NotPrimitive, ReducibleModulus
from qlrc.gf import _digits, _encode, _prime_factors
from qlrc.verifier import prime_powers


def exp_table(f) -> list[int]:
    """The encodings of alpha^0 .. alpha^(q-2)."""
    return f._exp_np[:f.q - 1].tolist()


def _poly_mul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return poly_trim(tuple(out))


def _order_and_powers(p: int, m: int, modulus: tuple[int, ...], g: int,
                      limit: int) -> tuple[int, list[int]]:
    """Multiplicative order of g and the power list [g^0, ..., g^(order-1)]."""
    if g == 0:
        return 0, []

    def mul(x, y):
        prod = _poly_mul(_digits(x, p, m), _digits(y, p, m), p)
        red = poly_mod(prod, modulus, p)
        return _encode(red + (0,) * (m - len(red)), p)

    powers = [1]
    cur = g
    while cur != 1:
        powers.append(cur)
        cur = mul(cur, g)
        if len(powers) > limit:  # pragma: no cover
            raise RuntimeError("order loop overran the group size")
    return len(powers), powers


def _oracle_field(p: int, m: int, modulus: tuple[int, ...]) -> tuple[int, list[int]]:
    """The smallest primitive encoding and its power list."""
    q = p**m
    for g in range(1, q):
        order, powers = _order_and_powers(p, m, modulus, g, q)
        if order == q - 1:
            return g, powers
    raise AssertionError(f"no primitive element in GF({q})")  # pragma: no cover


# every prime power q <= 2^10 (GF(625) and GF(343) among them), then larger
_CASES = ([split_prime_power(q) for q in prime_powers(2**10, start=2)]
          + [(2, 12), (3, 8)])


@pytest.mark.parametrize("p,m", _CASES, ids=[f"{p}^{m}" for p, m in _CASES])
def test_default_field_matches_orbit_walk(p, m):
    f = make_field(p, m)
    assert f.modulus == default_modulus_by_division(p, m)
    g, powers = _oracle_field(p, m, f.modulus)
    assert f.primitive == g
    assert exp_table(f) == powers


def test_explicit_field_matches_orbit_walk():
    # the ex1e field: GF(8) modulo x^3 + x + 1 with alpha = x
    f = make_field(2, 3, modulus=(1, 1, 0, 1), primitive=2)
    order, powers = _order_and_powers(2, 3, (1, 1, 0, 1), 2, 8)
    assert order == 7
    assert f.modulus == (1, 1, 0, 1)
    assert f.primitive == 2
    assert exp_table(f) == powers == [1, 2, 4, 3, 6, 7, 5]


@pytest.mark.parametrize("p,m", [(65537, 1), (2, 17)])
def test_large_field_tables_match_polynomial_products(p, m):
    f = make_field(p, m)
    n = f.q - 1
    for i in range(0, n, n // 97):
        for j in range(3, n, n // 13):
            x, y = int(f._exp_np[i]), int(f._exp_np[j])
            prod = poly_mod(_poly_mul(_digits(x, p, m), _digits(y, p, m), p), f.modulus, p)
            assert f.mul(x, y) == _encode(prod, p) == f._exp_np[(i + j) % n]


@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (2, 4), (5, 2), (3, 3)])
def test_every_explicit_primitive_matches_orbit_walk(p, m):
    modulus = default_modulus_by_division(p, m)
    q = p**m
    for g in range(1, q):
        order, powers = _order_and_powers(p, m, modulus, g, q)
        if order == q - 1:
            assert exp_table(make_field(p, m, primitive=g)) == powers
        else:
            with pytest.raises(NotPrimitive) as err:
                make_field(p, m, primitive=g)
            assert str(err.value) == f"element {g} has order {order}, need {q - 1}"


def _candidate_walk(p: int, m: int, modulus: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """The smallest primitive encoding and its power table, walking every
    candidate's orbit in turn."""
    q = p**m
    for g in range(1, q):
        order, powers = cyclic_powers(p, m, modulus, g)
        if order == q - 1:
            return g, powers
    raise AssertionError(f"no primitive element in GF({q})")  # pragma: no cover


_WALK_CASES = ([split_prime_power(q) for q in prime_powers(2**12, start=2)]
               + [(3, 8), (3, 10)])


@pytest.mark.parametrize("p,m", _WALK_CASES, ids=[f"{p}^{m}" for p, m in _WALK_CASES])
def test_default_primitive_matches_candidate_walk(p, m):
    f = make_field(p, m)
    g, powers = _candidate_walk(p, m, f.modulus)
    assert f.primitive == g
    assert exp_table(f) == powers.tolist()


_EXTENSIONS = [(p, m) for p, m in map(split_prime_power, prime_powers(2**16, start=4))
               if m >= 2]


@pytest.mark.parametrize("p,m", _EXTENSIONS, ids=[f"{p}^{m}" for p, m in _EXTENSIONS])
def test_default_primitive_certificate(p, m):
    # from the field's own tables: the powers of alpha reach every nonzero
    # element once, and every smaller nonzero encoding h = alpha^(log h)
    # has order (q-1) / gcd(log h, q-1) < q - 1
    f = make_field(p, m)
    n = f.q - 1
    assert f._exp_np[1] == f.primitive
    assert sorted(exp_table(f)) == list(range(1, f.q))
    logs = f._log_np[1:f.primitive]
    assert (np.gcd(logs, n) > 1).all()


def _old_field(p: int, m: int, modulus=None) -> tuple[tuple[int, ...], int, list[int]]:
    """(modulus, primitive, power table) as the old construction built them."""
    modulus = default_modulus_by_division(p, m) if modulus is None else modulus
    g = first_primitive_by_exponents(p, m, modulus)
    order, powers = cyclic_powers(p, m, modulus, g)
    assert order == p**m - 1
    return modulus, g, powers.tolist()


# every prime power q <= 2^12, (3, 8), (3, 10), every extension field up to
# 2^16 and the largest primes below 2^16
_OLD_CASES = sorted(set(_WALK_CASES + _EXTENSIONS + [(65519, 1), (65521, 1)]))


@pytest.mark.parametrize("p,m", _OLD_CASES, ids=[f"{p}^{m}" for p, m in _OLD_CASES])
def test_default_field_matches_the_old_construction(p, m):
    f = make_field(p, m)
    assert (f.modulus, f.primitive, exp_table(f)) == _old_field(p, m)


def test_prime_fields_up_to_2_to_16_match_the_old_primitive():
    # every 16th prime between 2^12 and 2^16 and the last eight: the old
    # exponent scan's primitive root, and alpha^i = pow(alpha, i, p) at a
    # spread of exponents
    primes = [q for q in prime_powers(2**16, start=2**12) if split_prime_power(q)[1] == 1]
    for p in primes[::16] + primes[-8:]:
        f = make_field(p)
        g = first_primitive_by_exponents(p, 1, (0, 1))
        assert (f.modulus, f.primitive) == ((0, 1), g)
        idx = np.arange(0, p - 1, max(1, (p - 1) // 7))
        assert f._exp_np[idx].tolist() == [pow(g, int(i), p) for i in idx]


def test_prime_fields_below_2000_walk_their_least_primitive_root():
    # the exponent test picks the least g whose full walk has order p - 1,
    # and the field's table is that walk
    primes = [q for q in prime_powers(1999, start=2) if split_prime_power(q)[1] == 1]
    assert len(primes) == 303
    for p in primes:
        f = make_field(p)
        g, powers = least_primitive_by_walk(p)
        assert (f.modulus, f.primitive) == ((0, 1), g), p
        assert exp_table(f) == powers.tolist(), p


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (7, 2)])
def test_every_monic_modulus_matches_the_old_construction(p, m):
    # every monic polynomial of degree m: an irreducible one builds the old
    # field, a reducible one raises the old error
    irreducible = 0
    for tail in range(p**m):
        modulus = _digits(tail, p, m) + (1,)
        if is_irreducible_by_division(modulus, p):
            irreducible += 1
            f = make_field(p, m, modulus=modulus)
            assert (f.modulus, f.primitive, exp_table(f)) == _old_field(p, m, modulus)
        else:
            with pytest.raises(ReducibleModulus) as err:
                make_field(p, m, modulus=modulus)
            assert str(err.value) == f"{modulus} is reducible over GF({p})"
    # Gauss's count of monic irreducibles: (p^m - p) / m for prime m, and 3
    # of degree 4 over GF(2)
    assert irreducible == {(2, 4): 3, (3, 3): 8, (5, 2): 10, (7, 2): 21}[p, m]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 8), st.data())
def test_ben_or_matches_trial_division(p, m, data):
    # a stack of random monic polynomials of degree m, tested in one call
    tails = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m),
                               min_size=1, max_size=6))
    got = gf._irreducible(gf._times_x(np.array(tails), p), p).tolist()
    assert got == [is_irreducible_by_division(tuple(t) + (1,), p) for t in tails]


def _trial_division(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@given(st.integers(1, 2**24) | st.sampled_from([p**m - 1 for p, m in _EXTENSIONS]))
def test_prime_factors_match_trial_division(n):
    assert _prime_factors(n) == _trial_division(n)


# -- addition against its definition: coefficient vectors added mod p ----------


def digit_add(field, x: int, y: int, sign: int = 1) -> int:
    """x + sign * y, one base-p coefficient at a time."""
    return _encode([(a + sign * b) % field.p
                    for a, b in zip(field.coeffs(x), field.coeffs(y))], field.p)


def _digit_sums(field, xs, ys, sign: int = 1) -> np.ndarray:
    """digit_add entrywise over the broadcast of xs and ys."""
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64))
    return np.array([digit_add(field, int(x), int(y), sign) for x, y in zip(xs.flat, ys.flat)],
                    dtype=np.int64).reshape(xs.shape)


def digit_matmul(field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with every sum taken by digit_add."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for t in range(a.shape[1]):
                out[i, j] = digit_add(field, int(out[i, j]), field.mul(int(a[i, t]), int(b[t, j])))
    return out


_SMALL = [split_prime_power(q) for q in prime_powers(81, start=2)] + [(5, 3)]


@pytest.mark.parametrize("p,m", _SMALL, ids=[f"{p}^{m}" for p, m in _SMALL])
def test_addition_matches_digits_on_every_pair(p, m):
    f = make_field(p, m)
    xs = np.arange(f.q, dtype=np.int64)
    add, sub = _digit_sums(f, xs[:, None], xs), _digit_sums(f, xs[:, None], xs, -1)
    neg = _digit_sums(f, 0, xs, -1)
    assert np.array_equal(f.vadd(xs[:, None], xs), add)
    assert np.array_equal(f.vsub(xs[:, None], xs), sub)
    assert np.array_equal(f.vneg(xs), neg)
    assert [f.neg(x) for x in range(f.q)] == neg.tolist()
    assert [[f.add(x, y) for y in range(f.q)] for x in range(f.q)] == add.tolist()
    assert [[f.sub(x, y) for y in range(f.q)] for x in range(f.q)] == sub.tolist()


_LARGE = [(3, 8), (3, 12)]


@pytest.mark.parametrize("p,m", _LARGE, ids=[f"{p}^{m}" for p, m in _LARGE])
def test_addition_matches_digits_on_a_sample(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(p**m)
    xs = rng.integers(0, f.q, 600)
    ys = rng.integers(0, f.q, 600)
    ys[:100] = _digit_sums(f, 0, xs[:100], -1)  # x + y = 0, the Zech sentinel
    xs[100:150] = 0
    ys[150:200] = 0
    ys[200:250] = xs[200:250]
    xs[250:300] = 1  # log x = 0: 1 + (p - 1) = 0 lands on the sentinel exactly
    ys[250:300] = rng.choice([p - 1, 1, p, f.q - 1], 50)
    assert np.array_equal(f.vadd(xs, ys), _digit_sums(f, xs, ys))
    assert np.array_equal(f.vsub(xs, ys), _digit_sums(f, xs, ys, -1))
    assert np.array_equal(f.vneg(xs), _digit_sums(f, 0, xs, -1))
    for x, y in zip(xs[::20].tolist(), ys[::20].tolist()):
        assert f.add(x, y) == digit_add(f, x, y)
        assert f.sub(x, y) == digit_add(f, x, y, -1)
        assert f.neg(x) == digit_add(f, 0, x, -1)


_SHAPES_FIELDS = [(7, 1), (2, 4), (3, 3), (5, 2)]


@pytest.mark.parametrize("p,m", _SHAPES_FIELDS, ids=[f"{p}^{m}" for p, m in _SHAPES_FIELDS])
def test_addition_broadcasts(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(f.q)
    col, row = rng.integers(0, f.q, (5, 1)), rng.integers(0, f.q, (1, 4))
    x, y = np.int64(f.q - 1), np.int64(p - 1)
    for a, b in ((x, y), (x, np.int64(0)), (col, row), (row, col), (col, x), (y, row),
                 (row[0], x), (np.zeros((0, 3), dtype=np.int64), row[:, :3])):
        for op, sign in ((f.vadd, 1), (f.vsub, -1)):
            out = op(a, b)
            assert np.shape(out) == np.broadcast_shapes(np.shape(a), np.shape(b))
            assert np.array_equal(out, _digit_sums(f, a, b, sign))
        assert np.array_equal(f.vneg(np.asarray(a)), _digit_sums(f, 0, a, -1))


@pytest.mark.parametrize("p,m", _SMALL + _LARGE, ids=[f"{p}^{m}" for p, m in _SMALL + _LARGE])
def test_matmul_matches_digit_sums(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(f.q)
    for n, k, cols in ((3, 4, 2), (1, 1, 5), (4, 7, 1), (2, 0, 3), (0, 3, 2)):
        a, b = rng.integers(0, f.q, (n, k)), rng.integers(0, f.q, (k, cols))
        if n > 1 and k > 1:
            a[0] = 0
            a[-1] = 1  # the sum of b's rows, whose first two cancel: x + (-x) = 0
            b[0, 0] = 1  # with log x = 0 in column 0
            b[1] = _digit_sums(f, 0, b[0], -1)
        out = f.matmul(a, b)
        assert out.shape == (n, cols)
        assert np.array_equal(out, digit_matmul(f, a, b))
