"""Field construction, arithmetic axioms, and serialization."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    FieldElement,
    element_powers,
    field_from_json,
    field_to_json,
    make_field,
    quadratic_extension,
    split_prime_power,
)
from qlrc.errors import (
    DivisionByZero,
    FieldMismatch,
    InvalidParameter,
    NonPrimeCharacteristic,
    NotPrimitive,
    NotQuadraticExtension,
    ReducibleModulus,
)

_QS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
_LARGE = [(65537, 1), (2, 17)]  # more than 2^16 elements


@cache
def _large_field(p, m):
    return make_field(p, m)


def test_split_prime_power():
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(13) == (13, 1)
    assert split_prime_power(2) == (2, 1)
    assert split_prime_power(100000007) == (100000007, 1)
    assert split_prime_power(3**19) == (3, 19)
    with pytest.raises(InvalidParameter, match=r"^12 is not a prime power$"):
        split_prime_power(12)
    with pytest.raises(InvalidParameter, match=r"^200000014 is not a prime power$"):
        split_prime_power(2 * 100000007)
    with pytest.raises(InvalidParameter, match=r"^field order must be at least 2, got 1$"):
        split_prime_power(1)


def test_default_moduli_and_primitives():
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2).primitive == 1
    assert make_field(3).primitive == 2
    assert make_field(5).primitive == 2
    assert make_field(7).primitive == 3
    assert make_field(2, 3).primitive == 2
    assert make_field(3, 2).primitive == 4


def test_gf8_multiplication_uses_the_modulus(gf8):
    # alpha = X, so X * X^2 = X^3 = X + 1
    assert gf8.mul(2, 4) == 3
    assert gf8.mul(4, 4) == 6  # X^4 = X^2 + X


def test_element_powers_gf5(gf5):
    assert [e.value for e in element_powers(gf5)] == [1, 2, 4, 3]


@pytest.mark.parametrize("p,m", _QS)
def test_field_axioms_exhaustive_pairs(p, m):
    f = make_field(p, m)
    q = f.q
    for x in range(q):
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
        for y in range(q):
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.sub(x, y) == f.add(x, f.neg(y))


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive_triples(p, m):
    f = make_field(p, m)
    q = f.q
    for x in range(q):
        for y in range(q):
            for z in range(q):
                assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2)])
def test_frobenius_is_additive(p, m):
    f = make_field(p, m)
    for x in range(f.q):
        for y in range(f.q):
            lhs = f.pow(f.add(x, y), p)
            rhs = f.add(f.pow(x, p), f.pow(y, p))
            assert lhs == rhs


def test_pow_conventions(gf5, gf8):
    assert gf5.pow(0, 0) == 1
    assert gf8.pow(0, 0) == 1
    assert gf5.pow(2, -1) == gf5.inv(2)
    assert gf8.pow(3, gf8.q - 1) == 1


def test_division_by_zero(gf5):
    with pytest.raises(DivisionByZero):
        gf5.inv(0)
    with pytest.raises(DivisionByZero):
        gf5.element(1) / gf5.element(0)


def test_construction_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(6)
    with pytest.raises(ReducibleModulus):
        make_field(2, 3, modulus=(1, 0, 0, 1))  # X^3 + 1 factors
    with pytest.raises(NotPrimitive, match=r"^element 4 has order 2, need 4$"):
        make_field(5, primitive=4)
    with pytest.raises(NotPrimitive, match=r"^element 2 has order 3, need 6$"):
        make_field(7, primitive=2)
    with pytest.raises(InvalidParameter):
        make_field(3, 2, modulus=(1, 1))  # wrong degree


def test_field_element_operators(gf9):
    a = gf9.element(4)
    b = gf9.element(7)
    assert (a + b).value == gf9.add(4, 7)
    assert (a * b).value == gf9.mul(4, 7)
    assert (a - b).value == gf9.sub(4, 7)
    assert (-a).value == gf9.neg(4)
    assert (a / b).value == gf9.mul(4, gf9.inv(7))
    assert (a**3).value == gf9.pow(4, 3)
    assert a.inv().value == gf9.inv(4)


def test_field_element_mismatch(gf5, gf7):
    with pytest.raises(FieldMismatch):
        gf5.element(1) + gf7.element(1)


def test_field_equality_and_hash():
    assert make_field(5) == make_field(5)
    assert make_field(5) != make_field(7)
    assert hash(make_field(3, 2)) == hash(make_field(3, 2))
    assert make_field(5, primitive=2) != make_field(5, primitive=3)


@pytest.mark.parametrize("p,m", _QS)
def test_vector_ops_match_scalars(p, m):
    f = make_field(p, m)
    rng = np.random.default_rng(7 * p + m)
    xs = rng.integers(0, f.q, size=40).astype(np.int64)
    ys = rng.integers(0, f.q, size=40).astype(np.int64)
    va = f.vadd(xs, ys)
    vm = f.vmul(xs, ys)
    vn = f.vneg(xs)
    for i in range(40):
        assert va[i] == f.add(int(xs[i]), int(ys[i]))
        assert vm[i] == f.mul(int(xs[i]), int(ys[i]))
        assert vn[i] == f.neg(int(xs[i]))
    c = int(rng.integers(0, f.q))
    vs = f.vscale(c, xs)
    for i in range(40):
        assert vs[i] == f.mul(c, int(xs[i]))


_VSUB_FIELDS = tuple(make_field(p, m) for p, m in ((2, 1), (7, 1), (3, 2), (2, 4)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_VSUB_FIELDS), st.data())
def test_vsub_is_add_of_negation(f, data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    row = st.lists(st.integers(0, f.q - 1), min_size=cols, max_size=cols)
    matrix = st.lists(row, min_size=rows, max_size=rows)
    xs = np.array(data.draw(matrix), dtype=np.int64)
    ys = np.array(data.draw(matrix), dtype=np.int64)
    assert np.array_equal(f.vsub(xs, ys), f.vadd(xs, f.vneg(ys)))
    # a column against a row broadcasts, as in the RREF elimination step
    assert np.array_equal(f.vsub(xs[:, :1], ys[:1]), f.vadd(xs[:, :1], f.vneg(ys[:1])))


@pytest.mark.parametrize("p,m", _LARGE)
def test_large_field_primitive_has_full_order(p, m):
    f = _large_field(p, m)
    assert f.q == p**m > 2**16
    assert f.pow(f.primitive, f.q - 1) == 1
    assert len(set(f._exp)) == f.q - 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_LARGE), st.data())
def test_large_field_arithmetic_hypothesis(pm, data):
    f = _large_field(*pm)
    x = data.draw(st.integers(1, f.q - 1))
    y, z = data.draw(st.lists(st.integers(0, f.q - 1), min_size=2, max_size=2))
    assert f.mul(x, f.inv(x)) == 1
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    sample = data.draw(st.lists(st.integers(0, f.q - 1), min_size=1, max_size=20))
    xs = np.array(sample, dtype=np.int64)
    ys = xs[::-1].copy()
    assert f.vmul(xs, ys).tolist() == [f.mul(a, b) for a, b in zip(sample, sample[::-1])]
    c = data.draw(st.integers(0, f.q - 1))
    assert f.vscale(c, xs).tolist() == [f.mul(c, a) for a in sample]


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (5, 1), (3, 2)])
def test_quadratic_extension_is_a_homomorphism(p, m):
    f = make_field(p, m)
    pair = quadratic_extension(f)
    ext = pair.ext
    assert ext.q == f.q**2
    seen = set()
    for x in range(f.q):
        ex = pair.embed(x)
        assert ex not in seen
        seen.add(ex)
        for y in range(f.q):
            assert pair.embed(f.add(x, y)) == ext.add(pair.embed(x), pair.embed(y))
            assert pair.embed(f.mul(x, y)) == ext.mul(pair.embed(x), pair.embed(y))
    assert pair.embed(0) == 0
    assert pair.embed(1) == 1


def test_embed_vector(gf3):
    pair = quadratic_extension(gf3)
    vec = np.array([0, 1, 2, 1], dtype=np.int64)
    out = pair.embed_vector(vec)
    assert list(out) == [pair.embed(int(v)) for v in vec]


def test_hermitian_dual_requires_even_degree(gf5):
    from qlrc import from_spanning_set, hermitian_dual

    code = from_spanning_set(gf5, [np.array([1, 1], dtype=np.int64)])
    with pytest.raises(NotQuadraticExtension):
        hermitian_dual(code)


@pytest.mark.parametrize("p,m", _QS)
def test_field_json_roundtrip(p, m):
    f = make_field(p, m)
    back = field_from_json(field_to_json(f))
    assert back == f
    assert back.primitive == f.primitive
    assert back.modulus == f.modulus


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_QS), st.data())
def test_power_identity_hypothesis(pm, data):
    p, m = pm
    f = make_field(p, m)
    x = data.draw(st.integers(0, f.q - 1))
    y = data.draw(st.integers(0, f.q - 1))
    # freshman's dream in characteristic p
    assert f.pow(f.add(x, y), p) == f.add(f.pow(x, p), f.pow(y, p))
    e = data.draw(st.integers(0, 2 * f.q))
    if x:
        assert f.mul(f.pow(x, e), f.pow(x, f.q - 1 - (e % (f.q - 1)))) == 1


def test_element_repr(gf9):
    e = gf9.element(4)
    assert isinstance(e, FieldElement)
    assert "4" in repr(e)
