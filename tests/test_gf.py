"""Field construction, arithmetic axioms, and serialization."""

import ast
import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    field_from_json,
    field_to_json,
    make_field,
    quadratic_extension,
    split_prime_power,
)
from qlrc.errors import (
    DivisionByZero,
    InvalidParameter,
    NonPrimeCharacteristic,
    NotPrimitive,
    ReducibleModulus,
)
from qlrc.gf import FIELD_ORDER_CAP, FieldSpec, check_field_order
from qlrc.verifier import prime_powers
from helpers import NotQuadraticExtension, embedding_by_root_search, hermitian_dual

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
    assert [gf5.pow(gf5.primitive, e) for e in range(4)] == [1, 2, 4, 3]


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
        gf5.pow(0, -1)


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


def test_prime_field_takes_only_the_modulus_x():
    # GF(p) encodes each element as its residue, which is reduction mod X
    assert make_field(5, modulus=(0, 1)).modulus == (0, 1)
    assert make_field(5, modulus=(5, 6)).modulus == (0, 1)  # X, read mod 5
    for modulus in ((1, 0, 1), (0, 2)):
        with pytest.raises(InvalidParameter, match=re.escape(
                f"modulus must be monic of degree 1, got {modulus}")):
            make_field(5, modulus=modulus)
    for c in (1, 4):
        with pytest.raises(InvalidParameter, match=re.escape(
                f"GF(5) is defined modulo X = (0, 1), got the modulus ({c}, 1)")):
            make_field(5, modulus=(c, 1))


@pytest.mark.parametrize("p,m,q", [(2, 21, "2^21"), (1048583, 1, "1048583"), (1025, 2, "1025^2"),
                                   (2, 10**9, "2^1000000000"),
                                   (10**18 + 3, 1, "1000000000000000003")])
def test_field_order_cap(p, m, q):
    with pytest.raises(InvalidParameter) as err:
        make_field(p, m)
    assert str(err.value) == f"field order {q} exceeds the cap 2^20 = 1048576"


def test_field_order_cap_boundary():
    assert FIELD_ORDER_CAP == 2**20
    for p, m in [(2, 20), (1024, 2), (2**20, 1), (1048573, 1)]:
        check_field_order(p, m)
    for p, m in [(2**20 + 1, 1), (3, 13), (1025, 2)]:
        with pytest.raises(InvalidParameter):
            check_field_order(p, m)


@pytest.mark.parametrize("p,m,cap_mib", [(2, 20, 240), (3, 12, 108)])
def test_largest_fields_stay_within_their_memory(p, m, cap_mib):
    # peak resident memory of a fresh interpreter that builds the field;
    # the caps are the peaks of the digit-matrix construction this replaced
    code = ("import resource; from qlrc import make_field; "
            f"f = make_field({p}, {m}); assert f.primitive; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    # Linux carries a process's peak RSS across exec, so a small interpreter
    # starts the measured one: the test process's own size does not count
    launcher = ("import subprocess, sys\n"
                f"sys.exit(subprocess.run([sys.executable, '-c', {code!r}]).returncode)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", launcher], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert int(out) <= cap_mib * 1024  # ru_maxrss is in KiB on Linux


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


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_vmul_vscale_match_scalar_mul_with_zeros(p, m):
    # extension fields multiply vectors through the log sentinel of zero
    f = make_field(p, m)
    elems = np.arange(f.q, dtype=np.int64)
    table = [[f.mul(x, y) for y in range(f.q)] for x in range(f.q)]
    assert f.vmul(elems[:, None], elems[None, :]).tolist() == table
    assert f.vmul(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)).tolist() == [0] * 3
    for c in range(f.q):
        assert f.vscale(c, elems).tolist() == table[c]


_VSUB_FIELDS = tuple(make_field(p, m)
                     for p, m in ((2, 1), (7, 1), (3, 2), (2, 4), (5, 2), (3, 4)))


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
    assert len(np.unique(f._exp_np[:f.q - 1])) == f.q - 1


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
    ext, e = pair.ext, pair.embedding
    assert ext.q == f.q**2
    assert len(set(e)) == f.q
    for x in range(f.q):
        for y in range(f.q):
            assert e[f.add(x, y)] == ext.add(e[x], e[y])
            assert e[f.mul(x, y)] == ext.mul(e[x], e[y])
    assert e[0] == 0
    assert e[1] == 1


@pytest.mark.parametrize("q", prime_powers(128, start=2))
def test_quadratic_extension_matches_root_search(q):
    pair = quadratic_extension(make_field(*split_prime_power(q)))
    assert pair.embedding == embedding_by_root_search(pair.base, pair.ext)


def test_embed_vector(gf3):
    pair = quadratic_extension(gf3)
    vec = np.array([0, 1, 2, 1], dtype=np.int64)
    out = pair.embed_vector(vec)
    assert list(out) == [pair.embedding[v] for v in vec]


def test_hermitian_dual_requires_even_degree(gf5):
    from qlrc import from_spanning_set

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


@pytest.mark.parametrize("q", (3, 4, 5, 7, 8, 9, 25, 27))
def test_vpow_matches_scalar_pow(q):
    f = make_field(*split_prime_power(q))
    xs = np.arange(q)
    exponents = (0, 1, q - 2, q - 1, 2 * q)
    for e in exponents:
        assert f.vpow(xs, e).tolist() == [f.pow(x, e) for x in range(q)]
    table = f.vpow(xs[:, None], np.array(exponents))
    assert table.tolist() == [[f.pow(x, e) for e in exponents] for x in range(q)]
    assert f.vpow(0, 0) == 1 and f.vpow(0, q - 1) == 0


def test_traced_field_ops_exist():
    # the benchmark's tracer wraps these FieldSpec methods by name; read its
    # tuples from the source so a rename here fails a test, not a traced run
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    names = {}
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("VECTOR_OPS", "SCALAR_OPS"):
                names[target.id] = ast.literal_eval(node.value)
    assert set(names) == {"VECTOR_OPS", "SCALAR_OPS"}
    for name in names["VECTOR_OPS"] + names["SCALAR_OPS"]:
        assert callable(vars(FieldSpec).get(name)), name
