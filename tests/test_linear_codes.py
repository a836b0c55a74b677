"""Linear codes, duals, and the brute-force distance oracles."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    contains,
    default_budget,
    euclidean_dual,
    from_spanning_set,
    in_row_space,
    make_field,
    min_distance_bruteforce,
    min_weights_bruteforce,
    zero_code,
)
from qlrc.errors import (
    BudgetExceeded,
    EmptyInput,
    FieldMismatch,
    InvalidParameter,
    LengthMismatch,
    NotSubcode,
)
from helpers import (codeword, coset_min_weight_bruteforce, full_code, hermitian_dual,
                     mirror_code, weight)
from test_field_oracle import digit_add


def _rows(*rows):
    return [np.array(r, dtype=np.int64) for r in rows]


def test_spanning_set_canonicalizes(gf5):
    code = from_spanning_set(gf5, _rows([1, 2, 3], [0, 1, 1]))
    assert code.k == 2
    dependent = from_spanning_set(gf5, _rows([1, 2, 3], [2, 4, 1]))
    assert dependent.k == 1
    assert list(dependent.generator[0]) == [1, 2, 3]


def test_spanning_set_input_validation(gf5):
    with pytest.raises(EmptyInput):
        from_spanning_set(gf5, [])
    with pytest.raises(LengthMismatch):
        from_spanning_set(gf5, _rows([1, 2], [1, 2, 3]))
    with pytest.raises(FieldMismatch):
        from_spanning_set(gf5, _rows([1, 7]))


def test_zero_and_full(gf3):
    z = zero_code(gf3, 4)
    f = full_code(gf3, 4)
    assert z.k == 0 and f.k == 4
    assert euclidean_dual(z) == f
    assert euclidean_dual(f) == z


def test_dual_dimensions_and_orthogonality(gf5):
    code = from_spanning_set(gf5, _rows([1, 2, 3, 4, 0], [0, 1, 1, 1, 1]))
    dual = euclidean_dual(code)
    assert code.k + dual.k == code.n
    for i in range(code.k):
        for j in range(dual.k):
            acc = 0
            for t in range(code.n):
                acc = gf5.add(acc, gf5.mul(int(code.generator[i, t]),
                                           int(dual.generator[j, t])))
            assert acc == 0
    assert euclidean_dual(dual) == code


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 8]), st.data())
def test_dual_of_dual_random(q, data):
    from qlrc import split_prime_power

    p, m = split_prime_power(q)
    f = make_field(p, m)
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, n))
    entries = data.draw(
        st.lists(st.integers(0, q - 1), min_size=n * k, max_size=n * k))
    mat = np.array(entries, dtype=np.int64).reshape(k, n)
    if not mat.any():
        return
    code = from_spanning_set(f, list(mat))
    dual = euclidean_dual(code)
    assert code.k + dual.k == n
    assert euclidean_dual(dual) == code


def test_contains_and_row_space(ex1_record, rem3_record):
    c1 = ex1_record.code
    assert not contains(c1, euclidean_dual(c1))
    c3 = rem3_record.code
    assert contains(c3, euclidean_dual(c3))
    assert contains(c1, mirror_code(ex1_record))
    assert in_row_space(c1, c1.generator[0])
    assert in_row_space(c1, c1.generator) and in_row_space(c1, mirror_code(ex1_record).generator)
    outside = np.vstack([c1.generator, euclidean_dual(c1).generator])
    assert not in_row_space(c1, outside)
    assert in_row_space(c1, np.zeros((0, c1.n), dtype=np.int64))
    with pytest.raises(LengthMismatch, match="^vector length 3 != code length 15$"):
        in_row_space(c1, outside[:, :3])
    assert not in_row_space(mirror_code(ex1_record), c1.generator[0]) or \
        mirror_code(ex1_record).k == c1.k


def test_hermitian_self_dual_gf4(gf4):
    code = from_spanning_set(gf4, _rows([1, 1]))
    hd = hermitian_dual(code)
    assert hd == code


def test_min_distance_values(gf3, ex1_record, rem3_record):
    assert min_distance_bruteforce(ex1_record.code) == 3
    assert min_distance_bruteforce(rem3_record.code) == 3
    rep = from_spanning_set(gf3, _rows([1, 1, 1, 1]))
    assert min_distance_bruteforce(rep) == 4
    with pytest.raises(InvalidParameter, match="^the zero code has no minimum distance$"):
        min_distance_bruteforce(zero_code(gf3, 4))


def test_min_distance_budget(ex1_record):
    with pytest.raises(BudgetExceeded,
                       match="^enumeration of 5\\^8 = 390625 codewords exceeds budget 10$"):
        min_distance_bruteforce(ex1_record.code, budget=10)


def test_coset_min_weight_values(ex1_record, rem3_record):
    assert coset_min_weight_bruteforce(ex1_record.code, mirror_code(ex1_record)) == 6
    assert coset_min_weight_bruteforce(rem3_record.code, mirror_code(rem3_record)) == 4
    assert min_weights_bruteforce(ex1_record.code, mirror_code(ex1_record)) == (3, 6)
    assert min_weights_bruteforce(rem3_record.code, mirror_code(rem3_record)) == (3, 4)


def test_coset_against_zero_subcode_is_min_distance(rem3_record):
    z = zero_code(rem3_record.code.field, rem3_record.code.n)
    assert (coset_min_weight_bruteforce(rem3_record.code, z)
            == min_distance_bruteforce(rem3_record.code))
    assert min_weights_bruteforce(rem3_record.code, z) == (3, 3)


def test_coset_errors(gf3, rem3_record):
    stray = from_spanning_set(gf3, _rows([1] + [0] * 8))
    code = rem3_record.code
    for oracle in (coset_min_weight_bruteforce, min_weights_bruteforce):
        with pytest.raises(NotSubcode, match="^second argument is not a subcode of the first$"):
            oracle(code, stray)
        with pytest.raises(InvalidParameter,
                           match="^subcode equals the code; the coset is empty$"):
            oracle(code, code)
        with pytest.raises(BudgetExceeded, match="exceeds budget 10$"):
            oracle(code, mirror_code(rem3_record), budget=10)


def test_one_pass_raises_in_the_order_of_the_two_oracles(gf3, rem3_record):
    """min_weights_bruteforce checks what min_distance_bruteforce checks,
    then what coset_min_weight_bruteforce checks."""
    zero = zero_code(gf3, 9)
    with pytest.raises(InvalidParameter, match="^the zero code has no minimum distance$"):
        min_weights_bruteforce(zero, zero)
    stray = from_spanning_set(gf3, _rows([1] + [0] * 8))
    with pytest.raises(BudgetExceeded):
        min_weights_bruteforce(rem3_record.code, stray, budget=10)
    with pytest.raises(BudgetExceeded):
        min_weights_bruteforce(rem3_record.code, rem3_record.code, budget=10)


def test_default_budget_env(monkeypatch):
    monkeypatch.delenv("QLRC_BUDGET", raising=False)
    assert default_budget(123) == 123
    monkeypatch.setenv("QLRC_BUDGET", "999")
    assert default_budget(123) == 999
    monkeypatch.setenv("QLRC_BUDGET", "junk")
    with pytest.raises(InvalidParameter):
        default_budget(123)
    monkeypatch.setenv("QLRC_BUDGET", "0")
    with pytest.raises(InvalidParameter):
        default_budget(123)


def test_codeword_linearity(gf7):
    code = from_spanning_set(gf7, _rows([1, 0, 3, 2], [0, 1, 5, 6]))
    m1 = np.array([2, 3], dtype=np.int64)
    m2 = np.array([4, 6], dtype=np.int64)
    lhs = gf7.vadd(codeword(code, m1), codeword(code, m2))
    m_sum = np.array([gf7.add(2, 4), gf7.add(3, 6)], dtype=np.int64)
    assert np.array_equal(lhs, codeword(code, m_sum))


def _naive_min_distance(code):
    q = code.field.q
    best = None
    for msg in product(range(q), repeat=code.k):
        if not any(msg):
            continue
        w = weight(codeword(code, np.array(msg, dtype=np.int64)))
        best = w if best is None else min(best, w)
    return best


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_bruteforce_matches_naive_oracle(q, data):
    from qlrc import split_prime_power

    p, m = split_prime_power(q)
    f = make_field(p, m)
    n = data.draw(st.integers(3, 6))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
        min_size=1, max_size=3))
    mat = np.array(rows, dtype=np.int64)
    if not mat.any():
        return
    code = from_spanning_set(f, list(mat))
    assert min_distance_bruteforce(code) == _naive_min_distance(code)


def test_weight_helper(gf5):
    assert weight(np.array([0, 1, 0, 4], dtype=np.int64)) == 2


def test_default_budget_is_2_to_the_24(monkeypatch):
    monkeypatch.delenv("QLRC_BUDGET", raising=False)
    assert default_budget() == 1 << 24
    monkeypatch.setenv("QLRC_BUDGET", "1000")
    assert default_budget() == 1000


_PRODUCT_FIELDS = (make_field(7), make_field(2, 4), make_field(3, 3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inner_products_match_scalar_sums(data):
    field = data.draw(st.sampled_from(_PRODUCT_FIELDS))
    n = data.draw(st.integers(1, 6))
    entry = st.integers(0, field.q - 1)

    def matrix():
        rows = data.draw(st.integers(1, 4))
        return np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                           min_size=rows, max_size=rows)),
                        dtype=np.int64)

    a, b = matrix(), matrix()
    out = field.matmul(a, b.T)
    assert out.shape == (a.shape[0], b.shape[0])
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            acc = 0
            for t in range(n):
                acc = digit_add(field, acc, field.mul(int(a[i, t]), int(b[j, t])))
            assert out[i, j] == acc
