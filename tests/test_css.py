"""CSS records from grid codes, plus Hermitian lifts."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    build_grid_record,
    closed_forms,
    contains,
    css_from_grid,
    css_record_to_json,
    euclidean_dual,
    from_spanning_set,
    hermitian_lift,
    linear_codes,
    make_field,
    quadratic_extension,
    valid_a_values,
    valid_b_values,
)
from qlrc.errors import InvalidParameter, NotDualContaining
from qlrc.gf import split_prime_power
from helpers import (coset_min_weight_bruteforce, full_code, hermitian_dual,
                     hermitian_lift_by_row_reduction)


def test_ex1_css_formula_and_bruteforce(ex1_record):
    formula = css_from_grid(ex1_record, "formula")
    brute = css_from_grid(ex1_record, "bruteforce")
    for rec in (formula, brute):
        assert (rec.n, rec.k, rec.d, rec.q) == (15, 1, 6, 5)
        assert not rec.pure
        assert rec.locality == (2, 2)
    assert brute.source["oracle_agreement"] == {"d": True, "coset_d": True}
    assert formula.distance_mode == "formula"
    assert brute.distance_mode == "bruteforce"


def test_rem3_css(rem3_record):
    rec = css_from_grid(rem3_record, "bruteforce")
    assert (rec.n, rec.k, rec.d, rec.q) == (9, 1, 4, 3)
    assert not rec.pure


def test_ex1e_css_formula(ex1e_record):
    rec = css_from_grid(ex1e_record, "formula")
    assert (rec.n, rec.k, rec.d, rec.q) == (64, 4, 16, 8)
    assert rec.locality == (5, 4)
    assert not rec.pure


def test_pure_instance(gf4):
    rec = build_grid_record(gf4, 4, 4, 1, 1)
    css = css_from_grid(rec, "bruteforce")
    assert css.pure
    assert css.k == 4


def test_invalid_distance_mode(ex1_record):
    with pytest.raises(InvalidParameter):
        css_from_grid(ex1_record, "guess")


_SHAPES = [(H, V, a, b)
           for H in range(3, 10)
           for V in range(3, 10)
           for a in valid_a_values(H)
           for b in valid_b_values(V)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_quantum_dimension_is_center_rectangle(shape):
    H, V, a, b = shape
    k = closed_forms(H, V, a, b).quantum_k
    assert k == (2 * a + H % 2) * (2 * b + V % 2)
    assert k >= 1


def test_pure_iff_not_impure(ex1_record, rem3_record, ex1e_record):
    for rec in (ex1_record, rem3_record, ex1e_record):
        css = css_from_grid(rec, "formula")
        assert css.pure == (not rec.forms.impure)


def test_hermitian_lift_rem3(rem3_record):
    lift = hermitian_lift(rem3_record.code)
    assert lift.lifted.field.q == 9
    assert lift.lifted.k == rem3_record.code.k == 5
    assert lift.dual_containing
    assert contains(lift.lifted, lift.hermitian_dual_code)
    assert coset_min_weight_bruteforce(lift.lifted, lift.hermitian_dual_code) == 4


def test_hermitian_lift_grid55(grid55_record):
    lift = hermitian_lift(grid55_record.code)
    assert lift.lifted.field.q == 25
    assert lift.lifted.k == 13
    assert lift.dual_containing


def test_hermitian_lift_rejects_ex1(ex1_record):
    with pytest.raises(NotDualContaining):
        hermitian_lift(ex1_record.code)


def test_hermitian_lift_trivial(gf3):
    lift = hermitian_lift(full_code(gf3, 3))
    assert lift.lifted.k == 3
    assert lift.dual_containing


def test_hermitian_dual_of_lift_is_consistent(rem3_record):
    lift = hermitian_lift(rem3_record.code)
    assert hermitian_dual(lift.lifted) == lift.hermitian_dual_code
    assert lift.lifted.k + lift.hermitian_dual_code.k == lift.lifted.n


@cache
def _field(q):
    return make_field(*split_prime_power(q))


def _assert_lift_matches_oracle(code):
    """hermitian_lift against the row-reduced lift, and its Hermitian dual
    against the definition; False when both refuse the code."""
    try:
        old = hermitian_lift_by_row_reduction(code)
    except NotDualContaining:
        with pytest.raises(NotDualContaining, match="^code does not contain its Euclidean dual"):
            hermitian_lift(code)
        return False
    new = hermitian_lift(code)
    assert new.pair == old.pair
    for mine, theirs in ((new.lifted, old.lifted),
                         (new.hermitian_dual_code, old.hermitian_dual_code)):
        assert mine == theirs and mine.pivots == theirs.pivots
    assert new.dual_containing and old.dual_containing
    # <u, v^q> = 0 for every pair of rows, and the dimensions add up to n
    ext, lifted, hd = new.pair.ext, new.lifted, new.hermitian_dual_code
    conj = ext.vpow(hd.generator, code.field.q)
    assert not ext.matmul(lifted.generator, conj.T).any()
    assert lifted.k + hd.k == code.n
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.data())
def test_hermitian_lift_matches_row_reduction(q, data):
    field = _field(q)
    n = data.draw(st.integers(1, 7))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                              min_size=1, max_size=n))
    mat = np.array(rows, dtype=np.int64)
    mat[0, data.draw(st.integers(0, n - 1))] = data.draw(st.integers(1, q - 1))
    code = from_spanning_set(field, list(mat))
    _assert_lift_matches_oracle(code)
    # (C + C^perp)^perp = C n C^perp, which lies in C + C^perp
    spanned = from_spanning_set(field, [*code.generator, *euclidean_dual(code).generator])
    assert _assert_lift_matches_oracle(spanned)


@pytest.mark.parametrize("inst", [(3, 3, 3, 0, 0), (5, 5, 5, 0, 0), (4, 4, 4, 1, 1),
                                  (8, 8, 8, 1, 1), (9, 9, 9, 1, 1), (16, 4, 4, 1, 1),
                                  (5, 5, 3, 0, 0)], ids=str)
def test_hermitian_lift_of_grid_codes_matches_row_reduction(inst):
    q, H, V, a, b = inst
    rec = build_grid_record(_field(q), H, V, a, b)
    assert _assert_lift_matches_oracle(rec.code) == rec.plain_dual


def test_hermitian_lift_row_reduces_nothing_over_the_extension(monkeypatch, grid55_record):
    code = grid55_record.code
    ext = quadratic_extension(code.field).ext
    rref = linear_codes._rref

    def base_only(field, mat):
        if field == ext:
            raise AssertionError("a matrix over GF(q^2) was row-reduced")
        return rref(field, mat)

    monkeypatch.setattr(linear_codes, "_rref", base_only)
    lift = hermitian_lift(code)
    assert lift.dual_containing and lift.lifted.k == code.k == 13
    with pytest.raises(AssertionError, match="GF\\(q\\^2\\)"):
        hermitian_lift_by_row_reduction(code)


def test_css_record_json(ex1_record):
    css = css_from_grid(ex1_record, "formula")
    data = css_record_to_json(css)
    assert set(data) == {"n", "k", "d", "q", "pure", "locality",
                         "distance_mode", "source"}
    assert data["locality"] == [2, 2]
    assert data["source"]["type"] == "grid"


# -- the brute-force oracle: one row reduction of the evaluation rows --------


@pytest.mark.parametrize("row", [1, -1], ids=["inside-mirror", "outside-mirror"])
def test_dependent_evaluation_rows_exit_4_naming_the_instance(monkeypatch, capsys, row):
    # row 1 repeats row 0 inside Delta*, so a pivot goes missing; the last
    # row lies outside Delta*, so repeating row 0 there puts a pivot on the
    # selector
    from qlrc import cli, css

    evaluation_rows = css._evaluation_rows

    def repeated(*args):
        rows = evaluation_rows(*args)
        rows[row] = rows[0]
        return rows

    monkeypatch.setattr(css, "_evaluation_rows", repeated)
    assert cli.main(["construct", "--preset", "ex1", "--mode", "bruteforce"]) == 4
    assert capsys.readouterr() == (
        "", "error: (q=5,H=5,V=3,a=0,b=0) the evaluation rows of Delta are dependent\n")
    assert cli.main(["sweep", "--q", "3"]) == 4
    assert capsys.readouterr().err == (
        "error: (q=3,H=3,V=3,a=0,b=0) the evaluation rows of Delta are dependent\n")


@pytest.mark.parametrize("argv, text", [
    (["--q", "4", "--H", "4", "--V", "4", "--a", "1", "--b", "1", "--budget", "1000"],
     "error: (q=4,H=4,V=4,a=1,b=1) enumeration of 4^10 = 1048576 codewords exceeds budget 1000\n"),
    (["--q", "8", "--H", "8", "--V", "8", "--a", "1", "--b", "1", "--budget", "100"],
     "error: (q=8,H=8,V=8,a=1,b=1) enumeration of 8^34 = 5070602400912917605986812821504 "
     "codewords exceeds budget 100\n"),
])
def test_budget_refusal_builds_no_evaluation_row(monkeypatch, capsys, argv, text):
    from qlrc import cli, css

    def refuse(*args):
        raise AssertionError("an evaluation row was built past the budget")

    monkeypatch.setattr(css, "_evaluation_rows", refuse)
    assert cli.main(["construct", *argv, "--mode", "bruteforce"]) == 3
    assert capsys.readouterr() == ("", text)


def test_bruteforce_construct_row_reduces_once_before_the_search(monkeypatch, capsys):
    # construct --mode bruteforce row-reduces the evaluation rows of Delta and
    # their selector once, and never builds rec.code or the mirror code
    from qlrc import cli, css

    calls, at_search, records = [], [], []
    rref, information_sets, build = (linear_codes._rref, linear_codes._information_sets,
                                     cli.build_grid_record)

    def counted(field, mat):
        calls.append(mat.shape)
        return rref(field, mat)

    def search(*args):
        at_search.append(len(calls))
        return information_sets(*args)

    def recorded(*args):
        records.append(build(*args))
        return records[-1]

    monkeypatch.setattr(linear_codes, "_rref", counted)
    monkeypatch.setattr(css, "_rref", counted)
    monkeypatch.setattr(linear_codes, "_information_sets", search)
    monkeypatch.setattr(cli, "build_grid_record", recorded)
    assert cli.main(["construct", "--preset", "ex1", "--mode", "bruteforce"]) == 0
    assert "d and coset d agree with the closed forms" in capsys.readouterr().out
    assert at_search == [1]
    assert calls[0] == (8, 15 + 1)  # |Delta| rows, n code columns and one selector column
    assert len(records) == 1 and "code" not in vars(records[0])
