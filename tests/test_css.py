"""CSS records from grid codes and bare codes, plus Hermitian lifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    contains,
    coset_min_weight_bruteforce,
    css_from_code,
    css_from_grid,
    css_record_to_json,
    from_spanning_set,
    full_code,
    hermitian_dual,
    hermitian_lift,
    quantum_dimension_formula,
    valid_a_values,
    valid_b_values,
)
from qlrc.errors import InvalidParameter, NotDualContaining


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
    from qlrc import build_code, make_delta_params, make_grid_params

    g = make_grid_params(4, 4, gf4)
    rec = build_code(g, make_delta_params(g, 1, 1))
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
    k = quantum_dimension_formula(H, V, a, b)
    assert k == (2 * a + H % 2) * (2 * b + V % 2)
    assert k >= 1


def test_pure_iff_not_impure(ex1_record, rem3_record, ex1e_record):
    for rec in (ex1_record, rem3_record, ex1e_record):
        css = css_from_grid(rec, "formula")
        assert css.pure == (not rec.impure)


def test_css_from_code_raw_path(rem3_record):
    rec = css_from_code(rem3_record.code)
    assert (rec.n, rec.k, rec.d) == (9, 1, 4)
    assert rec.source == {"type": "code"}
    assert rec.locality is None


def test_css_from_code_requires_dual_containment(ex1_record):
    with pytest.raises(NotDualContaining):
        css_from_code(ex1_record.code)


def test_css_from_code_formula_needs_grid(rem3_record):
    with pytest.raises(InvalidParameter):
        css_from_code(rem3_record.code, "formula")


def test_css_from_full_space(gf3):
    rec = css_from_code(full_code(gf3, 4))
    assert (rec.n, rec.k) == (4, 4)
    assert rec.d == 1


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


def test_css_record_json(ex1_record):
    css = css_from_grid(ex1_record, "formula")
    data = css_record_to_json(css)
    assert set(data) == {"n", "k", "d", "q", "pure", "locality",
                         "distance_mode", "source"}
    assert data["locality"] == [2, 2]
    assert data["source"]["type"] == "grid"


def test_raw_css_pure_example(gf2):
    # C = dual-containing [4,3] single-parity-check code over GF(2)
    code = from_spanning_set(gf2, [
        np.array([1, 1, 0, 0], dtype=np.int64),
        np.array([0, 1, 1, 0], dtype=np.int64),
        np.array([0, 0, 1, 1], dtype=np.int64),
    ])
    rec = css_from_code(code)
    assert (rec.n, rec.k, rec.d) == (4, 2, 2)
