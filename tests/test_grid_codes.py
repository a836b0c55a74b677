"""Grid geometry, the staircase monomial set, and code construction."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    Monomial,
    build_code,
    build_grid_record,
    cli,
    closed_forms,
    delta_perp_set,
    delta_set,
    make_delta_params,
    make_field,
    make_grid_params,
    min_distance_bruteforce,
    monomial_distance,
    record_to_json,
    twist_vector,
    valid_a_values,
    valid_b_values,
)
from qlrc import grid_codes
from qlrc.errors import (
    DivisibilityViolated,
    DualityViolated,
    ExponentOutOfRange,
    InjectivityViolated,
    ParamRangeViolated,
    WitnessFailed,
)
from qlrc.gf import split_prime_power

_SHAPES = [(H, V, a, b)
           for H in range(3, 14)
           for V in range(3, 14)
           for a in valid_a_values(H)
           for b in valid_b_values(V)]


def test_grid_param_errors(gf5, gf2):
    with pytest.raises(DivisibilityViolated):
        make_grid_params(4, 3, gf5)
    with pytest.raises(ParamRangeViolated):
        make_grid_params(2, 3, gf5)
    with pytest.raises(ParamRangeViolated):
        make_grid_params(3, 3, gf2)  # q must be at least 3


def test_ab_validation(gf5, gf4):
    g = make_grid_params(5, 3, gf5)
    make_delta_params(g, 1, 0)
    with pytest.raises(ParamRangeViolated):
        make_delta_params(g, 2, 0)  # a < h = 2
    with pytest.raises(ParamRangeViolated):
        make_delta_params(g, 0, 1)  # b < v = 1
    with pytest.raises(ParamRangeViolated):
        make_delta_params(g, -1, 0)
    g4 = make_grid_params(4, 4, gf4)
    with pytest.raises(ParamRangeViolated):
        make_delta_params(g4, 0, 1)  # even H-1 forces a >= 1


def test_valid_ranges():
    assert valid_a_values(5) == [0, 1]
    assert valid_a_values(4) == [1]
    assert valid_a_values(3) == [0]
    assert valid_b_values(3) == [0]
    assert valid_b_values(8) == [1, 2, 3]


def test_delta_sets_ex1():
    d = delta_set(5, 3, 0, 0)
    assert sorted((m.i, m.j) for m in d) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (4, 0)]
    dp = delta_perp_set(5, 3, 0, 0)
    assert sorted((m.i, m.j) for m in dp) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (4, 0)]
    assert dp < d


def test_delta_sets_rem3():
    d = delta_set(3, 3, 0, 0)
    assert sorted((m.i, m.j) for m in d) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    dp = delta_perp_set(3, 3, 0, 0)
    assert sorted((m.i, m.j) for m in dp) == [(0, 0), (0, 1), (1, 0), (2, 0)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_delta_size_formula_matches_enumeration(shape):
    H, V, a, b = shape
    assert len(delta_set(H, V, a, b)) == closed_forms(H, V, a, b).size


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_delta_perp_is_reflection_complement(shape):
    H, V, a, b = shape
    d = delta_set(H, V, a, b)
    dp = delta_perp_set(H, V, a, b)
    for i in range(H):
        for j in range(V):
            reflected_out = Monomial(H - 1 - i, V - 1 - j) not in d
            assert (Monomial(i, j) in dp) == reflected_out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_dimension_identities(shape):
    H, V, a, b = shape
    forms = closed_forms(H, V, a, b)
    size, k = forms.size, forms.quantum_k
    assert 2 * size - H * V == k
    assert k == (2 * a + H % 2) * (2 * b + V % 2)
    assert len(delta_perp_set(H, V, a, b)) == H * V - size


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_distance_formulas_from_monomials(shape):
    H, V, a, b = shape
    d = delta_set(H, V, a, b)
    dp = delta_perp_set(H, V, a, b)
    assert min(monomial_distance(m, H, V) for m in d) == \
        closed_forms(H, V, a, b).d
    assert min(monomial_distance(m, H, V) for m in d - dp) == \
        closed_forms(H, V, a, b).coset_d


def test_monomial_distance_bounds():
    assert monomial_distance(Monomial(0, 0), 5, 3) == 15
    assert monomial_distance(Monomial(4, 2), 5, 3) == 1
    with pytest.raises(ExponentOutOfRange):
        monomial_distance(Monomial(5, 0), 5, 3)
    with pytest.raises(ExponentOutOfRange):
        monomial_distance(Monomial(0, -1), 5, 3)


def test_twist_vector_ex1(gf5):
    g = make_grid_params(5, 3, gf5)
    assert list(twist_vector(g)) == [1, 2, 2] * 5


def test_plain_dual_flags(ex1_record, rem3_record, ex1e_record, grid55_record):
    assert not ex1_record.plain_dual
    assert rem3_record.plain_dual
    assert ex1e_record.plain_dual
    assert grid55_record.plain_dual


def test_ex1_record_numbers(ex1_record):
    rec = ex1_record
    assert (rec.n, rec.k) == (15, 8)
    assert rec.mirror_code.k == 7
    assert rec.d_formula == 3
    assert rec.coset_d_formula == 6
    assert rec.locality == (2, 2)
    assert rec.impure
    assert len(rec.delta) == 8


def test_ex1e_record_numbers(ex1e_record):
    rec = ex1e_record
    assert (rec.n, rec.k) == (64, 34)
    assert rec.d_formula == 6
    assert rec.coset_d_formula == 16
    assert rec.locality == (5, 4)
    assert rec.impure


def test_gf4_instance_is_pure(gf4):
    g = make_grid_params(4, 4, gf4)
    rec = build_code(g, make_delta_params(g, 1, 1))
    assert (rec.n, rec.k) == (16, 10)
    assert rec.d_formula == 4
    assert rec.coset_d_formula == 4
    assert not rec.impure
    assert min_distance_bruteforce(rec.code) == 4


def test_impurity_predicate_examples():
    assert closed_forms(5, 3, 0, 0).impure
    assert closed_forms(3, 3, 0, 0).impure
    assert closed_forms(8, 8, 1, 1).impure
    assert not closed_forms(4, 4, 1, 1).impure


def test_locality_formula_examples():
    assert closed_forms(5, 3, 0, 0).locality == (2, 2)
    assert closed_forms(8, 8, 1, 1).locality == (5, 4)
    assert closed_forms(5, 5, 0, 0).locality == (3, 3)


def test_record_json_keys(ex1_record):
    data = record_to_json(ex1_record)
    assert set(data) == {"H", "V", "q", "a", "b", "field", "delta", "n", "k",
                         "d_formula", "coset_d_formula", "locality", "impure"}
    assert data["n"] == 15 and data["k"] == 8
    assert data["locality"] == [2, 2]
    assert len(data["delta"]) == 8


def test_mirror_code_is_subcode(ex1_record, ex1e_record):
    from qlrc import contains

    for rec in (ex1_record, ex1e_record):
        assert contains(rec.code, rec.mirror_code)


def test_build_code_respects_field_choice():
    f9 = make_field(3, 2, primitive=4)
    g = make_grid_params(3, 3, f9)
    rec = build_code(g, make_delta_params(g, 0, 0))
    assert rec.grid.q == 9
    assert (rec.n, rec.k) == (9, 5)


@pytest.mark.parametrize("inst", [(5, 5, 3, 0, 0), (8, 8, 8, 1, 1), (4, 4, 4, 1, 1),
                                  (25, 9, 9, 2, 3), (27, 14, 3, 6, 0), (13, 13, 13, 0, 5)],
                         ids=lambda inst: ",".join(map(str, inst)))
def test_build_code_proves_without_generator_matrices(monkeypatch, no_generator_matrices,
                                                      inst):
    q, H, V, a, b = inst
    lengths = []
    products = grid_codes.inner_products

    def recorded(field, x, y):
        lengths.append(x.shape[1])
        return products(field, x, y)

    monkeypatch.setattr(grid_codes, "inner_products", recorded)
    rec = build_grid_record(make_field(*split_prime_power(q)), H, V, a, b)
    assert rec.k == len(rec.delta) == closed_forms(H, V, a, b).size
    assert lengths and max(lengths) < rec.n  # no product runs along the n coordinates
    assert "code" not in vars(rec) and "mirror_code" not in vars(rec)


@pytest.mark.parametrize("p, m, side, seconds", [(2, 6, 64, 10), (2, 8, 256, 120)],
                         ids=["q=64", "q=256"])
def test_large_grids_construct_in_bounded_time(no_generator_matrices, p, m, side, seconds):
    # the axis proof is O(n (H + V)); row-reducing either generator
    # matrix here would take minutes
    field = make_field(p, m)
    start = time.monotonic()
    rec = build_grid_record(field, side, side, 2, 2)
    assert time.monotonic() - start < seconds
    assert rec.k == closed_forms(side, side, 2, 2).size
    assert "code" not in vars(rec) and "mirror_code" not in vars(rec)


# -- the construction's self-checks fire on corrupted inputs ------------------
# Each corruption runs ex1 = (q=5,H=5,V=3,a=0,b=0) through build_code and
# through the construct command, which must exit 4 and name the instance.

_EX1 = "(q=5,H=5,V=3,a=0,b=0)"


def _corrupt(monkeypatch, name, change):
    """Replace grid_codes.<name> by a copy whose result `change` edits."""
    original = getattr(grid_codes, name)

    def corrupted(*args):
        out = original(*args).copy()
        change(args, out)
        return out

    monkeypatch.setattr(grid_codes, name, corrupted)


def _assert_construct_fails(capsys, error, match):
    with pytest.raises(error, match=match) as info:
        build_grid_record(make_field(5), 5, 3, 0, 0)
    assert str(info.value).startswith(_EX1)
    capsys.readouterr()
    assert cli.main(["construct", "--preset", "ex1"]) == 4
    assert f"error: {_EX1}" in capsys.readouterr().err


def test_corrupted_twist_vector_fails_duality(monkeypatch, capsys):
    def change(args, w):
        field = args[0].field
        w[0] = field.mul(int(w[0]), field.primitive)

    _corrupt(monkeypatch, "twist_vector", change)
    _assert_construct_fails(capsys, DualityViolated, "not orthogonal")


def _first_entry_one(args, values):
    values[0] = 1


def _last_entry_doubled(args, values):
    values[-1] = args[0].mul(int(values[-1]), 2)


@pytest.mark.parametrize("change, match", [
    (_first_entry_one, "witness weight 12 != formula 6"),
    (_last_entry_doubled, "not the evaluation of its polynomial"),
], ids=["weight", "membership"])
def test_corrupted_witness_fails(monkeypatch, capsys, change, match):
    _corrupt(monkeypatch, "_vanishing_values", change)
    _assert_construct_fails(capsys, WitnessFailed, match)


def test_repeated_axis_point_fails_injectivity(monkeypatch, capsys):
    def change(args, pts):
        pts[-1] = pts[-2]

    _corrupt(monkeypatch, "_axis_points", change)
    _assert_construct_fails(capsys, InjectivityViolated, "x-axis points repeat")
