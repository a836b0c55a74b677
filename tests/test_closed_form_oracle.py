"""The integer closed forms and staircase band tops against their Fraction
definitions.

The reference functions below state the paper's forms literally, with
h = (H-1)/2 and v = (V-1)/2 as Fractions; grid_codes computes the same
values with floor and ceiling identities in integer arithmetic.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import grid_codes
from qlrc.errors import ParamRangeViolated
from helpers import monomials


def ref_check_ab(H, V, a, b):
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ParamRangeViolated("a and b must be integers")
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    if not ((H - 1) % 2 <= a and a < h):
        raise ParamRangeViolated(f"need {(H - 1) % 2} <= a < {h}, got a={a}")
    if not ((V - 1) % 2 <= b and b < v):
        raise ParamRangeViolated(f"need {(V - 1) % 2} <= b < {v}, got b={b}")


def ref_valid_a_values(H):
    h = Fraction(H - 1, 2)
    return [a for a in range((H - 1) % 2, H) if a < h]


def ref_valid_b_values(V):
    v = Fraction(V - 1, 2)
    return [b for b in range((V - 1) % 2, V) if b < v]


def ref_delta_set(H, V, a, b):
    ref_check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    out = set()
    for j in range(V):
        if j < v - b:
            out.update((i, j) for i in range(H))
        elif v - b <= j <= v + b:
            out.update((i, j) for i in range(H) if i <= h + a)
    return frozenset(out)


def ref_delta_perp_set(H, V, a, b):
    ref_check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    out = set()
    for j in range(V):
        if j < v - b:
            out.update((i, j) for i in range(H))
        elif v - b <= j <= v + b:
            out.update((i, j) for i in range(H) if i < h - a)
    return frozenset(out)


def ref_delta_size(H, V, a, b):
    ref_check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    return math.ceil(v - b) * H + (1 + math.floor(h + a)) * (2 * b + V % 2)


def ref_min_distance(H, V, a, b):
    ref_check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    corner = (H - math.floor(h + a)) * (V - math.floor(v + b))
    band = V - math.ceil(v - 1 - b)
    return min(corner, band)


def ref_coset_distance(H, V, a, b):
    ref_check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    return (H - math.floor(h + a)) * (V - math.floor(v + b))


def ref_locality(H, V, a, b):
    ref_check_ab(H, V, a, b)
    v = Fraction(V - 1, 2)
    return (V - math.ceil(v - b), math.ceil(v - b + 1))


def ref_quantum_dimension(H, V, a, b):
    ref_check_ab(H, V, a, b)
    return (2 * a + H % 2) * (2 * b + V % 2)


def ref_impurity(H, V, a, b):
    return ref_coset_distance(H, V, a, b) > ref_min_distance(H, V, a, b)


def ref_delta_sets(H, V, a, b):
    return ref_delta_set(H, V, a, b), ref_delta_perp_set(H, V, a, b)


def delta_sets(H, V, a, b):
    """delta_tops as the two monomial sets it stands for."""
    return tuple(map(monomials, grid_codes.delta_tops(H, V, a, b)))


def ref_closed_forms(H, V, a, b):
    refs = (ref_delta_size, ref_min_distance, ref_coset_distance, ref_locality,
            ref_quantum_dimension, ref_impurity)  # in ClosedForms field order
    return grid_codes.ClosedForms(*(ref(H, V, a, b) for ref in refs))


def outcome(fn, *args):
    """fn's value, or the type and text of the ParamRangeViolated it raised."""
    try:
        return fn(*args)
    except ParamRangeViolated as exc:
        return (type(exc), str(exc))


@st.composite
def instances(draw, max_side=128):
    """(H, V, a, b) with H, V <= max_side and (a, b) valid for them."""
    H = draw(st.integers(3, max_side))
    V = draw(st.integers(3, max_side))
    a = draw(st.sampled_from(ref_valid_a_values(H)))
    b = draw(st.sampled_from(ref_valid_b_values(V)))
    return H, V, a, b


def test_valid_values_match_for_every_side():
    for side in range(-3, 129):
        assert grid_codes.valid_a_values(side) == ref_valid_a_values(side)
        assert grid_codes.valid_b_values(side) == ref_valid_b_values(side)


@settings(max_examples=300, deadline=None)
@given(instances())
def test_closed_forms_match_fraction_forms(inst):
    assert grid_codes.closed_forms(*inst) == ref_closed_forms(*inst)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_staircase_sets_match_fraction_sets(inst):
    assert delta_sets(*inst) == ref_delta_sets(*inst)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2, 128), st.integers(-2, 128), st.integers(-4, 70), st.integers(-4, 70))
def test_out_of_range_instances_fail_alike(H, V, a, b):
    assert outcome(grid_codes.closed_forms, H, V, a, b) == \
        outcome(ref_closed_forms, H, V, a, b)
    if outcome(ref_check_ab, H, V, a, b) is not None:
        assert outcome(delta_sets, H, V, a, b) == outcome(ref_delta_sets, H, V, a, b)


@pytest.mark.parametrize("inst, text", [
    ((4, 4, 0, 1), "need 1 <= a < 3/2, got a=0"),
    ((5, 3, 2, 0), "need 0 <= a < 2, got a=2"),
    ((5, 3, 0, 1), "need 0 <= b < 1, got b=1"),
    ((8, 8, 1, 4), "need 1 <= b < 7/2, got b=4"),
    ((5, 5, 0.0, 0), "a and b must be integers"),
])
def test_error_text_is_unchanged(inst, text):
    for fn, ref in [(grid_codes.closed_forms, ref_closed_forms),
                    (grid_codes.delta_tops, ref_delta_sets)]:
        assert outcome(fn, *inst) == outcome(ref, *inst) == (ParamRangeViolated, text)
