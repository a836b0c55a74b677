"""Grid geometry, the staircase band tops, and code construction."""

import inspect
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    build_grid_record,
    cli,
    closed_forms,
    delta_tops,
    make_field,
    min_distance_bruteforce,
    record_to_json,
    valid_a_values,
    valid_b_values,
)
from qlrc import grid_codes
from qlrc.errors import (
    AssertionFailed,
    DivisibilityViolated,
    DualityViolated,
    InjectivityViolated,
    ParamRangeViolated,
)
from qlrc.gf import FieldSpec, split_prime_power
from helpers import (ExponentOutOfRange, Monomial, mirror_code, monomial_distance, monomials,
                     twist_vector)

def delta_sets(H, V, a, b):
    return tuple(map(monomials, delta_tops(H, V, a, b)))


_SHAPES = [(H, V, a, b)
           for H in range(3, 14)
           for V in range(3, 14)
           for a in valid_a_values(H)
           for b in valid_b_values(V)]


def test_grid_param_errors(gf5, gf2):
    with pytest.raises(DivisibilityViolated):
        build_grid_record(gf5, 4, 3, 0, 0)
    with pytest.raises(ParamRangeViolated):
        build_grid_record(gf5, 2, 3, 0, 0)
    with pytest.raises(ParamRangeViolated):
        build_grid_record(gf2, 3, 3, 0, 0)  # q must be at least 3


def test_grid_work_cap_boundary():
    # n * (H + V) = 3q(q + 3): 133,887,234 for q = 6679, 134,288,364 for 6689
    assert build_grid_record(make_field(6679), 6679, 3, 2, 0).n == 3 * 6679
    with pytest.raises(ParamRangeViolated, match=re.escape(
            "n*(H+V) = 134288364 exceeds the cap 134217728")):
        build_grid_record(make_field(6689), 6689, 3, 2, 0)


def test_ab_validation(gf5, gf4):
    build_grid_record(gf5, 5, 3, 1, 0)
    with pytest.raises(ParamRangeViolated):
        build_grid_record(gf5, 5, 3, 2, 0)  # a < h = 2
    with pytest.raises(ParamRangeViolated):
        build_grid_record(gf5, 5, 3, 0, 1)  # b < v = 1
    with pytest.raises(ParamRangeViolated):
        build_grid_record(gf5, 5, 3, -1, 0)
    with pytest.raises(ParamRangeViolated):
        build_grid_record(gf4, 4, 4, 0, 1)  # even H-1 forces a >= 1


def test_valid_ranges():
    assert valid_a_values(5) == [0, 1]
    assert valid_a_values(4) == [1]
    assert valid_a_values(3) == [0]
    assert valid_b_values(3) == [0]
    assert valid_b_values(8) == [1, 2, 3]


def test_delta_sets_ex1():
    tops, tops_perp = delta_tops(5, 3, 0, 0)
    assert tops.tolist() == [4, 2, -1] and tops_perp.tolist() == [4, 1, -1]
    d, dp = delta_sets(5, 3, 0, 0)
    assert sorted((m.i, m.j) for m in d) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (4, 0)]
    assert sorted((m.i, m.j) for m in dp) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0), (4, 0)]
    assert dp < d


def test_delta_sets_rem3():
    d, dp = delta_sets(3, 3, 0, 0)
    assert sorted((m.i, m.j) for m in d) == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    assert sorted((m.i, m.j) for m in dp) == [(0, 0), (0, 1), (1, 0), (2, 0)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_delta_size_formula_matches_enumeration(shape):
    H, V, a, b = shape
    assert len(delta_sets(H, V, a, b)[0]) == closed_forms(H, V, a, b).size


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_delta_perp_is_reflection_complement(shape):
    H, V, a, b = shape
    d, dp = delta_sets(H, V, a, b)
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
    assert len(delta_sets(H, V, a, b)[1]) == H * V - size


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_SHAPES))
def test_distance_formulas_from_monomials(shape):
    H, V, a, b = shape
    d, dp = delta_sets(H, V, a, b)
    assert min(monomial_distance(m, H, V) for m in d) == \
        closed_forms(H, V, a, b).d
    assert min(monomial_distance(m, H, V) for m in d - dp) == \
        closed_forms(H, V, a, b).coset_d


def test_band_distances_read_no_field(monkeypatch):
    # every FieldSpec method refuses, and the distances still come out of
    # the band tops alone, equal to the closed forms on every shape
    def refuse(*args, **kwargs):
        raise AssertionError("band_distances read the field")

    for name, attr in vars(FieldSpec).items():
        if callable(attr) and not name.startswith("__"):
            monkeypatch.setattr(FieldSpec, name, refuse)
    assert list(inspect.signature(grid_codes.band_distances).parameters) == [
        "H", "tops", "tops_perp"]
    for H, V, a, b in _SHAPES:
        forms = closed_forms(H, V, a, b)
        assert grid_codes.band_distances(H, *delta_tops(H, V, a, b)) == (forms.d, forms.coset_d)


@pytest.mark.parametrize("tops, tops_perp, pair", [
    ([4, 2, -1], [4, 1, -1], (3, 6)),  # ex1
    ([4, 3, -1], [4, 1, -1], (3, 4)),  # Delta's middle top one higher
    ([4, 2, -1], [4, 2, -1], (3, None)),  # Delta* reaches Delta: no word outside
    ([4, 2, -1], [4, 0, -1], (3, 6)),  # only the size check sees this one
    ([4, 2, 1], [3, 2, 1], (3, None)),  # band 0 counts, J = 2: 1 * 3 against 1 * 1
], ids=["ex1", "delta+1", "delta_perp+1", "delta_perp-1", "bounds-apart"])
def test_band_distances_on_moved_tops(tops, tops_perp, pair):
    assert grid_codes.band_distances(5, np.array(tops), np.array(tops_perp)) == pair


def test_monomial_distance_bounds():
    assert monomial_distance(Monomial(0, 0), 5, 3) == 15
    assert monomial_distance(Monomial(4, 2), 5, 3) == 1
    with pytest.raises(ExponentOutOfRange):
        monomial_distance(Monomial(5, 0), 5, 3)
    with pytest.raises(ExponentOutOfRange):
        monomial_distance(Monomial(0, -1), 5, 3)


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.sampled_from(_SHAPES).map(lambda shape: delta_tops(*shape)[shape[0] % 2]),
                 st.lists(st.integers(-1, 6), min_size=1, max_size=8).map(np.array)))
def test_exponents_are_the_band_monomials_in_band_order(tops):
    i, j = grid_codes._exponents(tops)
    assert list(zip(i.tolist(), j.tolist())) == sorted(monomials(tops), key=lambda m: (m.j, m.i))


def test_twist_vector_ex1(gf5):
    assert list(twist_vector(gf5, 5, 3)) == [1, 2, 2] * 5


def test_plain_dual_flags(ex1_record, rem3_record, ex1e_record, grid55_record):
    assert not ex1_record.plain_dual
    assert rem3_record.plain_dual
    assert ex1e_record.plain_dual
    assert grid55_record.plain_dual


def test_ex1_record_numbers(ex1_record):
    rec = ex1_record
    assert (rec.n, rec.k) == (15, 8)
    assert mirror_code(rec).k == 7
    assert rec.forms.d == 3
    assert rec.forms.coset_d == 6
    assert rec.forms.locality == (2, 2)
    assert rec.forms.impure
    assert len(monomials(rec.tops)) == 8


def test_ex1e_record_numbers(ex1e_record):
    rec = ex1e_record
    assert (rec.n, rec.k) == (64, 34)
    assert rec.forms.d == 6
    assert rec.forms.coset_d == 16
    assert rec.forms.locality == (5, 4)
    assert rec.forms.impure


def test_gf4_instance_is_pure(gf4):
    rec = build_grid_record(gf4, 4, 4, 1, 1)
    assert (rec.n, rec.k) == (16, 10)
    assert rec.forms.d == 4
    assert rec.forms.coset_d == 4
    assert not rec.forms.impure
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
        assert contains(rec.code, mirror_code(rec))


def test_build_code_respects_field_choice():
    f9 = make_field(3, 2, primitive=4)
    rec = build_grid_record(f9, 3, 3, 0, 0)
    assert rec.q == 9
    assert (rec.n, rec.k) == (9, 5)


@pytest.mark.parametrize("inst", [(5, 5, 3, 0, 0), (8, 8, 8, 1, 1), (4, 4, 4, 1, 1),
                                  (25, 9, 9, 2, 3), (27, 14, 3, 6, 0), (13, 13, 13, 0, 5)],
                         ids=lambda inst: ",".join(map(str, inst)))
def test_build_code_proves_without_generator_matrices(monkeypatch, no_generator_matrices,
                                                      inst):
    q, H, V, a, b = inst

    def refuse(*args):
        raise AssertionError("build_grid_record formed a field matrix product")

    monkeypatch.setattr(FieldSpec, "matmul", refuse)
    rec = build_grid_record(make_field(*split_prime_power(q)), H, V, a, b)
    assert rec.k == len(monomials(rec.tops)) == closed_forms(H, V, a, b).size
    assert "code" not in vars(rec)


@pytest.mark.parametrize("p, m, side, seconds", [(2, 6, 64, 10), (2, 8, 256, 120)],
                         ids=["q=64", "q=256"])
def test_large_grids_construct_in_bounded_time(no_generator_matrices, p, m, side, seconds):
    # a record costs O(H + V); row-reducing either generator matrix here
    # would take minutes
    field = make_field(p, m)
    start = time.monotonic()
    rec = build_grid_record(field, side, side, 2, 2)
    assert time.monotonic() - start < seconds
    assert rec.k == closed_forms(side, side, 2, 2).size
    assert "code" not in vars(rec)


def test_record_retains_under_4_mib():
    # the record holds band tops and the axis points, 401 entries each and
    # about 12 KiB in all at n = 160,801: no grid vector and not one object
    # per monomial
    field = make_field(401)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = build_grid_record(field, 401, 401, 3, 3)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec.k == closed_forms(401, 401, 3, 3).size
    assert retained < 64 * 2**10


@pytest.mark.parametrize("inst", [(6679, 6679, 3, 2, 0), (4096, 4096, 4, 2, 1)],
                         ids=lambda inst: ",".join(map(str, inst)))
def test_thin_grid_record_builds_in_under_50_ms(inst):
    # O(H + V): two axis checks and the band tops, no power table; best of
    # three, so one descheduled run does not count
    q, H, V, a, b = inst
    field = make_field(*split_prime_power(q))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        build_grid_record(field, H, V, a, b)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.05, times


def test_thin_grid_record_peaks_below_100_mib():
    # (6679, 6679, 3), just under GRID_WORK_CAP: the record holds the axis
    # points and band tops, so the process peaks at about what importing
    # numpy and building GF(6679) take (31 MiB on Linux, Python 3.11)
    code = ("import resource\n"
            "from qlrc import build_grid_record, make_field\n"
            "build_grid_record(make_field(6679), 6679, 3, 2, 0)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    # Linux carries a process's peak RSS across exec, so a small interpreter
    # starts the measured one: the test process's own size does not count
    launcher = ("import subprocess, sys\n"
                f"sys.exit(subprocess.run([sys.executable, '-c', {code!r}]).returncode)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", launcher], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) < 48 * 1024  # ru_maxrss is in KiB


# -- the construction's self-checks fire on corrupted inputs ------------------
# Each corruption runs ex1 = (q=5,H=5,V=3,a=0,b=0) through build_grid_record and
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


def test_perturbed_axis_point_fails_duality(monkeypatch, capsys):
    # ex1's y-axis points are 0, 4, 1; the last moved to 2 stays distinct,
    # but 2^2 = 4 in GF(5), so the duality theorem does not apply
    def change(args, pts):
        if args[1] == 3:
            pts[-1] = 2

    _corrupt(monkeypatch, "_axis_points", change)
    _assert_construct_fails(capsys, DualityViolated,
                            re.escape("the y-axis points are not 0 and the roots of Z^2 - 1"))


@pytest.mark.parametrize("which, step, size", [(0, 1, 16), (0, -1, 14), (1, 1, 16), (1, -1, 14)],
                         ids=["delta+1", "delta-1", "delta_perp+1", "delta_perp-1"])
def test_moved_middle_top_fails(monkeypatch, capsys, which, step, size):
    # ex1's band tops are [4, 2, -1] in Delta and [4, 1, -1] in Delta*; band
    # 1 is the middle band, and moving either top leaves |Delta| + |Delta*|
    # one off n = 15
    original = grid_codes.delta_tops

    def moved(*args):
        tops = [t.copy() for t in original(*args)]
        tops[which][1] += step
        return tuple(tops)

    monkeypatch.setattr(grid_codes, "delta_tops", moved)
    _assert_construct_fails(capsys, DualityViolated,
                            re.escape(f"|Delta| + |Delta*| = {size} != n = 15"))


def test_repeated_axis_point_fails_injectivity(monkeypatch, capsys):
    def change(args, pts):
        pts[-1] = pts[-2]

    _corrupt(monkeypatch, "_axis_points", change)
    _assert_construct_fails(capsys, InjectivityViolated, "x-axis points repeat")


@pytest.mark.parametrize("shift", [1, -1], ids=["d+1", "d-1"])
def test_closed_form_d_off_the_band_corners_fails(monkeypatch, capsys, shift):
    # ex1's least band corner is (H - 4)(V - 0) = 3 at band 0
    forms = grid_codes.closed_forms
    monkeypatch.setattr(grid_codes, "closed_forms",
                        lambda *args: forms(*args)._replace(d=forms(*args).d + shift))
    _assert_construct_fails(capsys, AssertionFailed, re.escape(
        f"band corners give d = 3, not the closed form {3 + shift}"))
