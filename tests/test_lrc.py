"""Locality certification and the [4m, 3m-1] binary family."""

import dataclasses

import numpy as np
import pytest

from qlrc import (
    certify_grid_lines,
    certify_locality,
    contains,
    euclidean_dual,
    from_spanning_set,
    heavy_row_check,
    lemma_family,
)
from qlrc.errors import (
    AssertionFailed,
    InjectivityViolated,
    NotLocallyRecoverable,
    ParamRangeViolated,
    SearchBudgetExceeded,
    ZeroLocality,
)
from qlrc.lrc import LEMMA_M_CAP, coset_words
from helpers import full_code


def test_parameter_validation(ex1_record):
    with pytest.raises(ZeroLocality):
        certify_locality(ex1_record.code, 0, 2)
    with pytest.raises(ParamRangeViolated):
        certify_locality(ex1_record.code, 2, 1)
    with pytest.raises(ZeroLocality):
        certify_grid_lines(ex1_record, 0, 2)
    with pytest.raises(ParamRangeViolated):
        certify_grid_lines(ex1_record, 2, 1)


def test_grid_lines_ex1(ex1_record):
    cert = certify_grid_lines(ex1_record, 2, 2)
    assert len(cert.entries) == 15
    assert [e.coordinate for e in cert.entries] == list(range(15))
    for e in cert.entries:
        col = e.coordinate // 3
        assert e.repair_set == tuple(3 * col + j for j in range(3))
        assert e.punctured_distance == 2


def test_grid_lines_ex1e(ex1e_record):
    cert = certify_grid_lines(ex1e_record, 5, 4)
    assert len(cert.entries) == 64
    assert all(e.punctured_distance == 4 for e in cert.entries)
    assert all(len(e.repair_set) == 8 for e in cert.entries)


def test_grid_lines_column_too_wide(ex1e_record):
    with pytest.raises(NotLocallyRecoverable):
        certify_grid_lines(ex1e_record, 2, 2)


def test_exhaustive_matches_grid_lines_on_ex1(ex1_record):
    cert = certify_locality(ex1_record.code, 2, 2)
    assert len(cert.entries) == 15
    for e in cert.entries:
        assert len(e.repair_set) <= 3
        assert e.punctured_distance >= 2


def test_exhaustive_lemma_m2_finds_blocks():
    fam = lemma_family(2)
    cert = certify_locality(fam.code, 3, 2)
    first = cert.entries[0]
    assert first.coordinate == 0
    assert first.repair_set == (0, 1, 2, 3)
    assert first.punctured_distance == 2


def test_full_space_is_not_locally_recoverable(gf2):
    with pytest.raises(NotLocallyRecoverable):
        certify_locality(full_code(gf2, 6), 3, 2)


def test_search_budget(gf2):
    with pytest.raises(SearchBudgetExceeded):
        certify_locality(full_code(gf2, 12), 3, 2, search_budget=5)


def test_certificate_json(ex1_record):
    cert = certify_grid_lines(ex1_record, 2, 2)
    data = cert.to_json()
    assert isinstance(data, list)
    assert len(data) == 15
    assert set(data[0]) == {"coordinate", "repair_set", "punctured_distance"}
    assert data[0]["repair_set"] == [0, 1, 2]


def test_lemma_family_m1():
    fam = lemma_family(1)
    f2 = fam.code.field
    expected = from_spanning_set(f2, [
        np.array([1, 1, 0, 0], dtype=np.int64),
        np.array([0, 0, 1, 1], dtype=np.int64),
    ])
    assert fam.code == expected
    assert fam.dual_code == expected  # self-dual at m = 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_lemma_family_parameters(m):
    fam = lemma_family(m)
    assert fam.code.n == 4 * m
    assert fam.code.k == 3 * m - 1
    assert fam.dual_code.k == m + 1
    assert euclidean_dual(fam.code) == fam.dual_code
    # self-orthogonal dual: dual lies inside the code
    assert contains(fam.code, fam.dual_code)


def test_lemma_family_rejects_bad_m():
    with pytest.raises(ParamRangeViolated):
        lemma_family(0)
    with pytest.raises(ParamRangeViolated):
        lemma_family(-3)
    with pytest.raises(ParamRangeViolated, match=r"^m = 201 exceeds the cap 200$"):
        lemma_family(LEMMA_M_CAP + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 6, 60])  # 60: 2^60 words, past any enumeration
def test_heavy_rows_have_constant_weight(m):
    fam = lemma_family(m)
    res = heavy_row_check(fam)
    assert (res.min_weight, res.max_weight) == (2 * m, 2 * m)
    assert res.count == 2**m


def _heavy_row_matmul(fam):
    """The straddle coset, one int64 product of selector bits with the
    block rows; returns the words and (min, max, count) of their weights."""
    idx = np.arange(1 << fam.m, dtype=np.int64)
    sel = (idx[:, None] >> np.arange(fam.m, dtype=np.int64)[None, :]) & 1
    words = (sel @ fam.block_rows + fam.straddle_row[None, :]) % 2
    w = np.count_nonzero(words, axis=1)
    return words, (int(w.min()), int(w.max()), len(words))


@pytest.mark.parametrize("m", range(1, 13))
def test_heavy_rows_match_matmul(m):
    fam = lemma_family(m)
    words, expected = _heavy_row_matmul(fam)
    res = heavy_row_check(fam)
    assert (res.min_weight, res.max_weight, res.count) == expected
    assert coset_words(fam).tolist() == words.tolist()


def _overlapping_blocks():
    blocks = lemma_family(3).block_rows.copy()
    blocks[1, 3] = 1  # block 1 reaches into run 0
    return blocks


@pytest.mark.parametrize("m, broken, message", [
    (3, {"straddle_row": np.array([1, 0, 0, 0] + [1, 1, 0, 0] * 2)},
     "the straddle row weighs 1 on run 0, not 2"),
    (4, {"straddle_row": np.array([1, 1, 0, 0] * 2 + [1, 1, 1, 0, 1, 1, 0, 0])},
     "the straddle row weighs 3 on run 2, not 2"),
    (3, {"straddle_row": np.array([1, 1, 0, 0] * 3 + [1])},
     "the straddle row is not a binary word of length 12"),
    (2, {"straddle_row": np.array([1, 1, 0, 0, 2, 0, 0, 0])},
     "the straddle row is not a binary word of length 8"),
    (3, {"block_rows": _overlapping_blocks()},
     "the block rows are not the 3 disjoint runs of four ones"),
    (3, {"block_rows": lemma_family(3).block_rows[::-1]},
     "the block rows are not the 3 disjoint runs of four ones"),
], ids=["straddle-weight-1", "straddle-weight-3", "straddle-length", "straddle-entry-2",
        "overlapping-blocks", "blocks-out-of-order"])
def test_heavy_row_check_rejects_a_broken_family(m, broken, message):
    # the coset weights are proved from the block structure, so a family
    # that breaks it must fail the proof rather than get weights it lacks
    with pytest.raises(AssertionFailed, match=f"^{message}$"):
        heavy_row_check(dataclasses.replace(lemma_family(m), **broken))


def test_zero_column_counts_as_vacuous(gf3):
    # coordinate 2 is identically zero; any set containing it projects to
    # the zero code there and the certificate records no finite distance
    code = from_spanning_set(gf3, [np.array([1, 1, 0], dtype=np.int64)])
    cert = certify_locality(code, 2, 2)
    entry = cert.entries[2]
    assert entry.punctured_distance is None


def test_grid_lines_column_rank_must_be_J_plus_1(ex1_record, with_band_hole):
    broken = with_band_hole(ex1_record)
    with pytest.raises(InjectivityViolated, match=(
            r"^\(q=5,H=5,V=3,a=0,b=0\) grid column 0 has rank 1, not J\+1 = 2$")):
        certify_grid_lines(broken, 2, 2)


def test_grid_lines_reports_the_column_distance(ex1_record):
    # V = 3, J = 1: the columns have distance 2 even where |S| < delta
    for r, delta in ((1, 3), (1, 4)):
        with pytest.raises(NotLocallyRecoverable, match=(
                rf"^column through coordinate 0 has punctured distance 2 < {delta}$")):
            certify_grid_lines(ex1_record, r, delta)
