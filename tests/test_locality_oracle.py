"""Definition-level locality certification, kept as the oracle for the
shared-prefix ranks, the distances from subset ranks, the dual-word
certificate and the closed-form grid-column ranks in qlrc.lrc.

The code here is what those paths replaced: one candidate repair set at a
time, one RREF and one brute-force distance per set (a bit-packed span
walk on GF(2)); for grid_lines, a brute-force distance per grid column,
and the column ranks of the row-reduced generator matrix.  Each must give
the same certificate, byte for byte, or the same error.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import time
from functools import cache
from itertools import combinations, islice, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    build_grid_record,
    certify_dual_words,
    certify_grid_lines,
    certify_locality,
    cli,
    euclidean_dual,
    from_spanning_set,
    lemma_family,
    lrc,
    make_field,
    valid_a_values,
    valid_b_values,
    zero_code,
)
from qlrc.errors import (
    DualityViolated,
    InjectivityViolated,
    LengthMismatch,
    NotLocallyRecoverable,
    QlrcError,
    SearchBudgetExceeded,
)
from qlrc.gf import split_prime_power
from qlrc.grid_codes import instance_label
from qlrc.linear_codes import LinearCode, _rref, min_distance_bruteforce
from qlrc.lrc import LocalityCertificate, LocalityEntry, _validate_rd
from qlrc.verifier import prime_powers
from helpers import full_code, monomials, reduce_stack

# -- the definition-level scan -------------------------------------------------


def _passes(code, cols, delta):
    sub = code.generator[:, list(cols)]
    if not sub.any():
        return True, None
    if len(cols) < delta:
        # a nonzero projection has a word of weight <= |cols| < delta
        return False, None
    R, piv = _rref(code.field, sub)
    if R.shape[0] == len(cols):
        return (delta <= 1), 1  # full space has distance 1
    restricted = LinearCode(code.field, len(cols), R, piv)
    d = min_distance_bruteforce(restricted, budget=code.field.q ** restricted.k)
    return d >= delta, d


def _passes_gf2(row_bits, cols, delta):
    """GF(2) span walk on bit-packed generator rows; it never enumerates
    more than 2^|cols| words."""
    packed = []
    any_nonzero = False
    for bits in row_bits:
        v = 0
        for pos, c in enumerate(cols):
            v |= ((bits >> c) & 1) << pos
        if v:
            any_nonzero = True
        packed.append(v)
    if not any_nonzero:
        return True, None
    if len(cols) < delta:
        return False, None
    basis = []
    for v in packed:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    if len(basis) == len(cols):
        return (delta <= 1), 1
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    best = min(w.bit_count() for w in words[1:])
    return best >= delta, best


def oracle_exhaustive(code, r, delta, search_budget=lrc._SEARCH_BUDGET, gf2_walk=True):
    """The candidate-by-candidate scan, by enumeration with no budget;
    gf2_walk picks _passes_gf2 on GF(2)."""
    _validate_rd(r, delta)
    size_cap = r + delta - 1
    n = code.n
    use_gf2 = gf2_walk and code.field.q == 2
    row_bits = [int(sum(int(v) << c for c, v in enumerate(code.generator[i])))
                for i in range(code.k)]
    entries = []
    for t in range(n):
        others = [c for c in range(n) if c != t]
        tried = 0
        found = None
        for size in range(1, size_cap + 1):
            for rest in combinations(others, size - 1):
                tried += 1
                if tried > search_budget:
                    raise SearchBudgetExceeded(
                        f"coordinate {t}: more than {search_budget} candidate "
                        f"repair sets")
                cols = tuple(sorted((t,) + rest))
                if use_gf2:
                    ok, dist = _passes_gf2(row_bits, cols, delta)
                else:
                    ok, dist = _passes(code, cols, delta)
                if ok:
                    found = LocalityEntry(t, cols, dist)
                    break
            if found is not None:
                break
        if found is None:
            raise NotLocallyRecoverable(
                f"coordinate {t} admits no repair set of size <= {size_cap} "
                f"with punctured distance >= {delta}")
        entries.append(found)
    return LocalityCertificate(r, delta, "exhaustive", tuple(entries))


def oracle_grid_lines(rec, r, delta):
    """Each grid column certified by enumerating its restricted code."""
    _validate_rd(r, delta)
    size_cap = r + delta - 1
    V = rec.V
    if V > size_cap:
        raise NotLocallyRecoverable(
            f"grid columns have {V} points, exceeding r+delta-1 = {size_cap}")
    entries = []
    for col in range(rec.H):
        cols = tuple(col * V + j for j in range(V))
        ok, dist = _passes(rec.code, cols, delta)
        if not ok:
            raise NotLocallyRecoverable(
                f"column through coordinate {cols[0]} has punctured "
                f"distance {dist} < {delta}")
        entries.extend(LocalityEntry(t, cols, dist) for t in cols)
    entries.sort(key=lambda e: e.coordinate)
    return LocalityCertificate(r, delta, "grid_lines", tuple(entries))


def oracle_grid_ranks(rec, r, delta):
    """grid_lines by the ranks of the generator's column blocks.

    Delta has no y^(V-1), so a repeated y point leaves every column's rank
    at J + 1; the y-axis Vandermonde matrix is reduced first, and must have
    rank V, for the same reason the closed form checks distinct points.
    """
    _validate_rd(r, delta)
    size_cap = r + delta - 1
    H, V = rec.H, rec.V
    if V > size_cap:
        raise NotLocallyRecoverable(
            f"grid columns have {V} points, exceeding r+delta-1 = {size_cap}")
    where = instance_label(rec.q, H, V, rec.a, rec.b)
    field, code = rec.field, rec.code
    ys = rec.points[1]
    vandermonde = field.vpow(ys[None, :, None], np.arange(V))
    if reduce_stack(field, vandermonde)[0] != V:
        raise InjectivityViolated(f"{where} the y-axis Vandermonde matrix is singular")
    J = max(mono.j for mono in monomials(rec.tops))
    columns = np.arange(H * V).reshape(H, V)
    rank = reduce_stack(field, code.generator[:, columns].transpose(1, 0, 2))
    bad = np.flatnonzero(rank != J + 1)
    if bad.size:
        raise InjectivityViolated(
            f"{where} grid column {bad[0]} has rank {rank[bad[0]]}, not J+1 = {J + 1}")
    if V - J < delta:
        raise NotLocallyRecoverable(
            f"column through coordinate 0 has punctured distance {V - J} < {delta}")
    entries = [LocalityEntry(t, tuple(columns[t // V].tolist()), V - J)
               for t in range(H * V)]
    return LocalityCertificate(r, delta, "grid_lines", tuple(entries))


def outcome(certify):
    """The certificate as JSON text, or the error's type and message."""
    try:
        cert = certify()
    except QlrcError as exc:
        return type(exc).__name__, str(exc)
    return json.dumps([cert.r, cert.delta, cert.strategy, cert.to_json()])


def assert_exhaustive_agrees(code, r, delta, cells=None, gf2_walk=True, expected=None, **kw):
    if expected is None:
        expected = outcome(lambda: oracle_exhaustive(code, r, delta, gf2_walk=gf2_walk, **kw))
    with mock.patch.object(lrc, "_BATCH_CELLS", cells or lrc._BATCH_CELLS):
        got = outcome(lambda: certify_locality(code, r, delta, **kw))
    assert got == expected
    return got


# -- random codes --------------------------------------------------------------

_FIELDS = tuple(make_field(*split_prime_power(q)) for q in (2, 3, 4, 7, 8, 9))


@st.composite
def codes(draw, n_max=7, k_max=None):
    field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, min(n, k_max or (4 if field.q <= 4 else 3))))
    entry = st.integers(0, field.q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    mat = np.array(rows, dtype=np.int64)
    # zero columns, repeated columns and scalar multiples make vacuous and
    # rank-deficient repair sets likely
    for c in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        mat[:, c] = 0
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        scale = draw(st.integers(1, field.q - 1))
        mat[:, dst] = field.vscale(scale, mat[:, src])
    if not mat.any():
        return zero_code(field, n)
    return from_spanning_set(field, list(mat))


_RD = st.tuples(st.integers(1, 3), st.integers(2, 3))


@settings(max_examples=150, deadline=None)
@given(codes(), _RD)
def test_random_codes_match_oracle(code, rd):
    assert_exhaustive_agrees(code, *rd)


@settings(max_examples=100, deadline=None)
@given(codes(), _RD, st.sampled_from((1, 5, 12, 40, 100)))
def test_tiny_cell_cap_splits_chunks_inside_a_size(code, rd, cells):
    assert_exhaustive_agrees(code, *rd, cells=cells)


@settings(max_examples=100, deadline=None)
@given(codes(), _RD, st.sampled_from((None, 1, 5, 12, 40)))
def test_scan_ignores_the_enumeration_budget(code, rd, cells):
    # QLRC_BUDGET caps enumeration, and the scan enumerates no word; the
    # generic oracle enumerates with a budget of its own
    with mock.patch.dict(os.environ, {"QLRC_BUDGET": "1"}):
        assert_exhaustive_agrees(code, *rd, cells=cells, gf2_walk=False)


@settings(max_examples=60, deadline=None)
@given(codes(n_max=6), _RD, st.integers(0, 40))
def test_small_search_budget(code, rd, search_budget):
    assert_exhaustive_agrees(code, *rd, cells=12, search_budget=search_budget)


def test_gf2_walk_agrees_with_generic_scan():
    # the two oracles agree with each other on GF(2)
    gf2 = make_field(2)
    rng = np.random.default_rng(5)
    for _ in range(30):
        code = from_spanning_set(gf2, list(rng.integers(0, 2, size=(3, 7))))
        for r, delta in ((1, 2), (2, 2), (2, 3)):
            assert (outcome(lambda: oracle_exhaustive(code, r, delta))
                    == outcome(lambda: oracle_exhaustive(code, r, delta, gf2_walk=False)))


def _fixed_cases():
    gf2, gf3, gf7, gf9 = (make_field(*split_prime_power(q)) for q in (2, 3, 7, 9))
    vec = lambda *xs: np.array(xs, dtype=np.int64)  # noqa: E731
    return {
        "zero column": (from_spanning_set(gf3, [vec(1, 1, 0)]), 2, 2, {}),
        "zero code": (zero_code(gf7, 4), 1, 2, {}),
        "full space": (full_code(gf2, 6), 3, 2, {}),
        "full space GF(9)": (full_code(gf9, 4), 2, 2, {}),
        "|S| < delta": (from_spanning_set(gf7, [vec(1, 2, 3, 4, 5)]), 1, 3, {}),
        "delta 3": (from_spanning_set(gf7, [vec(1, 1, 1, 1, 0, 0), vec(0, 1, 2, 3, 1, 1)]),
                    2, 3, {}),
        "search budget": (full_code(gf2, 12), 3, 2, {"search_budget": 5}),
        # every coordinate has a parallel partner, after a full-rank pair;
        # an enumeration budget of 7 once refused the pair's 7^2 words
        "budget at a full-rank pair": (
            from_spanning_set(gf7, [vec(1, 0, 2, 0), vec(0, 1, 0, 3)]), 2, 2, {}),
        # {0, 1, 2} has rank 1 and {0, 1, 3} rank 2 in one batch; a budget
        # of 1 once refused 3^1 words at the first
        "budget below the batch's largest rank": (
            from_spanning_set(gf3, [vec(1, 1, 2, 0, 1), vec(0, 0, 0, 1, 1)]), 1, 3, {}),
    }


_FIXED = _fixed_cases()


@pytest.mark.parametrize("name", sorted(_FIXED))
@pytest.mark.parametrize("cells", [None, 4])
def test_fixed_cases_match_oracle(name, cells):
    code, r, delta, kw = _FIXED[name]
    assert_exhaustive_agrees(code, r, delta, cells=cells, **kw)


@cache
def _lemma_oracle(m):
    """The oracle's (3, 2) certificate of the m-th lemma code, as outcome() text."""
    return outcome(lambda: oracle_exhaustive(lemma_family(m).code, 3, 2))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_lemma_family_matches_oracle(m):
    certificate = assert_exhaustive_agrees(lemma_family(m).code, 3, 2,
                                           expected=_lemma_oracle(m))
    assert isinstance(certificate, str)  # JSON text, not an error


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lemma_family_matches_oracle_small_cells(m):
    # a four-cell cap splits every batch, and with it the prefix runs
    certificate = assert_exhaustive_agrees(lemma_family(m).code, 3, 2, cells=4,
                                           expected=_lemma_oracle(m))
    assert isinstance(certificate, str)


# -- shared-prefix ranks -------------------------------------------------------


def _scan_sets(n, t, size):
    """The candidate sets of coordinate t and one size, in scan order."""
    rests = combinations([c for c in range(n) if c != t], size - 1)
    return np.array([(t, *rest) for rest in rests], dtype=np.int64).reshape(-1, size)


@settings(max_examples=150, deadline=None)
@given(codes(n_max=9, k_max=6), st.integers(1, 6), st.sampled_from((1, 7, 30, 100)),
       st.integers(1, 9))
def test_prefix_ranks_match_row_reduction(code, size, cells, chunk):
    # no word is enumerated, so the codes may be larger than certify's;
    # chunks of `chunk` sets cut prefix runs apart, and a small cell cap
    # leaves room for few prefix states per stack
    size = min(size, code.n)
    for t in range(code.n):
        sets = _scan_sets(code.n, t, size)
        expected = reduce_stack(code.field, code.generator[:, sets].transpose(1, 0, 2))
        with mock.patch.object(lrc, "_BATCH_CELLS", cells):
            got = np.concatenate([lrc._ranks(code.field, code.generator, sets[i:i + chunk])
                                  for i in range(0, len(sets), chunk)])
        assert got.tolist() == expected.tolist()


# -- distances from subset ranks -----------------------------------------------

_ZERO_CODES = st.builds(zero_code, st.sampled_from(_FIELDS), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(codes(), _ZERO_CODES), st.data())
def test_rank_distances_match_enumeration(code, data):
    # zero columns give rank-0 sets, a size at most the rank full-rank ones,
    # and the zero code (k = 0) rank 0 everywhere
    size = data.draw(st.integers(1, code.n))
    sets = np.array(list(islice(combinations(range(code.n), size), 30)), dtype=np.int64)
    field, gen = code.field, code.generator
    rank = lrc._block_ranks(field, gen, sets)
    expected_rank, expected = [], []
    for cols in sets:
        block = gen[:, cols]
        sub = from_spanning_set(field, list(block)) if block.any() else None
        expected_rank.append(0 if sub is None else sub.k)
        expected.append(None if sub is None else min_distance_bruteforce(sub))
    assert rank.tolist() == expected_rank
    assert lrc._distances(field, gen, sets, rank, 1) == expected


@pytest.mark.parametrize("q, n", [(2, 12), (9, 10)])
def test_delta_equal_to_the_set_size_finishes_quickly(q, n):
    # a nowhere-zero [n, 1] code: only the whole support repairs, with
    # distance n = |S|, and its test ranks n single columns
    field = make_field(*split_prime_power(q))
    code = from_spanning_set(field, [np.arange(n) % (q - 1) + 1])
    start = time.monotonic()
    cert = certify_locality(code, 1, n)
    assert time.monotonic() - start < 5
    assert cert.to_json() == [{"coordinate": t, "repair_set": list(range(n)),
                               "punctured_distance": n} for t in range(n)]


@settings(max_examples=60, deadline=None)
@given(codes(n_max=8, k_max=5), _RD, st.sampled_from((1, 16, 64, 200)))
def test_no_stack_exceeds_the_cell_cap(code, rd, cells):
    # a stack of blocks or prefix states holds at most `cells` cells, or one
    # matrix when a single one is larger
    sizes = []

    def recorded(field, pivots, block, fn=lrc._eliminate):
        sizes.append((block.size, block[0].size))
        return fn(field, pivots, block)

    expected = outcome(lambda: oracle_exhaustive(code, *rd))
    with mock.patch.object(lrc, "_eliminate", recorded):
        assert_exhaustive_agrees(code, *rd, cells=cells, expected=expected)
        with mock.patch.object(lrc, "_BATCH_CELLS", cells):
            outcome(lambda: certify_dual_words(code, _orthogonal_words(code, rd[0] + 1), rd[0]))
    assert all(size <= max(cells, one) for size, one in sizes)


def test_lemma_ranks_the_subsets_of_few_sets(monkeypatch):
    # certify_locality on the m = 6 code scans 38,096 candidate sets; at
    # most 24 reach the distance step (0 < rank <= |S| - 1), each of four
    # columns and rank 3, so each is decided by its C(4, 1) subsets of three
    # columns, and the Singleton bound alone stops its exact distance at 2
    ranked = []

    def counted(field, gen, sets, fn=lrc._block_ranks):
        ranked.append(sets.shape)
        return fn(field, gen, sets)

    monkeypatch.setattr(lrc, "_block_ranks", counted)
    certify_locality(lemma_family(6).code, 3, 2)
    assert {t for _, t in ranked} == {3}
    assert sum(N for N, _ in ranked) <= 24 * 4


def _run_lemma(m):
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["lemma", "--m", str(m), "--format", "json"])
    return rc, json.loads(out.getvalue()) if rc == 0 else None, time.monotonic() - start


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_lemma_in_process(m):
    # at m = 1, 2 a straddle-coset word of weight 2m is the repair set of
    # some coordinates; from m = 3 on the blocks are
    rc, data, elapsed = _run_lemma(m)
    assert rc == 0
    assert elapsed < 5
    assert data["certificate"] == json.loads(_lemma_oracle(m))[3]


def test_lemma_m16_in_process():
    rc, data, elapsed = _run_lemma(16)
    assert rc == 0
    assert elapsed < 1
    assert data["certificate"] == [
        {"coordinate": t, "repair_set": list(range(t & ~3, (t & ~3) + 4)),
         "punctured_distance": 2} for t in range(64)]


def test_lemma_does_not_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lemma ran the exhaustive scan")
    monkeypatch.setattr(lrc, "certify_locality", refuse)
    monkeypatch.setattr(cli, "certify_locality", refuse)
    assert _run_lemma(6)[0] == 0


# -- dual words ----------------------------------------------------------------


def _orthogonal_words(code, max_weight):
    """Every vector of weight 1..max_weight orthogonal to the generator."""
    field, n = code.field, code.n
    found = [np.zeros((0, n), dtype=np.int64)]
    for w in range(1, min(max_weight, n) + 1):
        supports = np.array(list(combinations(range(n), w)), dtype=np.int64)
        values = np.array(list(product(range(1, field.q), repeat=w)), dtype=np.int64)
        words = np.zeros((len(supports), len(values), n), dtype=np.int64)
        words[np.arange(len(supports))[:, None, None], np.arange(len(values))[None, :, None],
              supports[:, None, :]] = values[None, :, :]
        words = words.reshape(-1, n)
        if code.k:
            words = words[~field.matmul(words, code.generator.T).any(axis=1)]
        found.append(words)
    return np.concatenate(found)


def assert_dual_words_agree(code, words, r):
    expected = outcome(lambda: oracle_exhaustive(code, r, 2))
    got = outcome(lambda: dataclasses.replace(certify_dual_words(code, words, r),
                                              strategy="exhaustive"))
    assert got == expected
    return got


@settings(max_examples=150, deadline=None)
@given(codes(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_dual_words_match_oracle(code, r, seed):
    # the dual's generator rows add words heavier than r + 1, which are
    # ignored; the order of the words does not matter
    words = np.concatenate([_orthogonal_words(code, r + 1), euclidean_dual(code).generator])
    assert_dual_words_agree(code, np.random.default_rng(seed).permutation(words), r)


def test_dual_words_zero_coordinate():
    # coordinate 2 is zero in C: its weight-1 dual word is its repair set
    code = from_spanning_set(make_field(3), [np.array([1, 1, 0], dtype=np.int64)])
    got = assert_dual_words_agree(code, _orthogonal_words(code, 2), 1)
    assert json.loads(got)[3][2] == {"coordinate": 2, "repair_set": [2],
                                     "punctured_distance": None}


def test_dual_words_reject_a_word_outside_the_dual():
    fam = lemma_family(3)
    words = fam.block_rows.copy()
    words[1, 4] = 0
    with pytest.raises(DualityViolated, match=r"^word 1 \[0, 0, 0, 0, 0, 1, 1, 1, 0, 0"):
        certify_dual_words(fam.code, words, 3)
    with pytest.raises(LengthMismatch):
        certify_dual_words(fam.code, fam.block_rows[:, :-1], 3)


def test_dual_words_budget(monkeypatch, capsys):
    # each block of the m = 3 code has rank 3: its distance once took 2^3
    # words, past this budget, and now takes the ranks of its subsets
    assert cli.main(["lemma", "--m", "3"]) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv("QLRC_BUDGET", "4")
    assert cli.main(["lemma", "--m", "3"]) == 0
    assert capsys.readouterr() == expected


def test_lemma_exits_4_on_a_word_outside_the_dual(monkeypatch, capsys):
    def corrupted(m):
        fam = lemma_family(m)
        blocks = fam.block_rows.copy()
        blocks[0, 0] = 0
        return dataclasses.replace(fam, block_rows=blocks)
    monkeypatch.setattr(cli, "lemma_family", corrupted)
    assert cli.main(["lemma", "--m", "3"]) == 4
    assert capsys.readouterr().err.startswith("error: word 0 [0, 1, 1, 1, 0")


# -- grid columns --------------------------------------------------------------


def _column_words(q, V, b):
    """q^(J+1): the words of one column code, J = floor(v + b)."""
    return q ** ((V - 1 + 2 * b) // 2 + 1)


def _grid_instances():
    out = []
    for q in prime_powers(16):
        sides = [N for N in range(3, q + 1) if (q - 1) % (N - 1) == 0]
        out += [(q, H, V, a, b) for H in sides for V in sides
                for a in valid_a_values(H) for b in valid_b_values(V)
                if _column_words(q, V, b) <= 1 << 16]
    return out


@cache
def _record(q, H, V, a, b):
    return build_grid_record(make_field(*split_prime_power(q)), H, V, a, b)


_GRID_INSTANCES = _grid_instances()


@pytest.mark.parametrize("inst", _GRID_INSTANCES,
                         ids=lambda inst: ",".join(map(str, inst)))
def test_grid_lines_match_column_enumeration(inst, with_band_hole):
    rec = _record(*inst)
    r, delta = rec.forms.locality
    J = max(mono.j for mono in monomials(rec.tops))
    # the closed-form locality, and one delta past the column distance V - J
    for r, delta in ((r, delta), (max(1, J), rec.V - J + 1)):
        expected = outcome(lambda: oracle_grid_lines(rec, r, delta))
        got = outcome(lambda: certify_grid_lines(rec, r, delta))
        assert got == expected
        assert outcome(lambda: oracle_grid_ranks(rec, r, delta)) == expected
    broken = with_band_hole(rec)
    r, delta = rec.forms.locality
    assert (outcome(lambda: certify_grid_lines(broken, r, delta))
            == outcome(lambda: oracle_grid_ranks(broken, r, delta)))


@st.composite
def column_corruptions(draw):
    """A grid record with one band j < J emptied, or one y-axis point
    taken away."""
    rec = _record(*draw(st.sampled_from(_GRID_INSTANCES)))
    J = max(mono.j for mono in monomials(rec.tops))
    if draw(st.booleans()):
        dst, src = draw(st.lists(st.integers(0, rec.V - 1), min_size=2, max_size=2, unique=True))
        xs, ys = rec.points
        ys = ys.copy()
        ys[dst] = ys[src]
        return dataclasses.replace(rec, points=(xs, ys))
    tops = rec.tops.copy()
    tops[draw(st.integers(0, J - 1))] = -1
    return dataclasses.replace(rec, tops=tops)


@settings(max_examples=150, deadline=None)
@given(column_corruptions())
def test_corruptions_fail_both_column_proofs_alike(broken):
    r, delta = broken.forms.locality
    where = instance_label(broken.q, broken.H, broken.V, broken.a, broken.b)
    for certify in (certify_grid_lines, oracle_grid_ranks):
        with pytest.raises(InjectivityViolated, match="^" + re.escape(where)):
            certify(broken, r, delta)
