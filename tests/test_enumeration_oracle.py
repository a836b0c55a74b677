"""Definition-level enumeration, kept as the oracle for the brute-force
distance oracles.

min_distance_bruteforce and coset_min_weight_bruteforce split each
codeword into a pair u + v, tabulate every -v once and count the
coordinates where u differs from the table.  The code here is the loop
they replaced: encode every message with field arithmetic, block by
block, count nonzero entries, and test coset membership by the syndrome
of the whole word.  Both must give the same minimum on every code.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    build_grid_record,
    coset_min_weight_bruteforce,
    euclidean_dual,
    from_spanning_set,
    full_code,
    make_field,
    min_distance_bruteforce,
    zero_code,
)
from qlrc import linear_codes
from qlrc.gf import split_prime_power
from qlrc.linear_codes import _message_block, contains, inner_products

# -- the definition-level enumeration -----------------------------------------

_BLOCK = 1 << 16


def _encode_block(code, msgs):
    field = code.field
    if field.m == 1:
        return (msgs @ code.generator) % field.p
    out = np.zeros((msgs.shape[0], code.n), dtype=np.int64)
    for j in range(code.k):
        term = field.vmul(msgs[:, j:j + 1], code.generator[j:j + 1, :])
        out = field.vadd(out, term)
    return out


def min_distance_blocks(code):
    """Exact d_H by encoding every nonzero message."""
    total = code.field.q ** code.k
    best = code.n + 1
    for start in range(1, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        words = _encode_block(code, _message_block(code.field.q, code.k, start, stop))
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
        if best == 1:
            break
    return best


def coset_min_weight_blocks(code, sub):
    """Exact min weight over codewords of code whose syndrome against sub
    is nonzero."""
    assert contains(code, sub) and sub.k < code.k
    field = code.field
    total = field.q ** code.k
    parity = euclidean_dual(sub).generator
    best = code.n + 1
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        words = _encode_block(code, _message_block(field.q, code.k, start, stop))
        outside = inner_products(field, words, parity).any(axis=1)
        if outside.any():
            best = min(best, int(np.count_nonzero(words[outside], axis=1).min()))
            if best == 1:
                break
    return best


# -- random codes -------------------------------------------------------------

_FIELDS = tuple(make_field(*split_prime_power(q)) for q in (2, 3, 4, 7, 8, 9))
_WORDS = 1 << 12  # q^k per drawn code, so the definition loop stays quick


@st.composite
def codes_with_subcodes(draw):
    """A code, a proper subcode of it and a cell cap for the split."""
    field = draw(st.sampled_from(_FIELDS))
    q = field.q
    n = draw(st.integers(1, 9))
    cells = draw(st.sampled_from((1, 7, 64, linear_codes._CELLS)))
    # a small cap runs one Python step per few words, so it gets fewer words
    words = _WORDS if cells == linear_codes._CELLS else _WORDS >> 4
    k_max = 1
    while k_max < n and q ** (k_max + 1) <= words:
        k_max += 1
    if draw(st.booleans()) and q ** n <= words:
        code = full_code(field, n)
    else:
        k = draw(st.integers(1, k_max))
        entry = st.integers(0, q - 1)
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=k, max_size=k))
        mat = np.array(rows, dtype=np.int64)
        if not mat.any():
            mat[0, draw(st.integers(0, n - 1))] = draw(st.integers(1, q - 1))
        code = from_spanning_set(field, list(mat))
    G = code.generator
    kind = draw(st.sampled_from(("zero", "codim1", "random", "light")))
    if kind == "light":
        # a subcode of light words inside a code with denser words, so the
        # lightest codewords lie in the subcode and the coset weight is larger
        light = []
        for _ in range(draw(st.integers(1, 2))):
            row = np.zeros(n, dtype=np.int64)
            for col in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                row[col] = draw(st.integers(1, q - 1))
            light.append(row)
        sub = from_spanning_set(field, light)
        room = 0
        while room < code.k and q ** (room + 1 + len(light)) <= words:
            room += 1
        code = from_spanning_set(field, light + list(G[:room]))
        if sub.k == code.k:
            sub = zero_code(field, n)
    elif kind == "zero" or code.k == 1:
        sub = zero_code(field, n)
    elif kind == "codim1":
        # every row but one, each shifted by a multiple of the dropped row
        drop = draw(st.integers(0, code.k - 1))
        shifts = draw(st.lists(st.integers(0, q - 1),
                               min_size=code.k, max_size=code.k))
        rows = [field.vadd(G[i], field.vscale(shifts[i], G[drop]))
                for i in range(code.k) if i != drop]
        sub = from_spanning_set(field, rows)
    else:
        combos = np.array(draw(st.lists(
            st.lists(st.integers(0, q - 1), min_size=code.k, max_size=code.k),
            min_size=1, max_size=code.k - 1)), dtype=np.int64)
        rows = _encode_block(code, combos)
        sub = from_spanning_set(field, list(rows)) if rows.any() else zero_code(field, n)
    return code, sub, cells


@settings(max_examples=300, deadline=None)
@given(codes_with_subcodes())
def test_split_enumeration_matches_block_loop(case):
    code, sub, cells = case
    with mock.patch.object(linear_codes, "_CELLS", cells):
        d = min_distance_bruteforce(code)
        coset = coset_min_weight_bruteforce(code, sub)
    assert d == min_distance_blocks(code)
    assert coset == coset_min_weight_blocks(code, sub)
    if sub.k == 0:
        assert coset == d


def test_cases_reach_every_shape():
    """The strategy above draws odd k, k = 1, the full space, both kinds
    of subcode, cosets heavier than the code's distance and caps small
    enough that the table is the zero word."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(codes_with_subcodes())
    def collect(case):
        code, sub, cells = case
        seen.update({
            ("odd k", code.k % 2 == 1),
            ("k = 1", code.k == 1),
            ("full space", code.k == code.n),
            ("zero subcode", sub.k == 0),
            ("codimension 1", sub.k > 0 and code.k - sub.k == 1),
            ("coset weight above d", coset_min_weight_blocks(code, sub)
             > min_distance_blocks(code)),
            ("k_in = 0", code.field.q * code.n > cells),
        })

    collect()
    names = ("odd k", "k = 1", "full space", "zero subcode", "codimension 1",
             "coset weight above d", "k_in = 0")
    assert {(name, True) for name in names} <= seen


def test_wide_entries_and_long_words():
    """Entries past 255 and weights past 255 keep their exact values."""
    f = make_field(257)
    code = from_spanning_set(f, [np.array([1, 0, 3, 256, 7], dtype=np.int64),
                                 np.array([0, 1, 200, 5, 9], dtype=np.int64)])
    sub = from_spanning_set(f, [code.generator[1]])
    assert min_distance_bruteforce(code) == min_distance_blocks(code)
    assert coset_min_weight_bruteforce(code, sub) == coset_min_weight_blocks(code, sub)

    g3 = make_field(3)
    long = from_spanning_set(g3, [np.ones(300, dtype=np.int64),
                                  np.r_[np.zeros(150), np.ones(150)].astype(np.int64)])
    assert min_distance_bruteforce(long) == min_distance_blocks(long) == 150
    assert (coset_min_weight_bruteforce(long, zero_code(g3, 300))
            == coset_min_weight_blocks(long, zero_code(g3, 300)) == 150)


# -- every criterion-5 grid instance ------------------------------------------


# the instance list of acceptance criterion 5: q <= 9, q^|Delta| <= 2^22
_CRITERION_5 = (
    (3, 3, 3, 0, 0), (4, 4, 4, 1, 1), (5, 3, 3, 0, 0), (5, 3, 5, 0, 0),
    (5, 3, 5, 0, 1), (5, 5, 3, 0, 0), (5, 5, 3, 1, 0), (7, 3, 3, 0, 0),
    (7, 3, 4, 0, 1), (7, 4, 3, 1, 0), (9, 3, 3, 0, 0),
)


@pytest.mark.parametrize("inst", _CRITERION_5,
                         ids=lambda inst: ",".join(map(str, inst)))
def test_grid_instances_match_block_loop(inst):
    """Includes GF(4) [16,10], the (4,4,4,1,1) instance."""
    q, H, V, a, b = inst
    rec = build_grid_record(make_field(*split_prime_power(q)), H, V, a, b)
    assert min_distance_bruteforce(rec.code) == min_distance_blocks(rec.code)
    assert (coset_min_weight_bruteforce(rec.code, rec.mirror_code)
            == coset_min_weight_blocks(rec.code, rec.mirror_code))
