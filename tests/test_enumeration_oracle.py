"""Definition-level enumerations, kept as the oracles for the brute-force
distance oracles.

min_distance_bruteforce, coset_min_weight_bruteforce and
min_weights_bruteforce enumerate messages by information sets and stop
at a lower bound.  Two plain enumerations check them: split-half, which
they replaced (`split_min_weight` in helpers.py), and the loop below,
which encodes every message with field arithmetic, block by block,
counts nonzero entries and tests coset membership by the syndrome of the
whole word.  All must give the same minima on every code.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    build_grid_record,
    closed_forms,
    euclidean_dual,
    from_spanning_set,
    make_field,
    min_distance_bruteforce,
    min_weights_bruteforce,
    valid_a_values,
    valid_b_values,
    zero_code,
)
from qlrc import linear_codes
from qlrc.cli import PRESETS
from qlrc.css import oracle_distances
from qlrc.gf import split_prime_power
from qlrc.verifier import prime_powers
from qlrc.linear_codes import contains
from helpers import (coset_min_weight_bruteforce, full_code, message_block, mirror_code,
                     split_coset_min_weight, split_min_distance)

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


def min_weights_blocks(code, sub):
    """(d, coset d): the least weight of a nonzero codeword and of one
    whose syndrome against sub is nonzero, by encoding every nonzero
    message once."""
    assert contains(code, sub) and sub.k < code.k
    field = code.field
    total = field.q ** code.k
    parity = euclidean_dual(sub).generator
    best_d = best_coset = code.n + 1
    for start in range(1, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        words = _encode_block(code, message_block(field.q, code.k, start, stop))
        weights = np.count_nonzero(words, axis=1)
        best_d = min(best_d, int(weights.min()))
        outside = field.matmul(words, parity.T).any(axis=1)
        if outside.any():
            best_coset = min(best_coset, int(weights[outside].min()))
        if best_coset == 1:
            break
    return best_d, best_coset


# -- random codes -------------------------------------------------------------

_FIELDS = tuple(make_field(*split_prime_power(q)) for q in (2, 3, 4, 7, 8, 9))
_WORDS = 1 << 12  # q^k per drawn code, so the definition loop stays quick


@st.composite
def codes_with_subcodes(draw):
    """A code, a proper subcode of it and a cell cap for the chunks."""
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
    """The information-set search finds the block loop's minima under
    every chunk cap, from the two oracles and from the one pass."""
    code, sub, cells = case
    with mock.patch.object(linear_codes, "_CELLS", cells):
        d = min_distance_bruteforce(code)
        coset = coset_min_weight_bruteforce(code, sub)
        pair = min_weights_bruteforce(code, sub)
    assert (d, coset) == pair == min_weights_blocks(code, sub)
    if sub.k == 0:
        assert coset == d


@settings(max_examples=300, deadline=None)
@given(codes_with_subcodes())
def test_information_sets_match_split_half(case):
    """The one pass agrees with split-half, under the drawn cap, and with
    the block loop."""
    code, sub, cells = case
    split = (split_min_distance(code, cells), split_coset_min_weight(code, sub, cells))
    assert min_weights_bruteforce(code, sub) == split == min_weights_blocks(code, sub)


def test_cases_reach_every_shape():
    """The strategy above draws odd k, k = 1, k = n, both kinds of
    subcode, cosets heavier than the code's distance, three or more
    information sets, a last one of rank below k, chunks of one message
    and split-half caps small enough that its table is the zero word."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(codes_with_subcodes())
    def collect(case):
        code, sub, cells = case
        d, coset = min_weights_blocks(code, sub)
        ranks = [r for _, r in linear_codes._information_sets(
            code.field, code.generator, code.n, code.pivots)]
        seen.update({
            ("odd k", code.k % 2 == 1),
            ("k = 1", code.k == 1),
            ("k = n", code.k == code.n),
            ("zero subcode", sub.k == 0),
            ("codimension 1", sub.k > 0 and code.k - sub.k == 1),
            ("coset weight above d", coset > d),
            ("three or more information sets", len(ranks) >= 3),
            ("last information set of rank < k", ranks[-1] < code.k),
            ("one message per chunk", cells < 2 * (code.n - sub.k + 1)),
            ("k_in = 0", code.field.q * code.n > cells),
        })

    collect()
    names = ("odd k", "k = 1", "k = n", "zero subcode", "codimension 1",
             "coset weight above d", "three or more information sets",
             "last information set of rank < k", "one message per chunk", "k_in = 0")
    assert {(name, True) for name in names} <= seen


def test_wide_entries_and_long_words():
    """Entries past 255 and weights past 255 keep their exact values."""
    f = make_field(257)
    code = from_spanning_set(f, [np.array([1, 0, 3, 256, 7], dtype=np.int64),
                                 np.array([0, 1, 200, 5, 9], dtype=np.int64)])
    sub = from_spanning_set(f, [code.generator[1]])
    assert min_weights_bruteforce(code, sub) == min_weights_blocks(code, sub)

    g3 = make_field(3)
    long = from_spanning_set(g3, [np.ones(300, dtype=np.int64),
                                  np.r_[np.zeros(150), np.ones(150)].astype(np.int64)])
    z = zero_code(g3, 300)
    assert min_distance_bruteforce(long) == 150
    assert min_weights_bruteforce(long, z) == min_weights_blocks(long, z) == (150, 150)


def test_chunks_bound_the_traced_peak():
    """The [28,15]_7 code of (7,4,7,1,0) searches rounds of up to
    C(15,5)·6^4 = 3,891,888 messages, 467 MB as one int64 array of words.
    In chunks of at most _CELLS message and word cells, the traced peak
    stays below eight int64 arrays of _CELLS cells: a chunk's words, the
    term being added and the temporaries of one field operation."""
    rec = build_grid_record(make_field(7), 4, 7, 1, 0)
    assert (rec.n, rec.k) == (28, 15)
    tracemalloc.start()
    try:
        pair = min_weights_bruteforce(rec.code, mirror_code(rec), budget=7 ** 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair == (rec.forms.d, rec.forms.coset_d) == (5, 8)
    assert peak < 8 * 8 * linear_codes._CELLS, peak


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
    pair = min_weights_blocks(rec.code, mirror_code(rec))
    assert min_weights_bruteforce(rec.code, mirror_code(rec)) == pair
    assert min_distance_bruteforce(rec.code) == pair[0]
    assert coset_min_weight_bruteforce(rec.code, mirror_code(rec)) == pair[1]


# -- the grid oracle against the library oracle -------------------------------

# every valid (q <= 16, H, V, a, b) with q^|Delta| <= 2^16
_SMALL_GRIDS = (
    (3, 3, 3, 0, 0), (5, 3, 3, 0, 0), (7, 3, 3, 0, 0), (9, 3, 3, 0, 0),
)


def _assert_grid_oracle_matches_library(rec):
    """css.oracle_distances, which row-reduces the evaluation rows of Delta
    with a selector on the monomials outside Delta*, against
    min_weights_bruteforce on the row-reduced code and mirror code."""
    pair = oracle_distances(rec, budget=rec.q ** rec.k)
    assert pair == min_weights_bruteforce(rec.code, mirror_code(rec), rec.q ** rec.k)
    assert pair == (rec.forms.d, rec.forms.coset_d)


@pytest.mark.parametrize("inst", _CRITERION_5 + ("ex1", "rem3"), ids=lambda inst: (
    inst if isinstance(inst, str) else ",".join(map(str, inst))))
def test_grid_oracle_matches_library_oracle(inst):
    alpha = None
    if isinstance(inst, str):
        conf = PRESETS[inst]
        inst, alpha = tuple(conf[key] for key in "qHVab"), conf["alpha"]
    field = make_field(*split_prime_power(inst[0]), primitive=alpha)
    _assert_grid_oracle_matches_library(build_grid_record(field, *inst[1:]))


def test_small_grids_are_every_instance_within_2_to_16():
    small = [(q, H, V, a, b) for q in prime_powers(16)
             for H in range(3, q + 1) if (q - 1) % (H - 1) == 0
             for V in range(3, q + 1) if (q - 1) % (V - 1) == 0
             for a in valid_a_values(H) for b in valid_b_values(V)
             if q ** closed_forms(H, V, a, b).size <= 2 ** 16]
    assert tuple(small) == _SMALL_GRIDS


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SMALL_GRIDS), st.data())
def test_grid_oracle_matches_library_oracle_on_any_primitive(inst, data):
    # the axis points, and so the evaluation rows, follow the primitive element
    q, H, V, a, b = inst
    p, m = split_prime_power(q)
    base = make_field(p, m)
    alpha = data.draw(st.sampled_from(
        [int(base._exp_np[t]) for t in range(1, q - 1) if math.gcd(t, q - 1) == 1]))
    field = make_field(p, m, modulus=base.modulus, primitive=alpha)
    _assert_grid_oracle_matches_library(build_grid_record(field, H, V, a, b))
