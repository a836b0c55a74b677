"""The fast griesmer, plotkin and sphere-packing evaluators against their
definitions, and each report's JSON text against `json.dumps`.

Each oracle below evaluates its bound straight from the formula: every
even t of the Griesmer sum with its own power of q, the Plotkin minimum
over the whole `plotkin_profile`, and the sphere-packing ball sum from
`math.comb`.  The evaluators must return the same report, down to the
serialized `to_json()`.
"""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlrc import (
    BOUND_REGISTRY,
    BoundInput,
    griesmer_like,
    plotkin_like,
    plotkin_profile,
    sphere_packing_like,
)
from qlrc.bounds import _report


def griesmer_oracle(inp: BoundInput):
    ell_max = math.ceil(Fraction(inp.n + inp.k, 2 * inp.r)) - 1
    best_val, best_ell = None, None
    for ell in range(0, ell_max + 1):
        limit = inp.n + inp.k - 2 * inp.r * ell - 2
        val = (inp.r + 1) * ell + sum(-(-inp.d // inp.q**t) for t in range(0, limit + 1, 2))
        if best_val is None or val > best_val:
            best_val, best_ell = val, ell
    return _report("griesmer", inp.n, best_val, "ge",
                   {"ell": best_ell, "ell_max": ell_max})


def plotkin_oracle(inp: BoundInput):
    profile = plotkin_profile(inp)
    best_ell, best_val = min(profile, key=lambda t: (t[1], t[0]))
    return _report("plotkin", inp.d, best_val, "le",
                   {"ell": best_ell, "ell_max": profile[-1][0]})


def sphere_oracle(inp: BoundInput):
    ell_top = (inp.n - 1) // (inp.r + 1)
    radius = (inp.d - 1) // 2
    unit = inp.q**2 - 1
    best_key, best_ell, best_s = None, None, None
    for ell in range(0, ell_top + 1):
        m = inp.n - ell * (inp.r + 1)
        s = sum(math.comb(m, i) * unit**i for i in range(radius + 1))
        key = inp.q ** (2 * ell) * s
        if best_key is None or key > best_key:
            best_key, best_ell, best_s = key, ell, s
    exp = 2 * (inp.n - inp.k - 2 * best_ell)
    rhs = inp.q**exp if exp >= 0 else Fraction(1, inp.q**(-exp))
    return _report("sphere_packing", best_s**2, rhs, "le",
                   {"ell": best_ell, "ell_max": ell_top, "s": best_s})


PAIRS = (
    (griesmer_like, griesmer_oracle),
    (plotkin_like, plotkin_oracle),
    (sphere_packing_like, sphere_oracle),
)

# edge instances; test_edges_are_reached checks the last five reach their edge
D1 = BoundInput(n=12, k=3, d=1, q=3, r=2)
K0 = BoundInput(n=10, k=0, d=4, q=2, r=3)
EMPTY_SUM = BoundInput(n=4, k=1, d=1, q=2, r=1)
WIDE_BALL = BoundInput(n=9, k=1, d=13, q=3, r=2)
PLOTKIN_E1 = BoundInput(n=8, k=1, d=3, q=3, r=2)
CAPPED_BALL = BoundInput(n=7, k=1, d=13, q=2, r=6)
TIED_BALLS = BoundInput(n=5, k=1, d=3, q=2, r=3)

_INPUTS = st.builds(
    BoundInput,
    n=st.integers(1, 90),
    k=st.integers(0, 30),
    d=st.integers(1, 60),
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 27, 61, 64]),
    r=st.integers(1, 12),
    delta=st.integers(2, 5),
)


def _same(inp):
    for fast, oracle in PAIRS:
        assert fast(inp).to_json() == oracle(inp).to_json(), (fast.__name__, inp)


@settings(max_examples=300, deadline=None)
@given(_INPUTS)
@example(D1)
@example(K0)
@example(EMPTY_SUM)
@example(WIDE_BALL)
@example(PLOTKIN_E1)
@example(CAPPED_BALL)
@example(TIED_BALLS)
def test_fast_bounds_match_oracles(inp):
    _same(inp)


_THM4 = st.sampled_from([3, 5, 7, 9, 11, 13, 25, 27]).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, (q - 1) // 2)))


@settings(max_examples=40, deadline=None)
@given(_THM4)
def test_fast_bounds_match_oracles_on_thm4_rows(qa):
    # the thm4 family: [[3q, k, q+1-2a]] with locality 2
    q, a = qa
    n, d = 3 * q, q + 1 - 2 * a
    for k in (1, 2 * a + 1, q - 2):
        _same(BoundInput(n=n, k=k, d=d, q=q, r=2))


def test_edges_are_reached():
    # the Griesmer sum at ell_max is empty: n + k - 2r*ell_max - 2 < 0
    ell_max = griesmer_like(EMPTY_SUM).detail["ell_max"]
    assert EMPTY_SUM.n + EMPTY_SUM.k - 2 * EMPTY_SUM.r * ell_max - 2 < 0
    # the ball radius exceeds the ball length m at the last ell
    m_last = WIDE_BALL.n - sphere_packing_like(WIDE_BALL).detail["ell_max"] * (WIDE_BALL.r + 1)
    assert (WIDE_BALL.d - 1) // 2 > m_last
    # the Plotkin winner sits at e = 1, where q^(e-2) = 1/q
    rep = plotkin_like(PLOTKIN_E1)
    assert PLOTKIN_E1.n + PLOTKIN_E1.k - 2 * PLOTKIN_E1.r * rep.detail["ell"] == 1
    assert rep.rhs == plotkin_profile(PLOTKIN_E1)[-1][1]
    # the ball at ell = 0 has R < m but a = (m - R + 1)(q^2 - 1) <= R, so
    # only the binomial theorem caps its key
    m, radius = CAPPED_BALL.n, (CAPPED_BALL.d - 1) // 2
    assert sphere_packing_like(CAPPED_BALL).detail["ell_max"] == 0
    assert radius < m and (m - radius + 1) * (CAPPED_BALL.q**2 - 1) <= radius
    # ell = 0 and ell = 1 tie at the maximal key, 1 + 5 * 3 = 2^2 * 4, and
    # the smaller ell binds
    assert sphere_packing_like(TIED_BALLS).detail == {"ell": 0, "ell_max": 1, "s": 16}


@settings(max_examples=300, deadline=None)
@given(_INPUTS)
@example(BoundInput(n=16, k=1, d=5, q=3, r=2))  # half-integer qsingleton lhs
def test_report_text_is_json_dumps(inp):
    for bid, evaluate in BOUND_REGISTRY.items():
        if bid == "gg" and inp.k == 0:
            continue  # gg is stated for k > 0 only
        rep = evaluate(inp)
        assert rep.json_text() == json.dumps(rep.to_json()), bid
