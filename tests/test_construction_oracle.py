"""Definition-level construction, kept as the oracle for build_code.

build_code evaluates monomials as outer products of axis power tables,
gets the witness from axis vanishing products and proves the twisted
duality with one orthogonality product.  The code here is the definition
it replaced: every monomial evaluated point by point, the witness
polynomial expanded and evaluated, the row-by-row RREF, and the duality
checked by comparing the full Euclidean dual with the rescaled mirror
code.  Both must give the same records entry for entry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    GridCodeRecord,
    LinearCode,
    Monomial,
    build_code,
    contains,
    coset_distance_formula,
    delta_perp_set,
    delta_set,
    impurity_predicate,
    in_row_space,
    locality_formula,
    make_delta_params,
    make_field,
    make_grid_params,
    min_distance_formula,
    record_to_json,
    twist_vector,
    valid_a_values,
    valid_b_values,
    weight,
    zero_code,
)
from qlrc.cli import PRESETS
from qlrc.errors import ExponentOutOfRange
from qlrc.gf import split_prime_power
from qlrc.linear_codes import _rref

# -- the definition-level construction ----------------------------------------


def _axis_points(field, count):
    step = (field.q - 1) // (count - 1)
    pts = [0]
    for i in range(1, count):
        pts.append(field.pow(field.primitive, i * step))
    return pts


def build_grid(grid):
    """Grid points as (x, y) encodings, position (i, j) -> i*V + j."""
    xs = _axis_points(grid.field, grid.H)
    ys = _axis_points(grid.field, grid.V)
    return [(x, y) for x in xs for y in ys]


def evaluate(field, poly, points, H, V):
    """Evaluate a polynomial (mapping monomial -> coefficient encoding)."""
    items = []
    for mono, coeff in poly.items():
        mono = Monomial(*mono)
        if not (0 <= mono.i <= H - 1 and 0 <= mono.j <= V - 1):
            raise ExponentOutOfRange(
                f"monomial {mono} outside the {H}x{V} exponent box")
        items.append((mono.i, mono.j, int(coeff)))
    values = np.zeros(len(points), dtype=np.int64)
    for t, (x, y) in enumerate(points):
        acc = 0
        for i, j, c in items:
            term = field.mul(c, field.mul(field.pow(x, i), field.pow(y, j)))
            acc = field.add(acc, term)
        values[t] = acc
    return values


def twist_by_point(grid):
    """w_t = 1 / (g_H'(x_t) * g_V'(y_t)) for g_N(Z) = Z^N - Z."""
    field = grid.field

    def deriv(N, z):
        lead = field.mul(N % field.p, field.pow(z, N - 1))
        return field.sub(lead, 1)

    out = np.zeros(grid.n, dtype=np.int64)
    for t, (x, y) in enumerate(build_grid(grid)):
        out[t] = field.inv(field.mul(deriv(grid.H, x), deriv(grid.V, y)))
    return out


def _expand_root_product(field, roots):
    """Coefficients (low to high) of prod (Z - r) over the given roots."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = field.add(nxt[i + 1], c)
            nxt[i] = field.sub(nxt[i], field.mul(r, c))
        coeffs = nxt
    return coeffs


def witness_polynomial(grid, dp):
    """F(X, Y) = prod_{i < floor(h+a)} (X - x_i) * prod_{j < floor(v+b)} (Y - y_j)."""
    field = grid.field
    fa = math.floor(grid.h + dp.a)
    fb = math.floor(grid.v + dp.b)
    xs = _axis_points(field, grid.H)[:fa]
    ys = _axis_points(field, grid.V)[:fb]
    cx = _expand_root_product(field, xs)
    cy = _expand_root_product(field, ys)
    poly = {}
    for i, ci in enumerate(cx):
        if ci == 0:
            continue
        for j, cj in enumerate(cy):
            if cj == 0:
                continue
            poly[Monomial(i, j)] = field.mul(ci, cj)
    return poly


def rref_rows(field, mat):
    """Row-by-row RREF: scan for the pivot, eliminate one row at a time."""
    M = np.array(mat, dtype=np.int64, copy=True)
    rows, n = M.shape
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, rows):
            if M[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        M[r] = field.vscale(field.inv(int(M[r, c])), M[r])
        for i in range(rows):
            if i != r and M[i, c] != 0:
                M[i] = field.vsub(M[i], field.vscale(int(M[i, c]), M[r]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r], tuple(pivots)


def _span(field, rows):
    R, pivots = rref_rows(field, np.stack(rows))
    return LinearCode(field, R.shape[1], R, pivots)


def _dual(code):
    """Euclidean dual from the RREF parity columns, reduced row by row."""
    field, n = code.field, code.n
    free = [c for c in range(n) if c not in set(code.pivots)]
    if not free:
        return zero_code(field, n)
    rows = np.zeros((len(free), n), dtype=np.int64)
    for row, f in enumerate(free):
        rows[row, f] = 1
        for i, pc in enumerate(code.pivots):
            rows[row, pc] = field.neg(int(code.generator[i, f]))
    R, pivots = rref_rows(field, rows)
    return LinearCode(field, n, R, pivots)


def oracle_record(grid, dp):
    """The record by definition; every self-check is an assertion."""
    H, V, field = grid.H, grid.V, grid.field
    a, b = dp.a, dp.b
    delta = tuple(sorted(delta_set(H, V, a, b), key=lambda m: (m.j, m.i)))
    perp = tuple(sorted(delta_perp_set(H, V, a, b), key=lambda m: (m.j, m.i)))
    points = build_grid(grid)

    def ev_rows(monos):
        return [evaluate(field, {m: 1}, points, H, V) for m in monos]

    code = _span(field, ev_rows(delta))
    assert code.k == len(delta)
    mirror = _span(field, ev_rows(perp))
    assert mirror.k == len(perp)
    assert contains(code, mirror)
    w = twist_by_point(grid)
    twisted = _span(field, [field.vmul(w, mirror.generator[i])
                            for i in range(mirror.k)])
    assert _dual(code) == twisted
    wit = evaluate(field, witness_polynomial(grid, dp), points, H, V)
    coset_d = coset_distance_formula(H, V, a, b)
    assert weight(wit) == coset_d
    assert in_row_space(code, wit)
    assert not in_row_space(mirror, wit)
    return GridCodeRecord(
        grid=grid, dp=dp, delta=delta, delta_perp=perp, code=code,
        mirror_code=mirror,
        plain_dual=(H % field.p == 0) and (V % field.p == 0),
        d_formula=min_distance_formula(H, V, a, b), coset_d_formula=coset_d,
        locality=locality_formula(H, V, a, b),
        impure=impurity_predicate(H, V, a, b), witness=wit)


# -- instances ------------------------------------------------------------------

# Every grid instance with q <= 9 and q^|Delta| <= 2^22 (acceptance criterion 5).
CRITERION_5 = (
    (3, 3, 3, 0, 0), (4, 4, 4, 1, 1), (5, 3, 3, 0, 0), (5, 3, 5, 0, 0),
    (5, 3, 5, 0, 1), (5, 5, 3, 0, 0), (5, 5, 3, 1, 0), (7, 3, 3, 0, 0),
    (7, 3, 4, 0, 1), (7, 4, 3, 1, 0), (9, 3, 3, 0, 0),
)
# The benchmark's construct grids, each at its smallest and largest (a, b).
CONSTRUCT_GRIDS = ((13, 13, 13), (19, 19, 7), (16, 16, 16), (64, 10, 10),
                   (25, 9, 9), (81, 9, 9), (27, 14, 3), (6561, 3, 3))
LADDER_ENDS = tuple(sorted({
    (q, H, V, pick(valid_a_values(H)), pick(valid_b_values(V)))
    for q, H, V in CONSTRUCT_GRIDS for pick in (min, max)}))


def _cases():
    for name in ("ex1", "ex1e", "rem3"):
        c = PRESETS[name]
        yield pytest.param(c["q"], c["H"], c["V"], c["a"], c["b"], c["modulus"],
                           c["alpha"], id=name)
    for inst in CRITERION_5 + LADDER_ENDS:
        yield pytest.param(*inst, None, None, id=",".join(map(str, inst)))


@pytest.mark.parametrize("q, H, V, a, b, modulus, alpha", list(_cases()))
def test_build_code_matches_definition(q, H, V, a, b, modulus, alpha):
    field = make_field(*split_prime_power(q), modulus=modulus, primitive=alpha)
    grid = make_grid_params(H, V, field)
    dp = make_delta_params(grid, a, b)
    new = build_code(grid, dp)
    old = oracle_record(grid, dp)
    assert np.array_equal(new.code.generator, old.code.generator)
    assert new.code.pivots == old.code.pivots
    assert np.array_equal(new.mirror_code.generator, old.mirror_code.generator)
    assert np.array_equal(new.witness, old.witness)
    assert np.array_equal(twist_vector(grid), twist_by_point(grid))
    assert new.plain_dual == old.plain_dual
    assert record_to_json(new) == record_to_json(old)


# -- RREF: one array step per pivot against the row-by-row loop ----------------

_RREF_FIELDS = (make_field(7), make_field(2, 4), make_field(3, 3))


@st.composite
def field_matrices(draw):
    field = draw(st.sampled_from(_RREF_FIELDS))
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("dense", "sparse", "low_rank", "zero")))
    if kind == "zero":
        return field, np.zeros((rows, cols), dtype=np.int64)

    def matrix(r, entry):
        return np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                      min_size=r, max_size=r)),
                        dtype=np.int64).reshape(r, cols)

    any_entry = st.integers(0, field.q - 1)
    if kind == "dense":
        return field, matrix(rows, any_entry)
    if kind == "sparse":
        return field, matrix(rows, st.one_of(st.just(0), st.just(0), any_entry))
    # every row is a combination of rank < rows basis rows
    rank = draw(st.integers(0, rows - 1))
    basis = matrix(rank, any_entry)
    coeffs = draw(st.lists(st.lists(any_entry, min_size=rank, max_size=rank),
                           min_size=rows, max_size=rows))
    M = np.zeros((rows, cols), dtype=np.int64)
    for i, row in enumerate(coeffs):
        for t, c in enumerate(row):
            M[i] = field.vadd(M[i], field.vscale(c, basis[t]))
    return field, M


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_rref_matches_row_loop(case):
    field, M = case
    R_new, piv_new = _rref(field, M)
    R_old, piv_old = rref_rows(field, M)
    assert piv_new == piv_old
    assert np.array_equal(R_new, R_old)


# -- the definition-level helpers on known values ------------------------------


def test_build_grid_points(gf5, gf3, gf8):
    g = make_grid_params(5, 3, gf5)
    pts = build_grid(g)
    assert [p[0] for p in pts[::3]] == [0, 2, 4, 3, 1]
    assert [p[1] for p in pts[:3]] == [0, 4, 1]
    assert pts[1 * 3 + 2] == (2, 1)  # index i*V + j

    g3 = make_grid_params(3, 3, gf3)
    assert [p[0] for p in build_grid(g3)[::3]] == [0, 2, 1]

    g8 = make_grid_params(8, 8, gf8)
    assert [p[0] for p in build_grid(g8)[::8]] == [0, 2, 4, 3, 6, 7, 5, 1]


def test_evaluate_known_polynomials(gf5):
    g = make_grid_params(5, 3, gf5)
    pts = build_grid(g)
    # X^4 - 1 vanishes off the x = 0 line
    vec = evaluate(gf5, {Monomial(4, 0): 1, Monomial(0, 0): 4}, pts, 5, 3)
    assert weight(vec) == 3
    assert list(np.nonzero(vec)[0]) == [0, 1, 2]
    vec_x = evaluate(gf5, {Monomial(1, 0): 1}, pts, 5, 3)
    assert weight(vec_x) == 12


def test_witness_polynomial_ex1(gf5, ex1_record):
    g = make_grid_params(5, 3, gf5)
    poly = witness_polynomial(g, make_delta_params(g, 0, 0))
    assert poly == {Monomial(1, 1): 3, Monomial(2, 1): 1}
    assert weight(ex1_record.witness) == ex1_record.coset_d_formula
