"""Definition-level construction, kept as the oracle for build_code.

build_code proves a record's dimension, twisted duality and witness from
per-axis data and builds the generator matrices only when they are read.
Two older constructions are kept here.  `oracle_record` is the
definition: every monomial evaluated point by point, the witness
polynomial expanded and evaluated, the row-by-row RREF, and the duality
checked by comparing the full Euclidean dual with the rescaled mirror
code.  `matrix_proof` is the proof build_code ran before it worked on the
axes: two n-column RREFs, one orthogonality product G diag(w) G*^T and
two row-space reductions of the witness.  Records must agree with both
entry for entry, and on corrupted inputs the matrix proof and build_code
must raise the same error class.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    DeltaParams,
    GridParams,
    LinearCode,
    Monomial,
    build_code,
    closed_forms,
    contains,
    delta_perp_set,
    delta_set,
    euclidean_dual,
    from_spanning_set,
    in_row_space,
    make_delta_params,
    make_field,
    make_grid_params,
    record_to_json,
    twist_vector,
    valid_a_values,
    valid_b_values,
    weight,
    zero_code,
)
from qlrc import grid_codes
from qlrc.cli import PRESETS
from qlrc.errors import (
    DualityViolated,
    ExponentOutOfRange,
    InjectivityViolated,
    InternalCheckError,
    WitnessFailed,
)
from qlrc.gf import split_prime_power
from qlrc.linear_codes import _rref, inner_products

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


class OracleRecord(NamedTuple):
    """The fields of a GridCodeRecord, with k taken from the RREF rank."""

    grid: GridParams
    dp: DeltaParams
    delta: tuple
    delta_perp: tuple
    code: LinearCode
    mirror_code: LinearCode
    plain_dual: bool
    d_formula: int
    coset_d_formula: int
    locality: tuple
    impure: bool
    witness: np.ndarray

    @property
    def n(self):
        return self.grid.n

    @property
    def k(self):
        return self.code.k


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
    forms = closed_forms(H, V, a, b)
    assert weight(wit) == forms.coset_d
    assert in_row_space(code, wit)
    assert not in_row_space(mirror, wit)
    return OracleRecord(
        grid=grid, dp=dp, delta=delta, delta_perp=perp, code=code,
        mirror_code=mirror,
        plain_dual=(H % field.p == 0) and (V % field.p == 0),
        d_formula=forms.d, coset_d_formula=forms.coset_d,
        locality=forms.locality, impure=forms.impure, witness=wit)


def matrix_proof(grid, dp):
    """build_code's checks as generator-matrix computations.

    The monomial sets, the axis points, the twist and the vanishing values
    come from the grid_codes functions, looked up at call time, so a test
    that corrupts one of them corrupts this proof and build_code alike.  Returns the
    code, the mirror code and the witness; a failed check raises the error
    build_code raises for it.
    """
    H, V, field = grid.H, grid.V, grid.field
    a, b = dp.a, dp.b
    where = grid_codes.instance_label(grid, dp)
    delta = tuple(sorted(grid_codes.delta_set(H, V, a, b), key=lambda m: (m.j, m.i)))
    perp = tuple(sorted(grid_codes.delta_perp_set(H, V, a, b), key=lambda m: (m.j, m.i)))
    xs = grid_codes._axis_points(field, H)
    ys = grid_codes._axis_points(field, V)
    X = grid_codes._power_table(field, xs)
    Y = grid_codes._power_table(field, ys)

    code = from_spanning_set(field, grid_codes._evaluation_rows(field, X, Y, delta))
    if code.k != len(delta):
        raise InjectivityViolated(f"{where} dim {code.k} != |Delta| {len(delta)}")
    mirror = from_spanning_set(field, grid_codes._evaluation_rows(field, X, Y, perp))
    if mirror.k != len(perp):
        raise InjectivityViolated(f"{where} dim {mirror.k} != |Delta*| {len(perp)}")

    if not set(perp) <= set(delta):
        raise DualityViolated(f"{where} Delta* is not contained in Delta")
    if len(delta) + len(perp) != grid.n:
        raise DualityViolated(f"{where} |Delta| + |Delta*| != n")
    w = grid_codes.twist_vector(grid)
    twisted = field.vmul(w[None, :], mirror.generator)
    if not w.all() or inner_products(field, code.generator, twisted).any():
        raise DualityViolated(f"{where} G diag(w) G*^T != 0")

    wit = grid_codes._outer(
        field, grid_codes._vanishing_values(field, xs, math.floor(grid.h + a)),
        grid_codes._vanishing_values(field, ys, math.floor(grid.v + b)))
    if weight(wit) != grid_codes.closed_forms(H, V, a, b).coset_d:
        raise WitnessFailed(f"{where} witness weight {weight(wit)}")
    if not in_row_space(code, wit):
        raise WitnessFailed(f"{where} witness vector is not a codeword")
    if in_row_space(mirror, wit):
        raise WitnessFailed(f"{where} witness vector fell inside the mirror code")
    return code, mirror, wit


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


INSTANCES = tuple(
    (c["q"], c["H"], c["V"], c["a"], c["b"], c["modulus"], c["alpha"])
    for c in (PRESETS[name] for name in ("ex1", "ex1e", "rem3"))
) + tuple(inst + (None, None) for inst in CRITERION_5 + LADDER_ENDS)
_IDS = ("ex1", "ex1e", "rem3") + tuple(",".join(map(str, inst[:5])) for inst in INSTANCES[3:])


@functools.lru_cache(maxsize=None)
def _grid_and_dp(q, H, V, a, b, modulus, alpha):
    field = make_field(*split_prime_power(q), modulus=modulus, primitive=alpha)
    grid = make_grid_params(H, V, field)
    return grid, make_delta_params(grid, a, b)


@pytest.mark.parametrize("inst", INSTANCES, ids=_IDS)
def test_build_code_matches_definition(inst):
    grid, dp = _grid_and_dp(*inst)
    new = build_code(grid, dp)
    assert "code" not in vars(new) and "mirror_code" not in vars(new)
    old = oracle_record(grid, dp)
    assert np.array_equal(new.code.generator, old.code.generator)
    assert new.code.pivots == old.code.pivots
    assert np.array_equal(new.mirror_code.generator, old.mirror_code.generator)
    assert np.array_equal(new.witness, old.witness)
    assert np.array_equal(twist_vector(grid), twist_by_point(grid))
    assert new.plain_dual == old.plain_dual
    assert record_to_json(new) == record_to_json(old)

    code, mirror, wit = matrix_proof(grid, dp)
    assert np.array_equal(new.code.generator, code.generator)
    assert new.code.pivots == code.pivots
    assert np.array_equal(new.mirror_code.generator, mirror.generator)
    assert np.array_equal(new.witness, wit)


# -- corrupted inputs: build_code and the matrix proof fail alike -------------


def _edited(edit):
    """A patch for a grid_codes function: its result, copied and edited in place."""
    def patch(original):
        def changed(*args):
            out = original(*args).copy()
            edit(args, out)
            return out

        return changed

    return patch


def _outcome(prove, grid, dp):
    """None if `prove` passes, else the class of the error it raised."""
    try:
        prove(grid, dp)
    except InternalCheckError as exc:
        assert str(exc).startswith(grid_codes.instance_label(grid, dp))
        return type(exc)
    return None


@st.composite
def corruptions(draw):
    """An instance, one corruption of it and the error it must raise."""
    grid, dp = _grid_and_dp(*draw(st.sampled_from(INSTANCES)))
    field = grid.field
    kind = draw(st.sampled_from(("twist", "vanishing", "axis", "mirror")))
    if kind == "twist":
        t = draw(st.integers(0, grid.n - 1))
        unit = draw(st.integers(2, field.q - 1))  # encoding 1 is the field's one

        def change(args, w):
            w[t] = field.mul(int(w[t]), unit)

        return grid, dp, "twist_vector", _edited(change), DualityViolated
    if kind == "vanishing":
        N = draw(st.sampled_from((grid.H, grid.V)))
        s = draw(st.integers(0, N - 1))
        shift = draw(st.integers(1, field.q - 1))

        def change(args, values):
            if len(args[1]) == N:
                values[s] = (int(values[s]) + shift) % field.q

        return grid, dp, "_vanishing_values", _edited(change), WitnessFailed
    if kind == "axis":
        dst, src = draw(st.lists(st.integers(0, grid.H - 1), min_size=2, max_size=2,
                                 unique=True))

        def change(args, pts):
            if args[1] == grid.H:
                pts[dst] = pts[src]

        return grid, dp, "_axis_points", _edited(change), InjectivityViolated
    # One mirror band one monomial deeper, paid for by the top of the last
    # full band: Delta* stays inside Delta, keeps its size and its prefix
    # bands, and only the orthogonality can fail.
    perp = delta_perp_set(grid.H, grid.V, dp.a, dp.b)
    tops = {j: max(m.i for m in perp if m.j == j) for j in {m.j for m in perp}}
    j = draw(st.sampled_from(sorted(j for j, top in tops.items() if top < grid.H - 1)))
    full = max(j for j, top in tops.items() if top == grid.H - 1)

    moved, added = Monomial(grid.H - 1, full), Monomial(tops[j] + 1, j)

    def patch(original):
        def deeper(*args):
            return (original(*args) - {moved}) | {added}

        return deeper

    return grid, dp, "delta_perp_set", patch, DualityViolated


@settings(max_examples=120, deadline=None)
@given(corruptions())
def test_corruptions_fail_both_proofs_alike(case):
    grid, dp, name, patch, error = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_codes, name, patch(getattr(grid_codes, name)))
        assert _outcome(build_code, grid, dp) is error
        assert _outcome(matrix_proof, grid, dp) is error


def test_repeated_y_point_fails_the_matrix_proof_on_duality(monkeypatch):
    # Delta holds no y^(V-1), so its rows keep full rank on V-1 distinct y
    # values; build_code names the repeated points, the matrix proof only
    # sees the broken duality.
    grid, dp = _grid_and_dp(*INSTANCES[0])

    def repeat_last_y(args, pts):
        if args[1] == grid.V:
            pts[-1] = pts[-2]

    monkeypatch.setattr(grid_codes, "_axis_points",
                        _edited(repeat_last_y)(grid_codes._axis_points))
    with pytest.raises(InjectivityViolated, match="y-axis points repeat"):
        build_code(grid, dp)
    assert _outcome(matrix_proof, grid, dp) is DualityViolated


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


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_euclidean_dual_matches_row_loop(case):
    field, M = case
    code = from_spanning_set(field, list(M))
    new, old = euclidean_dual(code), _dual(code)
    assert new.pivots == old.pivots
    assert np.array_equal(new.generator, old.generator)


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
