"""Definition-level construction, kept as the oracle for build_grid_record.

build_grid_record proves a record's dimension, twisted duality and distances
from the band tops and one check per axis, and builds the generator
matrices only when they are read.  Two older constructions are kept here.  `oracle_record` is the
definition: every monomial evaluated point by point, the witness
polynomial expanded and evaluated, the row-by-row RREF, and the duality
checked by comparing the full Euclidean dual with the rescaled mirror
code.  `matrix_proof` is the proof build_grid_record ran before it worked on the
axes: two n-column RREFs, one orthogonality product G diag(w) G*^T and
two row-space reductions of the evaluated witness.  Records must agree with both
entry for entry, and on corrupted inputs the matrix proof and
build_grid_record must raise the same error class.

`moment_matrix_orthogonal` is the duality test build_grid_record ran before it
used the rank-one twist: H x (2H - 1) and V x (2V - 1) axis power tables
and the full (2H - 1) x (2V - 1) moment matrix of the twist vector.  The
axis-moment test must agree with it on valid and corrupted instances, and
the evaluated moments and twist must equal the closed forms
build_grid_record takes.
"""

import functools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc import (
    LinearCode,
    build_grid_record,
    closed_forms,
    contains,
    euclidean_dual,
    from_spanning_set,
    in_row_space,
    make_field,
    min_weights_bruteforce,
    record_to_json,
    valid_a_values,
    valid_b_values,
    zero_code,
)
from qlrc import grid_codes
from qlrc.cli import PRESETS
from qlrc.errors import (
    AssertionFailed,
    DualityViolated,
    InjectivityViolated,
    InternalCheckError,
)
from qlrc.gf import FieldSpec, split_prime_power
from qlrc.linear_codes import _rref
from qlrc.verifier import prime_powers
from helpers import (
    ExponentOutOfRange,
    Monomial,
    inv_derivs,
    mirror_code,
    moments,
    monomials,
    outer,
    twist_vector,
    vanishing_values,
    weight,
    witness,
)
from test_closed_form_oracle import ref_delta_perp_set, ref_delta_set

# -- the definition-level construction ----------------------------------------


def _axis_points(field, count):
    step = (field.q - 1) // (count - 1)
    pts = [0]
    for i in range(1, count):
        pts.append(field.pow(field.primitive, i * step))
    return pts


def build_grid(field, H, V):
    """Grid points as (x, y) encodings, position (i, j) -> i*V + j."""
    xs = _axis_points(field, H)
    ys = _axis_points(field, V)
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


def twist_by_point(field, H, V):
    """w_t = 1 / (g_H'(x_t) * g_V'(y_t)) for g_N(Z) = Z^N - Z."""
    def deriv(N, z):
        lead = field.mul(N % field.p, field.pow(z, N - 1))
        return field.sub(lead, 1)

    out = np.zeros(H * V, dtype=np.int64)
    for t, (x, y) in enumerate(build_grid(field, H, V)):
        out[t] = field.inv(field.mul(deriv(H, x), deriv(V, y)))
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


def witness_polynomial(field, H, V, a, b):
    """F(X, Y) = prod_{i < floor(h+a)} (X - x_i) * prod_{j < floor(v+b)} (Y - y_j)."""
    xs = _axis_points(field, H)[:(H - 1) // 2 + a]
    ys = _axis_points(field, V)[:(V - 1) // 2 + b]
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
    """The fields of a GridCodeRecord, with k taken from the RREF rank and
    the band tops read off the monomial tuple delta."""

    field: FieldSpec
    H: int
    V: int
    a: int
    b: int
    delta: tuple
    tops: np.ndarray
    code: LinearCode
    mirror_code: LinearCode
    plain_dual: bool
    forms: grid_codes.ClosedForms
    witness: np.ndarray

    @property
    def q(self):
        return self.field.q

    @property
    def n(self):
        return self.H * self.V

    @property
    def k(self):
        return self.code.k


def oracle_record(field, H, V, a, b):
    """The record by definition; every self-check is an assertion."""
    delta, perp = (tuple(sorted(map(Monomial._make, ref(H, V, a, b)), key=lambda m: (m.j, m.i)))
                   for ref in (ref_delta_set, ref_delta_perp_set))
    tops = np.array([max((m.i for m in delta if m.j == j), default=-1) for j in range(V)])
    points = build_grid(field, H, V)

    def ev_rows(monos):
        return [evaluate(field, {m: 1}, points, H, V) for m in monos]

    code = _span(field, ev_rows(delta))
    assert code.k == len(delta)
    mirror = _span(field, ev_rows(perp))
    assert mirror.k == len(perp)
    assert contains(code, mirror)
    w = twist_by_point(field, H, V)
    twisted = _span(field, [field.vmul(w, mirror.generator[i])
                            for i in range(mirror.k)])
    assert _dual(code) == twisted
    wit = evaluate(field, witness_polynomial(field, H, V, a, b), points, H, V)
    forms = closed_forms(H, V, a, b)
    assert weight(wit) == forms.coset_d
    assert in_row_space(code, wit)
    assert not in_row_space(mirror, wit)
    return OracleRecord(
        field=field, H=H, V=V, a=a, b=b, delta=delta, tops=tops, code=code,
        mirror_code=mirror,
        plain_dual=(H % field.p == 0) and (V % field.p == 0),
        forms=forms, witness=wit)


def matrix_proof(field, H, V, a, b):
    """build_grid_record's checks as generator-matrix computations.

    The band tops, the axis points and the closed forms come from the
    grid_codes functions, looked up at call time, so a test that corrupts
    one of them corrupts this proof and build_grid_record alike.  The
    twist and the witness are evaluated from those axis points.  Returns
    the code, the mirror code and the witness; a failed check raises the
    error build_grid_record raises for it.
    """
    where = grid_codes.instance_label(field.q, H, V, a, b)
    tops, tops_perp = grid_codes.delta_tops(H, V, a, b)
    delta, perp = monomials(tops), monomials(tops_perp)
    xs = grid_codes._axis_points(field, H)
    ys = grid_codes._axis_points(field, V)

    code = from_spanning_set(field, grid_codes._evaluation_rows(field, xs, ys, tops))
    if code.k != len(delta):
        raise InjectivityViolated(f"{where} dim {code.k} != |Delta| {len(delta)}")
    mirror = from_spanning_set(field, grid_codes._evaluation_rows(field, xs, ys, tops_perp))
    if mirror.k != len(perp):
        raise InjectivityViolated(f"{where} dim {mirror.k} != |Delta*| {len(perp)}")

    if not perp <= delta:
        raise DualityViolated(f"{where} Delta* is not contained in Delta")
    if len(delta) + len(perp) != H * V:
        raise DualityViolated(f"{where} |Delta| + |Delta*| != n")
    w = twist_vector(field, H, V)
    twisted = field.vmul(w[None, :], mirror.generator)
    if not w.all() or field.matmul(code.generator, twisted.T).any():
        raise DualityViolated(f"{where} G diag(w) G*^T != 0")

    wit = outer(field, vanishing_values(field, xs, (H - 1) // 2 + a),
                vanishing_values(field, ys, (V - 1) // 2 + b))
    if weight(wit) != grid_codes.closed_forms(H, V, a, b).coset_d:
        raise AssertionFailed(f"{where} witness weight {weight(wit)}")
    if not in_row_space(code, wit):
        raise AssertionFailed(f"{where} witness vector is not a codeword")
    if in_row_space(mirror, wit):
        raise AssertionFailed(f"{where} witness vector fell inside the mirror code")
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
def _instance(q, H, V, a, b, modulus, alpha):
    """(field, H, V, a, b), with the field built once per entry."""
    return make_field(*split_prime_power(q), modulus=modulus, primitive=alpha), H, V, a, b


@pytest.mark.parametrize("inst", INSTANCES, ids=_IDS)
def test_build_code_matches_definition(inst):
    inst = _instance(*inst)
    new = build_grid_record(*inst)
    assert "code" not in vars(new)
    old = oracle_record(*inst)
    assert np.array_equal(new.code.generator, old.code.generator)
    assert new.code.pivots == old.code.pivots
    assert np.array_equal(mirror_code(new).generator, old.mirror_code.generator)
    assert np.array_equal(witness(new).vector, old.witness)
    assert np.array_equal(twist_vector(*inst[:3]), twist_by_point(*inst[:3]))
    assert new.plain_dual == old.plain_dual
    assert record_to_json(new) == record_to_json(old)
    assert record_to_json(new)["delta"] == [list(m) for m in old.delta]

    code, mirror, wit = matrix_proof(*inst)
    assert np.array_equal(new.code.generator, code.generator)
    assert new.code.pivots == code.pivots
    assert np.array_equal(mirror_code(new).generator, mirror.generator)
    assert np.array_equal(witness(new).vector, wit)


# -- corrupted inputs: build_grid_record and the matrix proof fail alike ------


def _edited(edit):
    """A patch for a grid_codes function: its result, copied and edited in place."""
    def patch(original):
        def changed(*args):
            out = original(*args).copy()
            edit(args, out)
            return out

        return changed

    return patch


def _outcome(prove, inst):
    """None if `prove` passes on inst = (field, H, V, a, b), else the class
    of the error it raised."""
    try:
        prove(*inst)
    except InternalCheckError as exc:
        assert str(exc).startswith(grid_codes.instance_label(inst[0].q, *inst[1:]))
        return type(exc)
    return None


def _returning(result):
    """A patch for a grid_codes function: it returns this result."""
    return lambda original: lambda *args: result


@st.composite
def corruptions(draw):
    """An instance, one corruption of it and the error it must raise."""
    inst = _instance(*draw(st.sampled_from(INSTANCES)))
    field, H, V, a, b = inst
    # an axis of q points holds every field element, so no point can leave it
    off_axis = [N for N in (H, V) if N < field.q]
    kind = draw(st.sampled_from(("root", "coset", "axis", "mirror", "band")[not off_axis:]))
    if kind == "root":
        # one axis point replaced by a field element off the axis: the points
        # stay distinct, and the twist evaluated from them breaks the duality
        N = draw(st.sampled_from(off_axis))
        s = draw(st.integers(0, N - 1))
        value = draw(st.sampled_from(
            np.setdiff1d(np.arange(field.q), grid_codes._axis_points(field, N)).tolist()))

        def change(args, pts):
            if args[1] == N:
                pts[s] = value

        return inst, "_axis_points", _edited(change), DualityViolated
    if kind == "coset":
        shift = draw(st.sampled_from((1, -1)))

        def patch(original):
            return lambda *args: original(*args)._replace(coset_d=original(*args).coset_d + shift)

        return inst, "closed_forms", patch, AssertionFailed
    if kind == "axis":
        dst, src = draw(st.lists(st.integers(0, H - 1), min_size=2, max_size=2, unique=True))

        def change(args, pts):
            if args[1] == H:
                pts[dst] = pts[src]

        return inst, "_axis_points", _edited(change), InjectivityViolated
    tops = grid_codes.delta_tops(H, V, a, b)
    if kind == "mirror":
        return inst, "delta_tops", _returning((tops[0], _deeper_mirror_band(draw, H, V, a, b))), \
            DualityViolated
    # one middle top of Delta or of Delta* moved by one: Delta* leaves Delta
    # or |Delta| + |Delta*| leaves n
    tops = [t.copy() for t in tops]
    j = draw(st.sampled_from(np.flatnonzero(tops[0] > tops[1]).tolist()))
    tops[draw(st.integers(0, 1))][j] += draw(st.sampled_from((1, -1)))
    return inst, "delta_tops", _returning(tuple(tops)), DualityViolated


def _deeper_mirror_band(draw, H, V, a, b):
    """The band tops of Delta* with one nonempty band one monomial deeper,
    paid for by the top of the last full band: Delta* stays inside Delta,
    keeps its size and its prefix bands, and only the orthogonality can
    fail."""
    tops = grid_codes.delta_tops(H, V, a, b)[1].copy()
    j = draw(st.sampled_from(np.flatnonzero((tops >= 0) & (tops < H - 1)).tolist()))
    tops[j] += 1
    tops[np.flatnonzero(tops == H - 1)[-1]] -= 1
    return tops


@settings(max_examples=120, deadline=None)
@given(corruptions())
def test_corruptions_fail_both_proofs_alike(case):
    inst, name, patch, error = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_codes, name, patch(getattr(grid_codes, name)))
        assert _outcome(build_grid_record, inst) is error
        assert _outcome(matrix_proof, inst) is error


def test_repeated_y_point_fails_the_matrix_proof_on_duality(monkeypatch):
    # Delta holds no y^(V-1), so its rows keep full rank on V-1 distinct y
    # values; build_grid_record names the repeated points, the matrix proof
    # only sees the broken duality.
    inst = _instance(*INSTANCES[0])

    def repeat_last_y(args, pts):
        if args[1] == inst[2]:
            pts[-1] = pts[-2]

    monkeypatch.setattr(grid_codes, "_axis_points",
                        _edited(repeat_last_y)(grid_codes._axis_points))
    with pytest.raises(InjectivityViolated, match="y-axis points repeat"):
        build_grid_record(*inst)
    assert _outcome(matrix_proof, inst) is DualityViolated


# -- the axis moments against the full moment matrix ---------------------------


def power_table(field, pts):
    """T[s, e] = pts[s]^e for 0 <= e <= 2*(len(pts) - 1), one vmul per column."""
    table = np.ones((len(pts), 2 * len(pts) - 1), dtype=np.int64)
    for e in range(1, table.shape[1]):
        table[:, e] = field.vmul(table[:, e - 1], pts)
    return table


def moment_matrix(field, xs, ys, w):
    """M[e, f] = sum_{s,t} w_{s,t} x_s^e y_t^f, two axis transforms of the
    full twist vector."""
    X, Y = power_table(field, xs), power_table(field, ys)
    return field.matmul(field.matmul(X.T, w.reshape(len(xs), len(ys))), Y)


def moment_matrix_orthogonal(M, top, top_p):
    """The band pair (j, j') passes when top(j) + top*(j') is below the
    first nonzero row of column j + j' of M."""
    nonzero = M != 0
    first = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), M.shape[0])
    j, jp = np.flatnonzero(top >= 0), np.flatnonzero(top_p >= 0)
    return bool((top[j, None] + top_p[None, jp] < first[j[:, None] + jp[None, :]]).all())


def _sides(q):
    return [N for N in range(3, q + 1) if (q - 1) % (N - 1) == 0]


# Every valid instance with q <= 27 and n <= 400.
SMALL = tuple((q, H, V, a, b) for q in prime_powers(27) for H in _sides(q) for V in _sides(q)
              if H * V <= 400 for a in valid_a_values(H) for b in valid_b_values(V))


@st.composite
def moment_cases(draw):
    """Axis points, twist factors and band tops of a small instance: as
    built, with one mirror band one monomial deeper, with one entry of one
    twist factor scaled by a unit other than 1, or with both tops replaced
    by random ones.  The verdict expected of the first
    three is True, False and False; of the last, None (unknown)."""
    field, H, V, a, b = _instance(*draw(st.sampled_from(SMALL)), None, None)
    xs, ys = grid_codes._axis_points(field, H), grid_codes._axis_points(field, V)
    wx, wy = inv_derivs(field, xs, H), inv_derivs(field, ys, V)
    tops, tops_perp = grid_codes.delta_tops(H, V, a, b)
    kind = draw(st.sampled_from(("valid", "deeper band", "twist factor", "random bands")))
    if kind == "deeper band":
        tops_perp = _deeper_mirror_band(draw, H, V, a, b)
    if kind == "twist factor":
        w = draw(st.sampled_from((wx, wy)))
        s = draw(st.integers(0, len(w) - 1))
        w[s] = field.mul(int(w[s]), draw(st.integers(2, field.q - 1)))
    if kind == "random bands":
        bands = st.lists(st.integers(-1, H - 1), min_size=V, max_size=V)
        tops, tops_perp = (np.array(draw(bands)) for _ in range(2))
    return field, xs, ys, wx, wy, tops, tops_perp, {
        "valid": True, "deeper band": False, "twist factor": False}.get(kind)


@settings(max_examples=200, deadline=None)
@given(moment_cases())
def test_axis_moments_match_the_moment_matrix(case):
    field, xs, ys, wx, wy, tops, tops_perp, valid = case
    M = moment_matrix(field, xs, ys, outer(field, wx, wy))
    mx, my = moments(field, xs, wx), moments(field, ys, wy)
    assert np.array_equal(field.vmul(mx[:, None], my[None, :]), M)
    verdict = grid_codes._twisted_orthogonal(mx, my, tops, tops_perp)
    assert verdict == moment_matrix_orthogonal(M, tops, tops_perp)
    assert valid is None or verdict == valid


def test_every_nonzero_moment_is_checked():
    # bands 0 and V - 1 of both tops: the pairs at f = V - 1 pass, and only
    # the pair at f = 2V - 2, the last nonzero m_y[f], breaks orthogonality
    field = make_field(5)
    pts = grid_codes._axis_points(field, 5)
    w = inv_derivs(field, pts, 5)
    m = moments(field, pts, w)
    tops = np.array([0, -1, -1, -1, 2])
    assert not grid_codes._twisted_orthogonal(m, m, tops, tops)
    M = moment_matrix(field, pts, pts, outer(field, w, w))
    assert not moment_matrix_orthogonal(M, tops, tops)
    tops[4] = 1  # the top pair now sums to 3 < H - 1
    assert grid_codes._twisted_orthogonal(m, m, tops, tops)
    assert moment_matrix_orthogonal(M, tops, tops)


def _reduced_top(e, N):
    """[Z^(N-1)] (Z^e mod Z^N - Z): Z^N reduces to Z."""
    while e >= N:
        e -= N - 1
    return int(e == N - 1)


# every axis of every field up to 256, prime and extension; 729: the moments
# of its longest axes are summed over several blocks
@pytest.mark.parametrize("q", prime_powers(256) + (729,))
def test_axis_moments_have_the_closed_form(q):
    # the evaluated twist is -1 at 0 and 1 / (N - 1) at every root, and the
    # evaluated moments are the closed form build_grid_record takes
    field = make_field(*split_prime_power(q))
    for N in [d + 1 for d in range(1, q) if (q - 1) % d == 0]:
        pts = grid_codes._axis_points(field, N)
        w = inv_derivs(field, pts, N)
        assert w.tolist() == [field.neg(1)] + [field.inv((N - 1) % field.p)] * (N - 1)
        m = moments(field, pts, w)
        assert m.tolist() == [_reduced_top(e, N) for e in range(2 * N - 1)]
        assert m.tolist() == [int(e in (N - 1, 2 * N - 2)) for e in range(2 * N - 1)]
        assert np.array_equal(m, grid_codes._axis_moments(N))


# -- the distances against the evaluated witness and brute force -------------


def test_witness_reaches_the_proved_coset_distance():
    """On every instance of SMALL, the evaluated witness weighs the coset
    distance band_distances proves, is nonzero exactly off the roots of its
    two factors, and has its coefficients in Delta and not all in Delta*."""
    classes = set()
    for q, H, V, a, b in SMALL:
        rec = build_grid_record(*_instance(q, H, V, a, b, None, None))
        wit = witness(rec)
        A, B = (H - 1) // 2 + a, (V - 1) // 2 + b
        assert grid_codes.band_distances(H, rec.tops, rec.tops_perp)[1] == (H - A) * (V - B)
        assert weight(wit.vector) == (H - A) * (V - B)
        assert np.array_equal(wit.vector.reshape(H, V) != 0,
                              (np.arange(H) >= A)[:, None] & (np.arange(V) >= B)[None, :])
        assert np.array_equal(wit.evaluated, wit.vector)
        i = np.arange(H)[:, None]  # x^i y^j lies outside band j when i > top(j)
        assert not (wit.support & (i > rec.tops)).any()
        assert (wit.support & (i > rec.tops_perp)).any()
        classes.add((H % 2, V % 2, b > 0, rec.field.p > 2 and rec.field.m > 1))
    # both parities of H and V, b = 0 and b > 0, odd-p extension fields; an
    # even V needs b >= 1
    assert classes == {(h, v, bp, ext) for h in (0, 1) for v in (0, 1) for bp in (False, True)
                       for ext in (False, True) if v or bp}


_WORDS = 2**16  # q^k cap on the codes enumerated below


@st.composite
def band_top_pairs(draw):
    """A small grid, the band tops of a downset Delta with at most _WORDS
    codewords, and band tops of a Delta* inside it with fewer monomials:
    a staircase pair from delta_tops, or a random one."""
    q = draw(st.sampled_from((3, 4, 5, 7, 8, 9)))
    H, V = (draw(st.sampled_from([N for N in _sides(q) if N <= 9])) for _ in range(2))
    shapes = [(a, b) for a in valid_a_values(H) for b in valid_b_values(V)
              if q ** closed_forms(H, V, a, b).size <= _WORDS]
    if shapes and draw(st.booleans()):
        return q, H, V, *grid_codes.delta_tops(H, V, *draw(st.sampled_from(shapes)))
    room = len(np.base_repr(_WORDS - 1, q))  # the largest k with q^k <= _WORDS
    sizes = []
    for _ in range(V):  # band sizes, non-increasing, at most `room` in all
        sizes.append(draw(st.integers(int(not sizes), min(sizes[-1] if sizes else H, room))))
        room -= sizes[-1]
    perp = [draw(st.integers(0, size)) for size in sizes]
    if perp == sizes:
        perp[draw(st.sampled_from(np.flatnonzero(sizes).tolist()))] -= 1
    return q, H, V, np.array(sizes) - 1, np.array(perp) - 1


@settings(max_examples=150, deadline=None)
@given(band_top_pairs())
def test_band_distances_match_brute_force(case):
    """d always, and coset d wherever band_distances proves one, equal the
    least weights min_weights_bruteforce finds by enumeration."""
    q, H, V, tops, tops_perp = case
    field = make_field(*split_prime_power(q))
    xs, ys = grid_codes._axis_points(field, H), grid_codes._axis_points(field, V)
    code, sub = (from_spanning_set(field, grid_codes._evaluation_rows(field, xs, ys, t))
                 if (t >= 0).any() else zero_code(field, H * V) for t in (tops, tops_perp))
    d, coset_d = grid_codes.band_distances(H, tops, tops_perp)
    brute = min_weights_bruteforce(code, sub)
    assert d == brute[0]
    assert coset_d in (None, brute[1])


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
    pts = build_grid(gf5, 5, 3)
    assert [p[0] for p in pts[::3]] == [0, 2, 4, 3, 1]
    assert [p[1] for p in pts[:3]] == [0, 4, 1]
    assert pts[1 * 3 + 2] == (2, 1)  # index i*V + j

    assert [p[0] for p in build_grid(gf3, 3, 3)[::3]] == [0, 2, 1]

    assert [p[0] for p in build_grid(gf8, 8, 8)[::8]] == [0, 2, 4, 3, 6, 7, 5, 1]


def test_evaluate_known_polynomials(gf5):
    pts = build_grid(gf5, 5, 3)
    # X^4 - 1 vanishes off the x = 0 line
    vec = evaluate(gf5, {Monomial(4, 0): 1, Monomial(0, 0): 4}, pts, 5, 3)
    assert weight(vec) == 3
    assert list(np.nonzero(vec)[0]) == [0, 1, 2]
    vec_x = evaluate(gf5, {Monomial(1, 0): 1}, pts, 5, 3)
    assert weight(vec_x) == 12


def test_witness_polynomial_ex1(gf5, ex1_record):
    poly = witness_polynomial(gf5, 5, 3, 0, 0)
    assert poly == {Monomial(1, 1): 3, Monomial(2, 1): 1}
    assert weight(witness(ex1_record).vector) == ex1_record.forms.coset_d
