"""Bivariate evaluation codes on an H x V grid over GF(q).

The grid is {0} union the (H-1)-th roots of unity on the x-axis crossed
with the analogous y-axis set, ordered so that point (i, j) sits at
position i*V + j.  A staircase monomial set Delta(H, V, a, b) spans the
code; its mirror set Delta_perp spans a distinguished subcode.  Each set
is kept as its band tops: band y^j holds x^0 .. x^top(j).  The
Euclidean dual of the code is the mirror code rescaled coordinatewise by
the inverse derivative values of the grid vanishing polynomials
X^H - X and Y^V - Y; the rescaling is constant exactly when p | H and
p | V, in which case the dual and the mirror coincide as codes.

build_code proves these facts from per-axis data, in O(H^2 + V^2 + n)
field operations, without forming a generator matrix:

* Injectivity.  Evaluating every x^i y^j (i < H, j < V) on the grid is
  the Kronecker product of the two axis Vandermonde matrices, invertible
  when each axis has distinct points.  So dim C(Delta) = |Delta|, and a
  codeword lies in C(Delta) exactly when its coefficients lie in Delta.
* Duality.  The twist w is the outer product of the axis factors
  1 / g_N'(z_s), so the twisted inner product of the rows of x^i y^j and
  x^i' y^j' is m_x[i + i'] * m_y[j + j'], with the axis moments
  m_N[e] = sum_s z_s^e / g_N'(z_s), e < 2N - 1.  That is
  [Z^(N-1)] (Z^e mod Z^N - Z) by Lagrange interpolation: 1 at e = N - 1
  and e = 2N - 2, 0 elsewhere; build_code computes the moments rather
  than assuming them.  If band j of Delta reaches i <= I(j) and band j'
  of Delta* reaches i' <= I*(j'), the product vanishes when
  m_y[j + j'] = 0 or I(j) + I*(j') lies below the first nonzero m_x[e].
  With Delta* inside Delta, w nowhere zero and |Delta| + |Delta*| = n,
  that gives C(Delta)^perp = w o C(Delta*).
* Distance.  d(C(Delta)) is the least (H - top(j)) (V - j) over the
  nonempty bands j, where band j of Delta holds x^0 .. x^top(j).  Lower
  bound: by the footprint bound (Geil & Hoholdt, IEEE Trans. IT 46,
  2000), a nonzero codeword whose leading monomial is x^i y^j weighs at
  least (H - i)(V - j), and that monomial lies in Delta, so i <= top(j).
  Upper bound: when x^i y^j is in Delta, prod_{s<i} (x - x_s) *
  prod_{t<j} (y - y_t) has its support in Delta, a downset, and is
  nonzero at exactly the (H - i)(V - j) points with x not among the x_s
  and y not among the y_t.  build_code requires the closed form to equal
  this minimum.
* Witness.  prod_{i<A} (x - x_i) * prod_{j<B} (y - y_j) must evaluate to
  the witness, and its coefficient support must lie in Delta and not
  inside Delta*.  On an axis of N points, beta of order N - 1, the factor
  is Z prod_{i=1..n} (Z - beta^i), n = A - 1 (B - 1).  Cauchy's q-binomial
  theorem (Andrews, The Theory of Partitions, ch. 3), prod_{i<n} (1 +
  beta^i t) = sum_j beta^(j(j-1)/2) [n j] t^j, at t = -beta/Z gives the
  coefficient of Z^(n-j) as (-1)^j beta^(j(j+1)/2) [n j], with [n j] =
  L(n) / (L(j) L(n-j)) and L(k) = prod_{i<=k} (1 - beta^i).  2a < H - 1
  (2b < V - 1) puts n <= N - 3 < ord beta, so no 1 - beta^i vanishes and
  every coefficient is nonzero.

Products and sums over the axes are vprod and vsum reductions of blocks of
at most 2^18 cells: up to that size, a fixed number of array steps.

The generator matrices of C(Delta) and C(Delta*) are built from the axis
points and row-reduced only when `code` or `mirror_code` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    AssertionFailed,
    DivisibilityViolated,
    DualityViolated,
    InjectivityViolated,
    ParamRangeViolated,
    WitnessFailed,
)
from .gf import FieldSpec, field_to_json
from .linear_codes import LinearCode, from_spanning_set


@dataclass(frozen=True)
class GridParams:
    H: int
    V: int
    q: int
    field: FieldSpec

    @property
    def n(self) -> int:
        return self.H * self.V


@dataclass(frozen=True)
class DeltaParams:
    a: int
    b: int


# Largest n * (H + V).  build_code's work is O(H^2 + V^2 + n); a cap on n
# alone would not bound the moment sums, which n * (H + V) >= 3 (H^2 + V^2)
# does ((q, q, 3) near the field cap: n ~ 3 * 2^20, H^2 ~ 2^40).  On a 2-core
# VM, (6679, 6679, 3, 2, 0) and its transpose take about 2.5 s and peak at 37 MiB.
GRID_WORK_CAP = 2**27


def make_grid_params(H: int, V: int, field: FieldSpec) -> GridParams:
    if not (isinstance(H, int) and isinstance(V, int)):
        raise ParamRangeViolated("H and V must be integers")
    if H < 3 or V < 3:
        raise ParamRangeViolated(f"need H >= 3 and V >= 3, got H={H}, V={V}")
    q = field.q
    if q < 3:
        raise ParamRangeViolated(f"need q >= 3, got q={q}")
    if (q - 1) % (H - 1) != 0:
        raise DivisibilityViolated(f"H-1 = {H - 1} does not divide q-1 = {q - 1}")
    if (q - 1) % (V - 1) != 0:
        raise DivisibilityViolated(f"V-1 = {V - 1} does not divide q-1 = {q - 1}")
    if H * V * (H + V) > GRID_WORK_CAP:
        raise ParamRangeViolated(
            f"n*(H+V) = {H * V * (H + V)} exceeds the cap {GRID_WORK_CAP}")
    return GridParams(H, V, q, field)


def _half(x: int) -> str:
    """x/2 as Fraction prints it: '2' for 4, '3/2' for 3."""
    return f"{x}/2" if x % 2 else str(x // 2)


def _check_ab(H: int, V: int, a: int, b: int) -> None:
    """(H-1) % 2 <= a < h and (V-1) % 2 <= b < v, with a < h as 2a < H - 1."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ParamRangeViolated("a and b must be integers")
    if not ((H - 1) % 2 <= a and 2 * a < H - 1):
        raise ParamRangeViolated(f"need {(H - 1) % 2} <= a < {_half(H - 1)}, got a={a}")
    if not ((V - 1) % 2 <= b and 2 * b < V - 1):
        raise ParamRangeViolated(f"need {(V - 1) % 2} <= b < {_half(V - 1)}, got b={b}")


def make_delta_params(grid: GridParams, a: int, b: int) -> DeltaParams:
    _check_ab(grid.H, grid.V, a, b)
    return DeltaParams(a, b)


def valid_a_values(H: int) -> list[int]:
    return list(range((H - 1) % 2, H // 2))  # a < h  <=>  a < H // 2


def valid_b_values(V: int) -> list[int]:
    return list(range((V - 1) % 2, V // 2))


def delta_tops(H: int, V: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The band tops of Delta and Delta*: band y^j holds x^0 .. x^top(j),
    with top(j) = -1 for an empty band.  Bands j < ceil(v - b) are full,
    and bands up to floor(v + b) reach floor(h + a) in Delta and
    ceil(h - a) - 1 in Delta*."""
    _check_ab(H, V, a, b)
    j = np.arange(V)
    full = j < V // 2 - b
    band = j <= (V - 1) // 2 + b
    return (np.where(full, H - 1, np.where(band, (H - 1) // 2 + a, -1)),
            np.where(full, H - 1, np.where(band, H // 2 - a - 1, -1)))


def _exponents(tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of every x^i y^j with i <= tops[j], ordered by j, then i."""
    sizes = tops + 1
    j = np.repeat(np.arange(len(tops)), sizes)
    return np.arange(len(j)) - np.repeat(np.cumsum(sizes) - sizes, sizes), j


class ClosedForms(NamedTuple):
    size: int  # |Delta|, the dimension of C(Delta)
    d: int  # min distance of C(Delta)
    coset_d: int  # min weight of C(Delta) outside C(Delta*)
    locality: tuple[int, int]
    quantum_k: int
    impure: bool


def closed_forms(H: int, V: int, a: int, b: int) -> ClosedForms:
    """Every closed form of the instance, with (a, b) checked once.

    With h = (H-1)/2 and v = (V-1)/2: floor(h + a) = (H-1)//2 + a,
    floor(v + b) = (V-1)//2 + b and ceil(v - b) = V//2 - b.
    """
    _check_ab(H, V, a, b)
    top_i = (H - 1) // 2 + a
    low = V // 2 - b
    coset_d = (H - top_i) * (V - (V - 1) // 2 - b)
    d = min(coset_d, V - (low - 1))  # the band term V - ceil(v - 1 - b)
    return ClosedForms(
        size=low * H + (1 + top_i) * (2 * b + V % 2),
        d=d,
        coset_d=coset_d,
        locality=(V - low, low + 1),
        quantum_k=(2 * a + H % 2) * (2 * b + V % 2),
        impure=coset_d > d,
    )


def _axis_points(field: FieldSpec, count: int) -> np.ndarray:
    """0 and the (count-1)-th roots of unity alpha^(i*step), in that order."""
    step = (field.q - 1) // (count - 1)
    return np.concatenate(([0], field.vpow(field.primitive, step * np.arange(1, count))))


def _outer(field: FieldSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The grid vector with entry xs[i] * ys[j] at position i*V + j."""
    return field.vmul(xs[:, None], ys[None, :]).ravel()


def _evaluation_rows(field: FieldSpec, xs: np.ndarray, ys: np.ndarray,
                     tops: np.ndarray) -> np.ndarray:
    """Row for X^i Y^j, i <= tops[j]: the outer product of the axis powers
    xs^i and ys^j."""
    i, j = _exponents(tops)
    xi = field.vpow(xs[None, :], i[:, None])
    yj = field.vpow(ys[None, :], j[:, None])
    return field.vmul(xi[:, :, None], yj[:, None, :]).reshape(len(i), -1)


_BLOCK_CELLS = 2**18  # cells per block of a reduction: 2 MiB of int64


def _by_blocks(block, rows: int, cols: int) -> np.ndarray:
    """block(r) for consecutive slices r of range(rows), each of at most
    _BLOCK_CELLS // cols rows, concatenated."""
    step = max(1, _BLOCK_CELLS // cols)
    return np.concatenate([block(slice(s, s + step)) for s in range(0, rows, step)])


def _vanishing_values(field: FieldSpec, pts: np.ndarray, count: int) -> np.ndarray:
    """prod_{i < count} (z - pts[i]) at every axis point z: 0 at the roots
    pts[:count], and one product per later point."""
    rest = pts[count:]
    return np.concatenate((np.zeros(count, dtype=np.int64), _by_blocks(
        lambda r: field.vprod(field.vsub(rest[r, None], pts[:count]), 1), len(rest), count)))


def _root_product(field: FieldSpec, pts: np.ndarray, count: int) -> np.ndarray:
    """Coefficients, lowest degree first, of prod_{i < count} (Z - pts[i]) for
    1 <= count < len(pts) axis points, by the q-binomial closed form."""
    n, log_beta = count - 1, (field.q - 1) // (len(pts) - 1)
    # L[k] = log prod_{i=1..k} (1 - beta^i), with 1 - pts[0] = 1 for k = 0
    L = np.cumsum(field.vlog(field.vsub(np.int64(1), pts[:count])))
    j = np.arange(count)
    c = field.vpow(field.primitive,
                   (L[n] - L[j] - L[n - j] + log_beta * (j * (j + 1) // 2)) % (field.q - 1))
    return np.concatenate(([0], np.where(j % 2, field.vneg(c), c)[::-1]))


def _poly_values(field: FieldSpec, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The polynomial with these coefficients, lowest degree first, at every
    point: a block of the Vandermonde matrix of the points times coeffs."""
    es = np.arange(len(coeffs))
    return _by_blocks(lambda r: field.vsum(field.vmul(field.vpow(pts[r, None], es), coeffs), 1),
                      len(pts), len(es))


def _axis_witness(field: FieldSpec, pts: np.ndarray, count: int):
    """One axis factor of the witness: prod_{i < count} (z - pts[i]) at every
    axis point, its coefficients, and the values those coefficients give."""
    coeffs = _root_product(field, pts, count)
    return _vanishing_values(field, pts, count), coeffs, _poly_values(field, coeffs, pts)


def _inv_derivs(field: FieldSpec, pts: np.ndarray, N: int) -> np.ndarray:
    """1 / g_N'(z) = (N z^(N-1) - 1)^(q-2) at every point z; 0 where g_N'(z) = 0."""
    deriv = field.vsub(field.vscale(N % field.p, field.vpow(pts, N - 1)), np.int64(1))
    return field.vpow(deriv, field.q - 2)


def _moments(field: FieldSpec, pts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """m[e] = sum_s weights[s] * pts[s]^e for e < 2 len(pts) - 1."""
    es = np.arange(2 * len(pts) - 1)
    return _by_blocks(lambda r: field.vsum(field.vmul(field.vpow(pts, es[r, None]), weights), 1),
                      len(es), len(pts))


@dataclass(frozen=True, eq=False)
class GridCodeRecord:
    """A proved grid code: build_code checked its dimension, duality and
    witness.  `code` and `mirror_code` are built from the axis points and
    row-reduced the first time they are read."""

    grid: GridParams
    dp: DeltaParams
    tops: np.ndarray  # band tops of Delta (delta_tops)
    tops_perp: np.ndarray  # band tops of Delta*
    plain_dual: bool
    d_formula: int
    coset_d_formula: int
    locality: tuple[int, int]
    impure: bool
    witness: np.ndarray
    points: tuple[np.ndarray, np.ndarray]  # the x- and y-axis points

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def k(self) -> int:
        return int((self.tops + 1).sum())

    @cached_property
    def code(self) -> LinearCode:
        field = self.grid.field
        return from_spanning_set(field, _evaluation_rows(field, *self.points, self.tops))

    @cached_property
    def mirror_code(self) -> LinearCode:
        field = self.grid.field
        return from_spanning_set(field, _evaluation_rows(field, *self.points, self.tops_perp))


def _twisted_orthogonal(mx: np.ndarray, my: np.ndarray,
                        top: np.ndarray, top_p: np.ndarray) -> bool:
    """True when G diag(w) G*^T = 0 for the rows of the band tops top and
    top_p, for a twist w whose axis factors have the moments mx and my.

    Entry (x^i y^j, x^i' y^j') is mx[i + i'] * my[j + j'], and band j holds
    every i <= top(j), band j' of the mirror every i' <= top*(j'), so the
    pair of bands (j, j') is orthogonal exactly when my[j + j'] = 0 or
    top(j) + top*(j') is below the first nonzero entry of mx.  Pairs are
    taken one nonzero my[f], f = j + j', at a time, in O(V) memory.
    """
    lead = np.append(np.flatnonzero(mx), len(mx))[0]
    for f in np.flatnonzero(my):
        j = np.arange(max(0, f - len(top) + 1), min(f, len(top) - 1) + 1)
        sums = top[j] + top_p[f - j]
        if (sums[(top[j] >= 0) & (top_p[f - j] >= 0)] >= lead).any():
            return False
    return True


def instance_label(q: int, H: int, V: int, a: int, b: int) -> str:
    """The (q=..,H=..,V=..,a=..,b=..) prefix that names an instance in errors."""
    return f"(q={q},H={H},V={V},a={a},b={b})"


def _require_distinct(where: str, axis: str, pts: np.ndarray) -> None:
    ordered = np.sort(pts)
    if (ordered[1:] == ordered[:-1]).any():
        raise InjectivityViolated(
            f"{where} the grid evaluation map is not injective: "
            f"the {axis}-axis points repeat")


def build_code(grid: GridParams, dp: DeltaParams) -> GridCodeRecord:
    H, V, field = grid.H, grid.V, grid.field
    a, b = dp.a, dp.b
    where = instance_label(grid.q, H, V, a, b)
    tops, tops_perp = delta_tops(H, V, a, b)
    # a square grid's two axes are one axis: its data is computed once
    square = H == V
    xs = _axis_points(field, H)
    ys = xs if square else _axis_points(field, V)
    _require_distinct(where, "x", xs)
    if not square:
        _require_distinct(where, "y", ys)

    # C(Delta)^perp = w o C(Delta*): Delta* inside Delta puts the mirror
    # code inside the code; G diag(w) G*^T = 0 with w nowhere zero puts
    # w o C(Delta*) inside the dual, and |Delta| + |Delta*| = n makes the
    # two dimensions equal.
    if not (tops_perp <= tops).all():
        raise DualityViolated(f"{where} Delta* is not contained in Delta")
    size = int((tops + 1).sum() + (tops_perp + 1).sum())
    if size != grid.n:
        raise DualityViolated(f"{where} |Delta| + |Delta*| = {size} != n = {grid.n}")
    wx = _inv_derivs(field, xs, H)
    wy = wx if square else _inv_derivs(field, ys, V)
    if not (wx.all() and wy.all()) or not _twisted_orthogonal(
            mx := _moments(field, xs, wx), mx if square else _moments(field, ys, wy),
            tops, tops_perp):
        raise DualityViolated(
            f"{where} the code is not orthogonal to the rescaled mirror code")

    forms = closed_forms(H, V, a, b)
    bands = np.flatnonzero(tops >= 0)
    d = int(((H - tops[bands]) * (V - bands)).min())
    if d != forms.d:
        raise AssertionFailed(f"{where} band corners give d = {d}, not the closed form {forms.d}")
    A, B = (H - 1) // 2 + a, (V - 1) // 2 + b  # floor(h + a), floor(v + b)
    vx, cx, px = _axis_witness(field, xs, A)
    # with a = b too, the y-axis factor is the x-axis one
    vy, cy, py = (vx, cx, px) if square and a == b else _axis_witness(field, ys, B)
    wit = _outer(field, vx, vy)
    if int(np.count_nonzero(wit)) != forms.coset_d:
        raise WitnessFailed(
            f"{where} witness weight {int(np.count_nonzero(wit))} != formula {forms.coset_d}")
    # The evaluation map is a bijection, so the witness is in C(Delta), and
    # outside C(Delta*), exactly as its coefficient support is.
    if not np.array_equal(_outer(field, px, py), wit):
        raise WitnessFailed(f"{where} witness vector is not the evaluation of its polynomial")
    support = np.zeros((H, V), dtype=bool)
    support[:A + 1, :B + 1] = (cx != 0)[:, None] & (cy != 0)[None, :]
    i = np.arange(H)[:, None]  # x^i y^j lies outside band j when i > top(j)
    if (support & (i > tops)).any():
        raise WitnessFailed(f"{where} witness vector is not a codeword")
    if not (support & (i > tops_perp)).any():
        raise WitnessFailed(f"{where} witness vector fell inside the mirror code")

    return GridCodeRecord(
        grid=grid, dp=dp, tops=tops, tops_perp=tops_perp,
        plain_dual=(H % field.p == 0) and (V % field.p == 0),
        d_formula=forms.d, coset_d_formula=forms.coset_d, locality=forms.locality,
        impure=forms.impure, witness=wit, points=(xs, ys))


def build_grid_record(field: FieldSpec, H: int, V: int,
                      a: int, b: int) -> GridCodeRecord:
    """One-call construction from a field and the four grid parameters."""
    grid = make_grid_params(H, V, field)
    return build_code(grid, make_delta_params(grid, a, b))


def record_to_json(rec: GridCodeRecord) -> dict:
    return {
        "H": rec.grid.H,
        "V": rec.grid.V,
        "q": rec.grid.q,
        "a": rec.dp.a,
        "b": rec.dp.b,
        "field": field_to_json(rec.grid.field),
        "delta": np.column_stack(_exponents(rec.tops)).tolist(),
        "n": rec.n,
        "k": rec.k,
        "d_formula": rec.d_formula,
        "coset_d_formula": rec.coset_d_formula,
        "locality": list(rec.locality),
        "impure": rec.impure,
    }
