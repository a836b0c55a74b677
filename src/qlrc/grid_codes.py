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

A record is fixed by the field and (H, V, a, b), and build_grid_record is
the one way to make it.  It checks that these name a valid instance, then
proves these facts from the band tops and one check per axis, in O(H + V)
work, without forming a generator matrix or evaluating a word:

* Injectivity.  Evaluating every x^i y^j (i < H, j < V) on the grid is
  the Kronecker product of the two axis Vandermonde matrices, invertible
  when each axis has distinct points.  So dim C(Delta) = |Delta|, and a
  codeword lies in C(Delta) exactly when its coefficients lie in Delta.
  build_grid_record requires |Delta| to equal the closed form.
* Duality.  build_grid_record checks that the N points of each axis are
  distinct, the first is 0 and every other z has z^(N-1) = 1.  N - 1
  distinct roots of Z^(N-1) - 1 in GF(q)* make N - 1 divide q - 1, so N - 1
  is a unit mod p, and g_N'(z) = N z^(N-1) - 1 is N - 1 at every root and
  -1 at 0.  The twist w, the outer product of the axis factors
  1 / g_N'(z_s), is nowhere zero, and the twisted inner product of the
  rows of x^i y^j and x^i' y^j' is m_x[i + i'] * m_y[j + j'], with the axis
  moments m_N[e] = sum_s z_s^e / g_N'(z_s), e < 2N - 1.  That is
  [Z^(N-1)] (Z^e mod Z^N - Z) by Lagrange interpolation: 1 at e = N - 1
  and e = 2N - 2, 0 elsewhere.  If band j of Delta reaches i <= I(j) and
  band j' of Delta* reaches i' <= I*(j'), the product vanishes when
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
  and y not among the y_t.
* Coset distance.  The least weight of C(Delta) outside C(Delta*) is
  bounded the same way over the bands where Delta reaches past Delta*
  (band_distances).  build_grid_record requires both distances to equal
  the closed forms.

The generator matrix of C(Delta) is built from the axis points and
row-reduced only when `code` is first read.
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
    QlrcError,
)
from .gf import FieldSpec, field_to_json
from .linear_codes import LinearCode, from_spanning_set


# Largest n * (H + V).  A record costs O(H + V); the cap bounds what costs
# O(n) or more: the staircase of record_to_json (|Delta| entries) and the
# evaluation rows behind `code` and the brute-force oracle.  Its value is
# kept so that no instance changes its exit code.  On a 2-core VM,
# (6679, 6679, 3, 2, 0) builds its record in about 0.25 ms, and a fresh
# process that builds its field and record peaks at about 31 MiB.
GRID_WORK_CAP = 2**27


def _check_grid(q: int, H: int, V: int) -> None:
    """H and V are ints, both at least 3, q is at least 3, and H - 1 and
    V - 1 divide q - 1."""
    if not (isinstance(H, int) and isinstance(V, int)):
        raise ParamRangeViolated("H and V must be integers")
    if H < 3 or V < 3:
        raise ParamRangeViolated(f"need H >= 3 and V >= 3, got H={H}, V={V}")
    if q < 3:
        raise ParamRangeViolated(f"need q >= 3, got q={q}")
    if (q - 1) % (H - 1) != 0:
        raise DivisibilityViolated(f"H-1 = {H - 1} does not divide q-1 = {q - 1}")
    if (q - 1) % (V - 1) != 0:
        raise DivisibilityViolated(f"V-1 = {V - 1} does not divide q-1 = {q - 1}")


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


def band_distances(H: int, tops: np.ndarray,
                   tops_perp: np.ndarray) -> tuple[int, int | None]:
    """(d, coset d) from the band tops of a downset Delta and of Delta*, in
    O(V) and without the field: the least weight of C(Delta), and of
    C(Delta) outside C(Delta*), on an H x V grid of distinct axis points.

    d is the least band corner (H - top(j))(V - j) (the Distance bullet
    above).  Write a word as ev(f), f = sum_j f_j(x) y^j.  It lies outside
    C(Delta*) exactly when some f_j has a monomial past top*(j), so only
    the bands with top(j) > top*(j) count, and over them:

    * coset d is at most the least corner: prod_{s<top(j)} (x - x_s) *
      prod_{t<j} (y - y_t) lies in C(Delta), has x^top(j) y^j outside
      Delta*, and weighs (H - top(j))(V - j);
    * coset d is at least (H - T)(V - J), with T the largest such top and
      J the highest nonempty band of Delta: such an f_j != 0 has at most T
      roots among the x points, so at least H - T columns x = x_s hold a
      nonzero f(x_s, y) of degree at most J, each nonzero at V - J or more
      points.

    The staircase's middle bands share one top and end at J, so the two
    bounds meet.  Where they do not, or no band counts, coset d is None.
    """
    V = len(tops)
    corners = (H - tops) * (V - np.arange(V))
    nonempty = tops >= 0
    d = int(corners[nonempty].min())
    middle = tops > tops_perp
    if not middle.any():
        return d, None
    coset_d = int(corners[middle].min())
    lower = (H - int(tops[middle].max())) * (V - int(np.flatnonzero(nonempty)[-1]))
    return d, coset_d if coset_d == lower else None


def _axis_points(field: FieldSpec, count: int) -> np.ndarray:
    """0 and the (count-1)-th roots of unity alpha^(i*step), in that order."""
    step = (field.q - 1) // (count - 1)
    return np.concatenate(([0], field.vpow(field.primitive, step * np.arange(1, count))))


def _evaluation_rows(field: FieldSpec, xs: np.ndarray, ys: np.ndarray,
                     tops: np.ndarray) -> np.ndarray:
    """Row for X^i Y^j, i <= tops[j]: the outer product of the axis powers
    xs^i and ys^j."""
    i, j = _exponents(tops)
    xi = field.vpow(xs[None, :], i[:, None])
    yj = field.vpow(ys[None, :], j[:, None])
    return field.vmul(xi[:, :, None], yj[:, None, :]).reshape(len(i), -1)


def _axis_moments(N: int) -> np.ndarray:
    """m_N[e] for e < 2N - 1 on an axis of 0 and the (N-1)-th roots of
    unity: 1 at e = N - 1 and e = 2N - 2, 0 elsewhere."""
    m = np.zeros(2 * N - 1, dtype=np.int64)
    m[N - 1::N - 1] = 1
    return m


@dataclass(frozen=True, eq=False)
class GridCodeRecord:
    """A proved grid code on the instance (field, H, V, a, b):
    build_grid_record checked the instance, the axis points, the dimension,
    the duality and both distances, and `forms` holds the closed forms they
    were checked against.  `code` is built from the axis points and
    row-reduced the first time it is read."""

    field: FieldSpec
    H: int
    V: int
    a: int
    b: int
    tops: np.ndarray  # band tops of Delta (delta_tops)
    tops_perp: np.ndarray  # band tops of Delta*
    points: tuple[np.ndarray, np.ndarray]  # the x- and y-axis points
    forms: ClosedForms

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n(self) -> int:
        return self.H * self.V

    @property
    def k(self) -> int:
        return int((self.tops + 1).sum())

    @property
    def plain_dual(self) -> bool:
        """The twist is constant, so C(Delta)^perp is the mirror code itself,
        exactly when p divides H and V."""
        return self.H % self.field.p == 0 and self.V % self.field.p == 0

    @cached_property
    def code(self) -> LinearCode:
        return from_spanning_set(self.field,
                                 _evaluation_rows(self.field, *self.points, self.tops))


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


def named_error(exc: QlrcError, q: int, H: int, V: int, a: int, b: int) -> QlrcError:
    """A copy of exc whose message starts with the instance label, added
    only when the message does not already start with one."""
    message = str(exc)
    if not message.startswith("(q="):
        message = f"{instance_label(q, H, V, a, b)} {message}"
    return type(exc)(message)


def _require_distinct(where: str, axis: str, pts: np.ndarray) -> None:
    ordered = np.sort(pts)
    if (ordered[1:] == ordered[:-1]).any():
        raise InjectivityViolated(
            f"{where} the grid evaluation map is not injective: "
            f"the {axis}-axis points repeat")


def _check_axis(where: str, axis: str, field: FieldSpec, pts: np.ndarray) -> None:
    """The theorems' hypotheses on one axis of N points: they are distinct,
    the first is 0 and every other z has z^(N-1) = 1."""
    _require_distinct(where, axis, pts)
    if pts[0] != 0 or (field.vpow(pts[1:], len(pts) - 1) != 1).any():
        raise DualityViolated(
            f"{where} the {axis}-axis points are not 0 and the roots of Z^{len(pts) - 1} - 1")


def build_grid_record(field: FieldSpec, H: int, V: int,
                      a: int, b: int) -> GridCodeRecord:
    """The proved record of (field, H, V, a, b).  Invalid parameters raise
    InvalidParameter; a failed proof raises an InternalCheckError that
    names the instance."""
    _check_grid(field.q, H, V)
    if H * V * (H + V) > GRID_WORK_CAP:
        raise ParamRangeViolated(
            f"n*(H+V) = {H * V * (H + V)} exceeds the cap {GRID_WORK_CAP}")
    where = instance_label(field.q, H, V, a, b)
    tops, tops_perp = delta_tops(H, V, a, b)
    # a square grid's two axes are one axis: its points are made and checked once
    square = H == V
    xs = _axis_points(field, H)
    _check_axis(where, "x", field, xs)
    ys = xs if square else _axis_points(field, V)
    if not square:
        _check_axis(where, "y", field, ys)

    # C(Delta)^perp = w o C(Delta*): Delta* inside Delta puts the mirror
    # code inside the code; G diag(w) G*^T = 0 with w nowhere zero puts
    # w o C(Delta*) inside the dual, and |Delta| + |Delta*| = n makes the
    # two dimensions equal.
    if not (tops_perp <= tops).all():
        raise DualityViolated(f"{where} Delta* is not contained in Delta")
    k = int((tops + 1).sum())
    size = k + int((tops_perp + 1).sum())
    if size != H * V:
        raise DualityViolated(f"{where} |Delta| + |Delta*| = {size} != n = {H * V}")
    mx = _axis_moments(H)
    if not _twisted_orthogonal(mx, mx if square else _axis_moments(V), tops, tops_perp):
        raise DualityViolated(
            f"{where} the code is not orthogonal to the rescaled mirror code")

    forms = closed_forms(H, V, a, b)
    if k != forms.size:
        raise AssertionFailed(
            f"{where} band tops give |Delta| = {k}, not the closed form {forms.size}")
    d, coset_d = band_distances(H, tops, tops_perp)
    if d != forms.d:
        raise AssertionFailed(f"{where} band corners give d = {d}, not the closed form {forms.d}")
    if coset_d != forms.coset_d:
        raise AssertionFailed(
            f"{where} band corners give coset d = {coset_d}, not the closed form {forms.coset_d}")

    return GridCodeRecord(field, H, V, a, b, tops, tops_perp, (xs, ys), forms)


def record_to_json(rec: GridCodeRecord) -> dict:
    return {
        "H": rec.H,
        "V": rec.V,
        "q": rec.q,
        "a": rec.a,
        "b": rec.b,
        "field": field_to_json(rec.field),
        "delta": np.column_stack(_exponents(rec.tops)).tolist(),
        "n": rec.n,
        "k": rec.k,
        "d_formula": rec.forms.d,
        "coset_d_formula": rec.forms.coset_d,
        "locality": list(rec.forms.locality),
        "impure": rec.forms.impure,
    }
