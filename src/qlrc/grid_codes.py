"""Bivariate evaluation codes on an H x V grid over GF(q).

The grid is {0} union the (H-1)-th roots of unity on the x-axis crossed
with the analogous y-axis set, ordered so that point (i, j) sits at
position i*V + j.  A staircase monomial set Delta(H, V, a, b) spans the
code; its mirror set Delta_perp spans a distinguished subcode.  The
Euclidean dual of the code is the mirror code rescaled coordinatewise by
the inverse derivative values of the grid vanishing polynomials
X^H - X and Y^V - Y; the rescaling is constant exactly when p | H and
p | V, in which case the dual and the mirror coincide as codes.

build_code proves these facts from per-axis data, in O(n * (H + V))
field operations, without forming a generator matrix:

* Injectivity.  Evaluating every x^i y^j (i < H, j < V) on the grid is
  the Kronecker product of the two axis Vandermonde matrices, invertible
  when each axis has distinct points.  So dim C(Delta) = |Delta|, and a
  codeword lies in C(Delta) exactly when its coefficients lie in Delta.
* Duality.  The twisted inner product of the rows of x^i y^j and
  x^i' y^j' is the moment M[i + i', j + j'], where
  M[e, f] = sum_{s,t} w_{s,t} x_s^e y_t^f is two axis transforms of the
  full twist vector w.  If band j of Delta reaches i <= I(j) and band j'
  of Delta* reaches i' <= I*(j'), the product vanishes when
  I(j) + I*(j') lies below the first nonzero entry of column j + j' of M.
  With Delta* inside Delta, w nowhere zero and |Delta| + |Delta*| = n,
  that gives C(Delta)^perp = w o C(Delta*).
* Witness.  prod_{i<A} (x - x_i) * prod_{j<B} (y - y_j) is expanded per
  axis and must evaluate to the witness; its coefficient support must lie
  in Delta and not inside Delta*.

The generator matrices of C(Delta) and C(Delta*) are built and
row-reduced only when a record's `code` or `mirror_code` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    DivisibilityViolated,
    DualityViolated,
    ExponentOutOfRange,
    InjectivityViolated,
    ParamRangeViolated,
    WitnessFailed,
)
from .gf import FieldSpec, field_to_json
from .linear_codes import LinearCode, from_spanning_set


class Monomial(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class GridParams:
    H: int
    V: int
    q: int
    field: FieldSpec

    @property
    def h(self) -> Fraction:
        return Fraction(self.H - 1, 2)

    @property
    def v(self) -> Fraction:
        return Fraction(self.V - 1, 2)

    @property
    def n(self) -> int:
        return self.H * self.V


@dataclass(frozen=True)
class DeltaParams:
    a: int
    b: int


# Largest n * (H + V), the work of build_code.  On a 2-core VM, square
# grids (q, N, N, 2, 2) took 0.8 s at N = 256, 5.5 s at N = 512 and 57 s at
# N = 1024; the H x (2H - 1) axis power table makes thin grids heavier, and
# (6679, 6679, 3, 2, 0), just under the cap, took 4.5 s and 716 MiB.
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
            f"(q={q},H={H},V={V}) n*(H+V) = {H * V * (H + V)} exceeds the cap {GRID_WORK_CAP}")
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


def _staircase(H: int, V: int, b: int, top: int) -> frozenset[Monomial]:
    """Every x^i y^j with j < ceil(v - b), and x^i y^j with i <= top for
    ceil(v - b) <= j <= floor(v + b)."""
    low = V // 2 - b
    return frozenset(Monomial(i, j) for j in range((V - 1) // 2 + b + 1)
                     for i in range(H if j < low else top + 1))


def delta_set(H: int, V: int, a: int, b: int) -> frozenset[Monomial]:
    _check_ab(H, V, a, b)
    return _staircase(H, V, b, (H - 1) // 2 + a)  # i <= floor(h + a)


def delta_perp_set(H: int, V: int, a: int, b: int) -> frozenset[Monomial]:
    _check_ab(H, V, a, b)
    return _staircase(H, V, b, H // 2 - a - 1)  # i < ceil(h - a)


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


def monomial_distance(mono: Monomial, H: int, V: int) -> int:
    i, j = mono
    if not (0 <= i <= H - 1 and 0 <= j <= V - 1):
        raise ExponentOutOfRange(f"monomial {mono} outside the {H}x{V} exponent box")
    return (H - i) * (V - j)


def _axis_points(field: FieldSpec, count: int) -> np.ndarray:
    """0 and the (count-1)-th roots of unity alpha^(i*step), in that order."""
    step = (field.q - 1) // (count - 1)
    pts = [0]
    for i in range(1, count):
        pts.append(field.pow(field.primitive, i * step))
    return np.array(pts, dtype=np.int64)


def _power_table(field: FieldSpec, pts: np.ndarray) -> np.ndarray:
    """T[s, e] = pts[s]^e for 0 <= e <= 2*(len(pts) - 1).

    Exponents below len(pts) give the evaluation rows; the rest reach the
    sums i + i' that the duality moments need.
    """
    table = np.ones((len(pts), 2 * len(pts) - 1), dtype=np.int64)
    for e in range(1, table.shape[1]):
        table[:, e] = field.vmul(table[:, e - 1], pts)
    return table


def _outer(field: FieldSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The grid vector with entry xs[i] * ys[j] at position i*V + j."""
    return field.vmul(xs[:, None], ys[None, :]).ravel()


def _evaluation_rows(field: FieldSpec, X: np.ndarray, Y: np.ndarray,
                     monos) -> np.ndarray:
    """Row for X^i Y^j: the outer product of the power columns X[:, i], Y[:, j]."""
    xi = X.T[[m.i for m in monos]]
    yj = Y.T[[m.j for m in monos]]
    return field.vmul(xi[:, :, None], yj[:, None, :]).reshape(len(monos), -1)


def _vanishing_values(field: FieldSpec, pts: np.ndarray, count: int) -> np.ndarray:
    """prod_{i < count} (z - pts[i]) at every axis point z."""
    out = np.ones(len(pts), dtype=np.int64)
    for i in range(count):
        out = field.vmul(out, field.vsub(pts, pts[i:i + 1]))
    return out


def _root_product(field: FieldSpec, roots: np.ndarray) -> np.ndarray:
    """Coefficients, lowest degree first, of prod (Z - r) over the roots."""
    coeffs = np.ones(1, dtype=np.int64)
    for r in roots:
        coeffs = field.vsub(np.concatenate(([0], coeffs)),
                            field.vscale(int(r), np.concatenate((coeffs, [0]))))
    return coeffs


def twist_vector(grid: GridParams) -> np.ndarray:
    """w_t = 1 / (g_H'(x_t) * g_V'(y_t)) for g_N(Z) = Z^N - Z."""
    field = grid.field

    def inv_deriv(N: int) -> np.ndarray:
        powers = [field.pow(int(z), N - 1) for z in _axis_points(field, N)]
        deriv = field.vsub(field.vscale(N % field.p, np.array(powers)), np.int64(1))
        return np.array([field.inv(int(d)) for d in deriv], dtype=np.int64)

    return _outer(field, inv_deriv(grid.H), inv_deriv(grid.V))


@dataclass(frozen=True, eq=False)
class GridCodeRecord:
    """A proved grid code: build_code checked its dimension, duality and
    witness.  `code` and `mirror_code` are built and row-reduced from the
    axis power tables the first time they are read."""

    grid: GridParams
    dp: DeltaParams
    delta: tuple[Monomial, ...]
    delta_perp: tuple[Monomial, ...]
    plain_dual: bool
    d_formula: int
    coset_d_formula: int
    locality: tuple[int, int]
    impure: bool
    witness: np.ndarray
    powers: tuple[np.ndarray, np.ndarray]  # _power_table of the x- and y-axis

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def k(self) -> int:
        return len(self.delta)

    @cached_property
    def code(self) -> LinearCode:
        field = self.grid.field
        return from_spanning_set(field, _evaluation_rows(field, *self.powers, self.delta))

    @cached_property
    def mirror_code(self) -> LinearCode:
        field = self.grid.field
        return from_spanning_set(field, _evaluation_rows(field, *self.powers, self.delta_perp))


def _sorted_monomials(monos) -> tuple[Monomial, ...]:
    return tuple(sorted(monos, key=lambda m: (m.j, m.i)))


def _exponent_mask(H: int, V: int, monos) -> np.ndarray:
    """mask[i, j] is True exactly when x^i y^j is in monos."""
    mask = np.zeros((H, V), dtype=bool)
    mask[[m.i for m in monos], [m.j for m in monos]] = True
    return mask


def _band_tops(mask: np.ndarray) -> np.ndarray:
    """The largest i with mask[i, j], per column j; -1 for an empty column."""
    return np.where(mask.any(axis=0), mask.shape[0] - 1 - np.argmax(mask[::-1], axis=0), -1)


def _twisted_orthogonal(field: FieldSpec, X: np.ndarray, Y: np.ndarray,
                        w: np.ndarray, in_delta: np.ndarray, in_perp: np.ndarray) -> bool:
    """True when G diag(w) G*^T = 0 for the rows of Delta and Delta*.

    Entry (x^i y^j, x^i' y^j') is the moment M[i + i', j + j'], and every
    i <= top(j), i' <= top*(j'), so the pair of bands (j, j') is orthogonal
    when top(j) + top*(j') is below the first nonzero row of column j + j'.
    That is a sufficient test for any exponent sets and an exact one when
    every band is a prefix 0..top(j), as in Delta and Delta*.
    """
    H, V = in_delta.shape
    M = field.matmul(field.matmul(X.T, w.reshape(H, V)), Y)
    nonzero = M != 0
    first = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), M.shape[0])
    top, top_p = _band_tops(in_delta), _band_tops(in_perp)
    j, jp = np.flatnonzero(top >= 0), np.flatnonzero(top_p >= 0)
    return bool((top[j, None] + top_p[None, jp] < first[j[:, None] + jp[None, :]]).all())


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
    delta = _sorted_monomials(delta_set(H, V, a, b))
    perp = _sorted_monomials(delta_perp_set(H, V, a, b))
    xs = _axis_points(field, H)
    ys = _axis_points(field, V)
    _require_distinct(where, "x", xs)
    _require_distinct(where, "y", ys)
    X = _power_table(field, xs)
    Y = _power_table(field, ys)

    # C(Delta)^perp = w o C(Delta*): Delta* inside Delta puts the mirror
    # code inside the code; G diag(w) G*^T = 0 with w nowhere zero puts
    # w o C(Delta*) inside the dual, and |Delta| + |Delta*| = n makes the
    # two dimensions equal.
    in_delta = _exponent_mask(H, V, delta)
    in_perp = _exponent_mask(H, V, perp)
    if (in_perp & ~in_delta).any():
        raise DualityViolated(f"{where} Delta* is not contained in Delta")
    if len(delta) + len(perp) != grid.n:
        raise DualityViolated(
            f"{where} |Delta| + |Delta*| = {len(delta) + len(perp)} != n = {grid.n}")
    w = twist_vector(grid)
    if not w.all() or not _twisted_orthogonal(field, X, Y, w, in_delta, in_perp):
        raise DualityViolated(
            f"{where} the code is not orthogonal to the rescaled mirror code")
    plain_dual = (H % field.p == 0) and (V % field.p == 0)

    forms = closed_forms(H, V, a, b)
    coset_d = forms.coset_d
    A, B = (H - 1) // 2 + a, (V - 1) // 2 + b  # floor(h + a), floor(v + b)
    wit = _outer(field, _vanishing_values(field, xs, A), _vanishing_values(field, ys, B))
    if int(np.count_nonzero(wit)) != coset_d:
        raise WitnessFailed(
            f"{where} witness weight {int(np.count_nonzero(wit))} != formula {coset_d}")
    # The evaluation map is a bijection, so the witness is in C(Delta), and
    # outside C(Delta*), exactly as its coefficient support is.
    cx = _root_product(field, xs[:A])
    cy = _root_product(field, ys[:B])
    ex = field.matmul(X[:, :A + 1], cx[:, None])[:, 0]
    ey = field.matmul(Y[:, :B + 1], cy[:, None])[:, 0]
    if not np.array_equal(_outer(field, ex, ey), wit):
        raise WitnessFailed(f"{where} witness vector is not the evaluation of its polynomial")
    support = np.zeros((H, V), dtype=bool)
    support[:A + 1, :B + 1] = (cx != 0)[:, None] & (cy != 0)[None, :]
    if (support & ~in_delta).any():
        raise WitnessFailed(f"{where} witness vector is not a codeword")
    if not (support & ~in_perp).any():
        raise WitnessFailed(f"{where} witness vector fell inside the mirror code")

    return GridCodeRecord(
        grid=grid,
        dp=dp,
        delta=delta,
        delta_perp=perp,
        plain_dual=plain_dual,
        d_formula=forms.d,
        coset_d_formula=coset_d,
        locality=forms.locality,
        impure=forms.impure,
        witness=wit,
        powers=(X, Y),
    )


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
        "delta": [[m.i, m.j] for m in rec.delta],
        "n": rec.n,
        "k": rec.k,
        "d_formula": rec.d_formula,
        "coset_d_formula": rec.coset_d_formula,
        "locality": list(rec.locality),
        "impure": rec.impure,
    }
