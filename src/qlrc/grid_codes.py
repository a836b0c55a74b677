"""Bivariate evaluation codes on an H x V grid over GF(q).

The grid is {0} union the (H-1)-th roots of unity on the x-axis crossed
with the analogous y-axis set, ordered so that point (i, j) sits at
position i*V + j.  A staircase monomial set Delta(H, V, a, b) spans the
code; its mirror set Delta_perp spans a distinguished subcode.  The
Euclidean dual of the code is the mirror code rescaled coordinatewise by
the inverse derivative values of the grid vanishing polynomials
X^H - X and Y^V - Y; the rescaling is constant exactly when p | H and
p | V, in which case the dual and the mirror coincide as codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .linear_codes import LinearCode, from_spanning_set, in_row_space, inner_products


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
    return GridParams(H, V, q, field)


def _check_ab(H: int, V: int, a: int, b: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ParamRangeViolated("a and b must be integers")
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    if not ((H - 1) % 2 <= a and a < h):
        raise ParamRangeViolated(f"need {(H - 1) % 2} <= a < {h}, got a={a}")
    if not ((V - 1) % 2 <= b and b < v):
        raise ParamRangeViolated(f"need {(V - 1) % 2} <= b < {v}, got b={b}")


def make_delta_params(grid: GridParams, a: int, b: int) -> DeltaParams:
    _check_ab(grid.H, grid.V, a, b)
    return DeltaParams(a, b)


def valid_a_values(H: int) -> list[int]:
    h = Fraction(H - 1, 2)
    return [a for a in range((H - 1) % 2, H) if a < h]


def valid_b_values(V: int) -> list[int]:
    v = Fraction(V - 1, 2)
    return [b for b in range((V - 1) % 2, V) if b < v]


def delta_set(H: int, V: int, a: int, b: int) -> frozenset[Monomial]:
    _check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    out = set()
    for j in range(V):
        if j < v - b:
            out.update(Monomial(i, j) for i in range(H))
        elif v - b <= j <= v + b:
            out.update(Monomial(i, j) for i in range(H) if i <= h + a)
    return frozenset(out)


def delta_perp_set(H: int, V: int, a: int, b: int) -> frozenset[Monomial]:
    _check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    out = set()
    for j in range(V):
        if j < v - b:
            out.update(Monomial(i, j) for i in range(H))
        elif v - b <= j <= v + b:
            out.update(Monomial(i, j) for i in range(H) if i < h - a)
    return frozenset(out)


def delta_size_formula(H: int, V: int, a: int, b: int) -> int:
    _check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    return math.ceil(v - b) * H + (1 + math.floor(h + a)) * (2 * b + V % 2)


def monomial_distance(mono: Monomial, H: int, V: int) -> int:
    i, j = mono
    if not (0 <= i <= H - 1 and 0 <= j <= V - 1):
        raise ExponentOutOfRange(f"monomial {mono} outside the {H}x{V} exponent box")
    return (H - i) * (V - j)


def min_distance_formula(H: int, V: int, a: int, b: int) -> int:
    _check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    corner = (H - math.floor(h + a)) * (V - math.floor(v + b))
    band = V - math.ceil(v - 1 - b)
    return min(corner, band)


def coset_distance_formula(H: int, V: int, a: int, b: int) -> int:
    _check_ab(H, V, a, b)
    h = Fraction(H - 1, 2)
    v = Fraction(V - 1, 2)
    return (H - math.floor(h + a)) * (V - math.floor(v + b))


def locality_formula(H: int, V: int, a: int, b: int) -> tuple[int, int]:
    _check_ab(H, V, a, b)
    v = Fraction(V - 1, 2)
    return (V - math.ceil(v - b), math.ceil(v - b + 1))


def impurity_predicate(H: int, V: int, a: int, b: int) -> bool:
    return coset_distance_formula(H, V, a, b) > min_distance_formula(H, V, a, b)


def quantum_dimension_formula(H: int, V: int, a: int, b: int) -> int:
    _check_ab(H, V, a, b)
    return (2 * a + H % 2) * (2 * b + V % 2)


def _axis_points(field: FieldSpec, count: int) -> np.ndarray:
    """0 and the (count-1)-th roots of unity alpha^(i*step), in that order."""
    step = (field.q - 1) // (count - 1)
    pts = [0]
    for i in range(1, count):
        pts.append(field.pow(field.primitive, i * step))
    return np.array(pts, dtype=np.int64)


def _power_table(field: FieldSpec, pts: np.ndarray) -> np.ndarray:
    """T[s, e] = pts[s]^e for 0 <= e < len(pts)."""
    table = np.ones((len(pts), len(pts)), dtype=np.int64)
    for e in range(1, len(pts)):
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


def twist_vector(grid: GridParams) -> np.ndarray:
    """w_t = 1 / (g_H'(x_t) * g_V'(y_t)) for g_N(Z) = Z^N - Z."""
    field = grid.field

    def inv_deriv(N: int) -> np.ndarray:
        return np.array([
            field.inv(field.sub(field.mul(N % field.p, field.pow(int(z), N - 1)), 1))
            for z in _axis_points(field, N)], dtype=np.int64)

    return _outer(field, inv_deriv(grid.H), inv_deriv(grid.V))


@dataclass(frozen=True, eq=False)
class GridCodeRecord:
    grid: GridParams
    dp: DeltaParams
    delta: tuple[Monomial, ...]
    delta_perp: tuple[Monomial, ...]
    code: LinearCode
    mirror_code: LinearCode
    plain_dual: bool
    d_formula: int
    coset_d_formula: int
    locality: tuple[int, int]
    impure: bool
    witness: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def k(self) -> int:
        return self.code.k


def _sorted_monomials(monos) -> tuple[Monomial, ...]:
    return tuple(sorted(monos, key=lambda m: (m.j, m.i)))


def instance_label(grid: GridParams, dp: DeltaParams) -> str:
    """The (q=..,H=..,V=..,a=..,b=..) prefix that names an instance in errors."""
    return f"(q={grid.q},H={grid.H},V={grid.V},a={dp.a},b={dp.b})"


def build_code(grid: GridParams, dp: DeltaParams) -> GridCodeRecord:
    H, V, field = grid.H, grid.V, grid.field
    a, b = dp.a, dp.b
    where = instance_label(grid, dp)
    delta = _sorted_monomials(delta_set(H, V, a, b))
    perp = _sorted_monomials(delta_perp_set(H, V, a, b))
    xs = _axis_points(field, H)
    ys = _axis_points(field, V)
    X = _power_table(field, xs)
    Y = _power_table(field, ys)

    code = from_spanning_set(field, _evaluation_rows(field, X, Y, delta))
    if code.k != len(delta):
        raise InjectivityViolated(
            f"{where} evaluation map dropped rank: dim {code.k} != |Delta| {len(delta)}")
    mirror = from_spanning_set(field, _evaluation_rows(field, X, Y, perp))
    if mirror.k != len(perp):
        raise InjectivityViolated(
            f"{where} evaluation map dropped rank on the mirror set: "
            f"{mirror.k} != {len(perp)}")

    # C(Delta)^perp = w o C(Delta*): Delta* inside Delta puts the mirror
    # code inside the code; G diag(w) G*^T = 0 with w nowhere zero puts
    # w o C(Delta*) inside the dual, and |Delta| + |Delta*| = n makes the
    # two dimensions equal.
    if not set(perp) <= set(delta):
        raise DualityViolated(f"{where} Delta* is not contained in Delta")
    if len(delta) + len(perp) != grid.n:
        raise DualityViolated(
            f"{where} |Delta| + |Delta*| = {len(delta) + len(perp)} != n = {grid.n}")
    w = twist_vector(grid)
    twisted = field.vmul(w[None, :], mirror.generator)
    if not w.all() or inner_products(field, code.generator, twisted).any():
        raise DualityViolated(
            f"{where} the code is not orthogonal to the rescaled mirror code")
    plain_dual = (H % field.p == 0) and (V % field.p == 0)

    d_formula = min_distance_formula(H, V, a, b)
    coset_d = coset_distance_formula(H, V, a, b)
    wit = _outer(field, _vanishing_values(field, xs, math.floor(grid.h + a)),
                 _vanishing_values(field, ys, math.floor(grid.v + b)))
    if int(np.count_nonzero(wit)) != coset_d:
        raise WitnessFailed(
            f"{where} witness weight {int(np.count_nonzero(wit))} != formula {coset_d}")
    if not in_row_space(code, wit):
        raise WitnessFailed(f"{where} witness vector is not a codeword")
    if in_row_space(mirror, wit):
        raise WitnessFailed(f"{where} witness vector fell inside the mirror code")

    return GridCodeRecord(
        grid=grid,
        dp=dp,
        delta=delta,
        delta_perp=perp,
        code=code,
        mirror_code=mirror,
        plain_dual=plain_dual,
        d_formula=d_formula,
        coset_d_formula=coset_d,
        locality=locality_formula(H, V, a, b),
        impure=impurity_predicate(H, V, a, b),
        witness=wit,
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
