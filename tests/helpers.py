"""Definition-level code that only the tests read.

Each function here is either a small convenience for tests or the plain
computation that a proof in `src/` replaced, kept as its oracle:

* `hermitian_lift_by_row_reduction` spans the lift over GF(q^2) and takes
  its Hermitian dual through `frobenius_map` and `hermitian_dual`, where
  `css.hermitian_lift` proves both by extension of scalars.
* `embedding_by_root_search` finds the image of X in GF(q^2) by a scalar
  root search, where `gf.quadratic_extension` runs one vector Horner pass.
* `prime_powers_by_division` factors every integer, where
  `verifier.prime_powers` sieves.
* `monomial_distance` is the footprint (H - i)(V - j) of one monomial, and
  `twist_vector` the grid twist as one vector.
* `monomials` spells band tops out as the set of `Monomial`s they hold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from qlrc import LiftResult, LinearCode, contains, euclidean_dual, from_spanning_set
from qlrc import grid_codes, quadratic_extension
from qlrc.errors import InvalidParameter, NotDualContaining
from qlrc.gf import split_prime_power
from qlrc.linear_codes import _rref


class NotQuadraticExtension(InvalidParameter):
    pass


class ExponentOutOfRange(InvalidParameter):
    pass


class Monomial(NamedTuple):
    i: int
    j: int


def monomials(tops) -> frozenset[Monomial]:
    """Every x^i y^j with i <= tops[j]."""
    return frozenset(Monomial(i, j) for j, top in enumerate(tops) for i in range(top + 1))


def weight(v) -> int:
    return int(np.count_nonzero(np.asarray(v)))


def full_code(field, n: int) -> LinearCode:
    return LinearCode(field, n, np.eye(n, dtype=np.int64), tuple(range(n)))


def codeword(code: LinearCode, message) -> np.ndarray:
    msg = np.asarray(message, dtype=np.int64)
    return code.field.matmul(msg[None, :], code.generator)[0]


def frobenius_map(code: LinearCode, power: int) -> LinearCode:
    """Entrywise x -> x^power; an automorphism image when power = p^t."""
    field = code.field
    R, pivots = _rref(field, field.vpow(code.generator, power))
    return LinearCode(field, code.n, R, pivots)


def hermitian_dual(code: LinearCode) -> LinearCode:
    field = code.field
    if field.m % 2 != 0:
        raise NotQuadraticExtension(
            f"GF({field.q}) is not a quadratic extension; Hermitian dual undefined")
    q0 = field.p ** (field.m // 2)
    return euclidean_dual(frobenius_map(code, q0))


def hermitian_lift_by_row_reduction(code: LinearCode) -> LiftResult:
    """Span the code over GF(q^2) and test Hermitian dual containment."""
    if not contains(code, euclidean_dual(code)):
        raise NotDualContaining(
            "code does not contain its Euclidean dual; the lift is not defined")
    pair = quadratic_extension(code.field)
    rows = [pair.embed_vector(code.generator[i]) for i in range(code.k)]
    lifted = from_spanning_set(pair.ext, rows)
    assert lifted.k == code.k, f"lift changed the dimension: {lifted.k} != {code.k}"
    hd = hermitian_dual(lifted)
    return LiftResult(lifted=lifted, pair=pair, hermitian_dual_code=hd,
                      dual_containing=contains(lifted, hd))


def embedding_by_root_search(field, ext) -> tuple[int, ...]:
    """The images in ext = GF(q^2) of GF(q)'s elements, X mapped to the
    first root of the base modulus in encoding order, one scalar at a time."""
    if field.m == 1:
        return tuple(range(field.q))
    tau = None
    for cand in range(ext.q):
        acc = 0
        for c in reversed(field.modulus):
            acc = ext.add(ext.mul(acc, cand), c % field.p)
        if acc == 0:
            tau = cand
            break
    emb = []
    for v in range(field.q):
        acc = 0
        tp = 1
        for c in field.coeffs(v):
            acc = ext.add(acc, ext.mul(c, tp))
            tp = ext.mul(tp, tau)
        emb.append(acc)
    return tuple(emb)


def prime_powers_by_division(limit: int, start: int = 3) -> tuple[int, ...]:
    """All prime powers q with start <= q <= limit, each q factored."""
    out = []
    for q in range(max(start, 2), limit + 1):
        try:
            split_prime_power(q)
        except InvalidParameter:
            continue
        out.append(q)
    return tuple(out)


def monomial_distance(mono, H: int, V: int) -> int:
    i, j = mono
    if not (0 <= i <= H - 1 and 0 <= j <= V - 1):
        raise ExponentOutOfRange(f"monomial {mono} outside the {H}x{V} exponent box")
    return (H - i) * (V - j)


def twist_vector(grid) -> np.ndarray:
    """w_t = 1 / (g_H'(x_t) * g_V'(y_t)) for g_N(Z) = Z^N - Z, from the
    grid_codes axis helpers as they are at call time."""
    f = grid.field
    return grid_codes._outer(f, *(
        grid_codes._inv_derivs(f, grid_codes._axis_points(f, N), N) for N in (grid.H, grid.V)))
