"""CSS parameter bookkeeping, the brute-force distance check, and the
quadratic-extension lift.

A grid code record names C(Delta) and its mirror subcode C(Delta*) by band
tops; the CSS code built on the pair has length n, dimension
2*dim(code) - n, and distance the minimum weight of code \\ mirror.  No
quantum states are represented; records hold parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssertionFailed, InvalidParameter, NotDualContaining
from .gf import FieldPair, quadratic_extension
from .grid_codes import GridCodeRecord, _evaluation_rows, _exponents
from .linear_codes import LinearCode, _check_budget, _min_weights, _rref, contains, euclidean_dual


@dataclass(frozen=True)
class CssRecord:
    n: int
    k: int
    d: int
    q: int
    pure: bool
    locality: tuple[int, int] | None
    distance_mode: str
    source: dict


def css_from_grid(rec: GridCodeRecord, distance_mode: str = "formula",
                  budget: int | None = None) -> CssRecord:
    if distance_mode not in ("formula", "bruteforce"):
        raise InvalidParameter(f"unknown distance mode {distance_mode!r}")
    source = {
        "type": "grid",
        "H": rec.H,
        "V": rec.V,
        "a": rec.a,
        "b": rec.b,
        "plain_dual": rec.plain_dual,
    }
    if distance_mode == "formula":
        d = rec.forms.coset_d
        d_classical = rec.forms.d
    else:
        d_classical, d = oracle_distances(rec, budget)
        source["oracle_agreement"] = {"d": True, "coset_d": True}

    return CssRecord(
        n=rec.n,
        k=2 * rec.k - rec.n,
        d=d,
        q=rec.q,
        pure=(d_classical == d),
        locality=rec.forms.locality,
        distance_mode=distance_mode,
        source=source,
    )


def oracle_distances(rec: GridCodeRecord, budget: int | None = None) -> tuple[int, int]:
    """(d, coset_d) of the record's code from one brute-force enumeration,
    checked against the closed forms; AssertionFailed when either differs.

    After the budget on q^|Delta|, one matrix is row-reduced: the evaluation
    rows E of Delta, then a 0/1 selector S with one column per x^i y^j of
    Delta outside Delta* (i > top*(j)).  E must reduce to |Delta| pivots
    among its n columns, so c = m E has one message m; Delta* lies in
    Delta, so c is in C(Delta*) exactly when m vanishes off Delta*, that
    is, when m S = 0.  S is the coset syndrome, carried by row reduction.
    """
    field, n = rec.field, rec.n
    _check_budget(field.q, rec.k, budget)
    i, j = _exponents(rec.tops)
    outside = np.flatnonzero(i > rec.tops_perp[j])
    if not outside.size:
        raise InvalidParameter("subcode equals the code; the coset is empty")
    rows = _evaluation_rows(field, *rec.points, rec.tops)
    aug, pivots = _rref(field, np.hstack([rows, np.eye(len(i), dtype=np.int64)[:, outside]]))
    if len(pivots) != len(i) or pivots[-1] >= n:
        raise AssertionFailed("the evaluation rows of Delta are dependent")
    d, coset_d = _min_weights(field, aug, n, pivots)
    if (d, coset_d) != (rec.forms.d, rec.forms.coset_d):
        raise AssertionFailed(
            f"oracle disagrees: d {d} vs {rec.forms.d}, "
            f"coset {coset_d} vs {rec.forms.coset_d}")
    return d, coset_d


@dataclass(frozen=True)
class LiftResult:
    lifted: LinearCode
    pair: FieldPair
    hermitian_dual_code: LinearCode
    dual_containing: bool


def hermitian_lift(code: LinearCode) -> LiftResult:
    """The lift to GF(q^2) of a code C over GF(q) that contains C^perp,
    with its Hermitian dual, by extension of scalars (Ketkar, Klappenecker,
    Kumar and Sarvepalli, IEEE Trans. IT 52, 2006).

    Let e be the embedding of GF(q) in GF(q^2), G the RREF generator of C
    and G' that of C^perp.

    * e is an injective field homomorphism that fixes 0 and 1, so e(G) is
      in RREF with G's pivots: it is the generator of the lift C', and
      dim C' = k.  Likewise e(G') generates a code of dimension n - k.
    * e keeps inner products, e(u).e(v) = e(u.v), so e(G') is orthogonal
      to C'; with dimension n - k it spans the Euclidean dual of C'.
    * The q-Frobenius x -> x^q fixes e(GF(q)), hence every entry of e(G).
      So C' is its own Frobenius image, and its Hermitian dual is its
      Euclidean dual.
    * C^perp lies in C, so e(G') lies in C'.

    Hence `hermitian_dual_code`, generated by e(G'), lies in `lifted`, and
    `dual_containing` holds by proof: nothing is row-reduced over GF(q^2).
    NotDualContaining is raised when C does not contain C^perp.
    """
    dual = euclidean_dual(code)
    if not contains(code, dual):
        raise NotDualContaining(
            "code does not contain its Euclidean dual; the lift is not defined")
    pair = quadratic_extension(code.field)
    return LiftResult(
        lifted=LinearCode(pair.ext, code.n, pair.embed_vector(code.generator), code.pivots),
        pair=pair,
        hermitian_dual_code=LinearCode(
            pair.ext, code.n, pair.embed_vector(dual.generator), dual.pivots),
        dual_containing=True,
    )


def css_record_to_json(rec: CssRecord) -> dict:
    return {
        "n": rec.n,
        "k": rec.k,
        "d": rec.d,
        "q": rec.q,
        "pure": rec.pure,
        "locality": list(rec.locality) if rec.locality is not None else None,
        "distance_mode": rec.distance_mode,
        "source": rec.source,
    }
